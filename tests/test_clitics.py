import io

import pytest

from morfo.clitics import CliticSplitter, load_pronoun_table, strip_stress_accents
from morfo.errors import LoadError
from morfo.features import Gender, Number, Person, Pos


def test_dame(splitter):
    split = splitter.split_clitics("dame")
    assert (split.verb_part, split.clitics) == ("da", ("me",))
    me = split.pronoun_features[0]
    assert (me.pos, me.person, me.number) == (Pos.PRONOUN, Person.FIRST, Number.SINGULAR)


def test_damelo_two_clitics_and_accent_removal(splitter):
    split = splitter.split_clitics("dámelo")
    assert (split.verb_part, split.clitics) == ("da", ("me", "lo"))
    lo = split.pronoun_features[1]
    assert (lo.person, lo.number, lo.gender) == (Person.THIRD, Number.SINGULAR, Gender.MALE)


def test_infinitive_and_gerund_hosts(splitter):
    assert splitter.split_clitics("darme").verb_part == "dar"
    assert splitter.split_clitics("dándonos").verb_part == "dando"
    assert splitter.split_clitics("comprarlo").verb_part == "comprar"


def test_nouns_with_pseudo_clitic_endings_stay_whole(splitter):
    for token in ("casa", "tela", "vamos", "paseos"):
        split = splitter.split_clitics(token)
        assert split.clitics == ()
        assert split.verb_part == token


def test_split_reconstructs_original(splitter):
    for token in ("dame", "dámelo", "comprarlo", "dándonos"):
        split = splitter.split_clitics(token)
        rebuilt = split.verb_part + "".join(split.clitics)
        assert strip_stress_accents(rebuilt) == strip_stress_accents(token)


def test_idempotence(splitter):
    for token in ("dame", "dámelo", "casa"):
        split = splitter.split_clitics(token)
        again = splitter.split_clitics(split.verb_part)
        assert again.clitics == ()


def test_inventory_closure_and_validation_gate(splitter, generation_set):
    from morfo.analyzer import Provenance
    from morfo.features import Mood

    inventory = set(splitter.pronouns)
    forms = sorted({form for _r, form, _i, _f in generation_set})[::17]
    for token in forms:
        split = splitter.split_clitics(token)
        assert set(split.clitics) <= inventory
        assert len(split.clitics) <= 2
        if split.clitics:
            hosted = splitter.analyzer.analyze(split.verb_part, Pos.VERB)
            assert any(
                a.provenance is not Provenance.DEFAULT_FALLBACK
                and a.features.mood in (Mood.IMPERATIVE, Mood.INFINITIVE, Mood.GERUND)
                for a in hosted)


def test_pronoun_table_loading():
    table = load_pronoun_table(io.StringIO("pronoun\tperson\tnumber\tgender\nme\tfirst\tsingular\t\n"))
    assert table["me"].person is Person.FIRST
    reordered = io.StringIO("Gender\tnumber\tpronoun\tperson\n\tsingular\tme\tfirst\n")
    assert load_pronoun_table(reordered) == table
    with pytest.raises(LoadError):
        load_pronoun_table(io.StringIO("pronoun\tperson\n"))
    with pytest.raises(LoadError, match="line 2"):
        load_pronoun_table(io.StringIO("pronoun\tperson\tnumber\tgender\nme\tfourth\t\t\n"))


def test_strip_stress_accents():
    assert strip_stress_accents("dándoselo") == "dandoselo"
    assert strip_stress_accents("ñoño") == "ñoño"
