import io

import pytest

from morfo.derivers import Lemmatizer, Nominalizer, load_nominal_flags
from morfo.errors import LoadError
from morfo.features import Pos


def test_llego_lemmatizes_to_llegar(lemmatizer):
    assert lemmatizer.lemmatize("llegó") == "llegar"


def test_infinitive_is_fixed_point(lemmatizer):
    assert lemmatizer.lemmatize("amar") == "amar"


def test_acusado_with_verb_hint(lemmatizer):
    assert lemmatizer.lemmatize("acusado", Pos.VERB) == "acusar"


def test_unknown_word_lemmatizes_to_itself(lemmatizer):
    assert lemmatizer.lemmatize("xyzal") == "xyzal"


def test_idempotence(lemmatizer, generation_set):
    for _root, form, _i, _f in generation_set[::37]:
        once = lemmatizer.lemmatize(form)
        assert lemmatizer.lemmatize(once) == lemmatizer.lemmatize(once)


def test_agrees_with_preferred_analysis(lemmatizer, analyzer, generation_set):
    for _root, form, _i, _f in generation_set[::53]:
        assert lemmatizer.lemmatize(form) == analyzer.preferred_analysis(form).lemma


def test_generation_round_trip_for_unambiguous_verbs(lemmatizer, generation_set):
    by_form = {}
    for root, form, _i, features in generation_set:
        # irregular forms (first letter changed) count whatever their pos
        if features.pos is Pos.VERB or root[0] != form[0]:
            by_form.setdefault(form, set()).add(root)
    checked = 0
    for form, roots in by_form.items():
        if len(roots) == 1:
            assert lemmatizer.lemmatize(form, Pos.VERB) == next(iter(roots)), form
            checked += 1
    assert checked > 1000


def test_nominalize_crear(nominalizer):
    assert nominalizer.nominalize("crear") == "creación"


def test_nominalize_conjugated_form(nominalizer):
    assert nominalizer.nominalize("creó") == "creación"


def test_nominalize_unflagged_verb_is_absent(nominalizer):
    assert nominalizer.nominalize("amar") is None


def test_nominalize_unknown_word_is_absent(nominalizer):
    assert nominalizer.nominalize("xyzear") is None


def test_nominal_output_properties(nominalizer, lemmatizer, lexicon, nominal_flags):
    suffixes = ("ación", "ición", "amiento", "imiento", "ador", "edor", "idor")
    seen = 0
    for entry in lexicon:
        if not any(f in nominal_flags for f in entry.flags):
            continue
        nominal = nominalizer.nominalize(entry.root)
        assert nominal is not None and nominal.endswith(suffixes), entry.root
        assert lemmatizer.lemmatize(nominal, Pos.NOUN) in (nominal, entry.root)
        seen += 1
    assert seen >= 5


def test_load_nominal_flags():
    assert load_nominal_flags(io.StringIO("# c\nN\nR\n")) == {"N", "R"}
    with pytest.raises(LoadError, match="line 1"):
        load_nominal_flags(io.StringIO("NR\n"))


def test_single_nominal_flag_lint(analyzer):
    import morfo.lexicon as mlex

    lex = mlex.load_dictionary(io.StringIO("crear/VNC\n"))
    bad = Lemmatizer(analyzer.__class__(lex, analyzer.rules, analyzer.defaults))
    with pytest.raises(LoadError, match="crear"):
        Nominalizer(bad, {"N", "C"})


def test_single_nominal_flag_lint_names_the_first_entry_in_file_order(analyzer):
    from morfo.lexicon import load_dictionary

    lexicon = load_dictionary(["amar/VN", "zumbar/VCN", "abrir/V", "crear/VNC", "comer/VCN"])
    bad = Lemmatizer(analyzer.__class__(lexicon, analyzer.rules, analyzer.defaults))
    with pytest.raises(LoadError) as info:
        Nominalizer(bad, {"N", "C"})
    assert str(info.value) == "entry 'zumbar' carries multiple nominalization flags: CN"


def test_memoization_is_invisible(lemmatizer, analyzer):
    first = lemmatizer.lemmatize("llegó")
    second = lemmatizer.lemmatize("llegó")
    assert first == second == "llegar"
