import io

import pytest

from morfo.errors import LoadError
from morfo.features import FeatureSet, Mood, Number, Person, Pos, Tense
from morfo.lexicon import LexEntry
from morfo.rules import (
    apply_rule,
    compile_stem_pattern,
    expand_entry,
    load_rules,
)

HEADER = "flag\tstem ending\tmorph ending\tpos\tgender\tnumber\tperson\tmood\ttense\tanimate"


def _table(*rows):
    return load_rules(io.StringIO("\n".join([HEADER, *rows]) + "\n"))


def _rule(stem, morph, flag="V"):
    table = _table(f"{flag}\t{stem}\t{morph}\tverb\t\t\t\t\t\t")
    return table.rules[0]


def test_first_person_present_row():
    table = _table("V\tar\to\tverb\t\tsingular\tfirst\tindicative\tpresent\t")
    rule = table.rules[0]
    assert apply_rule("amar", rule) == "amo"
    assert rule.features == FeatureSet(pos=Pos.VERB, number=Number.SINGULAR,
                                       person=Person.FIRST, mood=Mood.INDICATIVE,
                                       tense=Tense.PRESENT)


def test_context_only_plural_row():
    table = _table("S\t(?<=[a])\ts\tnoun\tfemale\tplural\t\t\t\t")
    rule = table.rules[0]
    assert rule.replaced == ()
    assert apply_rule("vaca", rule) == "vacas"


def test_header_only_table_is_empty():
    assert len(_table()) == 0


def test_load_errors_name_the_row():
    with pytest.raises(LoadError, match="line 1"):
        load_rules(io.StringIO("flag\tbogus column\n"))
    with pytest.raises(LoadError, match=r"^line 1: duplicate column name\(s\): pos$"):
        load_rules(io.StringIO(HEADER + "\tpos\n"))
    with pytest.raises(LoadError, match="line 2"):
        _table("V\ta+r\to\tverb\t\t\t\t\t\t")
    with pytest.raises(LoadError, match="line 2"):
        _table("V\tar\to\tverb\t\t\t\t\tyesterday\t")
    with pytest.raises(LoadError, match="line 2"):
        _table("V\tar\to\tnoun\t\t\t\tindicative\t\t")


def test_apply_rule_fig1_pairs():
    assert apply_rule("amar", _rule("ar", "o")) == "amo"
    assert apply_rule("vencer", _rule("cer", "zo")) == "venzo"
    contextual = _rule("(?<=[^cg])er", "o")
    assert apply_rule("comer", contextual) == "como"
    assert apply_rule("coger", contextual) is None
    assert apply_rule("amar", _rule("(?<=[a])", "s", flag="S")) is None


def test_context_is_preserved_verbatim():
    rule = _rule("(?<=[^cg])er", "o")
    assert apply_rule("temer", rule) == "temo"  # the m matched by the class stays


def test_identity_rule_matches_everything():
    rule = _rule("", "")
    assert apply_rule("amar", rule) == "amar"


def test_whole_root_replacement():
    rule = _rule("ser", "fue", flag="B")
    assert apply_rule("ser", rule) == "fue"


def test_pattern_dialect_rejects_everything_else():
    for bad in ("a*r", "(ar)", "a|o", "[ar", "(?<=[a])x(?<=[b])", "a.r", "[]er"):
        with pytest.raises(ValueError):
            compile_stem_pattern(bad)


def test_by_flag_buckets_preserve_file_order(rule_table):
    seen = 0
    for flag, bucket in rule_table.by_flag.items():
        ids = [r.rule_id for r in bucket]
        assert ids == sorted(ids)
        seen += len(bucket)
    assert seen == len(rule_table.rules)


def test_expand_entry_fig1_forms(lexicon, rule_table):
    vaca = LexEntry("vaca", lexicon.flags["vaca"])
    vaca_forms = {f.form for f in expand_entry(vaca, rule_table)}
    assert "vacas" in vaca_forms
    tabu = LexEntry("tabú", lexicon.flags["tabú"])
    tabu_forms = {f.form for f in expand_entry(tabu, rule_table)}
    assert "tabúes" in tabu_forms


def test_expand_entry_unknown_flag_is_skipped(rule_table, capsys):
    assert expand_entry(LexEntry("qqq", ("9",)), rule_table) == []
    assert capsys.readouterr().err == "morfo: entry 'qqq': unknown flag '9' skipped\n"


def test_expand_entry_no_flags(rule_table):
    assert expand_entry(LexEntry("qqq", ()), rule_table) == []


def test_expand_entry_leaves_out_the_empty_form():
    table = _table("V\ta\t\tverb\t\t\t\t\t\t", "V\ta\to\tverb\t\t\t\t\t\t")
    assert apply_rule("a", table.rules[0]) == ""  # the whole root rewritten to nothing
    assert [f.form for f in expand_entry(LexEntry("a", ("V",)), table)] == ["o"]
    assert [f.form for f in expand_entry(LexEntry("ca", ("V",)), table)] == ["c", "co"]


def test_expansion_is_deterministic(lexicon, rule_table):
    entry = LexEntry("amar", lexicon.flags["amar"])
    assert expand_entry(entry, rule_table) == expand_entry(entry, rule_table)


def test_rules_carry_the_line_they_were_read_from():
    table = load_rules(io.StringIO("# rules\n\n" + HEADER + "\n"
                                   "V\tar\to\tverb\t\t\t\t\t\t\n"
                                   "# a comment\n"
                                   "S\t-\ts\tnoun\t\t\t\t\t\t\n"))
    assert [(rule.rule_id, rule.line_no) for rule in table.rules] == [(1, 4), (2, 6)]
    assert _rule("ar", "o").line_no == 2
