import io
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from morfo import cache, features, resources, rules as rules_module
from morfo.analyzer import Analyzer
from morfo.coes_import import import_rules
from morfo.errors import LoadError
from morfo.features import FeatureSet, Mood, Number, Person, Pos, Tense
from morfo.lexicon import LexEntry, Lexicon
from morfo.rules import (
    MorphRule,
    RuleTable,
    apply_rule,
    dump_rules,
    expand_entry,
    load_cached_rules,
    load_rules,
    parse_stem_pattern,
)
from morfo.resources import data_path

FIXTURES = Path(__file__).parent / "fixtures"

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
    with pytest.raises(LoadError, match=r"^line 2: 11 cells for 10 columns$"):
        _table("V\tar\to\tverb\t\t\t\t\t\t\tplural")
    assert len(_table("V\tar\to\tverb\t\t\t\t\t\t\t \t")) == 1  # trailing empty cells


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
            parse_stem_pattern(bad)


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


# Letters of the random patterns and roots: a few plain ones and every
# accented letter the seed data uses.
MATCH_ALPHABET = "aenrsáéíóúñ"
_match_token = st.one_of(
    st.sampled_from(MATCH_ALPHABET),
    st.builds(lambda negated, letters: "[" + "^" * negated + "".join(sorted(letters)) + "]",
              st.booleans(), st.sets(st.sampled_from(MATCH_ALPHABET), min_size=1, max_size=3)))


def _old_regex(context, replaced):
    """The regex a pattern of these tokens once compiled to: the context, then the
    replaced part as group 1, at the end of the root."""
    def body(tokens):
        return "".join(t if t.startswith("[") else re.escape(t) for t in tokens)
    return re.compile(body(context) + "(" + body(replaced) + ")$")


@settings(max_examples=300, deadline=None)
@given(context=st.lists(_match_token, max_size=2), marker=st.booleans(),
       replaced=st.lists(_match_token, max_size=3),
       morph_ending=st.text(alphabet=MATCH_ALPHABET, max_size=3),
       roots=st.lists(st.text(alphabet=MATCH_ALPHABET, min_size=1, max_size=6), min_size=1,
                      max_size=12, unique=True))
def test_position_tests_match_as_the_old_regex(context, marker, replaced, morph_ending, roots):
    """``apply_rule`` agrees with a search of the regex the pattern once compiled to, and
    the analyzer's context check agrees with ``apply_rule`` on every candidate root."""
    marked = marker or context
    stem_ending = (f"(?<={''.join(context)})" if marked else "") + "".join(replaced)
    rule = MorphRule.build("V", stem_ending, morph_ending, FeatureSet, rule_id=1)
    regex = _old_regex(context, replaced)
    for root in roots:
        match = regex.search(root)
        expected = None if match is None else root[:match.start(1)] + morph_ending
        assert apply_rule(root, rule) == expected, root
    analyzer = Analyzer(Lexicon(dict.fromkeys(roots, ("V",))), RuleTable([rule]), [])
    # Every word that strips to a candidate root: a root less a tail that
    # the replaced part matches, plus the morph ending.
    tail = _old_regex([], replaced)
    surfaces = {root[:len(root) - len(replaced)] + morph_ending for root in roots
                if tail.search(root)}
    for surface in surfaces - {""}:
        assert sorted(analyzer._walk(surface, None)[0]) == sorted(
            (root, rule) for root in roots if apply_rule(root, rule) == surface), surface


# -- the rules cache ----------------------------------------------------------


def _settled_copy(tmp_path, data: bytes):
    """A rule file holding ``data``, dated back past the cache's settling time."""
    path = tmp_path / "rules.tsv"
    path.write_bytes(data)
    old = os.stat(path).st_mtime_ns - 2 * cache.SETTLE_NS
    os.utime(path, ns=(old, old))
    return path


def _load_cached(path):
    with open(path, "rb") as stream:
        return load_cached_rules(stream)


def _fail(_source):
    raise AssertionError("parsed, not loaded from the cache")


@pytest.mark.parametrize("source", ["seed", "fig1.aff"])
def test_cached_rules_equal_a_fresh_parse(source, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if source == "seed":
        data = data_path("rules.tsv").read_bytes()
    else:
        with open(FIXTURES / source, "rb") as stream:
            data = dump_rules(import_rules(stream)).encode("utf-8")
    fresh = load_rules(io.BytesIO(data))
    path = _settled_copy(tmp_path, data)
    first = _load_cached(path)
    with monkeypatch.context() as patch:
        patch.setattr(rules_module, "load_rules", _fail)
        cached = _load_cached(path)
    for loaded in (first, cached):
        assert loaded.rules == fresh.rules
        assert (loaded.by_flag, loaded.by_id) == (fresh.by_flag, fresh.by_id)
        # Equal features are one FeatureSet, as load_rules makes them.
        assert (len({id(rule.features) for rule in loaded.rules})
                == len({rule.features for rule in fresh.rules}))
    assert dump_rules(cached.rules) == dump_rules(fresh.rules)


@pytest.mark.parametrize("change", ["rules.py", "resources.py", "features.py", "cache.py",
                                    "format"])
def test_new_rule_parsing_code_parses_the_table_again(change, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = _settled_copy(tmp_path, (HEADER + "\nV\t(?<=[^cg])er\to\tverb\t\t\t\t\t\t\n").encode())
    expected = _load_cached(path).rules
    if change == "format":
        monkeypatch.setattr(cache, "CACHE_FORMAT", cache.CACHE_FORMAT + 1)
    else:  # the same module, at another size and time
        module = {"rules.py": rules_module, "resources.py": resources, "features.py": features,
                  "cache.py": cache}[change]
        edited = tmp_path / change
        edited.write_text(Path(module.__file__).read_text(encoding="utf-8") + "\n",
                          encoding="utf-8")
        monkeypatch.setattr(module, "__file__", str(edited))
    parses = []
    monkeypatch.setattr(rules_module, "load_rules",
                        lambda source: parses.append(source) or load_rules(source))
    assert _load_cached(path).rules == expected
    assert len(parses) == 1
    assert _load_cached(path).rules == expected  # from the entry that parse replaced
    assert len(parses) == 1
