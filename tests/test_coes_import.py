import io
from itertools import takewhile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from morfo.coes_import import (
    check_examples,
    convert_accents,
    import_rules,
)
from morfo.features import Number, Person, Tense
from morfo.rules import apply_rule, dump_rules, load_rules

FIXTURE = Path(__file__).parent / "fixtures" / "fig1.aff"


def _import_fixture(**kwargs):
    with open(FIXTURE, encoding="utf-8") as stream:
        return import_rules(stream, **kwargs)


def test_convert_accents():
    assert convert_accents("tab'u") == "tabú"
    assert convert_accents("espa~nol") == "español"
    assert convert_accents("amar") == "amar"
    assert convert_accents("'Arbol") == "Árbol"
    assert convert_accents("ma~nana 'niño") == "mañana ñiño"


def test_dangling_quote_passes_through(caplog):
    with caplog.at_level("WARNING"):
        assert convert_accents("x'z") == "x'z"
    assert "dangling" in caplog.text


def test_fixture_rows_match_expected():
    rows = _import_fixture()
    got = [(r.flag, r.stem_ending, r.morph_ending) for r in rows]
    assert got == [
        ("V", "ar", "o"),
        ("V", "(?<=[^cg])er", "o"),
        ("V", "cer", "zo"),
        ("V", "ger", "jo"),
        ("S", "(?<=[aeiouáéó])", "s"),
        ("S", "(?<=[úídjlmry])", "es"),
    ]


def test_comment_keyword_hints():
    rows = _import_fixture()
    assert all(r.features.tense is Tense.PRESENT for r in rows if r.flag == "V")
    assert all(r.features.number is Number.PLURAL for r in rows if r.flag == "S")
    # no mood keyword appears anywhere in the excerpt
    assert all(r.features.mood is None for r in rows)


def test_examples_are_extracted_and_verified():
    rows = _import_fixture()
    assert [r.example for r in rows] == [
        ("amar", "amo"), ("comer", "como"), ("vencer", "venzo"), ("coger", "cojo"),
        ("vaca", "vacas"), ("tabú", "tabúes"),
    ]
    assert check_examples(rows) == []


def test_flag_blocklist():
    rows = _import_fixture(skip_flags="S")
    assert {r.flag for r in rows} == {"V"}


def test_flag_multiset_is_lossless():
    rows = _import_fixture()
    assert sorted(r.flag for r in rows) == ["S", "S", "V", "V", "V", "V"]


def test_output_loads_as_rule_table():
    rows = _import_fixture()
    table = load_rules(io.StringIO(dump_rules(rows)))
    assert len(table) == len(rows)
    from morfo.rules import apply_rule

    amar_rule = table.by_flag["V"][0]
    assert apply_rule("amar", amar_rule) == "amo"


def test_whole_root_irregular_rule():
    source = "flag *B:\n    S E R > -SER, FUE   # ser fue\n"
    rows = import_rules(io.StringIO(source))
    assert [(r.stem_ending, r.morph_ending) for r in rows] == [("ser", "fue")]
    assert check_examples(rows) == []


def test_unparseable_rule_warns_and_continues(caplog):
    source = "flag *V:\n    A R > -ER, O\n    A R > -AR, O\n    [AE] R > -[AE]R, O\n"
    with caplog.at_level("WARNING"):
        rows = import_rules(io.StringIO(source))
    assert len(rows) == 1
    assert "line 2: " in caplog.text and "row skipped" in caplog.text
    # Ispell strips a literal string, so a class in REMOVED has no meaning.
    assert "line 4: removed ending '[ae]r' is not a string of letters; row skipped" in caplog.text


def test_no_keyword_section_leaves_features_blank():
    source = "flag *X: # seccion sin pistas\n    A > B\n"
    rows = import_rules(io.StringIO(source))
    assert rows[0].features.as_dict() == {k: None for k in rows[0].features.as_dict()}


def test_infer_person_cycles_within_block():
    source = (
        "flag *V: # PRESENTE\n"
        "    A R > -AR, O\n"
        "    A R > -AR, AS\n"
        "    A R > -AR, A\n"
        "    A R > -AR, AMOS\n"
        "    A R > -AR, 'AIS\n"
        "    A R > -AR, AN\n"
    )
    rows = import_rules(io.StringIO(source), infer_person=True)
    got = [(r.features.person, r.features.number) for r in rows]
    assert got == [
        (Person.FIRST, Number.SINGULAR), (Person.SECOND, Number.SINGULAR),
        (Person.THIRD, Number.SINGULAR), (Person.FIRST, Number.PLURAL),
        (Person.SECOND, Number.PLURAL), (Person.THIRD, Number.PLURAL),
    ]
    plain = import_rules(io.StringIO(source))
    assert all(r.features.person is None for r in plain)


def test_prefix_section_is_skipped_with_one_warning(caplog):
    source = ["prefixes", "flag *R:", "    H A C E R > DES  # hacer deshacer",
              "suffixes", "flag *V:", "    A R > -AR, O  # amar amo"]
    with caplog.at_level("WARNING"):
        rows = import_rules(source)
    assert [(r.flag, r.stem_ending, r.morph_ending) for r in rows] == [("V", "ar", "o")]
    assert [r.getMessage() for r in caplog.records] == [
        "line 1: prefixes section skipped; only suffix rules are imported"]


def test_only_rule_text_warns_of_dangling_escapes_naming_the_line(caplog):
    # fig1.aff's prose "regulares ''amar'' PRESENTE" holds quotes, but no rule does
    with caplog.at_level("WARNING"):
        _import_fixture()
        assert caplog.records == []
        import_rules(["flag *X: # x'z", "    X'Z > S  # x'z ~z"])
    assert [r.getMessage() for r in caplog.records] == [
        "line 2: dangling \"'\" before 'Z' left unchanged",
        "line 2: unsupported character \"'\" in context \"x'z\"; row skipped",
    ]


# Root letters, and how an affix file writes each of them.
_WRITTEN = {"a": "A", "e": "E", "n": "N", "r": "R", "s": "S", "á": "'A", "é": "'E", "ñ": "~N"}
_LETTER = st.sampled_from(sorted(_WRITTEN))
# A condition token: one letter, or a class as (negated, letters).
_TOKEN = _LETTER | st.tuples(st.booleans(), st.frozensets(_LETTER, min_size=1, max_size=3))


@st.composite
def _ispell_rule(draw):
    """(condition, removed, added): a suffix rule of the restricted Ispell dialect."""
    condition = draw(st.lists(_TOKEN, max_size=3))
    literal_tail = len(list(takewhile(lambda t: isinstance(t, str), reversed(condition))))
    removed = ""
    if literal_tail and draw(st.booleans()):
        removed = "".join(condition[len(condition) - draw(st.integers(1, literal_tail)):])
    return condition, removed, draw(st.text(sorted(_WRITTEN), max_size=3))


def _written(token) -> str:
    if isinstance(token, str):
        return "".join(_WRITTEN[c] for c in token)
    negated, letters = token
    return "[" + "^" * negated + "".join(_WRITTEN[c] for c in sorted(letters)) + "]"


def _ispell_line(condition, removed, added) -> str:
    rhs = f"-{_written(removed)}, {_written(added)}" if removed else _written(added)
    return f"    {' '.join(_written(t) for t in condition)} > {rhs}"


def _ispell_apply(root, condition, removed, added):
    """What Ispell makes of ``root``: the condition tested on its tail, REMOVED
    stripped, ADDED appended; None when the condition fails."""
    if len(root) < len(condition):
        return None
    tail = root[len(root) - len(condition):]
    for ch, token in zip(tail, condition):
        negated, letters = (False, {token}) if isinstance(token, str) else token
        if (ch in letters) == negated:
            return None
    return root[:len(root) - len(removed)] + added


_SECTIONS = st.lists(st.tuples(
    st.sampled_from("ABV"),
    st.sampled_from(["", "# PRESENTE", "# plural", "# pret'erito subjuntivo"]),
    st.lists(_ispell_rule(), min_size=1, max_size=4),
), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(sections=_SECTIONS, infer_person=st.booleans(), data=st.data())
def test_import_round_trip_matches_a_reference_ispell_matcher(sections, infer_person, data):
    source = ["suffixes"]
    rules = []
    for flag, comment, section_rules in sections:
        source.append(f"flag *{flag}: {comment}")
        source.extend(_ispell_line(*rule) for rule in section_rules)
        rules.extend(section_rules)
    rows = import_rules(source, infer_person=infer_person)
    assert len(rows) == len(rules)

    table = load_rules(io.StringIO(dump_rules(rows)))
    assert ([(r.flag, r.stem_ending, r.morph_ending, r.features) for r in table.rules]
            == [(r.flag, r.stem_ending, r.morph_ending, r.features) for r in rows])

    roots = data.draw(st.lists(st.text(sorted(_WRITTEN), min_size=1, max_size=5), max_size=5))
    for row, (condition, removed, added) in zip(rows, rules):
        # and one root that meets the condition, so matches are not left to chance
        fitting = "".join(t if isinstance(t, str) else data.draw(
            st.sampled_from(sorted(_WRITTEN.keys() - t[1] if t[0] else t[1]))) for t in condition)
        for root in [*roots, data.draw(st.text(sorted(_WRITTEN), max_size=2)) + fitting]:
            assert apply_rule(root, row) == _ispell_apply(root, condition, removed, added), root


def test_infer_person_output_is_unchanged():
    """The rule table that ``import-coes --infer-person`` writes for a file of three hint blocks."""
    source = (
        "flag *V: # PRESENTE indicativo\n"
        "    A R > -AR, O  # amar amo\n"
        "    A R > -AR, AS\n"
        "    A R > -AR, A\n"
        "    A R > -AR, AMOS\n"
        "    A R > -AR, 'AIS\n"
        "    A R > -AR, AN\n"
        "    A R > -AR, E\n"
        "# futuro\n"
        "    A R > -AR, AR'E\n"
        "    A R > -AR, AR'AS\n"
        "# plural\n"
        "    A R > -AR, AMOS\n"
    )
    rows = import_rules(io.StringIO(source), infer_person=True)
    assert [row.line_no for row in rows] == [2, 3, 4, 5, 6, 7, 8, 10, 11, 13]
    assert [row.example for row in rows] == [("amar", "amo")] + [None] * 9
    assert dump_rules(rows).splitlines()[1:] == [
        "V\tar\to\t\t\tsingular\tfirst\tindicative\tpresent\t",
        "V\tar\tas\t\t\tsingular\tsecond\tindicative\tpresent\t",
        "V\tar\ta\t\t\tsingular\tthird\tindicative\tpresent\t",
        "V\tar\tamos\t\t\tplural\tfirst\tindicative\tpresent\t",
        "V\tar\táis\t\t\tplural\tsecond\tindicative\tpresent\t",
        "V\tar\tan\t\t\tplural\tthird\tindicative\tpresent\t",
        "V\tar\te\t\t\tsingular\tfirst\tindicative\tpresent\t",
        "V\tar\taré\t\t\tsingular\tfirst\t\tfuture\t",
        "V\tar\tarás\t\t\tsingular\tsecond\t\tfuture\t",
        "V\tar\tamos\t\t\tplural\t\t\t\t",
    ]
    with open(FIXTURE, encoding="utf-8") as stream:
        fixture = dump_rules(import_rules(stream, infer_person=True))
    assert fixture.splitlines()[1:] == [
        "V\tar\to\t\t\tsingular\tfirst\t\tpresent\t",
        "V\t(?<=[^cg])er\to\t\t\tsingular\tsecond\t\tpresent\t",
        "V\tcer\tzo\t\t\tsingular\tthird\t\tpresent\t",
        "V\tger\tjo\t\t\tplural\tfirst\t\tpresent\t",
        "S\t(?<=[aeiouáéó])\ts\t\t\tplural\t\t\t\t",
        "S\t(?<=[úídjlmry])\tes\t\t\tplural\t\t\t\t",
    ]
