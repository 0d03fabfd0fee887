import io
from pathlib import Path

from morfo.coes_import import (
    check_examples,
    convert_accents,
    import_rules,
    rows_to_tsv,
)
from morfo.features import Number, Person, Tense
from morfo.rules import load_rules

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
    table = load_rules(io.StringIO(rows_to_tsv(rows)))
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
    source = "flag *V:\n    A R > -ER, O\n    A R > -AR, O\n"
    with caplog.at_level("WARNING"):
        rows = import_rules(io.StringIO(source))
    assert len(rows) == 1
    assert "row skipped" in caplog.text


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
