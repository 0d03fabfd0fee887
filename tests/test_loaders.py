import io

import pytest
from hypothesis import example, given, settings, strategies as st

from morfo import resources
from morfo.analyzer import load_default_table
from morfo.clitics import load_pronoun_table
from morfo.coes_import import import_rules
from morfo.conll_eval import load_mapping, parse_conll
from morfo.derivers import load_nominal_flags
from morfo.errors import LoadError
from morfo.lexicon import load_dictionary
from morfo.resources import data_path
from morfo.rules import load_rules

PACKAGED_MAPPING = load_mapping(
    data_path("conll_mapping.tsv").read_text(encoding="utf-8").splitlines())

# Cells that the loaders give meaning to, so that generated tables get past
# their headers and into the row parsers.
_CELL = st.sampled_from([
    "", "#", "-", "*", "_", "Y", "1", "V", "S", "\ufeff", "amar/V", "/V", "me",
    "flag", "stem ending", "morph_ending", "ending", "pronoun", "pos", "gender", "number",
    "person", "mood", "tense", "animate", "verb", "noun", "male", "singular",
    "first", "indicative", "participle", "present", "inanimate", "bogus",
    "ar", "o", "(?<=[a])", "[^cg]er", "(?<=", "[ar",
    "feat", "v", "gen=m", "pos=noun", "mood=indicative", "postype=x", "gen=m|mood=indicative",
]) | st.text(max_size=3)
_TEXT = st.lists(st.lists(_CELL, max_size=15).map("\t".join), max_size=6).map("\n".join)
# The same kind of lines as raw bytes, mixed with arbitrary ones: invalid UTF-8,
# a byte-order mark, CR.
_BYTE_CELL = _CELL.map(str.encode) | st.binary(max_size=4) | st.sampled_from(
    [b"\xef\xbb\xbf", b"\xff", b"\xe9", b"\r"])
_BYTES = st.lists(st.lists(_BYTE_CELL, max_size=15).map(b"\t".join), max_size=6).map(b"\n".join)


def _load(loader, text):
    """The loaded value, or None when the loader rejects ``text`` with a LoadError."""
    try:
        return loader(io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text))
    except LoadError:
        return None


@settings(max_examples=400, deadline=None)
@given(text=_TEXT, conll=_TEXT, data=_BYTES)
# feat rows that combine into a noun with a mood, which FeatureSet rejects
@example(text="feat\tpostype=x\tpos=noun\nfeat\tmood=indicative\tmood=indicative\n",
         conll="1\tamo\tamar\t_\tv\t_\tpostype=x|mood=indicative" + "\t_" * 7,
         data=b"\xef\xbb\xbf\n\xff\n")
def test_every_loader_loads_or_raises_load_error(text, conll, data):
    for source in (text, data):
        for loader in (load_dictionary, load_rules, load_default_table, load_pronoun_table,
                       load_nominal_flags, import_rules):
            _load(loader, source)
    for m in filter(None, (PACKAGED_MAPPING, _load(load_mapping, text), _load(load_mapping, data))):
        for source in (conll, data):
            _load(lambda stream: parse_conll(stream, m), source)


def test_byte_order_mark_is_dropped_from_data_files():
    lexicon = load_dictionary(["\ufeffamar/V\n"])
    assert lexicon.flags == {"amar": ("V",)}
    header = "flag\tstem ending\tmorph ending\tpos\tgender\tnumber\tperson\tmood\ttense\tanimate"
    table = load_rules(["\ufeff" + header + "\n", "V\tar\to\tverb\n"])
    assert table.rules[0].morph_ending == "o"
    assert load_nominal_flags(["\ufeff# a comment\n", "N\n"]) == {"N"}


def test_bytes_are_decoded_and_crlf_endings_dropped():
    # the last column, a sense with no ".NN" suffix, is the gold lemma, so a kept CR shows
    row = "3\tllegó\tllegar\tllegar\tv\tv\t_\t_\t0\t0\t_\t_\tY\tllegar"
    [record] = parse_conll([("\ufeff" + row + "\r\n").encode("utf-8")], PACKAGED_MAPPING)
    # a BOM left on the ID column would fail the parse as a non-numeric token id
    assert (record.form, record.gold_lemma) == ("llegó", "llegar")


# -- block boundaries ----------------------------------------------------------

_RULES_HEADER = "flag\tstem ending\tmorph ending\tpos\tgender\tnumber\tperson\tmood\ttense\tanimate"
_DEFAULTS_HEADER = "ending\tpos\tgender\tnumber\tperson\tmood\ttense\tanimate"
_PRONOUNS_HEADER = "pronoun\tperson\tnumber\tgender"
_LONG = "desafortunadamente"  # longer than every block size below

# Well-formed files: a byte-order mark on line 1, CRLF endings, a line longer
# than a block, no final newline, and a byte-order mark at the start of a
# later line, which is kept as part of it (in the rule table it makes a bad
# flag; see _INVALID). At a block size of 1 every line starts a block.
_VALID = {
    load_dictionary: "\ufeff# roots\r\namar/V\r\n" + _LONG + "/S\r\n\r\n\ufeffvaca/S\r\namar/N",
    load_rules: ("\ufeff" + _RULES_HEADER + "\r\nV\tar\to\tverb\t\tsingular\tfirst\tindicative"
                 "\tpresent\t\r\n# " + _LONG + "\r\nS\t-\ts\tnoun\t\tplural\t\t\t\t\r\n"
                 "V\t(?<=[aeiou])r\tremos\tverb\t\tplural\tfirst\tindicative\tfuture\t"),
    load_default_table: ("\ufeff" + _DEFAULTS_HEADER + "\r\nción\tnoun\tfemale\tsingular\r\n"
                         + _LONG + "\tadjective\r\n\ufeffsión\tnoun\r\n*\tnoun\tmale\tsingular"),
    load_pronoun_table: "\ufeff" + _PRONOUNS_HEADER + "\r\nme\tfirst\tsingular\t\r\n"
                        + "\r\n" * 3 + "\ufeffnos\tfirst\tplural\t",
}

# Files that fail in a later block: (loader, text, message, line). "\udce9" stands for
# the byte 0xE9, which is not UTF-8, so that text is given to bytes sources only. In
# a file with two faults, the first is named whichever block the second falls in.
_INVALID = [
    (load_dictionary, "amar/V\nvaca/S\n" + _LONG + "/S\ncaf\udce9/S\nmesa/S\n", "invalid UTF-8", 4),
    (load_dictionary, "amar/V\n/S\ncaf\udce9/S\n", "empty root", 2),
    (load_dictionary, "amar/V\nvaca/S\n" + _LONG + "/S\namar/V9\n",
     "invalid flag character '9' in 'amar/V9'", 4),
    (load_rules,
     _RULES_HEADER + "\nV\tar\to\tverb\t\t\t\t\t\t\n# " + _LONG + "\nV\tar\t\xe9\udce9\n",
     "invalid UTF-8", 4),
    (load_rules, _RULES_HEADER + "\nV\tar\to\tverb\t\t\t\t\t\t\n# " + _LONG
     + "\nV\tar\to\tbogus\t\t\t\t\t\t\n", "invalid pos value 'bogus'", 4),
    (load_rules, _RULES_HEADER + "\nV\tar\to\tverb\t\t\t\t\t\t\n\ufeffV\tar\to\tverb\t\t\t\t\t\t\n",
     "flag must be a single character, got '\\ufeffV'", 3),
    (load_default_table, _DEFAULTS_HEADER + "\n*\tnoun\n" + _LONG + "\tnoun\nñ\udce9\tnoun\n",
     "invalid UTF-8", 4),
    (load_default_table, _DEFAULTS_HEADER + "\n*\tnoun\n" + _LONG + "\tnoun\n\tnoun\n",
     "empty ending cell (use '*' for the catch-all row)", 4),
    (load_default_table, _DEFAULTS_HEADER + "\n*\tnoun\n\tnoun\nñ\udce9\tnoun\n",
     "empty ending cell (use '*' for the catch-all row)", 3),
    (load_pronoun_table,
     _PRONOUNS_HEADER + "\nme\tfirst\tsingular\t\n\n\n\ufeffnos\tfirst\t\udce9\t\n",
     "invalid UTF-8", 5),
    (load_pronoun_table, _PRONOUNS_HEADER + "\nme\tfirst\tsingular\t\n\n\n\tfirst\tplural\t\n",
     "empty pronoun cell", 5),
]


def _as_bytes(text):
    return text.encode("utf-8", "surrogateescape")


_SOURCES = {
    "bytes stream": lambda text: io.BytesIO(_as_bytes(text)),
    "text stream": io.StringIO,
    "bytes lines": lambda text: _as_bytes(text).splitlines(keepends=True),
    "text lines": lambda text: text.splitlines(keepends=True),
    "bytes lines without ends": lambda text: _as_bytes(text).splitlines(),  # as in the README
}


def _outcome(loader, source):
    """What ``loader`` makes of ``source``, in a form that compares by value."""
    try:
        value = loader(source)
    except LoadError as exc:
        return "error", str(exc), exc.line_no
    if loader is load_dictionary:
        value = list(value.flags.items())
    elif loader is load_rules:
        value = [(rule, rule.line_no) for rule in value.rules]
    return "loaded", value


@pytest.mark.parametrize("read_size", [1, 5, 13])
@pytest.mark.parametrize("loader", list(_VALID), ids=lambda loader: loader.__name__)
def test_block_boundaries_do_not_change_what_loads(loader, read_size, monkeypatch):
    text = _VALID[loader]
    expected = _outcome(loader, text.splitlines())  # one line per item, at the default size
    monkeypatch.setattr(resources, "READ_SIZE", read_size)
    assert expected[0] == "loaded"
    for kind, make in _SOURCES.items():
        assert _outcome(loader, make(text)) == expected, kind


def test_what_the_block_boundary_files_load():
    assert _outcome(load_dictionary, _VALID[load_dictionary].splitlines()) == ("loaded", [
        ("amar", ("V", "N")), (_LONG, ("S",)), ("\ufeffvaca", ("S",))])
    _, rules = _outcome(load_rules, _VALID[load_rules].splitlines())
    assert [line_no for _rule, line_no in rules] == [2, 4, 5]


@pytest.mark.parametrize("read_size", [1, 5, 13, 2048])
@pytest.mark.parametrize("loader, text, message, line_no", _INVALID,
                         ids=lambda value: getattr(value, "__name__", None))
def test_block_boundaries_do_not_change_the_error(loader, text, message, line_no, read_size,
                                                   monkeypatch):
    monkeypatch.setattr(resources, "READ_SIZE", read_size)
    kinds = [k for k in _SOURCES if "\udce9" not in text or k.startswith("bytes")]
    for kind in kinds:
        assert _outcome(loader, _SOURCES[kind](text)) == (
            "error", f"line {line_no}: {message}", line_no), kind
