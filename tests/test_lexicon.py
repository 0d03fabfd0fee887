import io

import pytest
import unicodedata

from hypothesis import example, given, settings, strategies as st

from morfo.errors import LoadError
from morfo.lexicon import LexEntry, Lexicon, load_dictionary, normalize

ALPHABET = "abcdefghijklmnopqrstuvwxyzáéíóúñ"


def test_load_single_entry():
    lex = load_dictionary(io.StringIO("amar/V\n"))
    entry = lex.lookup_exact("amar")
    assert entry == LexEntry("amar", ("V",))


def test_load_empty_stream():
    assert len(load_dictionary(io.StringIO(""))) == 0


def test_unsorted_input_is_sorted_on_load():
    lex = load_dictionary(io.StringIO("vaca/S\namar/V\n"))
    assert lex.lookup_exact("amar") is not None
    assert lex.lookup_exact("vaca") is not None
    assert [e.root for e in lex] == ["amar", "vaca"]


def test_comments_and_blank_lines_ignored():
    lex = load_dictionary(io.StringIO("# seed\n\namar/V\n"))
    assert len(lex) == 1


def test_duplicate_roots_merge_flags():
    lex = load_dictionary(io.StringIO("mercado/S\nmercado/V\n"))
    assert lex.lookup_exact("mercado").flags == ("S", "V")


def test_input_is_normalized():
    lex = load_dictionary(io.StringIO("AMAR/V\n"))
    assert lex.lookup_exact("amar") is not None
    assert lex.lookup_exact(normalize("AMAR")) is not None


def test_malformed_lines_name_the_line():
    with pytest.raises(LoadError, match="line 2"):
        load_dictionary(io.StringIO("amar/V\n/V\n"))
    with pytest.raises(LoadError, match="line 1"):
        load_dictionary(io.StringIO("amar/V9\n"))
    with pytest.raises(LoadError, match="line 3"):
        load_dictionary(io.StringIO("amar/V\nvaca/S\ncasa/é\n"))


@pytest.mark.parametrize("text, line_no, message", [
    ("amar/V\n\n/V\n", 3, "empty root"),
    ("amar/\n", 1, "trailing '/' with no flags in 'amar/'"),
    ("amar/V9\n", 1, "invalid flag character '9' in 'amar/V9'"),
    ("vaca/S\ncasa/é\n", 2, "invalid flag character 'é' in 'casa/é'"),
    ("casa/Sª\n", 1, "invalid flag character 'ª' in 'casa/Sª'"),
    ("amar/V\tpo:verb\n", 1, "invalid flag character '\\t' in 'amar/V\\tpo:verb'"),
    ("vaca/S\namar /V\n", 2, "whitespace in root 'amar '"),
    ("amar\u00a0/V\n", 1, "whitespace in root 'amar\\xa0'"),
])
def test_each_malformed_line_is_rejected_with_its_message(text, line_no, message):
    with pytest.raises(LoadError) as info:
        load_dictionary(io.StringIO(text))
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


def _reference_lexicon(text):
    """Parse a valid dictionary text the plain way: strip, partition, normalize, merge."""
    merged = {}
    for line in text.replace("\r\n", "\n").split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, _, flag_part = line.partition("/")
        flags = merged.setdefault(normalize(word), [])
        flags.extend(ch for ch in flag_part if ch not in flags)
    return Lexicon([LexEntry(root, tuple(flags)) for root, flags in merged.items()])


_ROOT = st.text(alphabet="abcABáÁñÑ\u0301-'", min_size=1, max_size=5)
_FLAGS = st.text(alphabet="VSNvsn", max_size=4)
_PAD = st.text(alphabet=" \t", max_size=2)
_LINE = st.one_of(
    st.builds(lambda pad, root, flags, end: pad + root + ("/" + flags if flags else "") + end,
              _PAD, _ROOT, _FLAGS, _PAD),
    st.builds(lambda pad, text: pad + "#" + text, _PAD, st.text(alphabet="ab /#é", max_size=5)),
    _PAD,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=12), st.sampled_from(["\n", "\r\n"]))
def test_load_matches_reference_parse(lines, newline):
    text = newline.join(lines)
    lexicon = load_dictionary(io.BytesIO(text.encode("utf-8")))
    reference = _reference_lexicon(text)
    assert lexicon == reference
    assert list(lexicon) == list(reference)


def test_lexicon_api():
    entries = [LexEntry("vaca", ("S",)), LexEntry("amar", ("V", "N")), LexEntry("amo", ())]
    lexicon = Lexicon(entries)
    ordered = [entries[1], entries[2], entries[0]]
    assert len(lexicon) == 3 and len(Lexicon()) == 0
    assert list(lexicon) == lexicon.entries == ordered
    assert lexicon.lookup_exact("amar") == LexEntry("amar", ("V", "N"))
    assert lexicon.lookup_exact("am") is None
    assert list(lexicon.with_prefix("am")) == ordered[:2]
    assert list(lexicon.with_prefix("")) == ordered
    assert list(lexicon.with_prefix("b")) == []
    assert lexicon == Lexicon(reversed(entries)) == load_dictionary(["vaca/S", "amar/VN", "amo"])
    assert lexicon != Lexicon(entries[:2])
    assert lexicon != Lexicon([LexEntry("amar", ("N", "V")), *entries[::2]])
    with pytest.raises(ValueError, match="duplicate roots"):
        Lexicon([LexEntry("amo", ()), LexEntry("amo", ("V",))])


def test_equal_flags_share_one_tuple():
    lexicon = load_dictionary(["amar/V", "cantar/VV", "mercado/S", "mercado/V", "vaca/SV"])
    assert lexicon.flags["amar"] is lexicon.flags["cantar"]
    assert lexicon.flags["mercado"] is lexicon.flags["vaca"] == ("S", "V")


@settings(max_examples=500, deadline=None)
@given(st.text())
@example("\u03aa\u0301")  # NFC before lowercasing would leave U+03CA U+0301
def test_normalize_is_nfc_and_idempotent(text):
    once = normalize(text)
    assert unicodedata.is_normalized("NFC", once)
    assert normalize(once) == once


def test_lookup_exact_miss(lexicon):
    assert lexicon.lookup_exact("zzzz") is None


def test_lookup_exact_seed(lexicon):
    assert "V" in lexicon.lookup_exact("amar").flags


def test_sortedness(lexicon):
    roots = [e.root for e in lexicon]
    assert all(a < b for a, b in zip(roots, roots[1:]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_with_prefix_matches_linear_scan(lexicon, data):
    root = data.draw(st.sampled_from([e.root for e in lexicon]))
    prefix = (root[:data.draw(st.integers(0, len(root)))]
              + data.draw(st.text(alphabet=ALPHABET, max_size=2)))
    assert [e.root for e in lexicon.with_prefix(prefix)] == [
        e.root for e in lexicon if e.root.startswith(prefix)]


def test_load_serialize_reload_is_identity(lexicon):
    assert load_dictionary(e.to_line() for e in lexicon) == lexicon
