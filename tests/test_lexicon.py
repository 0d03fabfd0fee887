import io

import pytest
from hypothesis import given, settings, strategies as st

from morfo.errors import LoadError
from morfo.lexicon import LexEntry, load_dictionary, normalize

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
    assert load_dictionary(iter(lexicon.to_lines())) == lexicon
