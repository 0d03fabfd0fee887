import io
import marshal
import os
import random
import sys
import tempfile
import threading
import unicodedata
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from morfo import cache, lexicon as lexicon_module, resources
from morfo.analyzer import Analyzer, load_default_table
from morfo.clitics import CliticSplitter, load_pronoun_table
from morfo.derivers import Lemmatizer, Nominalizer, load_nominal_flags
from morfo.errors import LoadError
from morfo.features import Pos
from morfo.lexicon import LexEntry, Lexicon, load_cached_dictionary, load_dictionary, normalize
from morfo.rules import expand_entry, load_rules


def test_load_single_entry():
    lex = load_dictionary(io.StringIO("amar/V\n"))
    assert lex.flags == {"amar": ("V",)}
    assert list(lex) == [LexEntry("amar", ("V",))]


def test_load_empty_stream():
    assert len(load_dictionary(io.StringIO(""))) == 0


def test_unsorted_input_keeps_file_order():
    lex = load_dictionary(io.StringIO("vaca/S\namar/V\n"))
    assert list(lex.flags) == ["vaca", "amar"]
    assert [e.root for e in lex] == ["vaca", "amar"]


def test_comments_and_blank_lines_ignored():
    lex = load_dictionary(io.StringIO("# seed\n\namar/V\n"))
    assert len(lex) == 1


def test_duplicate_roots_merge_flags():
    lex = load_dictionary(io.StringIO("mercado/S\nmercado/V\n"))
    assert lex.flags["mercado"] == ("S", "V")


def test_input_is_normalized():
    lex = load_dictionary(io.StringIO("AMAR/V\n"))
    assert "amar" in lex.flags
    assert normalize("AMAR") in lex.flags


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
    return Lexicon({root: tuple(flags) for root, flags in merged.items()})


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


def _settled(path):
    """Date ``path`` back past the cache's settling time, as a file not edited of late."""
    old = os.stat(path).st_mtime_ns - 2 * cache.SETTLE_NS
    os.utime(path, ns=(old, old))


def _load_file(path):
    with open(path, "rb") as stream:
        return load_cached_dictionary(stream)


def _fail(_source):
    raise AssertionError("parsed, not loaded from the cache")


# Roots that repeat (merged), comments, decomposed and accented letters, and
# flags shared between roots.
_CACHE_ROOT = st.sampled_from(["amar", "vaca", "Vaca", "cancion", "canción", "cancio\u0301n",
                               "ÑANDÚ", "niño", "e\u0301l", "x"])
_CACHE_LINE = st.one_of(
    st.builds(lambda root, flags: root + ("/" + flags if flags else ""),
              _CACHE_ROOT, st.sampled_from(["", "V", "S", "VS", "SV", "VVN", "n"])),
    st.sampled_from(["# comentario", "", "  # otro/V"]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_CACHE_LINE, max_size=20), st.sampled_from(["\n", "\r\n"]))
def test_cached_load_equals_a_fresh_parse(lines, newline):
    data = newline.join(lines).encode("utf-8")
    fresh = load_dictionary(io.BytesIO(data))
    with tempfile.TemporaryDirectory() as directory:  # a new path, and so a new entry, per example
        path = Path(directory) / "dictionary.txt"
        path.write_bytes(data)
        _settled(path)
        first = _load_file(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexicon_module, "load_dictionary", _fail)
            cached = _load_file(path)
    for loaded in (first, cached):
        assert loaded == fresh


def _packaged_lines(name):
    return resources.data_path(name).read_text(encoding="utf-8").splitlines()


# Seed entries, and roots of one and two letters and with accented or
# decomposed first letters; ``ir`` and ``ser`` have whole-root rules, whose
# stem is empty.
_SEED_LINES = [line for line in _packaged_lines("dictionary.txt") if not line.startswith("#")]
_ODD_LINES = ["ir/G", "ser/B", "a/S", "ñu/S", "él/S", "Ávila/S", "A\u0301guila/S",
              "e\u0301xito/S", "Ñandú/S", "ocio/S", "oír/V"]
# A replaced part headed by a class stands for root tails, which the
# analyzer reads from every root, and so builds the whole lexicon.
_CLASS_RULE = "V\t[aeií]r\taste\tverb\t\tsingular\tsecond\tindicative\tpast\t"


def _stack(lexicon, rules):
    """(analyze, lemmatize, nominalize, split-clitics) of one word over ``lexicon``."""
    analyzer = Analyzer(lexicon, rules, load_default_table(_packaged_lines("defaults.tsv")))
    lemmatizer = Lemmatizer(analyzer)
    nominalizer = Nominalizer(lemmatizer, load_nominal_flags(_packaged_lines("nominal_flags.txt")))
    splitter = CliticSplitter(analyzer, load_pronoun_table(_packaged_lines("pronouns.tsv")))
    return lambda word: (analyzer.analyze(word), lemmatizer.lemmatize(word),
                         nominalizer.nominalize(word), splitter.split_clitics(word))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_SEED_LINES), min_size=1, max_size=25, unique=True),
       st.lists(st.sampled_from(_ODD_LINES), max_size=5),
       st.randoms(use_true_random=False), st.booleans(),
       st.lists(st.text(alphabet="aeioóucdlmnrsñé\u0301", min_size=1, max_size=7), max_size=30))
def test_a_lexicon_loaded_in_parts_answers_as_the_parsed_one(seed_lines, odd_lines, rng,
                                                             class_rule, strings):
    lines = seed_lines + odd_lines
    rng.shuffle(lines)
    rule_lines = _packaged_lines("rules.tsv") + ([_CLASS_RULE] if class_rule else [])
    rules = load_rules(rule_lines)
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", directory)
        path = Path(directory) / "dictionary.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        _settled(path)
        parsed = _load_file(path)
        parts = _load_file(path)
    whole, partial = _stack(parsed, rules), _stack(parts, rules)
    assert (not parts._unbuilt) == class_rule  # else the probes below build the parts
    forms = [form for entry in parsed for form, _, _ in expand_entry(entry, rules)]
    words = forms + [unicodedata.normalize("NFD", form) for form in forms]
    words += [form + "lo" for form in forms] + strings
    for word in words:
        assert partial(word) == whole(word), word
    assert parts == parsed
    assert parts.flag_table() == parsed.flag_table()


@pytest.mark.parametrize("change", ["lexicon.py", "resources.py", "cache.py", "cache tag",
                                    "format"])
def test_new_parsing_code_or_interpreter_parses_again(change, tmp_path, monkeypatch):
    path = tmp_path / "dictionary.txt"
    path.write_text("amar/V\nvaca/S\n", encoding="utf-8")
    _settled(path)
    expected = _load_file(path)
    if change == "cache tag":
        monkeypatch.setattr(sys.implementation, "cache_tag", "other-311")
    elif change == "format":
        monkeypatch.setattr(cache, "CACHE_FORMAT", cache.CACHE_FORMAT + 1)
    else:  # the same module, at another size and time
        module = {"lexicon.py": lexicon_module, "resources.py": resources,
                  "cache.py": cache}[change]
        edited = tmp_path / change
        edited.write_text(Path(module.__file__).read_text(encoding="utf-8") + "\n", encoding="utf-8")
        monkeypatch.setattr(module, "__file__", str(edited))
    parses = []
    monkeypatch.setattr(lexicon_module, "load_dictionary",
                        lambda source: parses.append(source) or load_dictionary(source))
    assert _load_file(path) == expected
    assert len(parses) == 1
    assert _load_file(path) == expected  # from the entry that parse replaced
    assert len(parses) == 1


def _seed_file(tmp_path):
    """The packaged dictionary's entries, written to a settled file under ``tmp_path``."""
    path = tmp_path / "dictionary.txt"
    path.write_text("\n".join(_SEED_LINES), encoding="utf-8")
    _settled(path)
    return path


def _part_loads(monkeypatch):
    """The list of every part ``morfo.lexicon`` unmarshals from now on."""
    loads = []
    monkeypatch.setattr(lexicon_module, "marshal", SimpleNamespace(
        dumps=marshal.dumps, loads=lambda data: loads.append(data) or marshal.loads(data)))
    return loads


def test_each_part_is_unmarshalled_at_most_once(tmp_path, monkeypatch):
    path = _seed_file(tmp_path)
    parsed = _load_file(path)  # and stored
    lexicon = _load_file(path)
    loads = _part_loads(monkeypatch)
    roots = list(parsed.flags)[::40]
    probed = roots + [root + "zz" for root in roots] + roots
    assert [lexicon.get(word) for word in probed] == [parsed.get(word) for word in probed]
    assert len(loads) == len({root[:2] for root in roots})
    assert lexicon == parsed
    assert len(lexicon) == len(parsed)  # reads the built map again
    assert len(loads) == len(lexicon_module._to_data(parsed)[1])


def test_probes_that_outnumber_the_roots_left_build_every_part(tmp_path, monkeypatch):
    path = _seed_file(tmp_path)
    parsed = _load_file(path)  # and stored
    lexicon = _load_file(path)
    loads = _part_loads(monkeypatch)
    for root in list(parsed.flags)[::40]:  # builds the parts of these roots
        assert lexicon.get(root) == parsed.get(root)
    left = len(parsed) - len(lexicon._flags)
    assert lexicon._unbuilt and left > 0
    probes = 0
    while lexicon._unbuilt and probes <= left:
        # Distinct roots that no part holds: no root starts with a digit.
        assert lexicon.get(f"{probes}x") is None
        probes += 1
    assert not lexicon._unbuilt
    assert lexicon.get == lexicon.flags.get  # the map's own, with no Python call per probe
    assert len(loads) == len(set(loads)) == len(lexicon_module._to_data(parsed)[1])
    assert lexicon == parsed


def test_a_short_run_over_a_large_dictionary_leaves_most_parts_unbuilt(tmp_path):
    """The probes of a short run stay far below the roots left, so the bound builds nothing."""
    rng = random.Random(7)
    seed = [line for line in _SEED_LINES if "/" in line and line.index("/") > 4]
    lines = {}
    while len(lines) < 20_000:  # seed roots with new interiors, as the benchmark's are
        root, flags = rng.choice(seed).split("/")
        interior = "".join(rng.choices("abcdefghijlmnoprstuvz", k=rng.randint(1, 4)))
        lines[root[0] + interior + root[-2:]] = flags
    path = tmp_path / "dictionary.txt"
    path.write_text("".join(f"{root}/{flags}\n" for root, flags in lines.items()),
                    encoding="utf-8")
    _settled(path)
    parsed = _load_file(path)  # and stored
    lexicon = _load_file(path)
    rules = load_rules(_packaged_lines("rules.tsv"))
    analyzer = Analyzer(lexicon, rules, load_default_table(_packaged_lines("defaults.tsv")))
    parts = len(lexicon._unbuilt)
    words = [form for entry in rng.sample(list(parsed), 50)
             for form, _, _ in expand_entry(entry, rules)[:3]]
    for word in words:
        analyzer.preferred_analysis(word)
    assert parts > 400
    assert len(lexicon._unbuilt) > parts / 2


def test_building_the_stack_over_a_lexicon_in_parts_builds_no_part(tmp_path, monkeypatch):
    """The analyzer's and derivers' construction reads the flag table, not the roots."""
    path = _seed_file(tmp_path)
    _load_file(path)
    lexicon = _load_file(path)
    loads = _part_loads(monkeypatch)
    _stack(lexicon, load_rules(_packaged_lines("rules.tsv")))
    assert loads == []


def test_default_features_over_a_lexicon_in_parts_builds_no_part(tmp_path, monkeypatch):
    """``default_features`` walks the trie by letters only and probes no root."""
    path = _seed_file(tmp_path)
    parsed = _load_file(path)  # and stored
    lexicon = _load_file(path)
    defaults = load_default_table(_packaged_lines("defaults.tsv"))
    analyzer = Analyzer(lexicon, load_rules(_packaged_lines("rules.tsv")), defaults)
    loads = _part_loads(monkeypatch)
    words = list(parsed.flags)[::7] + ["zz" + row.ending for row in defaults] + ["x", "a-b"]
    features = {analyzer.default_features(word, hint)
                for word in words for hint in (None, *Pos)}
    assert {row.features for row in defaults} < features
    assert loads == []


def test_threads_probing_a_lexicon_in_parts_find_every_root(tmp_path):
    """Probes beside other threads' part builds, and beside the builds of every part that
    ``flags`` and the probe bound start, miss no root."""
    path = _seed_file(tmp_path)
    expected = _load_file(path).flags
    missed = []

    def probe(lexicon, roots):
        missed.extend(root for root in roots if lexicon.get(root) != expected[root])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            lexicon = _load_file(path)
            roots = list(expected)
            threads = [threading.Thread(target=probe, args=(lexicon, roots[n::3] + roots[:n:-1]))
                       for n in range(6)]
            threads.append(threading.Thread(target=lambda: lexicon.flags))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert lexicon.flags == expected
    finally:
        sys.setswitchinterval(interval)
    assert missed == []


@pytest.mark.parametrize("stored", [
    {"amar": ("V",)},  # the map as one dict, as the entry held it before it was split
    ({}, {}, []),
    ([], [], []),
    ([], {}, {}),
    ([], []),
    # (flag table, prefix -> marshalled part, file-order runs): the layout of format 3
    ([(("V",), 1, "amar")], {"am": marshal.dumps({"amar": ("V",)})}, [["am", 1]]),
])
def test_an_entry_of_another_layout_is_parsed_again(stored, tmp_path, monkeypatch):
    path = tmp_path / "dictionary.txt"
    path.write_text("amar/V\n", encoding="utf-8")
    _settled(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lexicon_module, "_to_data", lambda _lexicon: stored)
        assert _load_file(path) == load_dictionary(["amar/V"])
    parses = []
    monkeypatch.setattr(lexicon_module, "load_dictionary",
                        lambda source: parses.append(source) or load_dictionary(source))
    assert _load_file(path) == load_dictionary(["amar/V"])
    assert len(parses) == 1
    assert _load_file(path).get("amar") == ("V",)  # from the entry that parse replaced
    assert len(parses) == 1


def test_a_file_edited_of_late_is_parsed_but_not_cached(tmp_path):
    path = tmp_path / "dictionary.txt"
    path.write_text("amar/V\n", encoding="utf-8")
    assert _load_file(path) == load_dictionary(["amar/V"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lexicon_module, "load_dictionary", _fail)
        with pytest.raises(AssertionError, match="parsed"):
            _load_file(path)


def test_streams_that_are_not_regular_files_are_parsed(tmp_path, monkeypatch):
    """A pipe, a FIFO and an in-memory stream can be read only once, so the cache skips them."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    read_end, write_end = os.pipe()
    os.write(write_end, b"amar/V\nvaca/S\n")
    os.close(write_end)
    with open(read_end, "rb") as stream:
        assert load_cached_dictionary(stream) == load_dictionary(["amar/V", "vaca/S"])
    fifo = tmp_path / "dictionary.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"casa/S\n",))
    writer.start()
    try:
        assert _load_file(fifo) == load_dictionary(["casa/S"])
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert load_cached_dictionary(io.BytesIO(b"mar/S\n")) == load_dictionary(["mar/S"])
    assert not os.path.exists(cache.cache_dir())


def test_cache_dir_follows_xdg_cache_home(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert cache.cache_dir() == str(tmp_path / "morfo")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for unset in ("", "relative/cache"):
        monkeypatch.setenv("XDG_CACHE_HOME", unset)
        assert cache.cache_dir() == str(tmp_path / "home" / ".cache" / "morfo")


def test_lexicon_api():
    flags = {"vaca": ("S",), "amar": ("V", "N"), "amo": ()}
    lexicon = Lexicon(flags)
    assert lexicon.flags is flags  # kept, not copied
    assert len(lexicon) == 3 and len(Lexicon({})) == 0
    assert list(lexicon) == [LexEntry("vaca", ("S",)), LexEntry("amar", ("V", "N")),
                             LexEntry("amo", ())]
    assert lexicon == Lexicon(dict(reversed(flags.items())))
    assert lexicon == load_dictionary(["vaca/S", "amar/VN", "amo"])
    assert lexicon != Lexicon({"vaca": ("S",), "amar": ("V", "N")})
    assert lexicon != Lexicon({**flags, "amar": ("N", "V")})


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
    assert "zzzz" not in lexicon.flags


def test_lookup_exact_seed(lexicon):
    assert "V" in lexicon.flags["amar"]


def test_sortedness(lexicon):
    # A lexicon keeps file order, so this checks that the packaged dictionary
    # is strictly sorted: the benchmark builds its workloads from the seed
    # lexicon in that order.
    roots = [e.root for e in lexicon]
    assert all(a < b for a, b in zip(roots, roots[1:]))


def test_load_serialize_reload_is_identity(lexicon):
    assert load_dictionary(e.to_line() for e in lexicon) == lexicon
