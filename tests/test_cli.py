import contextlib
import gc
import io
import json
import marshal
import os
import random
import subprocess
import sys
import time
import unicodedata
import warnings
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from morfo import cache as data_cache, cli, lexicon, resources
from morfo.analyzer import Analyzer
from morfo.cli import run
from morfo.features import Pos
from morfo.rules import COLUMNS

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(argv, stdin_text=""):
    """Run the CLI on ``stdin_text`` as UTF-8 bytes; lone surrogates become the raw bytes."""
    out = io.StringIO()
    code = run(argv, stdin=io.BytesIO(stdin_text.encode("utf-8", "surrogateescape")), stdout=out)
    return code, out.getvalue()


def test_analyze_single_token():
    code, out = invoke(["analyze"], "amo\n")
    assert code == 0
    assert out == "amo\tamar\tverb\t-\tsingular\tfirst\tindicative\tpresent\tdictionary\n"


def test_analyze_with_pos_column():
    code, out = invoke(["analyze"], "mercado\tnoun\n")
    assert code == 0
    cells = out.strip().split("\t")
    assert cells[1] == "mercado" and cells[2] == "noun"


def test_analyze_jsonl():
    code, out = invoke(["analyze", "--format", "jsonl"], "vacas\n")
    assert code == 0
    record = json.loads(out)
    assert record["lemma"] == "vaca"
    assert record["gender"] == "female" and record["number"] == "plural"
    assert record["person"] is None


# A capitalised word, a noun and a verb hint, a clitic form, an OOV string,
# a verb with no nominal and one with a nominal.
STREAM_INPUT = "Vacas\nCasa\tnoun\ndámelo\tverb\nxyzal\namar\ncrear\n"
UNSPLIT = ["vacas", "casa", "da\tme\tlo", "xyzal", "amar", "crear"]
UNSPLIT_JSONL = [
    '{"verb_part": "vacas", "clitics": []}',
    '{"verb_part": "casa", "clitics": []}',
    '{"verb_part": "da", "clitics": ["me", "lo"]}',
    '{"verb_part": "xyzal", "clitics": []}',
    '{"verb_part": "amar", "clitics": []}',
    '{"verb_part": "crear", "clitics": []}',
]


def _analysis_json(surface, lemma, pos, gender, number, mood, provenance):
    def value(text):
        return "null" if text is None else f'"{text}"'
    return (f'{{"surface": "{surface}", "lemma": "{lemma}", "pos": "{pos}", '
            f'"gender": {value(gender)}, "number": {value(number)}, "person": null, '
            f'"mood": {value(mood)}, "tense": null, "provenance": "{provenance}"}}')


STREAM_CASES = [
    (["analyze"], [
        "vacas\tvaca\tnoun\tfemale\tplural\t-\t-\t-\tdictionary",
        "casa\tcasa\tnoun\tfemale\tsingular\t-\t-\t-\tdictionary",
        "dámelo\tdámelo\tnoun\tmale\tsingular\t-\t-\t-\tdefault_fallback",
        "xyzal\txyzal\tnoun\tmale\tsingular\t-\t-\t-\tdefault_fallback",
        "amar\tamar\tverb\t-\t-\t-\tinfinitive\t-\tdictionary",
        "crear\tcrear\tverb\t-\t-\t-\tinfinitive\t-\tdictionary",
    ]),
    (["analyze", "--format", "jsonl"], [
        _analysis_json("vacas", "vaca", "noun", "female", "plural", None, "dictionary"),
        _analysis_json("casa", "casa", "noun", "female", "singular", None, "dictionary"),
        _analysis_json("dámelo", "dámelo", "noun", "male", "singular", None, "default_fallback"),
        _analysis_json("xyzal", "xyzal", "noun", "male", "singular", None, "default_fallback"),
        _analysis_json("amar", "amar", "verb", None, None, "infinitive", "dictionary"),
        _analysis_json("crear", "crear", "verb", None, None, "infinitive", "dictionary"),
    ]),
    (["lemmatize"], ["vaca", "casa", "dámelo", "xyzal", "amar", "crear"]),
    (["lemmatize", "--format", "jsonl"], [
        '{"surface": "Vacas", "lemma": "vaca"}',
        '{"surface": "Casa", "lemma": "casa"}',
        '{"surface": "dámelo", "lemma": "dámelo"}',
        '{"surface": "xyzal", "lemma": "xyzal"}',
        '{"surface": "amar", "lemma": "amar"}',
        '{"surface": "crear", "lemma": "crear"}',
    ]),
    (["nominalize"], ["-", "-", "-", "-", "-", "creación"]),
    (["nominalize", "--format", "jsonl"], [
        '{"surface": "Vacas", "nominal": null}',
        '{"surface": "Casa", "nominal": null}',
        '{"surface": "dámelo", "nominal": null}',
        '{"surface": "xyzal", "nominal": null}',
        '{"surface": "amar", "nominal": null}',
        '{"surface": "crear", "nominal": "creación"}',
    ]),
    (["split-clitics"], UNSPLIT),
    (["split-clitics", "--format", "jsonl"], UNSPLIT_JSONL),
    # a token skipped for its noun tag is normalised like every unsplit token
    (["split-clitics", "--verbs-only"], UNSPLIT),
    (["split-clitics", "--verbs-only", "--format", "jsonl"], UNSPLIT_JSONL),
]


@pytest.mark.parametrize("argv, expected", STREAM_CASES,
                         ids=[" ".join(argv) for argv, _ in STREAM_CASES])
def test_stream_command_output(argv, expected):
    assert invoke(argv, STREAM_INPUT) == (0, "".join(line + "\n" for line in expected))


def test_lemmatize():
    code, out = invoke(["lemmatize"], "llegó\ncomieron\n")
    assert code == 0
    assert out == "llegar\ncomer\n"


def test_nominalize():
    code, out = invoke(["nominalize"], "crear\namar\n")
    assert code == 0
    assert out == "creación\n-\n"


def test_split_clitics():
    code, out = invoke(["split-clitics"], "dámelo\ncasa\n")
    assert code == 0
    assert out == "da\tme\tlo\ncasa\n"


def test_split_clitics_verbs_only_respects_tag():
    code, out = invoke(["split-clitics", "--verbs-only"], "dame\tnoun\ndame\tverb\n")
    assert code == 0
    assert out == "dame\nda\tme\n"


def test_empty_input_gives_empty_output():
    for command in ("analyze", "lemmatize", "nominalize", "split-clitics"):
        code, out = invoke([command], "")
        assert (code, out) == (0, "")


def test_output_line_count_matches_input():
    tokens = "amo\nvacas\nxyzal\ndámelo\n...\n"
    for command in ("analyze", "lemmatize", "split-clitics"):
        code, out = invoke([command], tokens)
        assert code == 0
        assert len(out.splitlines()) == 5


def test_determinism():
    tokens = "amo\nfue\nmercado\n"
    assert invoke(["analyze"], tokens) == invoke(["analyze"], tokens)


def test_missing_dict_file_exits_2(capsys):
    code, _out = invoke(["analyze", "--dict", "/no/such/file.txt"], "amo\n")
    assert code == 2
    assert "failed to load" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--dict", ""], ["lemmatize", "--rules", ""], ["analyze", "--defaults", ""],
    ["split-clitics", "--pronouns", ""], ["nominalize", "--nominal-flags", ""],
    ["evaluate", "--conll", str(FIXTURES / "sample.conll"), "--mapping", ""],
    ["evaluate", "--conll", ""], ["import-coes", "--aff", ""],
], ids=" ".join)
def test_an_empty_path_is_a_load_error(argv, capsys):
    """Every path option given ``""`` names the empty path, not the current directory."""
    assert invoke(argv, "amo\n") == (2, "")
    assert capsys.readouterr().err == (
        "morfo: failed to load : [Errno 2] No such file or directory: ''\n")


def test_an_empty_out_path_cannot_be_written(capsys):
    assert invoke(["import-coes", "--aff", str(FIXTURES / "fig1.aff"), "--out", ""]) == (1, "")
    assert capsys.readouterr().err.startswith("morfo: [Errno ")


def test_an_empty_data_directory_is_unset(monkeypatch):
    expected = invoke(["analyze"], "amo\nvacas\n")
    monkeypatch.setenv(resources.DATA_ENV, "")
    assert invoke(["analyze"], "amo\nvacas\n") == expected


def test_bad_usage_exits_1():
    code, _out = invoke([])
    assert code == 1
    code, _out = invoke(["analyze", "--format", "xml"])
    assert code == 1
    code, _out = invoke(["no-such-command"])
    assert code == 1


PARSER_CASES = [["--help"], *([command, "--help"] for command in cli._COMMANDS), [],
                ["no-such-command"], ["analyze", "--format", "xml"], ["evaluate"],
                ["lemmatize", "--no-such-option"]]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_help_and_usage_errors_are_printed_without_a_traceback(argv, capsys):
    code, out = invoke(argv)
    captured = capsys.readouterr()
    assert out == "" and "Traceback" not in captured.out + captured.err
    if code == 0:
        assert captured.out.startswith("usage: morfo") and captured.err == ""
    else:
        assert code == 1 and "error:" in captured.err and captured.out == ""


def _argparse_result(argv):
    """``vars`` of what argparse returns for ``argv``, or ``None`` where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


OPTION_NAMES = sorted({name for name, _keywords in cli._OPTIONS}
                      | {name for _f, _help, options in cli._COMMANDS.values()
                         for name, _keywords in options})
OPTION_VALUES = st.sampled_from(["", "-", "-x", "--", "-1", "tsv", "jsonl", "xml", "a.txt",
                                 "x y", "analyze"])
ODD_WORDS = st.one_of(
    st.sampled_from(["no-such-command", "analyse", "-h", "--help", "--", "--no-such-option"]),
    st.sampled_from(OPTION_NAMES).flatmap(lambda name: st.integers(3, len(name) - 1).map(
        lambda length: name[:length])),  # abbreviations
    st.tuples(st.sampled_from(OPTION_NAMES), OPTION_VALUES).map("=".join))


@st.composite
def command_lines(draw):
    """A command, known or not, then its declared options with values of the declared kind,
    then up to two edits, each the removal of a word or the insertion of any other word."""
    command = draw(st.sampled_from([*cli._COMMANDS, "no-such-command", "-h", "--dict"]))
    declared = (*cli._OPTIONS, *cli._COMMANDS[command][2]) if command in cli._COMMANDS else ()
    argv = [command]
    for name, keywords in draw(st.lists(st.sampled_from(declared), max_size=4)) if declared else ():
        argv.append(name)
        if keywords.get("action") != "store_true":
            argv.append(draw(st.sampled_from(keywords.get("choices", ("", "a.txt", "x y")))))
    others = st.one_of(ODD_WORDS, st.sampled_from(OPTION_NAMES), OPTION_VALUES)
    for _edit in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        if at < len(argv) and draw(st.booleans()):
            del argv[at]
        else:
            argv.insert(at, draw(others))
    return argv


PLAIN_ARGV = [["analyze"], ["lemmatize", "--format", "jsonl", "--format", "tsv"],
              ["nominalize", "--nominal-flags", "", "--dict", "a.txt"],
              ["split-clitics", "--verbs-only", "--pronouns", "p.tsv", "--verbs-only"],
              ["import-coes", "--skip-flags", "XY", "--infer-person", "--out", "r.tsv"],
              ["evaluate", "--conll", "a", "--filter-on-lemma", "--conll", "b", "--mapping", "m"]]


@pytest.mark.parametrize("argv", PLAIN_ARGV, ids=" ".join)
def test_a_plain_command_line_is_parsed_as_argparse_parses_it(argv):
    plain = cli._parse_plain(argv)
    assert plain is not None and vars(plain) == _argparse_result(argv)


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["evaluate"])
@example(argv=["analyze", "--format", "xml"])
@example(argv=["analyze", "--dict"])
@example(argv=["analyze", "--dic", "x"])
@example(argv=["analyze", "--format=jsonl"])
@example(argv=["evaluate", "--conll", "-x"])
@example(argv=["evaluate", "--conll", "a", "--conll", "b"])
def test_the_plain_parser_agrees_with_argparse_or_declines(argv):
    plain = cli._parse_plain(argv)
    assert plain is None or vars(plain) == _argparse_result(argv)


def test_help_holds_no_developer_notes(capsys):
    assert invoke(["--help"]) == (0, "")
    text = capsys.readouterr().out
    assert text.startswith("usage: morfo ")
    assert "resources." not in text and "CACHE_SIZE" not in text


def test_unknown_pos_tag_exits_1(capsys):
    code, out = invoke(["analyze"], "amo\namo\tadverbio\n")
    assert code == 1
    assert out.count("\n") == 1
    err = capsys.readouterr().err
    assert "line 2: unknown pos tag" in err and "Traceback" not in err


def test_empty_token_exits_1_naming_the_line(capsys):
    code, out = invoke(["analyze"], "amo\n\tverb\n")
    assert code == 1
    assert out.count("\n") == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "empty token" in err and "Traceback" not in err


def test_byte_order_mark_is_ignored(tmp_path):
    code, out = invoke(["lemmatize"], "\ufeffamo\n")
    assert (code, out) == (0, "amar\n")
    code, out = invoke(["lemmatize"], "\ufeffamo\r\namo\namo\r\n")
    assert (code, out) == (0, "amar\n" * 3)
    dictionary = tmp_path / "dictionary.txt"
    dictionary.write_text("\ufeffamar/V\n", encoding="utf-8")
    code, out = invoke(["lemmatize", "--dict", str(dictionary)], "amo\n")
    assert (code, out) == (0, "amar\n")


def test_invalid_utf8_exits_1_naming_the_line(capsys):
    code, out = invoke(["analyze"], b"amo\n\xffamo\n".decode("utf-8", "surrogateescape"))
    assert code == 1
    assert out.count("\n") == 1
    assert "line 2: invalid UTF-8" in capsys.readouterr().err


# Stream lines for the output cache: forms, OOV strings, pos hints in either
# case, capitalised tokens and blank lines, each ending in LF or CRLF.
CACHE_VOCABULARY = ["amo", "Amo", "vacas", "Vacas", "mercado", "mercado\tnoun", "mercado\tverb",
                    "Casa\tNoun", "dámelo", "dámelo\tverb", "dame\tnoun", "crear", "xyzal",
                    "qqq\tverb", "", "  "]
CACHE_COMMANDS = [(command, "--format", fmt)
                  for command in ("analyze", "lemmatize", "nominalize", "split-clitics")
                  for fmt in ("tsv", "jsonl")]


@cache
def _alone(argv, line):
    """The output of ``argv`` on the one input line ``line``."""
    code, out = invoke(list(argv), line)
    assert code == 0
    return out


@settings(max_examples=30, deadline=None)
# "Vacas" is looked up in the old generation, which holds "vacas"
@example(lines=["vacas\n", "xyzal\n", "Vacas\n"], cache_size=1, read_size=64)
@given(lines=st.lists(st.tuples(st.sampled_from(CACHE_VOCABULARY), st.sampled_from(["\n", "\r\n"]))
                      .map("".join), max_size=40),
       cache_size=st.integers(1, 4), read_size=st.integers(1, 64))
def test_repeated_lines_are_written_as_when_alone(lines, cache_size, read_size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "CACHE_SIZE", cache_size)  # small enough to evict
        patch.setattr(resources, "READ_SIZE", read_size)  # small enough to split the input
        for argv in CACHE_COMMANDS:
            assert invoke(list(argv), "".join(lines)) == (
                0, "".join(_alone(argv, line) for line in lines))


# Pieces of fuzzed stdin, besides random characters: seed forms, pos tags
# (known, unknown and in other cases), line ends, whitespace and control
# characters that str.strip or str.splitlines treat specially, byte-order
# marks, and bytes that are not UTF-8 (a lone continuation byte, a cut
# sequence, an encoded surrogate).
FUZZ_PIECES = [b"amo", b"vacas", b"d\xc3\xa1melo", b"crear", b"casa", b"xyzal",
               *(b"\t" + pos.value.encode() for pos in Pos), b"\tNOUN", b"\tnombre",
               b"\n", b"\n", b"\r\n", b"\r", b"\t", b" ", b"\x00", b"\x0b", b"\x0c", b"\x1c",
               b"\xc2\x85", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80"]


@settings(max_examples=200, deadline=None)
# Only the first line's byte-order mark is dropped: line 1 is blank, line 2 is not.
@example(data=b"\xef\xbb\xbf\r\n\xef\xbb\xbf\n", argv=CACHE_COMMANDS[0], read_size=1)
@given(data=st.lists(st.one_of(st.sampled_from(FUZZ_PIECES),
                               st.characters().map(lambda c: c.encode("utf-8", "surrogatepass"))),
                     max_size=30).map(b"".join),
       argv=st.sampled_from(CACHE_COMMANDS), read_size=st.integers(1, 64))
def test_random_stdin_gives_a_line_per_line_or_names_the_bad_line(data, argv, read_size):
    """Whatever the bytes, a stream command exits 0 with one output line per
    non-blank input line, or exits 1 after the lines before the bad one and names it."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setattr(resources, "READ_SIZE", read_size)
        code = run(list(argv), stdin=io.BytesIO(data), stdout=out)
    raw_lines = data.removeprefix(b"\xef\xbb\xbf").split(b"\n")
    if not raw_lines[-1]:
        raw_lines.pop()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        filled = [raw for raw in raw_lines if raw.decode("utf-8").strip()]
    else:
        assert code == 1
        bad = int(err.getvalue().removeprefix("morfo: line ").partition(":")[0])
        assert err.getvalue().count("\n") == 1 and 1 <= bad <= len(raw_lines)
        filled = [raw for raw in raw_lines[:bad - 1] if raw.decode("utf-8").strip()]
    assert out.getvalue().count("\n") == len(filled)
    assert out.getvalue().endswith("\n") or not filled


def test_seed_forms_through_both_cache_generations_are_written_as_when_alone(
        generation_set, monkeypatch):
    """The line cache is transparent at its real size, over real forms.

    1,000 seed forms, each lowercase, capitalised and upper-case, each bare,
    hinted ``verb`` and hinted ``noun``, give more distinct lines than both
    generations hold; repeated three times and shuffled, they turn the
    generations over several times, and lines dropped from the old one are
    computed again.
    """
    rng = random.Random(4)
    forms = rng.sample(sorted({form for _root, form, _rule, _features in generation_set}), 1000)
    distinct = [spelling + hint + "\n" for form in forms
                for spelling in (form, form.capitalize(), form.upper())
                for hint in ("", "\tverb", "\tnoun")]
    assert len(set(distinct)) > 2 * cli.CACHE_SIZE
    lines = distinct * 3
    rng.shuffle(lines)
    # A run alone still reads, computes and writes its one line through the
    # stream loop; only the analyzer is built once for all.
    analyzer = cli.build_analyzer(cli._parse_plain(["analyze"]))
    monkeypatch.setattr(cli, "build_analyzer", lambda args: analyzer)
    for argv in (["analyze"], ["lemmatize", "--format", "jsonl"]):
        alone = {}
        for line in distinct:
            code, alone[line] = invoke(argv, line)
            assert code == 0
        assert invoke(argv, "".join(lines)) == (0, "".join(alone[line] for line in lines))


@pytest.mark.parametrize("bad_line, message", [
    ("\tverb\n", "empty token before pos tag 'verb'"),
    ("amo\tadverbio\n", "unknown pos tag 'adverbio'"),
    ("\udcffamo\n", "invalid UTF-8"),
])
def test_bad_line_after_repeated_lines_is_named(bad_line, message, capsys):
    code, out = invoke(["analyze"], "amo\n" * 3000 + bad_line + "amo\n")
    assert code == 1
    assert out == "amo\tamar\tverb\t-\tsingular\tfirst\tindicative\tpresent\tdictionary\n" * 3000
    assert capsys.readouterr().err == f"morfo: line 3001: {message}\n"


# Six-byte lines, so that with a read size of 13 bytes each block holds three
# lines: two read whole, and one that the read cuts short and ``readline``
# completes.
SIX_BYTE_BAD_LINES = [
    ("\tverb\n", "empty token before pos tag 'verb'"),
    ("a\tadv\n", "unknown pos tag 'adv'"),
    ("\udcffamos\n", "invalid UTF-8"),
]


@pytest.mark.parametrize("bad_line, message", SIX_BYTE_BAD_LINES,
                         ids=[message for _, message in SIX_BYTE_BAD_LINES])
@pytest.mark.parametrize("line_no", [4, 6], ids=["first-of-block", "last-of-block"])
def test_bad_line_at_a_block_edge_is_named(bad_line, message, line_no, monkeypatch, capsys):
    monkeypatch.setattr(resources, "READ_SIZE", 13)
    vacas = _alone(("analyze",), "vacas\n")
    code, out = invoke(["analyze"], "vacas\n" * (line_no - 1) + bad_line + "vacas\n" * 4)
    assert code == 1
    assert out == vacas * (line_no - 1)
    assert capsys.readouterr().err == f"morfo: line {line_no}: {message}\n"


@pytest.mark.parametrize("read_size", [1, 5, 13])
@pytest.mark.parametrize("lines", [
    ["amo\n", "dámelo\tverb\n", "mercado\tnoun\n", "amo\n"],  # lines longer than a block
    ["amo\n", "vacas\n", "crear"],  # no final newline
    ["amo\r\n", "\r\n", "vacas\tnoun\r\n", "amo\r\n"],  # CRLF endings
], ids=["long-lines", "no-final-newline", "crlf"])
def test_block_boundaries_do_not_change_output(read_size, lines, monkeypatch):
    monkeypatch.setattr(resources, "READ_SIZE", read_size)
    for argv in CACHE_COMMANDS:
        assert invoke(list(argv), "".join(lines)) == (
            0, "".join(_alone(argv, line) for line in lines))


def test_byte_order_mark_is_dropped_from_line_1_only(monkeypatch):
    monkeypatch.setattr(resources, "READ_SIZE", 1)  # the second line starts the second block
    code, out = invoke(["lemmatize"], "\ufeffamo\n\ufeffamo\n")
    assert (code, out) == (0, "amar\n\ufeffamo\n")


def test_analyzer_value_errors_are_not_reported_as_bad_lines(monkeypatch):
    def fail(self, surface, pos_hint):
        raise ValueError("analyzer fault")

    # The step that analyze calls for each computed line, in either format.
    monkeypatch.setattr(Analyzer, "_preferred", fail)
    for fmt in ("tsv", "jsonl"):
        with pytest.raises(ValueError, match="analyzer fault"):
            invoke(["analyze", "--format", fmt], "amo\n")


def test_data_file_not_utf8_exits_2(tmp_path, capsys):
    dictionary = tmp_path / "dictionary.txt"
    dictionary.write_bytes(b"amar/V\n\xff/V\n")
    code, _out = invoke(["analyze", "--dict", str(dictionary)], "amo\n")
    assert code == 2
    assert f"failed to load {dictionary}: line 2:" in capsys.readouterr().err


def test_entry_with_two_nominal_flags_exits_2_naming_the_dictionary(tmp_path, capsys):
    dictionary = tmp_path / "d.txt"
    dictionary.write_text("crear/VNC\n", encoding="utf-8")
    code, out = invoke(["nominalize", "--dict", str(dictionary)], "crear\n")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (f"morfo: failed to load {dictionary}: entry 'crear' "
                                       "carries multiple nominalization flags: NC\n")


def test_latin1_data_file_names_the_line(tmp_path, capsys):
    dictionary = tmp_path / "dictionary.txt"
    dictionary.write_bytes("# 1\n# 2\namar/V\n\ncomer/V\ncanción/S\n".encode("latin-1"))
    code, _out = invoke(["analyze", "--dict", str(dictionary)], "amo\n")
    assert code == 2
    err = capsys.readouterr().err
    assert f"failed to load {dictionary}: line 6: invalid UTF-8" in err and "Traceback" not in err


# -- the data-file cache -----------------------------------------------------

CACHE_DICTIONARY = "amar/VQ\nvaca/S\ncomer/V\n"
CACHE_RULES = ("\t".join(COLUMNS) + "\n"
               "V\t(?<=[r])\t\tverb\t\t\t\tinfinitive\t\t\n"
               "V\tar\to\tverb\t\tsingular\tfirst\tindicative\tpresent\t\n"
               "V\ter\temos\tverb\t\tplural\tfirst\tindicative\tpresent\t\n"
               "S\t(?<=[aeiou])\ts\tnoun\t\tplural\t\t\t\t\n")
CACHE_INPUT = "amo\nvacas\ncomemos\ncasa\tnoun\n"


def _data_file(tmp_path, name, text, mtime_s=1_000_000_000):
    """A data file last modified at ``mtime_s``, long enough ago to be cached."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    os.utime(path, (mtime_s, mtime_s))
    return path


def _dictionary(tmp_path, text=CACHE_DICTIONARY, mtime_s=1_000_000_000):
    return _data_file(tmp_path, "dictionary.txt", text, mtime_s)


def _rules(tmp_path, text=CACHE_RULES, mtime_s=1_000_000_000):
    return _data_file(tmp_path, "rules.tsv", text, mtime_s)


def _cached_run(argv, capsys, stdin_text=CACHE_INPUT):
    """(exit code, stdout, stderr) of an in-process run."""
    code, out = invoke(argv, stdin_text)
    return code, out, capsys.readouterr().err


def _entries(cache_home, kind="*"):
    """The files in ``cache_home``'s entry directory whose names start with ``kind-``."""
    directory = cache_home / "morfo"
    return sorted(directory.glob(f"{kind}-*")) if directory.exists() else []


@pytest.fixture
def own_cache_home(tmp_path, monkeypatch):
    cache_home = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    return cache_home


def _fail(_source):
    raise AssertionError("parsed, not loaded from the cache")


def test_second_run_is_served_from_the_cache(tmp_path, own_cache_home, monkeypatch, capsys):
    files = ["--dict", str(_dictionary(tmp_path)), "--rules", str(_rules(tmp_path))]
    commands = [[command, *files]
                for command in ("analyze", "lemmatize", "nominalize", "split-clitics")]
    commands += [["analyze", *files, "--format", "jsonl"],
                 ["evaluate", *files, "--conll", str(FIXTURES / "sample.conll")]]
    monkeypatch.setenv("XDG_CACHE_HOME", "/dev/null")
    parsed = [_cached_run(argv, capsys) for argv in commands]
    assert parsed[0][0] == 0 and "carry flags with no rules (Q)" in parsed[0][2]
    assert parsed[0][1].split("\n")[1].startswith("vacas\tvaca\tnoun\t-\tplural\t")
    monkeypatch.setenv("XDG_CACHE_HOME", str(own_cache_home))
    assert _cached_run(commands[0], capsys) == parsed[0]
    # The rule table is parsed on every run; only the dictionary is stored.
    assert [p.name.partition("-")[0] for p in _entries(own_cache_home)] == ["dictionary"]
    monkeypatch.setattr(lexicon, "load_dictionary", _fail)
    assert [_cached_run(argv, capsys) for argv in commands] == parsed
    assert _entries(own_cache_home, "rules") == []


def test_an_edit_of_the_same_size_is_parsed_again(tmp_path, own_cache_home, capsys):
    argv = ["lemmatize", "--dict", str(_dictionary(tmp_path)), "--rules", str(_rules(tmp_path))]
    assert _cached_run(argv, capsys)[:2] == (0, "amar\nvaca\ncomer\ncasa\n")
    _dictionary(tmp_path, CACHE_DICTIONARY.replace("comer", "coser"), mtime_s=1_000_000_001)
    assert _cached_run(argv, capsys)[:2] == (0, "amar\nvaca\ncomemos\ncasa\n")
    _rules(tmp_path, CACHE_RULES.replace("\tar\to\t", "\tar\tu\t"), mtime_s=1_000_000_001)
    assert _cached_run(argv, capsys)[:2] == (0, "amo\nvaca\ncomemos\ncasa\n")
    # The entry was replaced, not joined by another.
    assert [len(_entries(own_cache_home, kind)) for kind in ("dictionary", "rules")] == [1, 0]


def test_files_read_through_one_path_are_told_apart(tmp_path, own_cache_home, capsys):
    """Two files of one size and time, each opened as ``/dev/fd/N``, are two dictionaries."""
    fd = 60
    outputs = []
    for name, text in (("one", "amar/V\n"), ("two", "amer/V\n")):
        (tmp_path / name).mkdir()
        path = _dictionary(tmp_path / name, text)
        opened = os.open(path, os.O_RDONLY)
        os.dup2(opened, fd)
        os.close(opened)
        try:
            outputs.append(_cached_run(["lemmatize", "--dict", f"/dev/fd/{fd}"], capsys, "amo\n"))
        finally:
            os.close(fd)
    assert outputs == [(0, "amar\n", ""), (0, "amer\n", "")]


def _other_format(data):
    """``data`` with the cache format in its stamp, the first int it holds, raised by one."""
    return data.replace(marshal.dumps(data_cache.CACHE_FORMAT, 2),
                        marshal.dumps(data_cache.CACHE_FORMAT + 1, 2), 1)


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2],  # truncated
    lambda data: data[:-3],  # the end of the data cut off
    lambda data: b"",
    lambda data: b"\x00garbage" * 50,
    lambda data: data.replace(b"vaca", b"vacb").replace(b"verb", b"verc"),  # changed data
    lambda data: data.replace(b"/dictionary.txt", b"/dictionarz.txt"),  # another path's stamp
    _other_format,
])
def test_a_damaged_entry_is_parsed_again_in_silence(damage, tmp_path, own_cache_home, capsys):
    argv = ["analyze", "--dict", str(_dictionary(tmp_path)), "--rules", str(_rules(tmp_path))]
    expected = _cached_run(argv, capsys)
    entries = _entries(own_cache_home)
    assert len(entries) == 1
    for entry in entries:
        data = entry.read_bytes()
        assert damage(data) != data
        entry.write_bytes(damage(data))
    assert _cached_run(argv, capsys) == expected
    assert _cached_run(argv, capsys) == expected  # from the entry the second run rewrote
    assert _entries(own_cache_home) == entries


def test_an_unusable_cache_changes_nothing_but_speed(tmp_path, monkeypatch, capsys):
    argv = ["analyze", "--dict", str(_dictionary(tmp_path)), "--rules", str(_rules(tmp_path))]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("HOME", "/dev/null")  # a relative XDG_CACHE_HOME falls back to it
    expected = _cached_run(argv, capsys)
    for cache_home in ("/dev/null", str(tmp_path / "dictionary.txt"), "relative"):
        monkeypatch.setenv("XDG_CACHE_HOME", cache_home)
        assert _cached_run(argv, capsys) == expected
        assert _cached_run(["analyze"], capsys)[2] == ""
    entry_dir = tmp_path / "cache" / "morfo"
    entries = sorted(entry_dir.iterdir())
    assert len(entries) == 1
    for entry in entries:
        entry.unlink()
        entry.mkdir()  # an entry that cannot be read or replaced
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert _cached_run(argv, capsys) == expected
    assert sorted(entry_dir.iterdir()) == entries  # no temporary file left


def _parsed_then_cached_runs(argv, cache_home, monkeypatch, capsys, stdin_text=CACHE_INPUT):
    """(run with no cache, first cached run, run served from the entry in parts)."""
    monkeypatch.setenv("XDG_CACHE_HOME", "/dev/null")
    runs = [_cached_run(argv, capsys, stdin_text)]
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    runs.append(_cached_run(argv, capsys, stdin_text))
    assert len(_entries(cache_home, "dictionary")) == 1
    with monkeypatch.context() as patch:
        patch.setattr(lexicon, "load_dictionary", _fail)
        runs.append(_cached_run(argv, capsys, stdin_text))
    return runs


def test_unknown_flags_warn_alike_from_a_dictionary_loaded_in_parts(tmp_path, own_cache_home,
                                                                    monkeypatch, capsys):
    # Unknown flags in roots of several parts, none of them the first part.
    text = "amar/V\nzumbar/VQ\nvaca/S\nzorro/SW\nabeja/SQW\nvaso/SQ\nzumo/SW\n"
    argv = ["analyze", "--dict", str(_dictionary(tmp_path, text)), "--rules", str(_rules(tmp_path))]
    runs = _parsed_then_cached_runs(argv, own_cache_home, monkeypatch, capsys)
    assert runs[0][2] == ("morfo: 5 dictionary entries carry flags with no rules (Q, W); "
                          "those flags are skipped\n")
    assert runs[1] == runs[2] == runs[0]


def test_the_nominal_flag_lint_names_the_first_entry_in_file_order_from_parts(
        tmp_path, own_cache_home, monkeypatch, capsys):
    # The first bad entry, zumbar, is in the second part; the first part,
    # of bañar, holds a later bad entry.
    dictionary = _dictionary(tmp_path, "bañar/V\nzumbar/VCN\nbailar/VNC\n")
    runs = _parsed_then_cached_runs(["nominalize", "--dict", str(dictionary)], own_cache_home,
                                    monkeypatch, capsys, "bailar\n")
    assert runs[0] == (2, "", f"morfo: failed to load {dictionary}: entry 'zumbar' carries "
                              "multiple nominalization flags: CN\n")
    assert runs[1] == runs[2] == runs[0]


def test_a_malformed_dictionary_exits_2_and_stores_nothing(tmp_path, own_cache_home, capsys):
    path = _dictionary(tmp_path, "amar/V\nvaca/S9\n")
    for _ in range(2):
        assert _cached_run(["analyze", "--dict", str(path)], capsys) == (
            2, "", f"morfo: failed to load {path}: line 2: invalid flag character '9' in "
                   "'vaca/S9'\n")
    assert _entries(own_cache_home) == []


def test_a_malformed_rule_table_exits_2_and_stores_nothing(tmp_path, own_cache_home, capsys):
    path = _rules(tmp_path, CACHE_RULES + "V\ta+r\to\tverb\t\t\t\t\t\t\n")
    for _ in range(2):
        assert _cached_run(["analyze", "--rules", str(path)], capsys) == (
            2, "", f"morfo: failed to load {path}: line 6: unsupported character '+' in "
                   "pattern 'a+r'\n")
    assert _entries(own_cache_home, "rules") == []


def test_storing_an_entry_removes_those_of_files_that_are_gone(tmp_path, own_cache_home, capsys):
    for name in ("gone", "kept", "new"):
        (tmp_path / name).mkdir()
    gone, kept, new = (_dictionary(tmp_path / name) for name in ("gone", "kept", "new"))
    entries = []
    for dictionary in (gone, kept):
        assert _cached_run(["lemmatize", "--dict", str(dictionary)], capsys)[0] == 0
        entries.append(set(_entries(own_cache_home)) - set().union(*entries))
    [gone_entry], [kept_entry] = entries
    gone.unlink()
    directory = own_cache_home / "morfo"
    damaged = [directory / f"{kind}-0000000{n}.marshal"
               for n, kind in enumerate(["dictionary", "dictionary", "rules", "other"])]
    for path, data in zip(damaged, [b"\x00garbage", marshal.dumps(42),
                                    marshal.dumps((1, "tag")) + b"payload", b""]):
        path.write_bytes(data)
    # Rule-table entries as earlier versions stored them, which no run reads:
    # the one whose file is gone goes with the next store.
    old_rules = [directory / f"rules-0000000{n}.marshal" for n in (4, 5)]
    for entry, rule_file in zip(old_rules, [tmp_path / "gone" / "rules.tsv", _rules(tmp_path)]):
        stamp = (data_cache.CACHE_FORMAT, sys.implementation.cache_tag, str(rule_file))
        entry.write_bytes(marshal.dumps(stamp, 2) + b"payload")
    temporary = directory / f"{gone_entry.name}.123.tmp"  # a concurrent writer's
    temporary.write_bytes(b"")
    orphan = directory / f"{kept_entry.name}.456.tmp"  # a writer's that died two days ago
    orphan.write_bytes(b"")
    two_days_ago = time.time() - 2 * 86400
    os.utime(orphan, (two_days_ago, two_days_ago))
    before = set(_entries(own_cache_home))
    assert _cached_run(["lemmatize", "--dict", str(kept)], capsys)[0] == 0
    assert set(_entries(own_cache_home)) == before  # a run served from the cache removes nothing
    assert _cached_run(["lemmatize", "--dict", str(new)], capsys)[0] == 0
    [new_entry] = set(_entries(own_cache_home)) - before
    assert set(_entries(own_cache_home)) == {kept_entry, old_rules[1], temporary, new_entry}


def test_a_writer_killed_before_its_rename_leaves_a_file_a_later_store_removes(
        tmp_path, monkeypatch, capsys):
    """A child killed between writing a temporary file and renaming it leaves that file,
    which a store beside it removes once it is an orphan."""
    path = _dictionary(tmp_path)
    cache_home = tmp_path / "cache"
    script = ("import os, sys\n"
              "from morfo.lexicon import load_cached_dictionary\n"
              "os.replace = lambda *_args: os._exit(9)\n"
              "with open(sys.argv[1], 'rb') as stream:\n"
              "    load_cached_dictionary(stream)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
           "XDG_CACHE_HOME": str(cache_home)}
    child = subprocess.Popen([sys.executable, "-c", script, str(path)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert (child.communicate(timeout=60), child.returncode) == ((b"", b""), 9)
    [temporary] = _entries(cache_home)
    entry = temporary.with_name(temporary.name.removesuffix(f".{child.pid}.tmp"))
    assert entry.name.startswith("dictionary-") and entry.name.endswith(".marshal")
    argv = ["analyze", "--dict", str(path)]
    monkeypatch.setenv("XDG_CACHE_HOME", "/dev/null")
    uncached = _cached_run(argv, capsys)
    assert uncached[0] == 0
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    assert _cached_run(argv, capsys) == uncached
    assert _entries(cache_home) == [entry, temporary]  # too young to be an orphan
    with monkeypatch.context() as patch:
        patch.setattr(lexicon, "load_dictionary", _fail)
        assert _cached_run(argv, capsys) == uncached
    orphaned = time.time() - data_cache.ORPHAN_S - 60
    os.utime(temporary, (orphaned, orphaned))
    entry.unlink()  # so that the next run parses and stores again
    assert _cached_run(argv, capsys) == uncached
    assert _entries(cache_home) == [entry]


def test_every_command_closes_what_it_opens(tmp_path, own_cache_home):
    """Every file a command opens is closed before ``run`` returns.

    A process that owns its stdio freezes its objects, so it would not report
    a file left open at exit; these runs are in-process. The first run with
    ``--dict`` parses and stores the dictionary, the later ones load its
    entry, and the packaged dictionary takes both paths too.
    """
    files = ["--dict", str(_dictionary(tmp_path)), "--rules", str(_rules(tmp_path))]
    runs = [[command, *files]
            for command in ("analyze", "lemmatize", "nominalize", "split-clitics")]
    runs += [["analyze"], ["split-clitics", "--format", "jsonl"],
             ["import-coes", "--aff", str(FIXTURES / "fig1.aff"), "--out",
              str(tmp_path / "imported.tsv")],
             ["evaluate", *files, "--conll", str(FIXTURES / "sample.conll")],
             ["evaluate", "--conll", str(FIXTURES / "sample.conll")]]
    unraisable = []
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for argv in runs:
                assert invoke(argv, CACHE_INPUT)[0] == 0, argv
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [str(u.exc_value) for u in unraisable] == []
    assert (tmp_path / "imported.tsv").stat().st_size > 0
    assert len(_entries(own_cache_home)) == 2


def test_process_runs_give_the_same_output_with_and_without_the_cache(tmp_path):
    argv = ["analyze", "--dict", str(_dictionary(tmp_path)), "--rules", str(_rules(tmp_path))]
    runs = [_run_module(argv, CACHE_INPUT.encode(), XDG_CACHE_HOME=cache_home)
            for cache_home in (str(tmp_path / "cache"), str(tmp_path / "cache"), "/dev/null")]
    assert len(list((tmp_path / "cache" / "morfo").iterdir())) == 1
    assert len({(p.returncode, p.stdout, p.stderr) for p in runs}) == 1
    assert runs[0].returncode == 0 and runs[0].stdout.decode() == invoke(argv, CACHE_INPUT)[1]


def test_concurrent_processes_fill_one_cold_cache(tmp_path):
    """Six children on one empty cache home, three per pair of dictionary and rule files,
    each write what an uncached run writes, and leave one entry per dictionary and no
    temporary file."""
    argvs, dictionaries = [], []
    for name, text, rule_text in (
            ("one", CACHE_DICTIONARY, CACHE_RULES),
            ("two", "amar/V\nvaca/S\ncasa/S\n", CACHE_RULES.replace("\ter\temos\t", "\tar\tan\t"))):
        (tmp_path / name).mkdir()
        files = [_dictionary(tmp_path / name, text), _rules(tmp_path / name, rule_text)]
        argvs.append(["analyze", "--dict", str(files[0]), "--rules", str(files[1])])
        dictionaries.append(str(files[0]))
    cache_home = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
           "XDG_CACHE_HOME": str(cache_home)}
    children = [subprocess.Popen([sys.executable, "-m", "morfo.cli", *argv],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, env=env)
                for argv in argvs * 3]
    runs = [(child.communicate(CACHE_INPUT.encode(), timeout=60), child.returncode)
            for child in children]
    uncached = [_run_module(argv, CACHE_INPUT.encode(), XDG_CACHE_HOME="/dev/null")
                for argv in argvs]
    assert uncached[0].stdout != uncached[1].stdout
    assert runs == [((p.stdout, p.stderr), p.returncode) for p in uncached * 3]
    assert uncached[0].returncode == 0
    assert [entry for entry in _entries(cache_home) if entry.suffix == ".tmp"] == []
    assert sorted(marshal.loads(entry.read_bytes())[2]
                  for entry in _entries(cache_home)) == sorted(dictionaries)


def test_evaluate_ignores_byte_order_mark(tmp_path):
    conll = tmp_path / "gold.conll"
    conll.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "sample.conll").read_bytes())
    assert (invoke(["evaluate", "--conll", str(conll)])
            == invoke(["evaluate", "--conll", str(FIXTURES / "sample.conll")]))


def test_import_coes_from_file():
    code, out = invoke(["import-coes", "--aff", str(FIXTURES / "fig1.aff")])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].split("\t")[0] == "flag"  # header
    assert len(lines) == 7  # header + six rules
    assert any("\tzo\t" in l for l in lines)


def test_import_coes_from_stdin_with_out_file(tmp_path):
    out_path = tmp_path / "rules.tsv"
    source = "flag *V: # PRESENTE\n    A R > -AR, O   # amar amo\n"
    code, out = invoke(["import-coes", "--out", str(out_path)], source)
    assert code == 0 and out == ""
    assert "amar" not in out_path.read_text()  # examples are comments, not cells
    assert "\tar\to\t" in out_path.read_text()


def test_evaluate_text_report():
    # sample.conll holds no participle-shaped predicate, so the filter changes nothing
    expected = (FIXTURES / "sample_report.txt").read_text(encoding="utf-8")
    for extra in ([], ["--format", "tsv"], ["--filter-on-lemma"]):
        assert invoke(["evaluate", "--conll", str(FIXTURES / "sample.conll")] + extra) == (
            0, expected)


def test_evaluate_kv_report():
    expected = (FIXTURES / "sample_report.kv").read_text(encoding="utf-8")
    for extra in ([], ["--filter-on-lemma"]):
        assert invoke(["evaluate", "--conll", str(FIXTURES / "sample.conll"),
                       "--format", "jsonl"] + extra) == (0, expected)


def test_evaluate_filter_on_lemma_reaches_the_lemma_scores(tmp_path):
    # "acusó" is not participle-shaped; its gold lemma "acusado" is.
    conll = tmp_path / "gold.conll"
    conll.write_text("1\tacusó\t_\t_\tv\tv\t_\t_\t0\t0\t_\t_\tY\tacusado.b2\n",
                     encoding="utf-8")
    totals = []
    for extra in ([], ["--filter-on-lemma"]):
        code, out = invoke(["evaluate", "--conll", str(conll), "--format", "jsonl"] + extra)
        assert code == 0
        report = dict(line.split("=") for line in out.splitlines())
        totals.append(report["lemma.non_participle.total"])
    assert totals == ["1", "0"]


def test_evaluate_missing_file_exits_2():
    code, _out = invoke(["evaluate", "--conll", "/no/such.conll"])
    assert code == 2


def test_evaluate_invalid_gold_features_exits_2_naming_the_line(tmp_path, capsys):
    # postype=x maps to pos=noun, and a noun may not carry a mood
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text("feat\tpostype=x\tpos=noun\nfeat\tmood=indicative\tmood=indicative\n",
                       encoding="utf-8")
    conll = tmp_path / "gold.conll"
    conll.write_text("1\tamo\tamar\t_\tv\t_\tpostype=x|mood=indicative" + "\t_" * 7 + "\n",
                     encoding="utf-8")
    code, _out = invoke(["evaluate", "--conll", str(conll), "--mapping", str(mapping)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"failed to load {conll}: line 1:" in err and "Traceback" not in err


@pytest.mark.parametrize("form", ["", "  "])
def test_evaluate_empty_form_exits_2_naming_the_line(form, tmp_path, capsys):
    rows = (FIXTURES / "sample.conll").read_text(encoding="utf-8").splitlines(keepends=True)
    assert rows[1].split("\t")[1:5] == ["hombre", "hombre", "hombre", "n"]
    rows[1] = rows[1].replace("\thombre\t", f"\t{form}\t", 1)
    conll = tmp_path / "gold.conll"
    conll.write_text("".join(rows), encoding="utf-8")
    assert invoke(["evaluate", "--conll", str(conll)]) == (2, "")
    assert capsys.readouterr().err == f"morfo: failed to load {conll}: line 2: empty FORM\n"


def test_run_writes_to_a_redirected_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["lemmatize"], stdin=io.BytesIO(b"amo\n"))
    assert (code, out.getvalue()) == (0, "amar\n")


def test_a_run_given_a_stream_never_freezes(tmp_path):
    frozen = gc.get_freeze_count()
    for argv in (["analyze"], ["lemmatize", "--format", "jsonl"], ["evaluate"],
                 ["import-coes", "--out", str(tmp_path / "rules.tsv")],
                 ["analyze", "--dict", "/no/such/file.txt"]):
        invoke(argv, "amo\n")
    with contextlib.redirect_stdout(io.StringIO()):
        run(["lemmatize"], stdin=io.BytesIO(b"amo\n"))
    assert gc.get_freeze_count() == frozen


def test_a_run_on_the_process_stdio_freezes_its_objects():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = ("import gc, sys, morfo.cli\n"
              "code = morfo.cli.run(sys.argv[1:])\n"
              "print(gc.get_freeze_count(), file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, "lemmatize"], input=b"amo\n",
                          capture_output=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, b"amar\n")
    assert int(proc.stderr) > 0


def _run_module(argv, stdin, **env):
    """``python -m morfo.cli`` in a child process, on real stdin and stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), **env}
    return subprocess.run([sys.executable, "-m", "morfo.cli", *argv], input=stdin,
                          capture_output=True, env=env)


def test_process_output_equals_in_process_output(generation_set):
    """A child on real pipes writes what ``run`` writes to a ``StringIO``.

    The input holds more distinct lines than both cache generations keep,
    so lines are evicted and computed again, and repeats, CRLF endings,
    blank lines and pos hints are mixed in. The output is larger than the
    stdout buffer and a pipe's, and the child, which freezes its objects when
    ``run`` ends, still writes all of it.
    """
    rng = random.Random(7)
    forms = {form for _root, form, _rule, _features in generation_set}
    noise = {"".join(rng.choices("abcdeilmnorstuzáéñ", k=rng.randint(1, 9))) for _ in range(4000)}
    distinct = sorted(forms | noise)
    assert len(distinct) > 2 * cli.CACHE_SIZE
    tokens = distinct + rng.choices(distinct, k=len(distinct))
    rng.shuffle(tokens)
    text = "".join(
        token + rng.choice(["", "", "", "\tnoun", "\tverb"]) + rng.choice(["\n", "\n", "\r\n"])
        + rng.choice(["", "", "", "", "\n", "  \r\n"])
        for token in tokens)
    assert text.count("\n") > 20_000
    for argv in (["analyze"], ["lemmatize", "--format", "jsonl"]):
        code, expected = invoke(argv, text)
        proc = _run_module(argv, text.encode("utf-8"))
        assert (proc.returncode, proc.stderr) == (code, b"") == (0, b"")
        assert proc.stdout.decode("utf-8") == expected
        assert len(proc.stdout) > 64 * 1024


def _rendered_analysis(analyzer, token, pos_hint, fmt):
    """``analyze``'s line for ``token``, rendered from ``preferred_analysis`` as an
    ``Analysis``: the TSV cells, ``-`` for an unset feature, or the JSON record."""
    a = analyzer.preferred_analysis(token, pos_hint)
    features = a.features.as_dict()
    del features["animate"]
    if fmt == "tsv":
        return "\t".join([a.surface, a.lemma, *(value or "-" for value in features.values()),
                          a.provenance.value]) + "\n"
    return json.dumps({"surface": a.surface, "lemma": a.lemma, **features,
                       "provenance": a.provenance.value}, ensure_ascii=False) + "\n"


def _analyze_matches_preferred_analysis(analyzer, items):
    """``analyze`` writes, in both formats and with the line cache at 1 and at its
    real size, the rendering of ``preferred_analysis`` for each (token, pos hint)."""
    text = "".join(token + ("\t" + pos_hint if pos_hint else "") + "\n"
                   for token, pos_hint in items)
    for fmt in ("tsv", "jsonl"):
        expected = "".join(_rendered_analysis(analyzer, token, pos_hint, fmt)
                           for token, pos_hint in items)
        for cache_size in (1, cli.CACHE_SIZE):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "CACHE_SIZE", cache_size)
                assert invoke(["analyze", "--format", fmt], text) == (0, expected), (
                    fmt, cache_size)


def _seed_analyze_items(analyzer, generation_set):
    """(token, pos hint) over every seed generated form: bare, hinted with each
    pos of its readings and with one pos it lacks; lowercase, capitalised and
    both in NFD; then irregular forms and tokens that are not alphabetic."""
    items = []
    for form in sorted({form for _root, form, _rule, _features in generation_set}):
        poses = sorted({a.features.pos for a in analyzer.analyze(form)} - {None})
        lacking = next(pos for pos in Pos if pos not in poses)
        spellings = {form, form.capitalize()}
        spellings |= {unicodedata.normalize("NFD", spelling) for spelling in spellings}
        items += [(spelling, hint) for spelling in sorted(spellings)
                  for hint in (None, *poses, lacking)]
    items += [(token, hint) for token in ("fue", "Fue", "fui", "fuimos", "fue1", "1fue", "fu-e",
                                          "123", ",", "¿qué?", "e-mail", "o'clock", "amo.", "x")
              for hint in (None, "verb", "noun")]
    assert any(analyzer.preferred_analysis(token).provenance == "irregular_table"
               for token, _hint in items)
    return items


def test_analyze_renders_preferred_analysis_of_every_seed_form(analyzer, generation_set):
    """The plain tuple that ``analyze`` renders gives the same line, in both
    formats, as the ``Analysis`` of ``preferred_analysis``: every reading,
    provenance and fallback of the seed data, through both cache sizes."""
    items = _seed_analyze_items(analyzer, generation_set)
    provenances = {analyzer.preferred_analysis(token, hint).provenance for token, hint in items}
    assert provenances == {"dictionary", "irregular_table", "default_fallback"}
    _analyze_matches_preferred_analysis(analyzer, items)


@settings(max_examples=100, deadline=None)
@given(items=st.lists(st.tuples(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n"),
            min_size=1, max_size=12).map(str.strip).filter(bool),
    st.sampled_from([None, *(pos.value for pos in Pos)])), max_size=20))
def test_analyze_renders_preferred_analysis_of_random_strings(analyzer, items):
    _analyze_matches_preferred_analysis(analyzer, items)


def test_jsonl_escapes_surfaces_as_the_json_encoder(analyzer, lemmatizer, nominalizer,
                                                    splitter):
    """Each stream command's ``--format jsonl`` line is the JSON encoder's text of the
    library's record, for surfaces holding a quote, a backslash, control characters and
    characters outside the Basic Multilingual Plane, computed and from the line cache;
    ``nominalize`` writes ``null`` and a nominal, ``split-clitics`` empty and two-item lists."""
    tokens = ['di"jo', "a\\b", "x\x01y", "ca\x7fsa", "\U0001d51eamo", "\U0001f600",
              'vacas"', "\\", '"', "am\x1bo", "crear", "dámelo", "dá\u2028melo", 'dámelo"']
    items = [(token, hint) for token in tokens for hint in (None, "verb", "noun")]

    def analysis(token, hint):
        a = analyzer.preferred_analysis(token, hint)
        record = {"surface": a.surface, "lemma": a.lemma, **a.features.as_dict(),
                  "provenance": a.provenance.value}
        del record["animate"]
        return record

    def split(token, _hint):
        verb_part, clitics, _pronouns = splitter.split_clitics(token)
        return {"verb_part": verb_part, "clitics": list(clitics)}

    records = {
        "analyze": analysis,
        "lemmatize": lambda token, hint: {"surface": token,
                                          "lemma": lemmatizer.lemmatize(token, hint)},
        "nominalize": lambda token, _hint: {"surface": token,
                                            "nominal": nominalizer.nominalize(token)},
        "split-clitics": split,
    }
    encode = json.JSONEncoder(ensure_ascii=False).encode
    text = "".join(token + ("\t" + hint if hint else "") + "\n" for token, hint in items)
    for command, record in records.items():
        expected = "".join(encode(record(token, hint)) + "\n" for token, hint in items)
        assert '\\"' in expected and "\\\\" in expected and "\\u0001" in expected
        assert "\U0001f600" in expected and "\u2028" in expected
        for cache_size in (1, cli.CACHE_SIZE):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "CACHE_SIZE", cache_size)
                assert invoke([command, "--format", "jsonl"], text * 2) == (0, expected * 2)
        if command == "nominalize":
            assert '"nominal": null' in expected and '"nominal": "creación"' in expected
        if command == "split-clitics":
            assert '"clitics": []' in expected and '"clitics": ["me", "lo"]' in expected


_JSON_TEXT = st.one_of(st.text(st.characters(exclude_categories=("Cs",))),
                       st.sampled_from(list(Pos)))
_JSON_SCALARS = st.one_of(st.none(), _JSON_TEXT)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(_JSON_SCALARS, st.lists(_JSON_TEXT),
                       st.dictionaries(_JSON_TEXT, st.one_of(_JSON_SCALARS, st.lists(_JSON_TEXT)))))
@example(value='di"jo\\')
@example(value={"verb_part": "a\x00\x1f\x7f\u2028\U0001f600", "clitics": ["me", ""]})
def test_the_json_writer_writes_what_json_dumps_writes(value):
    assert cli._json(value) == json.dumps(value, ensure_ascii=False)


def test_process_jsonl_records_agree_with_tsv_lines(analyzer, generation_set):
    """A ``--format jsonl`` child on real pipes writes, for each seed form, the
    record whose fields are the cells of that form's TSV line."""
    items = _seed_analyze_items(analyzer, generation_set)
    text = "".join(token + ("\t" + hint if hint else "") + "\n" for token, hint in items)
    code, tsv = invoke(["analyze"], text)
    proc = _run_module(["analyze", "--format", "jsonl"], text.encode("utf-8"))
    assert (code, proc.returncode, proc.stderr) == (0, 0, b"")
    records = proc.stdout.decode("utf-8").splitlines()
    lines = tsv.splitlines()
    assert len(records) == len(lines) == len(items)
    fields = ("surface", "lemma", "pos", "gender", "number", "person", "mood", "tense",
              "provenance")
    for record, line in zip(records, lines):
        record = json.loads(record)
        assert list(record) == list(fields)
        assert [record[field] or "-" for field in fields] == line.split("\t")


def test_process_answers_a_typed_line_before_end_of_input():
    """On a terminal, a stream command writes a line's output before more input comes."""
    pty = pytest.importorskip("pty")
    import select

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    leader, follower = pty.openpty()
    proc = subprocess.Popen([sys.executable, "-m", "morfo.cli", "lemmatize"], stdin=follower,
                            stdout=follower, stderr=subprocess.DEVNULL, env=env)
    os.close(follower)
    try:
        os.write(leader, b"amo\n")
        seen = b""
        deadline = time.monotonic() + 30
        while b"amar" not in seen and time.monotonic() < deadline:
            if select.select([leader], [], [], 0.1)[0]:
                seen += os.read(leader, 1024)
        assert b"amar" in seen
        os.write(leader, b"\x04")  # end of input
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        os.close(leader)


def test_import_does_not_load_json():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = "import sys, morfo.cli; print('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")


def test_import_does_not_load_importlib_resources():
    """The packaged data is found beside the package, with no ``importlib.resources``.

    ``-S`` keeps out ``site``, whose ``.pth`` hooks may import it themselves.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = "import sys, morfo.cli; print('importlib.resources' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")


def test_import_and_a_quiet_run_load_no_dataclasses_inspect_or_logging(tmp_path):
    """Start-up stays short: neither a quiet run, one that warns nor ``evaluate`` loads any of
    them, and ``analyze`` loads neither the derivers nor the clitic splitter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = ("import sys, morfo.cli\n"
              "loaded = lambda: sorted({'dataclasses', 'inspect', 'logging', 'morfo.clitics',\n"
              "                         'morfo.derivers'} & set(sys.modules))\n"
              "print(loaded(), file=sys.stderr)\n"
              "code = morfo.cli.run(sys.argv[1:])\n"
              "print(loaded(), file=sys.stderr)\n"
              "sys.exit(code)\n")
    stdin = "vacas\namo\ncasa\tnoun\ndámelo\n"
    proc = subprocess.run([sys.executable, "-c", script, "analyze"], input=stdin.encode(),
                          capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"[]\n[]\n")
    assert proc.stdout.decode() == invoke(["analyze"], stdin)[1]

    dictionary = tmp_path / "dictionary.txt"
    dictionary.write_text("amar/VQ\nvaca/S\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", script, "analyze", "--dict", str(dictionary)],
                          input=stdin.encode(), capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr.decode().splitlines() == [
        "[]",
        "morfo: 1 dictionary entries carry flags with no rules (Q); those flags are skipped",
        "[]"]

    conll = FIXTURES / "sample.conll"
    proc = subprocess.run([sys.executable, "-c", script, "evaluate", "--conll", str(conll)],
                          capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr.decode().splitlines() == [
        "[]", f"morfo: {conll}: 4 FEAT values had no mapping and were ignored",
        "['morfo.derivers']"]
    assert proc.stdout.decode() == invoke(["evaluate", "--conll", str(conll)])[1]


def test_a_plain_command_line_loads_no_argparse():
    """A plain run of each stream command and of ``evaluate``, in either format, loads none of
    argparse, gettext, locale and pathlib, nor json, enum, typing, re and functools; ``--help``
    still prints through argparse.

    ``-S`` keeps out ``site``, whose ``.pth`` hooks may import them themselves.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = ("import sys, morfo.cli\n"
              "code = morfo.cli.run(sys.argv[1:])\n"
              "loaded = {'argparse', 'gettext', 'locale', 'pathlib', 'json', 'enum', 'typing',"
              " 're', 'functools'}\n"
              "print(sorted(loaded & set(sys.modules)), file=sys.stderr)\n"
              "sys.exit(code)\n")
    conll = str(FIXTURES / "sample.conll")
    plain = (["analyze"], ["lemmatize"], ["nominalize"], ["split-clitics", "--verbs-only"],
             ["evaluate", "--conll", conll])
    for argv in (*plain, *([*line, "--format", "jsonl"] for line in plain)):
        proc = subprocess.run([sys.executable, "-S", "-c", script, *argv], input=b"amo\n",
                              capture_output=True, env=env)
        assert proc.returncode == 0, argv
        assert proc.stderr.decode().splitlines()[-1] == "[]", argv
        stdin = "" if argv[0] == "evaluate" else "amo\n"
        assert proc.stdout.decode() == invoke(argv, stdin)[1]

    proc = subprocess.run([sys.executable, "-S", "-c", script, "analyze", "--help"],
                          capture_output=True, env=env)
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: morfo analyze ")
    assert "'argparse'" in proc.stderr.decode()


def test_process_invalid_utf8_on_strict_stdin_exits_1():
    proc = _run_module(["analyze"], b"\xffamo\n", PYTHONIOENCODING="utf-8:strict")
    assert proc.returncode == 1
    assert b"line 1: invalid UTF-8" in proc.stderr and b"Traceback" not in proc.stderr


def test_process_import_coes_ignores_byte_order_mark():
    proc = _run_module(["import-coes"], b"\xef\xbb\xbfflag *V:\n    A R > -AR, O\n")
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout.splitlines()[1:] == [b"V\tar\to" + b"\t" * 7]


def test_process_output_is_utf8_whatever_the_locale():
    proc = _run_module(["analyze"], "canción\n".encode("utf-8"), PYTHONIOENCODING="ascii")
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == "canción\tcanción\tnoun\tfemale\tsingular\t-\t-\t-\tdictionary\n".encode()


def test_process_closed_output_exits_1_without_traceback(tmp_path):
    # about 5 MB of output, far more than a pipe buffer holds
    stdin = tmp_path / "tokens.txt"
    stdin.write_bytes(b"amo\n" * 100_000)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    with open(stdin, "rb") as tokens:
        proc = subprocess.Popen([sys.executable, "-m", "morfo.cli", "analyze"], stdin=tokens,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"amo\tamar\t")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
    assert b"Traceback" not in err and err.count(b"morfo: ") <= 1


def test_process_unwritable_out_file_exits_1_without_traceback(tmp_path):
    out = tmp_path / "missing" / "rules.tsv"
    proc = _run_module(["import-coes", "--aff", str(FIXTURES / "fig1.aff"), "--out", str(out)],
                       b"")
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith(b"morfo: ")] == [
        f"morfo: [Errno 2] No such file or directory: '{out}'".encode()]


def test_process_warnings_name_the_program_and_the_file(tmp_path):
    aff = tmp_path / "bad.aff"
    aff.write_text("flag *V:\n    A R > -ER, O\n", encoding="utf-8")
    proc = _run_module(["import-coes", "--aff", str(aff)], b"")
    assert proc.returncode == 0
    assert proc.stderr.decode().splitlines() == [
        f"morfo: {aff}: line 2: removed ending 'er' is not a literal suffix of pattern 'ar'; "
        "row skipped"]


def test_process_stdin_warnings_name_the_program():
    proc = _run_module(["import-coes"], b"prefixes\nflag *R:\n    H A C E R > DES\n")
    assert proc.returncode == 0
    assert proc.stderr.decode().splitlines() == [
        "morfo: line 1: prefixes section skipped; only suffix rules are imported"]


def test_process_evaluate_warning_names_the_conll_file():
    conll = FIXTURES / "sample.conll"
    proc = _run_module(["evaluate", "--conll", str(conll)], b"")
    assert proc.returncode == 0
    assert proc.stderr.decode().splitlines() == [
        f"morfo: {conll}: 4 FEAT values had no mapping and were ignored"]


def test_repeated_runs_print_each_warning_once_to_the_current_stderr(capsys):
    for _ in range(3):
        assert invoke(["import-coes"], "prefixes\n") == (0, "\t".join(COLUMNS) + "\n")
        assert capsys.readouterr().err == (
            "morfo: line 1: prefixes section skipped; only suffix rules are imported\n")


def test_import_coes_warns_of_the_lines_before_an_invalid_utf8_line(capsys):
    assert invoke(["import-coes"], "prefixes\n\udcff\n") == (1, "")
    assert capsys.readouterr().err.splitlines() == [
        "morfo: line 1: prefixes section skipped; only suffix rules are imported",
        "morfo: line 2: invalid UTF-8"]


def test_console_script_is_installed():
    import shutil

    exe = shutil.which("morfo")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "analyze"], input="amo\n",
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("amo\tamar\tverb")
