import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from morfo import cli
from morfo.analyzer import Analyzer
from morfo.cli import run
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


def test_bad_usage_exits_1():
    code, _out = invoke([])
    assert code == 1
    code, _out = invoke(["analyze", "--format", "xml"])
    assert code == 1
    code, _out = invoke(["no-such-command"])
    assert code == 1


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
        patch.setattr(cli, "READ_SIZE", read_size)  # small enough to split the input
        for argv in CACHE_COMMANDS:
            assert invoke(list(argv), "".join(lines)) == (
                0, "".join(_alone(argv, line) for line in lines))


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
    monkeypatch.setattr(cli, "READ_SIZE", 13)
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
    monkeypatch.setattr(cli, "READ_SIZE", read_size)
    for argv in CACHE_COMMANDS:
        assert invoke(list(argv), "".join(lines)) == (
            0, "".join(_alone(argv, line) for line in lines))


def test_byte_order_mark_is_dropped_from_line_1_only(monkeypatch):
    monkeypatch.setattr(cli, "READ_SIZE", 1)  # the second line starts the second block
    code, out = invoke(["lemmatize"], "\ufeffamo\n\ufeffamo\n")
    assert (code, out) == (0, "amar\n\ufeffamo\n")


def test_analyzer_value_errors_are_not_reported_as_bad_lines(monkeypatch):
    def fail(self, token, pos_hint=None):
        raise ValueError("analyzer fault")

    monkeypatch.setattr(Analyzer, "preferred_analysis", fail)
    with pytest.raises(ValueError, match="analyzer fault"):
        invoke(["analyze"], "amo\n")


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
    code, out = invoke(["evaluate", "--conll", str(FIXTURES / "sample.conll")])
    assert code == 0
    assert "gender" in out and "Lemma" in out


def test_evaluate_kv_report():
    code, out = invoke(["evaluate", "--conll", str(FIXTURES / "sample.conll"),
                        "--format", "jsonl"])
    assert code == 0
    values = dict(line.split("=") for line in out.split() if "=" in line)
    assert values["feature.gender.f_score"] == "0.800000"
    assert values["feature.total.f_score"] == "0.945455"
    assert values["lemma.all.accuracy"] == "1.000000"


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


def test_run_writes_to_a_redirected_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["lemmatize"], stdin=io.BytesIO(b"amo\n"))
    assert (code, out.getvalue()) == (0, "amar\n")


def _run_module(argv, stdin, **env):
    """``python -m morfo.cli`` in a child process, on real stdin and stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), **env}
    return subprocess.run([sys.executable, "-m", "morfo.cli", *argv], input=stdin,
                          capture_output=True, env=env)


def test_process_output_equals_in_process_output(generation_set):
    """A child on real pipes writes what ``run`` writes to a ``StringIO``.

    The input holds more distinct lines than both cache generations keep,
    so lines are evicted and computed again, and repeats, CRLF endings,
    blank lines and pos hints are mixed in.
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
    for argv in (["analyze"], ["lemmatize", "--format", "jsonl"]):
        code, expected = invoke(argv, text)
        proc = _run_module(argv, text.encode("utf-8"))
        assert (proc.returncode, proc.stderr) == (code, b"") == (0, b"")
        assert proc.stdout.decode("utf-8") == expected


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
        f"morfo: {conll}: 4 FEAT values had no mapping and were kept raw"]


def test_repeated_runs_print_each_warning_once_to_the_current_stderr(capsys):
    for _ in range(3):
        assert invoke(["import-coes"], "prefixes\n") == (0, "\t".join(COLUMNS) + "\n")
        assert capsys.readouterr().err == (
            "morfo: line 1: prefixes section skipped; only suffix rules are imported\n")


def test_console_script_is_installed():
    import shutil

    exe = shutil.which("morfo")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "analyze"], input="amo\n",
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("amo\tamar\tverb")
