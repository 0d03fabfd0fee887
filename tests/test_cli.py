import io
import json
from pathlib import Path

import pytest

from morfo.cli import run

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(argv, stdin_text=""):
    out = io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out)
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
    code, _out = invoke(["analyze"], "amo\tadverbio\n")
    assert code == 1
    assert "unknown pos tag" in capsys.readouterr().err


def test_empty_token_exits_1_naming_the_line(capsys):
    code, out = invoke(["analyze"], "amo\n\tverb\n")
    assert code == 1
    assert out.count("\n") == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "empty token" in err and "Traceback" not in err


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


def test_console_script_is_installed():
    import shutil
    import subprocess

    exe = shutil.which("morfo")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "analyze"], input="amo\n",
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("amo\tamar\tverb")
