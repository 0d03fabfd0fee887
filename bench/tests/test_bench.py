"""Tests of the benchmark's own code: generators, oracle, and each workload end to end.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import pytest

import run
import trace_layers
import workloads

WORKLOADS = sorted(workloads.WORKLOADS)


def _build(name, seed, path):
    return workloads.build(name, seed, path, workloads.TINY_SIZES)


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic(tmp_path, name):
    first = _build(name, 7, tmp_path / "a")
    again = _build(name, 7, tmp_path / "b")
    other = _build(name, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert first.stats == again.stats


def test_scaled_lexicon_keeps_first_letter_ending_and_flags(tmp_path):
    seed = workloads.SeedData.load()
    import random
    import gen
    entries = gen.scale_lexicon(seed.lexicon, seed.rules, 3, random.Random(1))
    originals = {(e.root[0], e.root[-2:], e.flags) for e in seed.lexicon}
    assert len({e.root for e in entries}) == len(entries) > 2 * len(seed.lexicon)
    assert all((e.root[0], e.root[-2:], e.flags) in originals for e in entries)


def _corrupt(stdout, index, edit):
    lines = stdout.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def test_oracle_flags_corrupted_lines(tmp_path):
    workload = _build("seed-stream", 3, tmp_path)
    inv = workload.job[0]
    out = run.run_cli(inv.argv, inv.stdin, tmp_path).stdout
    assert inv.check(out) == 0
    hit = next(i for i, line in enumerate(inv.lines) if workload.oracle.readings(line.token, line.pos))
    miss = next(i for i, line in enumerate(inv.lines)
                if not workload.oracle.readings(line.token, line.pos))
    swap_lemma = lambda line: "\t".join(f if i != 1 else f + "x" for i, f in enumerate(line.split("\t")))
    assert inv.check(_corrupt(out, hit, swap_lemma)) == 1
    assert inv.check(_corrupt(out, hit, lambda line: line.replace("dictionary", "default_fallback"))) >= 1
    assert inv.check(_corrupt(out, miss, lambda line: line.replace("default_fallback", "dictionary"))) == 1
    assert inv.check(_corrupt(out, hit, lambda line: line.replace("\t", " "))) == 1
    assert inv.check("\n".join(out.split("\n")[:-3]) + "\n") == 2


def test_oracle_flags_corrupted_pipeline_outputs(tmp_path):
    workload = _build("corpus-pipeline", 3, tmp_path)
    for inv in workload.job:
        out = run.run_cli(inv.argv, inv.stdin, tmp_path).stdout
        assert inv.check(out) == 0, inv.command
        if inv.command == "evaluate":
            bad = out.replace("lemma.all.total=", "lemma.all.total=1")
            assert inv.check(bad) == inv.tokens
        else:
            assert inv.check(_corrupt(out, 0, lambda line: "zz" + line)) == 1, inv.command


def test_failed_invocation_fails_every_token(tmp_path):
    workload = _build("seed-stream", 3, tmp_path)
    inv = workload.job[0]
    checker = run.Checker()
    result = run.run_cli([inv.command, "--dict", str(tmp_path / "missing.txt")], inv.stdin, tmp_path)
    assert result.returncode == 2
    checker.record(inv, result)
    assert checker.failed == checker.attempted == inv.tokens


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_end_to_end_without_failures(tmp_path, name):
    workload = _build(name, 5, tmp_path)
    result = run.measure(workload, 0.01, tmp_path)
    checker = result["checker"]
    assert checker.attempted > 0 and checker.failed == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer(tmp_path, name):
    workload = _build(name, 5, tmp_path)
    checker = run.Checker()
    result = trace_layers.measure(workload, 0.01, tmp_path, run.run_cli, run.child_env, checker,
                                  tmp_path / "spans.jsonl")
    assert checker.attempted > 0 and checker.failed == 0
    assert list(result["metrics"]) == list(trace_layers.UNITS)
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    shares = [v for k, v in result["metrics"].items() if k.endswith("share") and k != "trace.overhead_share"]
    assert sum(shares) == pytest.approx(1.0)


def test_tracer_self_time_excludes_children():
    tracer = trace_layers.Tracer()
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.end()
    tracer.end()
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert inner[3] == 0 and outer[3] == -1
    assert own[0] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_bare_directory_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "seed-stream", "--seed", "1", "--seconds", "1"]) == 2
