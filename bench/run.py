"""Benchmark for the morfo CLI: end-to-end metrics, or per-layer metrics when traced.

Usage (from the repository root):

    python3 bench/run.py --workload seed-stream --seed 1 --seconds 50 --trace 0

It generates the workload's inputs from ``--seed`` under ``.bench_out/``,
runs the workload's CLI job again and again for ``--seconds`` (one child
process at a time, stdin from a pre-written file), checks every output
against the brute-force oracle, and prints a report followed, as the last
line of stdout, by one JSON object with the metrics. ``--trace 1`` instead
replays the job in-process with spans around each module's public calls and
reports per-layer metrics. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Timings are scaled to a host on which the reference task takes this long,
# about its median on the 2-vCPU VM the baselines in README.md come from.
REFERENCE_S = 0.15
WORKLOADS = ("seed-stream", "big-lexicon-cold", "corpus-pipeline")

# Set-up probes per round. One is enough for a steady median and leaves
# more of a run to jobs, whose medians are the noisier ones.
SETUP_PROBES = 1
END_TO_END_UNITS = {"setup_s": "s", "first_line_s": "s", "wall_s": "s", "tok_per_s": "tok/s",
                    "peak_rss_mb": "MB"}


def child_env() -> Dict[str, str]:
    """Environment for CLI children: this checkout's sources, packaged data.

    Output buffering and bytecode caching are left at Python's defaults, as
    an installed ``morfo`` would run, whatever the caller's environment says.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("MORFO_DATA", "PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


@dataclass
class CliResult:
    start: float  # perf_counter at spawn
    end: float  # perf_counter after exit
    first_line_s: float
    stdout: str
    returncode: int
    peak_rss_kb: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_cli(argv: List[str], stdin: Path, workdir: Path) -> CliResult:
    """Run one CLI child to completion, timing its first output line and its exit."""
    err_path = workdir / "stderr.txt"
    with open(stdin, "rb") as fin, open(err_path, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), *argv], stdin=fin,
                                stdout=subprocess.PIPE, stderr=ferr, env=child_env())
        with proc.stdout:
            first = proc.stdout.readline()
            first_at = time.perf_counter()
            rest = proc.stdout.read()
        code = proc.wait()
        end = time.perf_counter()
    lines = err_path.read_text(encoding="utf-8", errors="replace").splitlines()
    peak = int(lines[-1].split()[1]) if lines and lines[-1].startswith("VmHWM ") else 0
    return CliResult(start, end, first_at - start, (first + rest).decode("utf-8", "replace"),
                     code, peak)


def tail(samples: List[float], higher_is_worse: bool = True):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples, reverse=not higher_is_worse)
    for pct in (99, 95, 90, 75, 50):
        k = int(len(ordered) * pct / 100)
        if k < len(ordered) and len(ordered) - k - 1 >= 10:
            return pct, ordered[k]
    return None


class Checker:
    """Checks each invocation's stdout once per distinct output (by sha256)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts: Dict[tuple, int] = {}
        self.digests: Dict[str, set] = {}

    def record(self, inv, result: CliResult) -> None:
        digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
        self.digests.setdefault(" ".join(inv.argv[:1]), set()).add(digest)
        key = (id(inv), digest, result.returncode)
        if key not in self.verdicts:
            self.verdicts[key] = inv.tokens if result.returncode else inv.check(result.stdout)
        self.attempted += inv.tokens
        self.failed += self.verdicts[key]


def run_reference() -> float:
    """Wall time of one run of the fixed reference task, in a fresh interpreter."""
    env = child_env()
    env.pop("PYTHONPATH")  # the reference must not see the program under test
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(REFERENCE)], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL, env=env)
    with proc.stdout:
        proc.stdout.read()
    if proc.wait():
        raise RuntimeError("the reference task failed")
    return time.perf_counter() - start


def measure(workload, seconds: float, workdir: Path) -> dict:
    """Alternate the reference task, set-up probes and one job until ``seconds`` are spent.

    The host is shared, and other tenants slow every CPU-bound process on it
    by up to 1.6x for minutes at a time, so raw times of the same code differ
    between runs by more than any bound could allow. Each round is therefore
    bracketed by runs of the fixed reference task (``reference.py``), and
    every time of the round is divided by the mean of the two. A timing is
    the median of these ratios over the run, times ``REFERENCE_S``: the time
    on a host where the reference takes ``REFERENCE_S`` seconds. A change to
    the program moves it as it moves the raw time; a change of host speed
    moves the reference too and mostly cancels out. ``first_line_s`` is the
    mean over the job's invocations of spawn to first output line, so a job
    of several short children gives it as many samples per round as
    ``wall_s`` has. The report also prints each timing's raw median, tail
    and sample count.
    """
    checker = Checker()
    raw: Dict[str, List[float]] = {name: [] for name in ("setup_s", "first_line_s", "wall_s")}
    scaled: Dict[str, List[float]] = {name: [] for name in raw}
    peak_kb = 0
    # One untimed round compiles bytecode and warms the page cache.
    run_reference()
    run_cli(workload.setup.argv, workload.setup.stdin, workdir)
    for inv in workload.job:
        run_cli(inv.argv, inv.stdin, workdir)
    start = time.perf_counter()
    rounds = 0
    reference = run_reference()
    while True:
        times = {name: [] for name in raw}
        for _ in range(SETUP_PROBES):
            times["setup_s"].append(
                run_cli(workload.setup.argv, workload.setup.stdin, workdir).wall_s)
        results = [run_cli(inv.argv, inv.stdin, workdir) for inv in workload.job]
        times["wall_s"].append(results[-1].end - results[0].start)
        times["first_line_s"].append(statistics.fmean(r.first_line_s for r in results))
        after = run_reference()
        scale = REFERENCE_S / ((reference + after) / 2)
        reference = after
        for name, values in times.items():
            raw[name].extend(values)
            scaled[name].extend(value * scale for value in values)
        peak_kb = max([peak_kb] + [r.peak_rss_kb for r in results])
        for inv, result in zip(workload.job, results):
            checker.record(inv, result)
        rounds += 1
        per_round = (time.perf_counter() - start) / rounds
        if time.perf_counter() - start + per_round > seconds:
            break
    raw["tok_per_s"] = [workload.job_tokens / wall for wall in raw["wall_s"]]
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    metrics["tok_per_s"] = workload.job_tokens / metrics["wall_s"]
    metrics["peak_rss_mb"] = peak_kb / 1024
    return {"metrics": {name: metrics[name] for name in END_TO_END_UNITS}, "samples": raw,
            "checker": checker}


def report_end_to_end(workload, result: dict) -> List[str]:
    checker = result["checker"]
    lines = [f"workload {workload.name}: " + ", ".join(f"{k}={v}" for k, v in workload.stats.items())]
    lines.append(f"timings scaled to a {REFERENCE_S} s reference task; raw: median, tail, samples")
    lines.append(f"{'metric':<14}{'scaled':>12}{'raw':>12}{'raw tail':>18}{'n':>6}  unit")
    for name, values in result["samples"].items():
        t = tail(values, higher_is_worse=name != "tok_per_s")
        tail_text = f"p{t[0]} {t[1]:.6g}" if t else "(n < 11)"
        lines.append(f"{name:<14}{result['metrics'][name]:>12.6g}{statistics.median(values):>12.6g}"
                     f"{tail_text:>18}{len(values):>6}  {END_TO_END_UNITS[name]}")
    lines.append(f"{'peak_rss_mb':<14}{result['metrics']['peak_rss_mb']:>12.6g}{'':>12}{'(max)':>18}"
                 f"{len(result['samples']['wall_s']) * len(workload.job):>6}  MB")
    share = checker.failed / checker.attempted if checker.attempted else 0.0
    lines.append(f"{'failed_share':<14}{share:>12.6g}{'':>30}{checker.attempted:>6}  share"
                 f" ({checker.failed} of {checker.attempted} tokens)")
    for command, digests in checker.digests.items():
        lines.append(f"stdout sha256 {command}: {' '.join(sorted(digests))}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morfo" / "cli.py").is_file():
        print(f"bench: no morfo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs morfo on sys.path)

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, workdir)
        print(f"inputs generated in {time.perf_counter() - setup_start:.2f}s")
        if args.trace:
            import trace_layers
            checker = Checker()
            result = trace_layers.measure(workload, args.seconds, workdir, run_cli, child_env,
                                          checker, OUT / f"trace-{args.workload}.jsonl")
            lines = trace_layers.report(workload, result)
            units = trace_layers.UNITS
        else:
            result = measure(workload, args.seconds, workdir)
            checker = result["checker"]
            lines = report_end_to_end(workload, result)
            units = END_TO_END_UNITS
        metrics = result["metrics"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
