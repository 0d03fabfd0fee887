"""Per-layer metrics: an in-process replay of a workload's CLI job, traced.

Spans are recorded here, around calls into morfo's public functions; nothing
inside ``src/morfo`` is instrumented. The replay repeats what each CLI
command does (load the data files, build the analyzer, run the command over
the input) without argument parsing, decoding or output formatting, which
are left to ``cli.overhead_s``. Layer probes then time each module's calls
on a warm analyzer over the same inputs.

Each CLI child is replayed in a fresh interpreter of its own, as the CLI
runs, so the benchmark's own memory (oracle, generated inputs) cannot slow
it; so are the probes:

    python trace_layers.py <spec.json> replay|traced <index> [<spans.jsonl>]
    python trace_layers.py <spec.json> probes

prints one JSON object; a traced replay appends its spans to the file.
``measure`` drives these children from run.py.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List

from morfo.analyzer import Analyzer, Provenance, load_default_table
from morfo.clitics import CliticSplitter, load_pronoun_table
from morfo.conll_eval import evaluate_features, evaluate_lemmas, load_mapping, parse_conll
from morfo.derivers import Lemmatizer, Nominalizer, load_nominal_flags
from morfo.features import Pos
from morfo.lexicon import load_dictionary, normalize
from morfo.resources import data_path
from morfo.rules import load_rules

UNITS = {
    "import.interpreter_s": "s", "import.morfo_s": "s",
    "lexicon.roots": "count", "lexicon.load_s": "s",
    "rules.forms": "count", "rules.load_s": "s",
    "analyzer.defaults_load_s": "s", "analyzer.construct_s": "s",
    "analyzer.cold_lookup_us_p50": "us", "analyzer.cold_lookup_us_max": "us",
    "analyzer.cold_total_s": "s", "analyzer.memo_forms": "count",
    "analyzer.warm_lookup_us": "us", "analyzer.rank_us": "us", "analyzer.miss_us": "us",
    "analyzer.hit_ratio": "share", "analyzer.readings_per_token": "count",
    "derivers.lemmatize_us": "us", "derivers.nominalize_us": "us", "derivers.nominal_ratio": "share",
    "clitics.split_us": "us", "clitics.analyze_calls_per_token": "count",
    "clitics.split_ratio": "share",
    "conll_eval.parse_s": "s", "conll_eval.features_s": "s", "conll_eval.lemmas_s": "s",
    "cli.wall_s": "s", "cli.overhead_s": "s",
    "import.share": "share", "lexicon.share": "share", "rules.share": "share",
    "analyzer.setup_share": "share", "analyzer.cold_share": "share",
    "analyzer.warm_share": "share", "derivers.share": "share", "clitics.share": "share",
    "conll_eval.share": "share", "cli.share": "share",
    "trace.overhead_share": "share",
}

# Self-time buckets whose shares of the CLI job's wall time are reported.
_BUCKETS = {"lexicon": "lexicon.share", "rules": "rules.share",
            "analyzer.defaults_load": "analyzer.setup_share",
            "analyzer.construct": "analyzer.setup_share", "analyzer.cold": "analyzer.cold_share",
            "analyzer.warm": "analyzer.warm_share", "derivers": "derivers.share",
            "clitics": "clitics.share", "conll_eval": "conll_eval.share"}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, request]."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request = 0

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def append_to(self, path: Path) -> None:
        with open(path, "a", encoding="utf-8") as out:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")


class NullTracer:
    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def span(self, name: str):
        return nullcontext()


class TracedAnalyzer:
    """Stands in for an Analyzer: counts and spans its lookups.

    The first lookup of each first letter is an ``analyzer.cold`` span (it
    expands that letter's roots), every other one ``analyzer.warm``.
    """

    def __init__(self, analyzer: Analyzer, tracer):
        self._analyzer = analyzer
        self._tracer = tracer
        self._letters = set()
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._analyzer, name)

    def _traced(self, method, word, pos_hint):
        self.calls += 1
        surface = normalize(word)
        cold = surface.isalpha() and surface[0] not in self._letters
        if cold:
            self._letters.add(surface[0])
        self._tracer.begin("analyzer.cold" if cold else "analyzer.warm")
        try:
            return method(word, pos_hint)
        finally:
            self._tracer.end()

    def analyze(self, word, pos_hint=None):
        return self._traced(self._analyzer.analyze, word, pos_hint)

    def preferred_analysis(self, word, pos_hint=None):
        return self._traced(self._analyzer.preferred_analysis, word, pos_hint)


def _read(path, loader):
    with open(path, encoding="utf-8") as stream:
        return loader(stream)


def read_items(path) -> List[tuple]:
    """(token, pos hint) pairs of a CLI input file, parsed as the CLI parses them."""
    items = []
    with open(path, encoding="utf-8") as stream:
        for raw in stream:
            line = raw.rstrip("\n")
            if line.strip():
                token, _, pos = line.partition("\t")
                items.append((token.strip(), Pos(pos.strip().lower()) if pos.strip() else None))
    return items


def _memo_forms(analyzer: Analyzer) -> int:
    memo_size = getattr(analyzer, "memo_size", None)
    return memo_size() if memo_size else 0


def _replay_invocation(inv: dict, items, spec: dict, tracer, traced: bool) -> int:
    """What ``morfo <inv.command>`` does, minus parsing and formatting; returns memo size."""
    command, args = inv["command"], inv["args"]
    with tracer.span("lexicon.load"):
        lexicon = _read(spec["dict"] or data_path("dictionary.txt"), load_dictionary)
    with tracer.span("rules.load"):
        rules = _read(data_path("rules.tsv"), load_rules)
    with tracer.span("analyzer.defaults_load"):
        defaults = _read(data_path("defaults.tsv"), load_default_table)
    with tracer.span("analyzer.construct"):
        analyzer = Analyzer(lexicon, rules, defaults)
    a = TracedAnalyzer(analyzer, tracer) if traced else analyzer
    if command == "analyze":
        for token, pos in items:
            a.preferred_analysis(token, pos)
    elif command == "lemmatize":
        lemmatizer = Lemmatizer(a)
        for token, pos in items:
            tracer.begin("derivers.lemmatize")
            lemmatizer.lemmatize(token, pos)
            tracer.end()
    elif command == "nominalize":
        with tracer.span("derivers.load_flags"):
            flags = _read(data_path("nominal_flags.txt"), load_nominal_flags)
        with tracer.span("derivers.construct"):
            nominalizer = Nominalizer(Lemmatizer(a), flags)
        for token, _pos in items:
            tracer.begin("derivers.nominalize")
            nominalizer.nominalize(token)
            tracer.end()
    elif command == "split-clitics":
        with tracer.span("clitics.load_pronouns"):
            pronouns = _read(data_path("pronouns.tsv"), load_pronoun_table)
        splitter = CliticSplitter(a, pronouns)
        for token, _pos in items:
            tracer.begin("clitics.split")
            splitter.split_clitics(token)
            tracer.end()
    elif command == "evaluate":
        with tracer.span("conll_eval.load_mapping"):
            mapping = _read(data_path("conll_mapping.tsv"), load_mapping)
        with tracer.span("conll_eval.parse"):
            records = _read(args[args.index("--conll") + 1],
                            lambda stream: parse_conll(stream, mapping))
        with tracer.span("conll_eval.features"):
            evaluate_features(records, a)
        with tracer.span("conll_eval.lemmas"):
            evaluate_lemmas(records, Lemmatizer(a))
    else:
        raise ValueError(f"no replay for command {command!r}")
    return _memo_forms(analyzer)


def replay(spec: dict, index: int, tracer, traced: bool) -> dict:
    """Replay the job's child ``index``; returns its wall time and memo size."""
    inv = spec["job"][index]
    items = read_items(inv["stdin"])
    tracer.request = index
    start = time.perf_counter()
    with tracer.span(f"cli.{inv['command']}"):
        memo = _replay_invocation(inv, items, spec, tracer, traced)
    return {"wall_s": time.perf_counter() - start, "memo_forms": memo}


# Spans whose durations the per-layer figures need.
_TIMED = ("lexicon.load", "rules.load", "analyzer.defaults_load", "analyzer.construct",
          "analyzer.cold")


def span_summary(tracer: Tracer) -> dict:
    """Durations of the ``_TIMED`` spans and self time per share bucket."""
    durations: Dict[str, List[float]] = {name: [] for name in _TIMED}
    buckets: Dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = span[0]
        if name in durations:
            durations[name].append(span[2] - span[1])
        bucket = _BUCKETS.get(name) or _BUCKETS.get(name.split(".")[0])
        if bucket:
            buckets[bucket] = buckets.get(bucket, 0.0) + own
    return {"durations": durations, "buckets": buckets}


def layer_figures(durations: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer figures from the spans of one traced job."""
    cold_us = sorted(d * 1e6 for d in durations["analyzer.cold"]) or [0.0]
    out = {f"{name}_s": statistics.median(durations[name]) for name in _TIMED[:4]}
    out.update({"analyzer.cold_lookup_us_p50": statistics.median(cold_us),
                "analyzer.cold_lookup_us_max": cold_us[-1],
                "analyzer.cold_total_s": sum(durations["analyzer.cold"])})
    return out


def _per_call_us(fn, items) -> float:
    start = time.perf_counter()
    for token, pos in items:
        fn(token, pos)
    return (time.perf_counter() - start) / max(1, len(items)) * 1e6


def probes(spec: dict) -> Dict[str, float]:
    """Per-call costs and ratios of each layer on a warm analyzer over the job's tokens."""
    rules = _read(data_path("rules.tsv"), load_rules)
    lexicon = _read(spec["dict"] or data_path("dictionary.txt"), load_dictionary)
    analyzer = Analyzer(lexicon, rules, _read(data_path("defaults.tsv"), load_default_table))
    items = [item for inv in spec["job"] for item in read_items(inv["stdin"])]
    items = items[:spec["probe_tokens"]]
    readings = [analyzer.analyze(token, pos) for token, pos in items]  # expands every letter the tokens use
    hits = [[r for r in rs if r.provenance is not Provenance.DEFAULT_FALLBACK] for rs in readings]
    misses = [item for item, h in zip(items, hits) if not h]
    out = {"analyzer.warm_lookup_us": _per_call_us(analyzer.analyze, items)}
    out["analyzer.rank_us"] = (_per_call_us(analyzer.preferred_analysis, items)
                               - _per_call_us(analyzer.analyze, items))
    out["analyzer.miss_us"] = _per_call_us(analyzer.analyze, misses) if misses else 0.0
    out["analyzer.hit_ratio"] = sum(1 for h in hits if h) / len(items)
    out["analyzer.readings_per_token"] = sum(len(h) for h in hits) / len(items)

    lemmatizer = Lemmatizer(analyzer)
    out["derivers.lemmatize_us"] = _per_call_us(lemmatizer.lemmatize, items)
    flags = _read(data_path("nominal_flags.txt"), load_nominal_flags)
    nominalizer = Nominalizer(Lemmatizer(analyzer), flags)
    out["derivers.nominalize_us"] = _per_call_us(lambda t, _p: nominalizer.nominalize(t), items)
    out["derivers.nominal_ratio"] = sum(1 for t, _p in items
                                        if nominalizer.nominalize(t) is not None) / len(items)

    pronouns = _read(data_path("pronouns.tsv"), load_pronoun_table)
    splitter = CliticSplitter(analyzer, pronouns)
    out["clitics.split_us"] = _per_call_us(lambda t, _p: splitter.split_clitics(t), items)
    counting = TracedAnalyzer(analyzer, NullTracer())
    counted = CliticSplitter(counting, pronouns)
    splits = sum(1 for t, _p in items if counted.split_clitics(t).is_split)
    out["clitics.analyze_calls_per_token"] = counting.calls / len(items)
    out["clitics.split_ratio"] = splits / len(items)

    mapping = _read(data_path("conll_mapping.tsv"), load_mapping)
    start = time.perf_counter()
    records = _read(spec["conll"], lambda stream: parse_conll(stream, mapping))
    out["conll_eval.parse_s"] = time.perf_counter() - start
    start = time.perf_counter()
    evaluate_features(records, analyzer)
    out["conll_eval.features_s"] = time.perf_counter() - start
    start = time.perf_counter()
    evaluate_lemmas(records, Lemmatizer(analyzer))
    out["conll_eval.lemmas_s"] = time.perf_counter() - start
    return out


def _python_seconds(code: str, env) -> float:
    """Median over three fresh interpreters of the float ``code`` prints."""
    values = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        values.append(float(done.stdout))
    return statistics.median(values)


def _interpreter_seconds(env) -> float:
    values = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        values.append(time.perf_counter() - start)
    return statistics.median(values)


def _child(spec_path: Path, env, *args) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), str(spec_path), *map(str, args)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def measure(workload, seconds: float, workdir: Path, run_cli, child_env, checker,
            trace_path: Path) -> dict:
    """Rounds of (untraced replay, traced replay, untraced CLI job) for ``seconds``."""
    env = child_env()
    spec_path = workdir / "replay.json"
    spec_path.write_text(json.dumps({
        "dict": str(workload.dict_path) if workload.dict_path else None,
        "conll": str(workload.conll_path),
        "probe_tokens": 10_000,
        "job": [{"command": inv.command, "args": inv.args, "stdin": str(inv.stdin)}
                for inv in workload.job],
    }), encoding="utf-8")
    interpreter_s = _interpreter_seconds(env)
    import_s = _python_seconds("import time; t = time.perf_counter(); import morfo.cli; "
                               "print(time.perf_counter() - t)", env)
    for inv in workload.job:  # warm the bytecode and page caches
        run_cli(inv.argv, inv.stdin, workdir)
    children = range(len(workload.job))
    untraced, traced, cli_walls = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(sum(_child(spec_path, env, "replay", i)["wall_s"] for i in children))
        trace_path.unlink(missing_ok=True)
        replays = [_child(spec_path, env, "traced", i, trace_path) for i in children]
        durations = {name: [d for r in replays for d in r["durations"][name]] for name in _TIMED}
        buckets: Dict[str, float] = {}
        for r in replays:
            for bucket, own in r["buckets"].items():
                buckets[bucket] = buckets.get(bucket, 0.0) + own
        traced.append({"wall_s": sum(r["wall_s"] for r in replays),
                       "memo_forms": max(r["memo_forms"] for r in replays),
                       "layers": layer_figures(durations), "buckets": buckets})
        results = [run_cli(inv.argv, inv.stdin, workdir) for inv in workload.job]
        cli_walls.append(results[-1].end - results[0].start)
        for inv, res in zip(workload.job, results):
            checker.record(inv, res)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(cli_walls) > seconds:
            break

    metrics: Dict[str, float] = {"import.interpreter_s": interpreter_s, "import.morfo_s": import_s,
                                 "lexicon.roots": workload.stats["roots"],
                                 "rules.forms": workload.oracle.expanded,
                                 "analyzer.memo_forms": traced[-1]["memo_forms"]}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(t["layers"][name] for t in traced)
    metrics.update(_child(spec_path, env, "probes"))

    # Best rounds: they move least with the host's load.
    cli_wall = min(cli_walls)
    replay_wall = min(untraced)
    starts = len(workload.job) * (interpreter_s + import_s)
    metrics["cli.wall_s"] = cli_wall
    metrics["cli.overhead_s"] = cli_wall - starts - replay_wall
    # Split the library's part of the CLI wall time by traced self time.
    buckets: Dict[str, float] = {}
    for t in traced:
        for bucket, own in t["buckets"].items():
            buckets[bucket] = buckets.get(bucket, 0.0) + own / len(traced)
    library_share = replay_wall / cli_wall
    traced_total = sum(buckets.values()) or 1.0
    for name in UNITS:
        if name.endswith("share") and name.split(".")[0] not in ("import", "cli", "trace"):
            metrics[name] = buckets.get(name, 0.0) / traced_total * library_share
    metrics["import.share"] = starts / cli_wall
    metrics["cli.share"] = metrics["cli.overhead_s"] / cli_wall
    metrics["trace.overhead_share"] = min(t["wall_s"] for t in traced) / replay_wall - 1.0
    return {"metrics": {name: metrics[name] for name in UNITS}, "rounds": len(cli_walls)}


def report(workload, result: dict) -> List[str]:
    lines = [f"workload {workload.name} (traced, {result['rounds']} rounds): "
             + ", ".join(f"{k}={v}" for k, v in workload.stats.items())]
    for name, value in result["metrics"].items():
        lines.append(f"{name:<36}{value:>16.6g}  {UNITS[name]}")
    return lines


def _main(argv: List[str]) -> None:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    mode = argv[1]
    if mode == "probes":
        print(json.dumps(probes(spec)))
        return
    tracer = Tracer() if mode == "traced" else NullTracer()
    result = replay(spec, int(argv[2]), tracer, traced=mode == "traced")
    if mode == "traced":
        result.update(span_summary(tracer))
        tracer.append_to(Path(argv[3]))
    print(json.dumps(result))


if __name__ == "__main__":
    _main(sys.argv[1:])
