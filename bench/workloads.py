"""The benchmark's workloads: generated inputs plus the CLI job run over them.

Each workload function writes its inputs under a work directory and returns a
``Workload``: the CLI invocations of one job, the empty-input command whose
wall time is the set-up cost, an oracle to check every output, and input
statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from morfo.analyzer import load_default_table
from morfo.clitics import load_pronoun_table
from morfo.derivers import load_nominal_flags
from morfo.lexicon import Lexicon, load_dictionary
from morfo.resources import data_path
from morfo.rules import RuleTable, load_rules

import gen
from oracle import (Oracle, check_analyze, check_evaluate, check_lemmatize, check_nominalize,
                    check_split, expected_evaluation, scored_tokens)

# Default sizes, chosen so that one job takes a few seconds on a 2-core
# machine and a run holds several jobs.
SIZES = {
    "seed-stream": {"tokens": 200_000, "probe_corpus": 2_000},
    "big-lexicon-cold": {"factor": 100, "tokens": 100, "invocations": 3, "probe_corpus": 2_000},
    "corpus-pipeline": {"factor": 10, "tokens": 15_000},
}

# Sizes for the benchmark's own tests: every code path, in well under a second each.
TINY_SIZES = {
    "seed-stream": {"tokens": 400, "probe_corpus": 100},
    "big-lexicon-cold": {"factor": 3, "tokens": 30, "invocations": 2, "probe_corpus": 100},
    "corpus-pipeline": {"factor": 2, "tokens": 300},
}


@dataclass
class SeedData:
    lexicon: Lexicon
    rules: RuleTable
    defaults: list
    pronouns: List[str]
    nominal_flags: set

    @classmethod
    def load(cls) -> "SeedData":
        def read(name, loader):
            with open(data_path(name), encoding="utf-8") as stream:
                return loader(stream)
        return cls(read("dictionary.txt", load_dictionary), read("rules.tsv", load_rules),
                   read("defaults.tsv", load_default_table),
                   list(read("pronouns.tsv", load_pronoun_table)),
                   read("nominal_flags.txt", load_nominal_flags))


@dataclass
class Invocation:
    """One CLI child: ``morfo <command> <args>`` with ``stdin`` as input."""

    command: str
    args: List[str]
    stdin: Path
    lines: List[gen.TokenLine]  # parsed input, for the in-process replay
    tokens: int
    check: Callable[[str], int]  # stdout -> failed tokens

    @property
    def argv(self) -> List[str]:
        return [self.command, *self.args]


@dataclass
class Workload:
    name: str
    dict_path: Optional[Path]  # None: the packaged seed dictionary
    job: List[Invocation]
    setup: Invocation
    oracle: Oracle
    conll_path: Path  # corpus scored by the conll_eval layer probes
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def job_tokens(self) -> int:
        return sum(inv.tokens for inv in self.job)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _dict_args(path: Optional[Path]) -> List[str]:
    return ["--dict", str(path)] if path else []


def _stats(workload: Workload, roots: int) -> None:
    inputs = {inv.stdin: inv.lines for inv in workload.job}  # children may share an input
    tokens = [line.token for lines in inputs.values() for line in lines]
    oov_share, repeated = gen.stats(tokens, workload.oracle)
    workload.stats = {"roots": roots, "forms": workload.oracle.expanded,
                      "tokens": workload.job_tokens, "oov_share": round(oov_share, 4),
                      "repeated_share": round(repeated, 4)}


def _probe_corpus(entries, seed_data: SeedData, size: int, rng: random.Random,
                  workdir: Path) -> Path:
    corpus = gen.corpus(entries, seed_data.rules, seed_data.pronouns, size, rng)
    return _write(workdir / "probe.conll", corpus.conll_text())


def seed_stream(seed: int, workdir: Path, sizes: dict, seed_data: SeedData) -> Workload:
    """Seed data, one long ``analyze`` over a Zipf stream of generated forms."""
    rng = random.Random(f"seed-stream:{seed}")
    entries = list(seed_data.lexicon)
    oracle = Oracle(entries, seed_data.rules, seed_data.defaults)
    oov = gen.oov_words(2_000, oracle.forms, rng)
    tokens = gen.zipf_stream(sorted(oracle.forms), oov, sizes["tokens"], 0.10, rng)
    lines = gen.hint_lines(tokens, oracle, rng)
    stdin = _write(workdir / "stream.txt", gen.render_lines(lines))
    empty = _write(workdir / "empty.txt", "")
    job = [Invocation("analyze", [], stdin, lines, len(lines),
                      lambda out: check_analyze(oracle, lines, out))]
    conll = _probe_corpus(entries, seed_data, sizes["probe_corpus"], rng, workdir)
    workload = Workload("seed-stream", None, job,
                        Invocation("analyze", [], empty, [], 0, lambda out: 0), oracle, conll)
    _stats(workload, len(entries))
    return workload


def big_lexicon_cold(seed: int, workdir: Path, sizes: dict, seed_data: SeedData) -> Workload:
    """A x100 lexicon; short ``analyze`` runs that together touch every first letter.

    Each run covers one group of first letters, the groups holding about
    equal numbers of roots. Each child lasts about a second, and the
    benchmark averages the children's first-line times within a round.
    """
    rng = random.Random(f"big-lexicon-cold:{seed}")
    entries = gen.scale_lexicon(seed_data.lexicon, seed_data.rules, sizes["factor"], rng)
    dict_path = _write(workdir / "lexicon.txt", gen.lexicon_text(entries))
    batches = [gen.letter_spread(group, seed_data.rules, sizes["tokens"], 0.10, rng)
               for group in gen.letter_groups(entries, sizes["invocations"])]
    oracle = Oracle(entries, seed_data.rules, seed_data.defaults,
                    keep=Oracle.keep_set(t for batch in batches for t in batch))
    job = []
    for i, batch in enumerate(batches):
        lines = gen.hint_lines(batch, oracle, rng)
        stdin = _write(workdir / f"tokens{i}.txt", gen.render_lines(lines))
        job.append(Invocation("analyze", _dict_args(dict_path), stdin, lines, len(lines),
                              lambda out, lines=lines: check_analyze(oracle, lines, out)))
    empty = _write(workdir / "empty.txt", "")
    conll = _probe_corpus(entries, seed_data, sizes["probe_corpus"], rng, workdir)
    workload = Workload("big-lexicon-cold", dict_path, job,
                        Invocation("analyze", _dict_args(dict_path), empty, [], 0, lambda out: 0),
                        oracle, conll)
    _stats(workload, len(entries))
    return workload


def corpus_pipeline(seed: int, workdir: Path, sizes: dict, seed_data: SeedData) -> Workload:
    """A x10 lexicon and a CoNLL corpus from it: evaluate plus three token commands."""
    rng = random.Random(f"corpus-pipeline:{seed}")
    entries = gen.scale_lexicon(seed_data.lexicon, seed_data.rules, sizes["factor"], rng)
    dict_path = _write(workdir / "lexicon.txt", gen.lexicon_text(entries))
    corpus = gen.corpus(entries, seed_data.rules, seed_data.pronouns, sizes["tokens"], rng)
    conll = _write(workdir / "corpus.conll", corpus.conll_text())
    lines = gen.corpus_form_lines(corpus)
    stdin = _write(workdir / "forms.txt", gen.render_lines(lines))
    oracle = Oracle(entries, seed_data.rules, seed_data.defaults, seed_data.nominal_flags,
                    seed_data.pronouns,
                    keep=Oracle.keep_set((line.token for line in lines), seed_data.pronouns))
    expected = expected_evaluation(oracle, corpus)
    args = _dict_args(dict_path)
    n = len(lines)
    job = [
        Invocation("lemmatize", args, stdin, lines, n, lambda out: check_lemmatize(oracle, lines, out)),
        Invocation("split-clitics", args, stdin, lines, n, lambda out: check_split(oracle, lines, out)),
        Invocation("nominalize", args, stdin, lines, n,
                   lambda out: check_nominalize(oracle, lines, out)),
        Invocation("evaluate", [*args, "--conll", str(conll), "--format", "jsonl"],
                   _write(workdir / "empty.txt", ""), [], scored_tokens(corpus),
                   lambda out: check_evaluate(expected, corpus, out)),
    ]
    workload = Workload("corpus-pipeline", dict_path, job,
                        Invocation("lemmatize", args, workdir / "empty.txt", [], 0, lambda out: 0),
                        oracle, conll)
    _stats(workload, len(entries))
    return workload


WORKLOADS = {"seed-stream": seed_stream, "big-lexicon-cold": big_lexicon_cold,
            "corpus-pipeline": corpus_pipeline}


def build(name: str, seed: int, workdir: Path, sizes: Optional[dict] = None) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir, (sizes or SIZES)[name], SeedData.load())
