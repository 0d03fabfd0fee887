"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single pass/fail line on
the terminal (bypassing capture), so a plain ``pytest -v`` run shows the
verdict per criterion even when everything is green.
"""

import io
import os
import random
import time
from pathlib import Path

import pytest

from morfo.analyzer import Analyzer, Provenance, load_default_table
from morfo.clitics import CliticSplitter
from morfo.coes_import import check_examples, import_rules
from morfo.conll_eval import (
    evaluate_features,
    evaluate_lemmas,
    load_mapping,
    parse_conll,
)
from morfo.derivers import Lemmatizer, Nominalizer
from morfo.features import Mood, Number, Person, Pos, Tense
from morfo.lexicon import load_dictionary
from morfo.resources import data_path
from morfo.rules import load_rules

FIXTURES = Path(__file__).parent / "fixtures"

ENV_DICT = "MORFO_EVAL_DICT"
ENV_RULES = "MORFO_EVAL_RULES"
ENV_DEV = "MORFO_CONLL_DEV"


def _verdict(capsys, criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed {suffix}"


def test_criterion_1_round_trip(capsys, analyzer, lemmatizer, generation_set):
    missing = []
    for root, form, rule_id, _features in generation_set:
        pairs = {(a.lemma, a.rule_id) for a in analyzer.analyze(form)}
        if (root, rule_id) not in pairs:
            missing.append((root, form, rule_id))
    by_form_pos = {}
    for root, form, _rule_id, features in generation_set:
        by_form_pos.setdefault((form, features.pos), set()).add(root)
    wrong_lemmas = []
    checked = 0
    for (form, pos), roots in by_form_pos.items():
        if len(roots) != 1:
            continue
        checked += 1
        root = next(iter(roots))
        if lemmatizer.lemmatize(form, pos) != root:
            wrong_lemmas.append((form, pos, root))
    ok = not missing and not wrong_lemmas and checked > 1000
    _verdict(capsys, 1, ok,
             f"{len(generation_set)} forms, {checked} unambiguous lemmas, "
             f"{len(missing)} analysis misses, {len(wrong_lemmas)} lemma misses")


def test_criterion_2_reference_fixtures(capsys, analyzer, lemmatizer, nominalizer, splitter):
    failures = []

    def check(label, condition):
        if not condition:
            failures.append(label)

    generated = {(a.lemma, a.surface)
                 for word in ("amo", "como", "venzo", "cojo", "vacas", "tabúes")
                 for a in analyzer.analyze(word)
                 if a.provenance is not Provenance.DEFAULT_FALLBACK}
    for pair in (("amar", "amo"), ("comer", "como"), ("vencer", "venzo"),
                 ("coger", "cojo"), ("vaca", "vacas"), ("tabú", "tabúes")):
        check(f"generation {pair}", pair in generated)

    amo = analyzer.analyze("amo")[0].features
    check("amo features", (amo.person, amo.number, amo.mood, amo.tense) == (
        Person.FIRST, Number.SINGULAR, Mood.INDICATIVE, Tense.PRESENT))

    check("llegó", lemmatizer.lemmatize("llegó") == "llegar")
    check("acusado", lemmatizer.lemmatize("acusado", Pos.VERB) == "acusar")
    check("crear", nominalizer.nominalize("crear") == "creación")

    dame = splitter.split_clitics("dame")
    check("dame", (dame.verb_part, dame.clitics) == ("da", ("me",)))
    damelo = splitter.split_clitics("dámelo")
    check("dámelo", (damelo.verb_part, damelo.clitics) == ("da", ("me", "lo")))

    noun = analyzer.preferred_analysis("mercado", Pos.NOUN)
    verb = analyzer.preferred_analysis("mercado", Pos.VERB)
    check("mercado noun", (noun.lemma, noun.features.pos) == ("mercado", Pos.NOUN))
    check("mercado verb", (verb.lemma, verb.features.mood) == ("mercar", Mood.PARTICIPLE))

    _verdict(capsys, 2, not failures, "; ".join(failures) or "13 fixtures")


def test_criterion_3_search_equivalence(capsys, analyzer, oracle, generation_set):
    rng = random.Random(2024)
    alphabet = "abcdefghijklmnopqrstuvwxyzáéíóúñ"
    surfaces = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
                for _ in range(10_000)]
    surfaces.extend(form for _r, form, _i, _f in generation_set)
    mismatches = sum(analyzer.analyze(s) != oracle.analyze(s) for s in surfaces)
    _verdict(capsys, 3, mismatches == 0,
             f"{len(surfaces)} queries, {mismatches} mismatches")


def test_criterion_4_memo_transparency(capsys, lexicon, rule_table, default_table,
                                       generation_set):
    rng = random.Random(99)
    sample = [form for _r, form, _i, _f in rng.sample(generation_set, 1000)]
    cold = Analyzer(lexicon, rule_table, default_table)
    warm = Analyzer(lexicon, rule_table, default_table)
    priming = sample[:]
    rng.shuffle(priming)
    for form in priming:
        warm.analyze(form)
    mismatches = sum(cold.analyze(f) != warm.analyze(f) for f in sample)
    _verdict(capsys, 4, mismatches == 0, f"1000 forms, {mismatches} mismatches")


def test_criterion_5_metrics_correctness(capsys, analyzer, lemmatizer):
    with open(data_path("conll_mapping.tsv"), encoding="utf-8") as stream:
        mapping = load_mapping(stream)
    with open(FIXTURES / "sample.conll", encoding="utf-8") as stream:
        records = parse_conll(stream, mapping)
    scores = evaluate_features(records, analyzer)
    lemmas_all, lemmas_filtered = evaluate_lemmas(records, lemmatizer)
    expected = {
        "person": (1.0, 1.0, 1.0),
        "mood": (1.0, 1.0, 1.0),
        "tense": (1.0, 1.0, 1.0),
        "number": (1.0, 1.0, 1.0),
        "gender": (0.857143, 0.75, 0.8),
        "total": (0.962963, 0.928571, 0.945455),
    }
    failures = []
    for name, (p, r, f) in expected.items():
        got = (round(scores[name].precision, 6), round(scores[name].recall, 6),
               round(scores[name].f_score, 6))
        if got != (p, r, f):
            failures.append(f"{name}: {got} != {(p, r, f)}")
    for score in scores.values():
        p, r = score.precision, score.recall
        identity = 2 * p * r / (p + r) if p + r else 0.0
        if abs(score.f_score - identity) > 1e-12:
            failures.append("F identity violated")
    if round(lemmas_all.ratio, 6) != 1.0 or round(lemmas_filtered.ratio, 6) != 1.0:
        failures.append("lemma accuracy")
    _verdict(capsys, 5, not failures, "; ".join(failures) or "all metrics to 6dp")


def test_criterion_6_importer_fidelity(capsys):
    with open(FIXTURES / "fig1.aff", encoding="utf-8") as stream:
        rows = import_rules(stream)
    expected = [
        ("V", "ar", "o", Tense.PRESENT, None),
        ("V", "(?<=[^cg])er", "o", Tense.PRESENT, None),
        ("V", "cer", "zo", Tense.PRESENT, None),
        ("V", "ger", "jo", Tense.PRESENT, None),
        ("S", "(?<=[aeiouáéó])", "s", None, Number.PLURAL),
        ("S", "(?<=[úídjlmry])", "es", None, Number.PLURAL),
    ]
    got = [(r.flag, r.stem_ending, r.morph_ending, r.features.tense,
            r.features.number) for r in rows]
    problems = check_examples(rows)
    ok = got == expected and not problems
    _verdict(capsys, 6, ok,
             f"{len(rows)} rows, {len(problems)} example failures")


def _full_scale_paths():
    paths = {name: os.environ.get(name) for name in (ENV_DICT, ENV_RULES, ENV_DEV)}
    missing = [name for name, value in paths.items() if not value]
    return paths, missing


def test_criterion_7_full_scale_reproduction(capsys):
    paths, missing = _full_scale_paths()
    if missing:
        with capsys.disabled():
            print(f"\n[acceptance] criterion 7: SKIP  "
                  f"[needs licensed external data; set {', '.join(missing)}]")
        pytest.skip("external evaluation data not supplied")
    with open(paths[ENV_DICT], encoding="utf-8") as stream:
        lexicon = load_dictionary(stream)
    with open(paths[ENV_RULES], encoding="utf-8") as stream:
        rules = load_rules(stream)
    with open(data_path("defaults.tsv"), encoding="utf-8") as stream:
        defaults = load_default_table(stream)
    with open(data_path("conll_mapping.tsv"), encoding="utf-8") as stream:
        mapping = load_mapping(stream)
    analyzer = Analyzer(lexicon, rules, defaults)
    records = []
    for path in paths[ENV_DEV].split(os.pathsep):
        with open(path, encoding="utf-8") as stream:
            records.extend(parse_conll(stream, mapping))
    scores = evaluate_features(records, analyzer)
    lemmas_all, lemmas_filtered = evaluate_lemmas(records, Lemmatizer(analyzer))
    failures = []
    if abs(scores["total"].f_score - 0.937658) > 0.03:
        failures.append(f"total F {scores['total'].f_score:.6f}")
    if abs(scores["gender"].f_score - 0.909444) > 0.03:
        failures.append(f"gender F {scores['gender'].f_score:.6f}")
    if lemmas_all.ratio < 0.90:
        failures.append(f"lemma accuracy {lemmas_all.ratio:.6f}")
    if lemmas_filtered.ratio < 0.96:
        failures.append(f"filtered lemma accuracy {lemmas_filtered.ratio:.6f}")
    _verdict(capsys, 7, not failures, "; ".join(failures) or "within tolerance")


def test_criterion_8_throughput(capsys, lexicon, rule_table, default_table,
                                generation_set):
    dev = os.environ.get(ENV_DEV)
    if dev:
        tokens = []
        for path in dev.split(os.pathsep):
            with open(path, encoding="utf-8") as stream:
                for line in stream:
                    if line.strip():
                        tokens.append(line.split("\t")[1])
        source = "dev file"
    else:
        rng = random.Random(5)
        known = [form for _r, form, _i, _f in generation_set]
        tokens = [rng.choice(known) for _ in range(45_000)]
        tokens.extend("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                              for _ in range(rng.randint(3, 10)))
                      for _ in range(5_000))
        rng.shuffle(tokens)
        source = "synthetic sample"
    analyzer = Analyzer(lexicon, rule_table, default_table)
    start = time.perf_counter()
    for token in tokens:
        analyzer.preferred_analysis(token)
    elapsed = time.perf_counter() - start
    _verdict(capsys, 8, elapsed < 60.0,
             f"{len(tokens)} tokens ({source}) in {elapsed:.2f}s")
