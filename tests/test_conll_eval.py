import io
import random
from pathlib import Path

import pytest

from morfo.conll_eval import (
    FeatureScore,
    evaluate_features,
    evaluate_lemmas,
    load_mapping,
    parse_conll,
    participle_filter,
    render_kv,
    render_text,
)
from morfo.derivers import Lemmatizer
from morfo.errors import LoadError
from morfo.features import Gender, Mood, Number, Person, Pos, Tense
from morfo.resources import data_path

FIXTURE = Path(__file__).parent / "fixtures" / "sample.conll"


@pytest.fixture(scope="module")
def mapping():
    with open(data_path("conll_mapping.tsv"), encoding="utf-8") as stream:
        return load_mapping(stream)


@pytest.fixture(scope="module")
def records(mapping):
    with open(FIXTURE, encoding="utf-8") as stream:
        return parse_conll(stream, mapping)


def test_fixture_has_twenty_records(records):
    assert len(records) == 20


def test_predicate_lemma_from_sense(records):
    llego = next(r for r in records if r.form == "llegó")
    assert llego.is_predicate
    assert llego.gold_lemma == "llegar"
    assert llego.gold_pos is Pos.VERB
    f = llego.gold_features
    assert (f.person, f.number, f.mood, f.tense) == (
        Person.THIRD, Number.SINGULAR, Mood.INDICATIVE, Tense.PAST)


def test_non_predicate_fields(records):
    vacas = next(r for r in records if r.form == "vacas")
    assert not vacas.is_predicate
    assert vacas.gold_lemma == "vaca"
    assert (vacas.gold_features.gender, vacas.gold_features.number) == (
        Gender.FEMALE, Number.PLURAL)
    el = next(r for r in records if r.form == "El")
    assert el.gold_pos is None  # determiner tag is unmapped


def test_column_count_mismatch_raises(mapping):
    with pytest.raises(LoadError, match="line 1"):
        parse_conll(io.StringIO("1\tsolo\tcuatro\tcolumnas\n"), mapping)


def test_mapping_load_errors():
    with pytest.raises(LoadError, match="line 1"):
        load_mapping(io.StringIO("pos\tv\n"))
    with pytest.raises(LoadError, match="line 1"):
        load_mapping(io.StringIO("feat\tgen=m\tcolor=male\n"))
    with pytest.raises(LoadError, match="line 1"):
        load_mapping(io.StringIO("bogus\tx\ty\n"))


# -- hand-computed metrics on the 20-token fixture ----------------------------
# Scored tokens (gold pos in verb/noun/adjective): hombre, llegó, mercado,
# vacas, comieron, campo, señora, es, buena, fantasma, zagales  (11 tokens).
# person/mood/tense: gold and predictions set on the 3 verbs, all correct.
# number: gold and predictions set on all 11, all correct.
# gender: gold set on the 8 non-verbs; predictions set on 7 (zagales falls
# back to the gender-less -es default row) and fantasma's fallback predicts
# female against gold male -> correct 6, precision 6/7, recall 6/8.

EXPECTED = {
    "person": (3 / 3, 3 / 3),
    "mood": (3 / 3, 3 / 3),
    "tense": (3 / 3, 3 / 3),
    "number": (11 / 11, 11 / 11),
    "gender": (6 / 7, 6 / 8),
    "total": (26 / 27, 26 / 28),
}


def test_feature_metrics_match_hand_counts(records, analyzer):
    scores = evaluate_features(records, analyzer)
    for name, (precision, recall) in EXPECTED.items():
        assert scores[name].precision == pytest.approx(precision, abs=1e-9), name
        assert scores[name].recall == pytest.approx(recall, abs=1e-9), name
    assert scores["gender"].f_score == pytest.approx(0.8, abs=1e-9)
    assert scores["total"].f_score == pytest.approx(52 / 55, abs=1e-9)


def test_f_score_identity(records, analyzer):
    for score in evaluate_features(records, analyzer).values():
        p, r = score.precision, score.recall
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert score.f_score == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0


def test_feature_metrics_are_permutation_invariant(records, analyzer):
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    a = evaluate_features(records, analyzer)
    b = evaluate_features(shuffled, analyzer)
    for name in a:
        assert (a[name].correct, a[name].gold_count, a[name].pred_count) == (
            b[name].correct, b[name].gold_count, b[name].pred_count)


def test_lemma_metrics_on_fixture(records, lemmatizer):
    all_score, filtered = evaluate_lemmas(records, lemmatizer)
    assert (all_score.total, all_score.correct) == (3, 3)
    assert (filtered.total, filtered.correct) == (3, 3)
    assert all_score.ratio == 1.0


def _predicate_line(i, form, sense):
    cols = [str(i), form, "_", "_", "v", "v", "_", "_", "0", "0", "_", "_", "Y", sense]
    return "\t".join(cols)


def test_lemma_accuracy_with_deliberate_errors(mapping, lemmatizer):
    # 10 predicates; two gold lemmas deliberately wrong -> accuracy 0.8
    forms = ["llegó", "amo", "comieron", "vivían", "cantaste", "acusado",
             "creó", "subimos", "habló", "miraron"]
    lemmas = ["llegar", "amar", "comer", "vivir", "cantar", "acusado",
              "crear", "subir", "hablar", "mirarse"]
    lines = [_predicate_line(i + 1, f, f"{l}.a1") for i, (f, l) in enumerate(zip(forms, lemmas))]
    records = parse_conll(io.StringIO("\n".join(lines) + "\n"), mapping)
    all_score, filtered = evaluate_lemmas(records, lemmatizer)
    assert (all_score.total, all_score.correct) == (10, 8)
    assert all_score.ratio == pytest.approx(0.8, abs=1e-9)
    # the only participle-shaped form is also one of the wrong ones
    assert (filtered.total, filtered.correct) == (9, 8)
    assert all_score.total - filtered.total == sum(participle_filter(f) for f in forms)


def test_all_infinitive_predicates_score_one(mapping, lemmatizer):
    lines = [_predicate_line(i + 1, v, f"{v}.a1") for i, v in enumerate(["amar", "comer", "vivir"])]
    records = parse_conll(io.StringIO("\n".join(lines) + "\n"), mapping)
    all_score, _ = evaluate_lemmas(records, lemmatizer)
    assert all_score.ratio == 1.0


def test_filter_on_lemma_flag(mapping, lemmatizer):
    lines = [_predicate_line(1, "acusó", "acusado.b2")]
    records = parse_conll(io.StringIO("\n".join(lines) + "\n"), mapping)
    _, filtered_form = evaluate_lemmas(records, lemmatizer)
    _, filtered_lemma = evaluate_lemmas(records, lemmatizer, filter_on_lemma=True)
    assert filtered_form.total == 1  # "acusó" is not participle-shaped
    assert filtered_lemma.total == 0  # gold lemma "acusado" is


def test_participle_filter():
    assert participle_filter("acusado")
    assert participle_filter("PARTIDO")
    assert participle_filter("hecho")
    assert not participle_filter("llegar")
    assert not participle_filter("comieron")


def test_report_rendering(records, analyzer, lemmatizer):
    features = evaluate_features(records, analyzer)
    fixtures = FIXTURE.parent
    for filter_on_lemma in (False, True):  # the same on this fixture: no participle-shaped predicate
        lemmas = evaluate_lemmas(records, lemmatizer, filter_on_lemma=filter_on_lemma)
        text = render_text(features, lemmas) + "\n"
        assert text == (fixtures / "sample_report.txt").read_text(encoding="utf-8")
        kv = render_kv(features, lemmas) + "\n"
        assert kv == (fixtures / "sample_report.kv").read_text(encoding="utf-8")
