"""CoNLL-2009 reading and the evaluation harness.

Feature scoring is defined over set/unset values: a token counts toward a
feature's recall denominator when gold sets the feature, toward precision
when the prediction sets it, and as correct when both are set and equal.
The Total row pools the per-feature counts. Lemma evaluation scores exact
string matches over annotated verbal predicates, with a second figure that
excludes surface forms ending in the common past-participle suffixes.
``render_text`` and ``render_kv`` render both as a table or as key=value lines.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from morfo.analyzer import Analyzer
from morfo.derivers import Lemmatizer
from morfo.errors import LoadError, warn
from morfo.features import FeatureSet, Pos
from morfo.lexicon import normalize
from morfo.resources import data_lines, lines

SCORED_FEATURES = ("person", "mood", "tense", "number", "gender")
EVAL_POS = (Pos.VERB, Pos.NOUN, Pos.ADJECTIVE)
PARTICIPLE_SUFFIXES = ("ado", "ido", "echo")

# CoNLL-2009 column layout (APRED columns follow)
_MIN_COLUMNS = 14
_COL_ID, _COL_FORM, _COL_LEMMA, _COL_POS, _COL_FEAT = 0, 1, 2, 4, 6
_COL_FILLPRED, _COL_PRED = 12, 13


def participle_filter(form: str) -> bool:
    """True iff the form looks like a past participle (-ado/-ido/-echo)."""
    return normalize(form).endswith(PARTICIPLE_SUFFIXES)


#: Corpus-specific POS tags and FEAT key=value pairs mapped onto our feature values:
#: ``pos_map`` maps a tag to its ``Pos``, and ``feat_map`` a pair to (field, value text).
FeatureMapping = namedtuple("FeatureMapping", "pos_map feat_map")


def load_mapping(source: Iterable[bytes | str]) -> FeatureMapping:
    """Load the mapping TSV: rows are ``pos <tag> <posvalue>`` or ``feat <k=v> <field=value>``."""
    mapping = FeatureMapping({}, {})
    for line_no, line in data_lines(source):
        cells = [c.strip() for c in line.split("\t")]
        if len(cells) != 3:
            raise LoadError(f"expected 3 columns (kind, source, target), got {len(cells)}", line_no)
        kind, src, target = cells
        if kind == "pos":
            try:
                mapping.pos_map[src] = Pos(target)
            except ValueError:
                raise LoadError(f"invalid pos value {target!r}", line_no) from None
        elif kind == "feat":
            fname, _, fvalue = target.partition("=")
            if fname not in FeatureSet._fields or not fvalue:
                raise LoadError(f"invalid feature target {target!r}", line_no)
            try:
                FeatureSet.from_cells({fname: fvalue})
            except ValueError as exc:
                raise LoadError(str(exc), line_no) from None
            mapping.feat_map[src] = (fname, fvalue)
        else:
            raise LoadError(f"unknown mapping kind {kind!r}", line_no)
    return mapping


#: One CoNLL token; ``gold_pos`` is None for a tag the mapping does not name.
TokenRecord = namedtuple("TokenRecord", "form gold_lemma gold_pos gold_features is_predicate")


def _strip_sense(sense: str) -> str:
    lemma, dot, suffix = sense.rpartition(".")
    return lemma if dot else sense


def parse_conll(source: Iterable[bytes | str], mapping: FeatureMapping) -> list[TokenRecord]:
    """Parse CoNLL-2009 rows into records; one warning counts the FEAT values with no mapping.

    A row with too few columns, a non-numeric ID, an empty or blank FORM or
    invalid gold features raises ``LoadError`` naming its line.
    """
    records: list[TokenRecord] = []
    unmapped = 0
    for line_no, line in lines(source):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < _MIN_COLUMNS:
            raise LoadError(f"expected at least {_MIN_COLUMNS} columns, got {len(cols)}", line_no)
        try:
            int(cols[_COL_ID])
        except ValueError:
            raise LoadError(f"non-numeric token id {cols[_COL_ID]!r}", line_no) from None
        form = cols[_COL_FORM]
        if not form.strip():
            raise LoadError("empty FORM", line_no)
        feat_string = cols[_COL_FEAT]
        feat_values: dict[str, str] = {}
        if feat_string not in ("_", ""):
            for pair in feat_string.split("|"):
                hit = mapping.feat_map.get(pair)
                if hit:
                    feat_values[hit[0]] = hit[1]
                else:
                    unmapped += 1
        try:
            gold_features = FeatureSet.from_cells(feat_values)
        except ValueError as exc:
            raise LoadError(f"FEAT {feat_string!r}: {exc}", line_no) from None
        is_predicate = cols[_COL_FILLPRED] == "Y"
        sense = cols[_COL_PRED] if is_predicate and cols[_COL_PRED] != "_" else None
        gold_lemma = _strip_sense(sense) if sense else cols[_COL_LEMMA]
        records.append(TokenRecord(
            form=form,
            gold_lemma=gold_lemma,
            gold_pos=mapping.pos_map.get(cols[_COL_POS]),
            gold_features=gold_features,
            is_predicate=is_predicate,
        ))
    if unmapped:
        warn(f"{unmapped} FEAT values had no mapping and were ignored")
    return records


# -- metrics ------------------------------------------------------------------

class FeatureScore(namedtuple("FeatureScore", "correct gold_count pred_count")):
    __slots__ = ()

    @property
    def precision(self) -> float:
        return self.correct / self.pred_count if self.pred_count else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold_count if self.gold_count else 0.0

    @property
    def f_score(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


class LemmaScore(namedtuple("LemmaScore", "total correct")):
    __slots__ = ()

    @property
    def ratio(self) -> float:
        return self.correct / self.total if self.total else 0.0


def evaluate_features(records: Iterable[TokenRecord], analyzer: Analyzer) -> dict[str, FeatureScore]:
    """Per-feature precision/recall counts over verb/noun/adjective tokens, then their total."""
    counts = {name: [0, 0, 0] for name in SCORED_FEATURES}  # correct, gold, predicted
    for record in records:
        if record.gold_pos not in EVAL_POS:
            continue
        predicted = analyzer.preferred_analysis(record.form, pos_hint=record.gold_pos).features
        for name, count in counts.items():
            gold = getattr(record.gold_features, name)
            pred = getattr(predicted, name)
            if gold is not None:
                count[1] += 1
                count[0] += gold == pred
            if pred is not None:
                count[2] += 1
    scores = {name: FeatureScore(*count) for name, count in counts.items()}
    scores["total"] = FeatureScore(*map(sum, zip(*scores.values())))
    return scores


def evaluate_lemmas(
    records: Iterable[TokenRecord],
    lemmatizer: Lemmatizer,
    filter_on_lemma: bool = False,
) -> tuple[LemmaScore, LemmaScore]:
    """Lemma accuracy over verbal predicates: (all, participle-filtered)."""
    total = correct = kept = kept_correct = 0
    for record in records:
        if not record.is_predicate or record.gold_pos is not Pos.VERB:
            continue
        hit = lemmatizer.lemmatize(record.form, Pos.VERB) == normalize(record.gold_lemma)
        total += 1
        correct += hit
        if not participle_filter(record.gold_lemma if filter_on_lemma else record.form):
            kept += 1
            kept_correct += hit
    return LemmaScore(total, correct), LemmaScore(kept, kept_correct)


def render_text(features: dict[str, FeatureScore], lemmas: tuple[LemmaScore, LemmaScore]) -> str:
    """The report as two tables: each feature's scores, then lemma accuracy (all, filtered)."""
    every, kept = lemmas
    rows = [f"{'Feature':>8}  {'Precision':>9}  {'Recall':>9}  {'F-score':>9}"]
    for name in ("total",) + SCORED_FEATURES:
        score = features[name]
        rows.append(f"{name:>8}  {score.precision:9.6f}  {score.recall:9.6f}  {score.f_score:9.6f}")
    return "\n".join(rows + [
        "",
        f"{'Lemmas':>14}  {'All predicates':>14}  {'Non-participle':>14}",
        f"{'Total':>14}  {every.total:>14}  {kept.total:>14}",
        f"{'Correct':>14}  {every.correct:>14}  {kept.correct:>14}",
        f"{'Correct/Total':>14}  {every.ratio:>14.6f}  {kept.ratio:>14.6f}",
    ])


def render_kv(features: dict[str, FeatureScore], lemmas: tuple[LemmaScore, LemmaScore]) -> str:
    """The report as ``key=value`` lines: each feature in ``features``' order, then the lemmas."""
    rows = []
    for name, score in features.items():
        rows += [f"feature.{name}.precision={score.precision:.6f}",
                 f"feature.{name}.recall={score.recall:.6f}",
                 f"feature.{name}.f_score={score.f_score:.6f}"]
    for label, score in zip(("all", "non_participle"), lemmas):
        rows += [f"lemma.{label}.total={score.total}",
                 f"lemma.{label}.correct={score.correct}",
                 f"lemma.{label}.accuracy={score.ratio:.6f}"]
    return "\n".join(rows)
