"""CoNLL-2009 reading and the evaluation harness.

Feature scoring is defined over set/unset values: a token counts toward a
feature's recall denominator when gold sets the feature, toward precision
when the prediction sets it, and as correct when both are set and equal.
The Total row pools the per-feature counts. Lemma evaluation scores exact
string matches over annotated verbal predicates, with a second figure that
excludes surface forms ending in the common past-participle suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

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


@dataclass
class FeatureMapping:
    """Corpus-specific POS tags and FEAT key=value pairs mapped onto our enums."""
    pos_map: Dict[str, Pos] = field(default_factory=dict)
    feat_map: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def load_mapping(source: Iterable[bytes | str]) -> FeatureMapping:
    """Load the mapping TSV: rows are ``pos <tag> <posvalue>`` or ``feat <k=v> <field=value>``."""
    mapping = FeatureMapping()
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
            if fname not in FeatureSet.field_names() or not fvalue:
                raise LoadError(f"invalid feature target {target!r}", line_no)
            try:
                FeatureSet.from_cells({fname: fvalue})
            except ValueError as exc:
                raise LoadError(str(exc), line_no) from None
            mapping.feat_map[src] = (fname, fvalue)
        else:
            raise LoadError(f"unknown mapping kind {kind!r}", line_no)
    return mapping


@dataclass
class TokenRecord:
    sentence_index: int
    token_index: int
    form: str
    gold_lemma: str
    gold_pos_raw: str
    gold_pos: Optional[Pos]
    gold_features: FeatureSet
    raw_features: Dict[str, str]  # FEAT pairs that the mapping did not cover
    feat_string: str
    is_predicate: bool
    predicate_sense: Optional[str]

    def to_conll_line(self) -> str:
        """Serialize the consumed columns back into a CoNLL-2009 row."""
        cols = ["_"] * _MIN_COLUMNS
        cols[_COL_ID] = str(self.token_index)
        cols[_COL_FORM] = self.form
        cols[_COL_LEMMA] = self.gold_lemma if not self.is_predicate else "_"
        cols[_COL_POS] = self.gold_pos_raw
        cols[_COL_FEAT] = self.feat_string
        cols[_COL_FILLPRED] = "Y" if self.is_predicate else "_"
        cols[_COL_PRED] = self.predicate_sense or "_"
        return "\t".join(cols)


def _strip_sense(sense: str) -> str:
    lemma, dot, suffix = sense.rpartition(".")
    return lemma if dot else sense


def parse_conll(source: Iterable[bytes | str], mapping: FeatureMapping) -> List[TokenRecord]:
    """Parse CoNLL-2009 rows into records; unmappable FEAT values are kept raw."""
    records: List[TokenRecord] = []
    sentence = 0
    in_sentence = False
    unmapped = 0
    for line_no, line in lines(source):
        if not line.strip():
            if in_sentence:
                sentence += 1
                in_sentence = False
            continue
        in_sentence = True
        cols = line.split("\t")
        if len(cols) < _MIN_COLUMNS:
            raise LoadError(f"expected at least {_MIN_COLUMNS} columns, got {len(cols)}", line_no)
        try:
            token_index = int(cols[_COL_ID])
        except ValueError:
            raise LoadError(f"non-numeric token id {cols[_COL_ID]!r}", line_no) from None
        feat_string = cols[_COL_FEAT]
        feat_values: Dict[str, str] = {}
        raw_features: Dict[str, str] = {}
        if feat_string not in ("_", ""):
            for pair in feat_string.split("|"):
                hit = mapping.feat_map.get(pair)
                if hit:
                    feat_values[hit[0]] = hit[1]
                else:
                    key, _, value = pair.partition("=")
                    raw_features[key] = value
                    unmapped += 1
        try:
            gold_features = FeatureSet.from_cells(feat_values)
        except ValueError as exc:
            raise LoadError(f"FEAT {feat_string!r}: {exc}", line_no) from None
        is_predicate = cols[_COL_FILLPRED] == "Y"
        sense = cols[_COL_PRED] if is_predicate and cols[_COL_PRED] != "_" else None
        gold_lemma = _strip_sense(sense) if sense else cols[_COL_LEMMA]
        records.append(TokenRecord(
            sentence_index=sentence,
            token_index=token_index,
            form=cols[_COL_FORM],
            gold_lemma=gold_lemma,
            gold_pos_raw=cols[_COL_POS],
            gold_pos=mapping.pos_map.get(cols[_COL_POS]),
            gold_features=gold_features,
            raw_features=raw_features,
            feat_string=feat_string,
            is_predicate=is_predicate,
            predicate_sense=sense,
        ))
    if unmapped:
        warn(__name__, "%d FEAT values had no mapping and were kept raw", unmapped)
    return records


# -- metrics ------------------------------------------------------------------

@dataclass
class FeatureScore:
    correct: int = 0
    gold_count: int = 0
    pred_count: int = 0

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


@dataclass
class LemmaScore:
    total: int = 0
    correct: int = 0

    @property
    def ratio(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass
class MetricsReport:
    features: Dict[str, FeatureScore] = field(default_factory=dict)
    lemmas_all: Optional[LemmaScore] = None
    lemmas_filtered: Optional[LemmaScore] = None

    def render_text(self) -> str:
        lines = []
        if self.features:
            lines.append(f"{'Feature':>8}  {'Precision':>9}  {'Recall':>9}  {'F-score':>9}")
            for name in ("total",) + SCORED_FEATURES:
                score = self.features.get(name)
                if score is None:
                    continue
                lines.append(f"{name:>8}  {score.precision:9.6f}  {score.recall:9.6f}  {score.f_score:9.6f}")
        if self.lemmas_all is not None:
            lines.append("")
            lines.append(f"{'Lemmas':>14}  {'All predicates':>14}  {'Non-participle':>14}")
            filt = self.lemmas_filtered or LemmaScore()
            lines.append(f"{'Total':>14}  {self.lemmas_all.total:>14}  {filt.total:>14}")
            lines.append(f"{'Correct':>14}  {self.lemmas_all.correct:>14}  {filt.correct:>14}")
            lines.append(f"{'Correct/Total':>14}  {self.lemmas_all.ratio:>14.6f}  {filt.ratio:>14.6f}")
        return "\n".join(lines)

    def render_kv(self) -> str:
        lines = []
        for name, score in self.features.items():
            lines.append(f"feature.{name}.precision={score.precision:.6f}")
            lines.append(f"feature.{name}.recall={score.recall:.6f}")
            lines.append(f"feature.{name}.f_score={score.f_score:.6f}")
        for label, score in (("all", self.lemmas_all), ("non_participle", self.lemmas_filtered)):
            if score is None:
                continue
            lines.append(f"lemma.{label}.total={score.total}")
            lines.append(f"lemma.{label}.correct={score.correct}")
            lines.append(f"lemma.{label}.accuracy={score.ratio:.6f}")
        return "\n".join(lines)


def evaluate_features(records: Iterable[TokenRecord], analyzer: Analyzer) -> Dict[str, FeatureScore]:
    """Per-feature precision/recall counts over verb/noun/adjective tokens."""
    scores = {name: FeatureScore() for name in SCORED_FEATURES}
    total = FeatureScore()
    for record in records:
        if record.gold_pos not in EVAL_POS:
            continue
        predicted = analyzer.preferred_analysis(record.form, pos_hint=record.gold_pos).features
        for name in SCORED_FEATURES:
            gold = getattr(record.gold_features, name)
            pred = getattr(predicted, name)
            score = scores[name]
            if gold is not None:
                score.gold_count += 1
                total.gold_count += 1
            if pred is not None:
                score.pred_count += 1
                total.pred_count += 1
            if gold is not None and gold == pred:
                score.correct += 1
                total.correct += 1
    scores["total"] = total
    return scores


def evaluate_lemmas(
    records: Iterable[TokenRecord],
    lemmatizer: Lemmatizer,
    filter_on_lemma: bool = False,
) -> Tuple[LemmaScore, LemmaScore]:
    """Lemma accuracy over verbal predicates: (all, participle-filtered)."""
    all_score = LemmaScore()
    filtered_score = LemmaScore()
    for record in records:
        if not record.is_predicate or record.gold_pos is not Pos.VERB:
            continue
        predicted = lemmatizer.lemmatize(record.form, Pos.VERB)
        correct = predicted == normalize(record.gold_lemma)
        all_score.total += 1
        all_score.correct += int(correct)
        filter_target = record.gold_lemma if filter_on_lemma else record.form
        if not participle_filter(filter_target):
            filtered_score.total += 1
            filtered_score.correct += int(correct)
    return all_score, filtered_score
