"""Surface-form analysis by affix stripping.

A word is recognised the way Ispell and Hunspell recognise one: for every
suffix of the word that some rule produces (its morph ending), the rest of
the word plus the part that rule replaced is a candidate root. When the
lexicon holds that root with the rule's flag, the rule is applied forward to
confirm its context. Rules that replace a whole root (``ser`` -> ``fue``)
need no special case. A reading whose lemma starts with a different letter
from the word is labelled ``irregular_table``, every other one
``dictionary``. When no reading exists, a single fallback analysis comes
from an ordered table of word-ending defaults.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from itertools import takewhile
from typing import Dict, Iterable, List, Optional, Tuple

from morfo.features import FeatureSet, Mood, Pos
from morfo.lexicon import Lexicon, normalize
from morfo.resources import read_table
from morfo.rules import MorphRule, RuleTable, apply_rule

logger = logging.getLogger(__name__)


class Provenance(str, Enum):
    DICTIONARY = "dictionary"
    DEFAULT_FALLBACK = "default_fallback"
    IRREGULAR_TABLE = "irregular_table"


@dataclass(frozen=True, slots=True)
class Analysis:
    surface: str
    lemma: str
    rule_id: Optional[int]
    features: FeatureSet
    provenance: Provenance


@dataclass(frozen=True)
class DefaultRow:
    ending: str  # "*" matches any word
    features: FeatureSet


_DEFAULT_COLUMNS = ("ending", "pos", "gender", "number", "person", "mood", "tense", "animate")


def _parse_default(row: Dict[str, str]) -> DefaultRow:
    ending = normalize(row["ending"])
    if not ending:
        raise ValueError("empty ending cell (use '*' for the catch-all row)")
    return DefaultRow(ending=ending, features=FeatureSet.from_cells(row))


def load_default_table(source: Iterable[bytes | str]) -> List[DefaultRow]:
    """Load the ending-default TSV; rows are kept longest-ending-first."""
    rows = read_table(source, _DEFAULT_COLUMNS, ("ending",), _parse_default)
    rows.sort(key=lambda r: -len(r.ending) if r.ending != "*" else 1)
    return rows


class Analyzer:
    """Feature extraction over a lexicon and rule table.

    Construction indexes the rules by morph ending; it does not expand the
    lexicon. A lookup changes no state, so an analyzer may be shared between
    threads.
    """

    def __init__(self, lexicon: Lexicon, rules: RuleTable, defaults: List[DefaultRow]):
        self.lexicon = lexicon
        self.rules = rules
        self.defaults = defaults
        groups: Dict[Tuple[str, tuple], Dict[str, List[MorphRule]]] = {}
        for rule in rules.rules:
            key = (rule.morph_ending, rule.replaced)
            groups.setdefault(key, {}).setdefault(rule.flag, []).append(rule)
        # Every suffix of a morph ending -> the rule groups of that ending (none
        # for a suffix that is no ending itself), so stripping can stop at the
        # first suffix of a word that no rule produces. A group is (replaced
        # part up to its first class, whether a class follows, flag -> rules).
        self._tails: Dict[str, List[Tuple[str, bool, Dict[str, List[MorphRule]]]]] = {}
        for (ending, replaced), by_flag in groups.items():
            for cut in range(1, len(ending) + 1):
                self._tails.setdefault(ending[cut:], [])
            head = "".join(takewhile(lambda t: not t.startswith("["), replaced))
            self._tails.setdefault(ending, []).append((head, len(head) < len(replaced), by_flag))
        self._warn_unknown_flags()

    def _warn_unknown_flags(self) -> None:
        known = set(self.rules.by_flag)
        entries = 0
        unknown = set()
        for flags in self.lexicon.flags.values():
            if not known.issuperset(flags):
                entries += 1
                unknown.update(flags)
        if entries:
            logger.warning("%d dictionary entries carry flags with no rules (%s); "
                           "those flags are skipped", entries, ", ".join(sorted(unknown - known)))

    # -- affix stripping ------------------------------------------------------

    def _readings(self, surface: str) -> List[Tuple[str, MorphRule]]:
        """Every (root, rule) pair of the lexicon whose forward application gives ``surface``."""
        out = []
        for cut in range(len(surface), -1, -1):
            groups = self._tails.get(surface[cut:])
            if groups is None:
                break
            stem = surface[:cut]
            for head, has_class, by_flag in groups:
                root = stem + head
                if has_class:
                    candidates = [(e.root, e.flags) for e in self.lexicon.with_prefix(root)]
                else:
                    flags = self.lexicon.flags.get(root)
                    candidates = () if flags is None else ((root, flags),)
                for root, flags in candidates:
                    for flag in flags:
                        for rule in by_flag.get(flag, ()):
                            if apply_rule(root, rule) == surface:
                                out.append((root, rule))
        return out

    # -- fallback -------------------------------------------------------------

    def default_features(self, word: str, pos_hint: Optional[Pos] = None) -> FeatureSet:
        """Features from the ordered ending-default table (longest ending first)."""
        word = normalize(word)
        if len(word) <= 1 or not word.isalpha():
            return FeatureSet(pos=Pos.OTHER)
        passes: List[Iterable[DefaultRow]] = []
        if pos_hint is not None:
            passes.append([r for r in self.defaults if r.features.pos == pos_hint])
        passes.append(self.defaults)
        for rows in passes:
            for row in rows:
                if row.ending == "*" or word.endswith(row.ending):
                    return row.features
        return FeatureSet()

    # -- public API -----------------------------------------------------------

    def analyze(self, word: str, pos_hint: Optional[Pos] = None) -> List[Analysis]:
        """All dictionary analyses of ``word`` (POS-filtered when hinted), or one fallback.

        Readings whose lemma starts with a different letter come first, by
        rule then lemma; the others follow, by lemma then rule, and only when
        the word is alphabetic.
        """
        surface = normalize(word)
        if not surface:
            raise ValueError("empty word")
        first = surface[0]
        readings = self._readings(surface)
        if not surface.isalpha():
            readings = [r for r in readings if r[0][0] != first]
        if pos_hint is not None:
            readings = [r for r in readings if r[1].features.pos == pos_hint]
        if not readings:
            return [Analysis(surface, surface, None, self.default_features(surface, pos_hint),
                             Provenance.DEFAULT_FALLBACK)]
        if len(readings) > 1:
            readings.sort(key=lambda r: (1, r[0], r[1].rule_id) if r[0][0] == first
                          else (0, r[1].rule_id, r[0]))
        return [Analysis(surface, root, rule.rule_id, rule.features,
                         Provenance.DICTIONARY if root[0] == first else Provenance.IRREGULAR_TABLE)
                for root, rule in readings]

    def preferred_analysis(self, word: str, pos_hint: Optional[Pos] = None) -> Analysis:
        """One analysis under the documented preference order."""
        results = self.analyze(word, pos_hint)
        if len(results) == 1:
            return results[0]
        surface = results[0].surface
        nominal_ending = surface.endswith(("o", "a", "os", "as"))

        def rank(a: Analysis):
            # pos_hint conformance is already enforced by analyze(); dictionary
            # readings outrank fallback by construction (fallback never mixes).
            if nominal_ending and a.features.pos == Pos.NOUN:
                shape = 0
            elif nominal_ending and a.features.mood == Mood.PARTICIPLE:
                shape = 2
            else:
                shape = 1
            return (shape, a.rule_id if a.rule_id is not None else 1 << 30, a.lemma)

        return min(results, key=rank)
