"""Enclitic pronoun detachment for imperative, infinitive, and gerund verb forms.

Spanish attaches object pronouns to these verb forms (dame = da + me,
dámelo = da + me + lo), sometimes adding a written accent to preserve stress.
The splitter greedily strips up to two trailing pronouns and accepts a split
only when the remaining part (accented or de-accented) analyzes as a
dictionary verb in one of the three hosting moods.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from morfo.analyzer import Analyzer
from morfo.errors import LoadError
from morfo.features import FeatureSet, Mood, Pos
from morfo.lexicon import normalize
from morfo.resources import read_table

HOST_MOODS = (Mood.IMPERATIVE, Mood.INFINITIVE, Mood.GERUND)

_DEACCENT = str.maketrans("áéíóú", "aeiou")


def strip_stress_accents(text: str) -> str:
    """Remove acute accents from vowels (ñ is untouched)."""
    return text.translate(_DEACCENT)


_PRONOUN_COLUMNS = ("pronoun", "person", "number", "gender")


def _parse_pronoun(row: dict[str, str], _line_no: int) -> tuple[str, FeatureSet]:
    pronoun = normalize(row["pronoun"])
    if not pronoun:
        raise ValueError("empty pronoun cell")
    return pronoun, FeatureSet.from_cells({**row, "pos": "pronoun"})


def load_pronoun_table(source: Iterable[bytes | str]) -> dict[str, FeatureSet]:
    """Load the clitic pronoun TSV: pronoun, person, number, gender."""
    table = dict(read_table(source, _PRONOUN_COLUMNS, _PRONOUN_COLUMNS, _parse_pronoun))
    if not table:
        raise LoadError("pronoun table is empty")
    return table


class CliticSplit(namedtuple("CliticSplit", "verb_part clitics pronoun_features")):
    """A token as ``verb_part`` plus 0, 1 or 2 ``clitics`` in surface order, with a
    ``FeatureSet`` per clitic in ``pronoun_features``."""

    __slots__ = ()

    @property
    def is_split(self) -> bool:
        return bool(self.clitics)


class CliticSplitter:
    def __init__(self, analyzer: Analyzer, pronoun_table: dict[str, FeatureSet]):
        self.analyzer = analyzer
        self.pronouns = dict(pronoun_table)
        # longest first so that e.g. -los wins over -os
        self._ordered = sorted(self.pronouns, key=len, reverse=True)

    def _validates_as_host(self, verb_part: str) -> bool:
        # De-accenting can leave a vowel before a combining mark, which is not NFC.
        readings = self.analyzer._walk(normalize(verb_part), Pos.VERB)[0]
        return any(rule.features.mood in HOST_MOODS for _, rule in readings)

    def _candidates(self, token: str):
        """Candidate (base, clitics) splits, longer clitic sequences first."""
        for last in self._ordered:
            if not token.endswith(last) or len(token) <= len(last):
                continue
            rest = token[:-len(last)]
            for inner in self._ordered:
                if rest.endswith(inner) and len(rest) > len(inner):
                    yield rest[:-len(inner)], (inner, last)
            yield rest, (last,)

    def split_clitics(self, token: str) -> CliticSplit:
        """Split trailing pronouns off ``token``; unsplit when no variant validates."""
        surface = normalize(token)
        for base, clitics in self._candidates(surface):
            for verb_part in self._verb_variants(base):
                if self._validates_as_host(verb_part):
                    features = tuple(self.pronouns[c] for c in clitics)
                    return CliticSplit(verb_part, clitics, features)
        return CliticSplit(surface, (), ())

    @staticmethod
    def _verb_variants(base: str) -> list[str]:
        plain = strip_stress_accents(base)
        return [base] if plain == base else [base, plain]
