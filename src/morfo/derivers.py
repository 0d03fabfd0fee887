"""Lemmatization and verb nominalization on top of the analyzer."""

from __future__ import annotations

from typing import Iterable, Optional, Set

from morfo.analyzer import Analyzer
from morfo.errors import LoadError
from morfo.features import Pos
from morfo.resources import data_lines
from morfo.rules import apply_rule


def load_nominal_flags(source: Iterable[bytes | str]) -> Set[str]:
    """Read the nominal-derivation flag manifest: one flag character per line."""
    flags: Set[str] = set()
    for line_no, line in data_lines(source):
        flag = line.strip()
        if len(flag) != 1:
            raise LoadError(f"expected a single flag character, got {flag!r}", line_no)
        flags.add(flag)
    return flags


class Lemmatizer:
    """Resolves a surface form to its dictionary root via the analyzer."""

    def __init__(self, analyzer: Analyzer):
        self.analyzer = analyzer

    def lemmatize(self, word: str, pos_hint: Optional[Pos] = None) -> str:
        """The preferred analysis's lemma; the word itself when only the fallback applies."""
        return self.analyzer.preferred_analysis(word, pos_hint).lemma


class Nominalizer:
    """Converts a verb (conjugated or infinitive) to its flagged nominal form."""

    def __init__(self, lemmatizer: Lemmatizer, nominal_flags: Set[str]):
        self.lemmatizer = lemmatizer
        self.analyzer = lemmatizer.analyzer
        self.nominal_flags = set(nominal_flags)
        self._lint_single_flag()

    def _lint_single_flag(self) -> None:
        # Each verb may use only one nominal derivation; more is a data error.
        # Roots share flag tuples, so each distinct tuple is checked once, and
        # the roots are searched, in file order, only when one fails.
        root_flags = self.analyzer.lexicon.flags
        bad = {flags for flags in set(root_flags.values())
               if sum(f in self.nominal_flags for f in flags) > 1}
        if bad:
            root, flags = next((root, flags) for root, flags in root_flags.items() if flags in bad)
            licensed = [f for f in flags if f in self.nominal_flags]
            raise LoadError(
                f"entry {root!r} carries multiple nominalization flags: "
                f"{''.join(licensed)}"
            )

    def nominalize(self, verb: str) -> Optional[str]:
        """The rule-specified nominal form, or None when no such form is on record."""
        infinitive = self.lemmatizer.lemmatize(verb, Pos.VERB)
        flags = [f for f in self.analyzer.lexicon.flags.get(infinitive, ())
                 if f in self.nominal_flags]
        if not flags:
            return None
        for rule in self.analyzer.rules.by_flag.get(flags[0], ()):
            form = apply_rule(infinitive, rule)
            if form is not None:
                return form
        return None
