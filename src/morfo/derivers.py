"""Lemmatization and verb nominalization on top of the analyzer."""

from __future__ import annotations

from collections.abc import Iterable

from morfo.analyzer import Analyzer
from morfo.errors import LoadError
from morfo.features import Pos
from morfo.resources import data_lines
from morfo.rules import apply_rule


def load_nominal_flags(source: Iterable[bytes | str]) -> set[str]:
    """Read the nominal-derivation flag manifest: one flag character per line."""
    flags: set[str] = set()
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

    def lemmatize(self, word: str, pos_hint: Pos | None = None) -> str:
        """The preferred analysis's lemma; the word itself when only the fallback applies."""
        return self.analyzer.preferred_analysis(word, pos_hint).lemma


class Nominalizer:
    """Converts a verb (conjugated or infinitive) to its flagged nominal form."""

    def __init__(self, lemmatizer: Lemmatizer, nominal_flags: set[str]):
        self.lemmatizer = lemmatizer
        self.analyzer = lemmatizer.analyzer
        self.nominal_flags = set(nominal_flags)
        self._lint_single_flag()

    def _lint_single_flag(self) -> None:
        # Each verb may use only one nominal derivation; more is a data error.
        # The flag table is in the order of first roots, so the first tuple
        # that fails names the first such entry in file order.
        for flags, _, root in self.analyzer.lexicon.flag_table():
            licensed = [f for f in flags if f in self.nominal_flags]
            if len(licensed) > 1:
                raise LoadError(
                    f"entry {root!r} carries multiple nominalization flags: "
                    f"{''.join(licensed)}"
                )

    def nominalize(self, verb: str) -> str | None:
        """The rule-specified nominal form, or None when no such form is on record."""
        infinitive = self.lemmatizer.lemmatize(verb, Pos.VERB)
        flags = [f for f in self.analyzer.lexicon.get(infinitive) or ()
                 if f in self.nominal_flags]
        if not flags:
            return None
        for rule in self.analyzer.rules.by_flag.get(flags[0], ()):
            form = apply_rule(infinitive, rule)
            if form is not None:
                return form
        return None
