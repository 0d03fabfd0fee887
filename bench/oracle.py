"""Brute-force reference for checking CLI output.

The reference readings come from running ``expand_entry`` over the whole
lexicon of a workload: a surface form has a dictionary reading exactly when
some licensed rule of some root generates it. Each ``check_*`` function takes
the CLI's input and its stdout and returns the number of failed tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

from morfo.analyzer import DefaultRow
from morfo.features import FeatureSet, Mood, Pos
from morfo.lexicon import LexEntry, normalize
from morfo.rules import RuleTable, expand_entry

from gen import HOST_MOODS, Corpus, TokenLine, _FEAT_CODES

_CELLS = ("pos", "gender", "number", "person", "mood", "tense")
_DEACCENT = str.maketrans("áéíóú", "aeiou")
SCORED_FEATURES = ("person", "mood", "tense", "number", "gender")
PARTICIPLE_SUFFIXES = ("ado", "ido", "echo")
EVAL_TAGS = {"v": Pos.VERB, "n": Pos.NOUN, "a": Pos.ADJECTIVE}


class Reading(NamedTuple):
    lemma: str
    rule_id: int
    features: FeatureSet


def cells(features: FeatureSet) -> tuple:
    return tuple(getattr(features, n).value if getattr(features, n) else "-" for n in _CELLS)


def split_candidates(token: str, pronouns: Sequence[str]) -> Iterable[tuple]:
    """Every (base, clitics) split of ``token`` into a non-empty base and 1-2 pronouns."""
    for last in pronouns:
        if token.endswith(last) and len(token) > len(last):
            rest = token[:-len(last)]
            yield rest, (last,)
            for inner in pronouns:
                if rest.endswith(inner) and len(rest) > len(inner):
                    yield rest[:-len(inner)], (inner, last)


def verb_variants(base: str) -> List[str]:
    plain = base.translate(_DEACCENT)
    return [base] if plain == base else [base, plain]


class Oracle:
    """Readings of surface forms by brute-force generation over a lexicon.

    ``keep`` restricts the stored forms to the given surfaces, which bounds
    memory on large lexicons; every root is still expanded.
    """

    def __init__(self, entries: Sequence[LexEntry], rules: RuleTable,
                 defaults: Sequence[DefaultRow] = (), nominal_flags: Set[str] = frozenset(),
                 pronouns: Sequence[str] = (), keep: Optional[Set[str]] = None):
        self.rules = rules
        self.defaults = list(defaults)
        self.nominal_flags = set(nominal_flags)
        self.pronouns = list(pronouns)
        self.entries = {e.root: e for e in entries}
        self.forms: Dict[str, List[Reading]] = {}
        self.expanded = 0
        for entry in entries:
            for form, rule_id, features in expand_entry(entry, rules):
                self.expanded += 1
                if keep is not None and form not in keep:
                    continue
                hits = self.forms.setdefault(form, [])
                if not any(h.lemma == entry.root and h.rule_id == rule_id for h in hits):
                    hits.append(Reading(entry.root, rule_id, features))

    @staticmethod
    def keep_set(tokens: Iterable[str], pronouns: Sequence[str] = ()) -> Set[str]:
        """Surfaces a check may look up: the tokens and, with pronouns, their split bases."""
        keep = set()
        for token in tokens:
            surface = normalize(token)
            keep.add(surface)
            for base, _clitics in split_candidates(surface, pronouns):
                keep.update(verb_variants(base))
        return keep

    def readings(self, word: str, pos: Optional[str] = None) -> List[Reading]:
        found = self.forms.get(normalize(word), [])
        if pos is None:
            return found
        return [r for r in found if r.features.pos.value == pos]

    # -- documented fallback and preference order, for the evaluate check ----

    def default_features(self, word: str, pos: Optional[Pos]) -> FeatureSet:
        if len(word) <= 1 or not word.isalpha():
            return FeatureSet(pos=Pos.OTHER)
        passes = [[r for r in self.defaults if r.features.pos == pos]] if pos else []
        for rows in passes + [self.defaults]:
            for row in rows:
                if row.ending == "*" or word.endswith(row.ending):
                    return row.features
        return FeatureSet()

    def preferred(self, word: str, pos: Optional[Pos]) -> tuple:
        """(lemma, features) of the preferred reading, fallback included."""
        surface = normalize(word)
        found = self.readings(surface, pos.value if pos else None)
        if not found:
            return surface, self.default_features(surface, pos)
        nominal_ending = surface.endswith(("o", "a", "os", "as"))

        def rank(r: Reading):
            if nominal_ending and r.features.pos == Pos.NOUN:
                shape = 0
            elif nominal_ending and r.features.mood == Mood.PARTICIPLE:
                shape = 2
            else:
                shape = 1
            return shape, r.rule_id, r.lemma

        best = min(found, key=rank)
        return best.lemma, best.features

    def nominal(self, lemma: str) -> Optional[str]:
        """The first form generated by the root's first nominal-derivation flag."""
        entry = self.entries.get(lemma)
        if entry is None:
            return None
        flags = [f for f in entry.flags if f in self.nominal_flags]
        if not flags:
            return None
        for form, rule_id, _features in expand_entry(entry, self.rules):
            if self.rules.by_id[rule_id].flag == flags[0]:
                return form
        return None

    def is_host(self, verb_part: str) -> bool:
        return any(r.features.mood in HOST_MOODS for r in self.readings(verb_part, "verb"))


def _output_lines(stdout: str, count: int) -> List[Optional[str]]:
    lines = stdout.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [lines[i] if i < len(lines) else None for i in range(count)]


def _failures(oracle: Oracle, lines: Sequence[TokenLine], stdout: str, check) -> int:
    failed = 0
    for line, out in zip(lines, _output_lines(stdout, len(lines))):
        if out is None or not check(oracle, line, normalize(line.token), out):
            failed += 1
    return failed


def _analyze_ok(oracle: Oracle, line: TokenLine, surface: str, out: str) -> bool:
    fields = out.split("\t")
    if len(fields) != 9 or fields[0] != surface:
        return False
    lemma, provenance = fields[1], fields[8]
    found = oracle.readings(surface, line.pos)
    if not found:
        return provenance == "default_fallback" and lemma == surface
    for r in found:
        # A form whose first letter differs from its root's replaced the whole root.
        kind = "irregular_table" if r.lemma[:1] != surface[:1] else "dictionary"
        if r.lemma == lemma and cells(r.features) == tuple(fields[2:8]) and kind == provenance:
            return True
    return False


def _lemmatize_ok(oracle: Oracle, line: TokenLine, surface: str, out: str) -> bool:
    found = oracle.readings(surface, line.pos)
    return out in {r.lemma for r in found} if found else out == surface


def _nominalize_ok(oracle: Oracle, line: TokenLine, surface: str, out: str) -> bool:
    lemmas = {r.lemma for r in oracle.readings(surface, "verb")} or {surface}
    return out in {oracle.nominal(lemma) or "-" for lemma in lemmas}


def _split_ok(oracle: Oracle, line: TokenLine, surface: str, out: str) -> bool:
    fields = out.split("\t")
    if len(fields) == 1:
        if fields[0] != surface:
            return False
        # Unsplit is right only when no split has a verb host.
        return not any(oracle.is_host(v)
                       for base, _c in split_candidates(surface, oracle.pronouns)
                       for v in verb_variants(base))
    verb_part, clitics = fields[0], tuple(fields[1:])
    if len(clitics) > 2 or any(c not in oracle.pronouns for c in clitics):
        return False
    base = surface[:len(surface) - len("".join(clitics))]
    return (base + "".join(clitics) == surface and bool(base)
            and verb_part in verb_variants(base) and oracle.is_host(verb_part))


def check_analyze(oracle, lines, stdout) -> int:
    return _failures(oracle, lines, stdout, _analyze_ok)


def check_lemmatize(oracle, lines, stdout) -> int:
    return _failures(oracle, lines, stdout, _lemmatize_ok)


def check_nominalize(oracle, lines, stdout) -> int:
    return _failures(oracle, lines, stdout, _nominalize_ok)


def check_split(oracle, lines, stdout) -> int:
    return _failures(oracle, lines, stdout, _split_ok)


# -- evaluate ----------------------------------------------------------------

_FEAT_VALUES = {code: (name, value) for name, codes in _FEAT_CODES.items()
                for value, code in codes.items()}


@dataclass
class _Score:
    correct: int = 0
    gold: int = 0
    pred: int = 0

    def lines(self, name: str) -> List[str]:
        p = self.correct / self.pred if self.pred else 0.0
        r = self.correct / self.gold if self.gold else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return [f"feature.{name}.precision={p:.6f}", f"feature.{name}.recall={r:.6f}",
                f"feature.{name}.f_score={f:.6f}"]


def scored_tokens(corpus: Corpus) -> int:
    """Tokens that ``evaluate`` scores: feature-scored words plus verbal predicates."""
    return sum(1 for t in corpus.tokens if t.tag in EVAL_TAGS)


def expected_evaluation(oracle: Oracle, corpus: Corpus) -> str:
    """The ``evaluate --format jsonl`` report the oracle predicts for ``corpus``."""
    scores = {name: _Score() for name in SCORED_FEATURES}
    total = _Score()
    lemma_all = [0, 0]
    lemma_filtered = [0, 0]
    for token in corpus.tokens:
        gold_pos = EVAL_TAGS.get(token.tag)
        if gold_pos is None:
            continue
        gold = dict(_FEAT_VALUES[p] for p in token.feats.split("|") if p in _FEAT_VALUES)
        predicted = oracle.preferred(token.form, gold_pos)[1]
        for name in SCORED_FEATURES:
            g = gold.get(name)
            p = getattr(predicted, name)
            p = p.value if p is not None else None
            for score in (scores[name], total):
                score.gold += g is not None
                score.pred += p is not None
                score.correct += g is not None and g == p
        if token.predicate and gold_pos is Pos.VERB:
            ok = int(oracle.preferred(token.form, Pos.VERB)[0] == normalize(token.lemma))
            lemma_all[0] += 1
            lemma_all[1] += ok
            if not normalize(token.form).endswith(PARTICIPLE_SUFFIXES):
                lemma_filtered[0] += 1
                lemma_filtered[1] += ok
    out: List[str] = []
    for name in SCORED_FEATURES:
        out += scores[name].lines(name)
    out += total.lines("total")
    for label, (n, ok) in (("all", lemma_all), ("non_participle", lemma_filtered)):
        out += [f"lemma.{label}.total={n}", f"lemma.{label}.correct={ok}",
                f"lemma.{label}.accuracy={ok / n if n else 0.0:.6f}"]
    return "\n".join(out) + "\n"


def check_evaluate(expected: str, corpus: Corpus, stdout: str) -> int:
    """All scored tokens fail when the report differs from ``expected_evaluation``'s."""
    return 0 if stdout == expected else scored_tokens(corpus)
