"""The morphological rule table: suffix substitutions with feature columns.

``load_rules`` reads the tab-separated table and ``dump_rules`` writes it.

A rule's stem-ending pattern is a restricted regular expression over the end
of a root word: literal letters, character classes ``[...]``, negated classes
``[^...]``, and an optional leading context marker ``(?<=...)`` whose match is
kept rather than replaced. Nothing else (no alternation, no quantifiers), so
every pattern has a fixed length and reverse application stays tractable.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import count
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from morfo.errors import warn
from morfo.features import FeatureSet
from morfo.lexicon import LexEntry
from morfo.resources import read_table

COLUMNS = ("flag", "stem_ending", "morph_ending", "pos", "gender", "number",
           "person", "mood", "tense", "animate")
_FEATURE_COLUMNS = COLUMNS[3:]

_CONTEXT_MARK = "(?<="


def _tokenize(src: str, what: str) -> List[str]:
    """Split a pattern body into single-character-match tokens."""
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "[":
            j = src.find("]", i)
            if j < 0:
                raise ValueError(f"unclosed class in {what} {src!r}")
            inner = src[i + 1:j]
            body = inner[1:] if inner.startswith("^") else inner
            if not body or not all(c.isalpha() for c in body):
                raise ValueError(f"invalid class {src[i:j + 1]!r} in {what} {src!r}")
            tokens.append(src[i:j + 1])
            i = j + 1
        elif ch.isalpha():
            tokens.append(ch)
            i += 1
        else:
            raise ValueError(f"unsupported character {ch!r} in {what} {src!r}")
    return tokens


def _token_regex(token: str) -> str:
    return token if token.startswith("[") else re.escape(token)


@lru_cache(maxsize=1024)  # a rule table repeats few patterns many times
def compile_stem_pattern(source: str) -> Tuple[tuple, "re.Pattern"]:
    """Check ``source`` against the dialect; return its replaced tokens and its regex."""
    src = source.strip()
    context_src = ""
    if src.startswith(_CONTEXT_MARK):
        end = src.find(")")
        if end < 0:
            raise ValueError(f"unclosed context marker in {source!r}")
        context_src = src[len(_CONTEXT_MARK):end]
        src = src[end + 1:]
        if _CONTEXT_MARK in src:
            raise ValueError(f"context marker must be leading and unique in {source!r}")
    context = _tokenize(context_src, "context")
    replaced = tuple(_tokenize(src, "pattern"))
    regex = re.compile(
        "".join(_token_regex(t) for t in context)
        + "(" + "".join(_token_regex(t) for t in replaced) + ")$"
    )
    return replaced, regex


class MorphRule(NamedTuple):
    """One rule: on a root licensed by ``flag``, ``stem_ending`` becomes ``morph_ending``.

    ``replaced`` holds the pattern tokens the rule swaps out (its context
    excluded) and ``regex`` matches them at the end of a root. Build rules with
    ``MorphRule.build``, which fills both in. ``line_no`` is the line the rule
    was read from, 0 when none, and ``example`` the (root, form) pair of an
    imported rule's comment, None when none. Equality compares every field.
    """

    rule_id: int
    flag: str
    stem_ending: str
    morph_ending: str
    features: FeatureSet
    replaced: tuple
    regex: re.Pattern
    line_no: int = 0
    example: Optional[Tuple[str, str]] = None

    @classmethod
    def build(cls, flag: str, stem_ending: str, morph_ending: str,
              features: Callable[[], FeatureSet], rule_id: int = 0, line_no: int = 0,
              example: Optional[Tuple[str, str]] = None) -> "MorphRule":
        """A rule, ``features()`` called last.

        A bad flag, pattern or feature set raises ValueError, checked in that order.
        """
        if len(flag) != 1:
            raise ValueError(f"flag must be a single character, got {flag!r}")
        replaced, regex = compile_stem_pattern(stem_ending)
        return cls(rule_id, flag, stem_ending.strip(), morph_ending, features(), replaced, regex,
                   line_no, example)


class RuleTable:
    """Rules in file order, bucketed by flag."""

    def __init__(self, rules: List[MorphRule]):
        self.rules = list(rules)
        self.by_flag: Dict[str, List[MorphRule]] = {}
        for rule in self.rules:
            self.by_flag.setdefault(rule.flag, []).append(rule)
        self.by_id = {r.rule_id: r for r in self.rules}

    def __len__(self) -> int:
        return len(self.rules)


def _dash(cell: str) -> str:
    return "" if cell == "-" else cell


def load_rules(source: Iterable[bytes | str]) -> RuleTable:
    """Load the tab-separated rule table; raises LoadError naming the bad row."""
    rule_ids = count(1)
    feature_sets: Dict[tuple, FeatureSet] = {}  # feature cells -> their FeatureSet

    def features(row: Dict[str, str]) -> FeatureSet:
        cells = tuple(map(row.__getitem__, _FEATURE_COLUMNS))
        found = feature_sets.get(cells)
        if found is None:
            found = feature_sets[cells] = FeatureSet.from_cells(row)
        return found

    def parse(row: Dict[str, str], line_no: int) -> MorphRule:
        return MorphRule.build(row["flag"], _dash(row["stem_ending"]), _dash(row["morph_ending"]),
                               partial(features, row), next(rule_ids), line_no=line_no)

    return RuleTable(read_table(source, COLUMNS, COLUMNS, parse))


def dump_rules(rules: Iterable[MorphRule]) -> str:
    """The rule table ``load_rules`` reads, header included; unset cells are left empty."""
    out = ["\t".join(COLUMNS)]
    for rule in rules:
        feats = rule.features.as_dict()
        out.append("\t".join([rule.flag, rule.stem_ending, rule.morph_ending]
                             + [feats[name] or "" for name in COLUMNS[3:]]))
    return "\n".join(out) + "\n"


def apply_rule(root: str, rule: MorphRule) -> Optional[str]:
    """Apply one rule forward; None when the root's ending does not match."""
    m = rule.regex.search(root)
    if m is None:
        return None
    return root[:m.start(1)] + rule.morph_ending


class ExpandedForm(NamedTuple):
    form: str
    rule_id: int
    features: FeatureSet


def expand_entry(entry: LexEntry, table: RuleTable) -> List[ExpandedForm]:
    """All forms produced by the entry's licensed rules, in flag then rule order.

    A rule that would rewrite the whole root to nothing produces no form: no
    lookup can reach the empty word.
    """
    out: List[ExpandedForm] = []
    for flag in entry.flags:
        bucket = table.by_flag.get(flag)
        if bucket is None:
            warn(f"entry {entry.root!r}: unknown flag {flag!r} skipped")
            continue
        for rule in bucket:
            form = apply_rule(entry.root, rule)
            if form:
                out.append(ExpandedForm(form, rule.rule_id, rule.features))
    return out

