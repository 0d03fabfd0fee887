"""The morphological rule table: suffix substitutions with feature columns.

A rule's stem-ending pattern is a restricted regular expression over the end
of a root word: literal letters, character classes ``[...]``, negated classes
``[^...]``, and an optional leading context marker ``(?<=...)`` whose match is
kept rather than replaced. Nothing else (no alternation, no quantifiers), so
every pattern has a fixed length and reverse application stays tractable.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, TextIO, Tuple, Union

from morfo.features import FeatureSet
from morfo.lexicon import LexEntry
from morfo.resources import read_table

logger = logging.getLogger(__name__)

COLUMNS = ("flag", "stem_ending", "morph_ending", "pos", "gender", "number",
           "person", "mood", "tense", "animate")

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


@dataclass(frozen=True)
class StemPattern:
    """Compiled stem-ending pattern, split into kept context and replaced part."""

    source: str
    context: tuple
    replaced: tuple
    regex: "re.Pattern" = field(compare=False, repr=False, default=None)


def compile_stem_pattern(source: str) -> StemPattern:
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
    context = tuple(_tokenize(context_src, "context"))
    replaced = tuple(_tokenize(src, "pattern"))
    regex = re.compile(
        "".join(_token_regex(t) for t in context)
        + "(" + "".join(_token_regex(t) for t in replaced) + ")$"
    )
    return StemPattern(source=source.strip(), context=context, replaced=replaced, regex=regex)


@dataclass(frozen=True)
class MorphRule:
    rule_id: int
    flag: str
    stem_ending: str
    morph_ending: str
    features: FeatureSet
    pattern: StemPattern = field(compare=False, repr=False)


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


def _parse_rule(row: Dict[str, str]) -> Tuple[str, StemPattern, str, FeatureSet]:
    flag = row["flag"]
    if len(flag) != 1:
        raise ValueError(f"flag must be a single character, got {flag!r}")
    pattern = compile_stem_pattern("" if row["stem_ending"] == "-" else row["stem_ending"])
    morph = "" if row["morph_ending"] == "-" else row["morph_ending"]
    return flag, pattern, morph, FeatureSet.from_cells(row)


def load_rules(source: Union[TextIO, Iterable[str]]) -> RuleTable:
    """Load the tab-separated rule table; raises LoadError naming the bad row."""
    rows = read_table(source, COLUMNS, COLUMNS, _parse_rule)
    return RuleTable([
        MorphRule(rule_id=rule_id, flag=flag, stem_ending=pattern.source, morph_ending=morph,
                  features=features, pattern=pattern)
        for rule_id, (flag, pattern, morph, features) in enumerate(rows, start=1)
    ])


def apply_rule(root: str, rule: MorphRule) -> Optional[str]:
    """Apply one rule forward; None when the root's ending does not match."""
    m = rule.pattern.regex.search(root)
    if m is None:
        return None
    return root[:m.start(1)] + rule.morph_ending


class ExpandedForm(NamedTuple):
    form: str
    rule_id: int
    features: FeatureSet


def expand_entry(entry: LexEntry, table: RuleTable) -> List[ExpandedForm]:
    """All forms produced by the entry's licensed rules, in flag then rule order."""
    out: List[ExpandedForm] = []
    for flag in entry.flags:
        bucket = table.by_flag.get(flag)
        if bucket is None:
            logger.warning("entry %r: unknown flag %r skipped", entry.root, flag)
            continue
        for rule in bucket:
            form = apply_rule(entry.root, rule)
            if form is not None:
                out.append(ExpandedForm(form, rule.rule_id, rule.features))
    return out

