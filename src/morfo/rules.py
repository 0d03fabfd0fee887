"""The morphological rule table: suffix substitutions with feature columns.

``load_rules`` reads the tab-separated table and ``dump_rules`` writes it.
The CLI parses the table on every run, as it does the other small tables;
only the dictionary is kept in the on-disk cache (``morfo.cache``).

A rule's stem-ending pattern describes the last letters of a root word with
one position test per letter: a literal letter, a character class ``[...]``
or a negated class ``[^...]``. An optional leading context marker
``(?<=...)`` holds the tests of letters that must be there but are kept
rather than replaced. Nothing else (no alternation, no quantifiers), so every
pattern has a fixed length and reverse application stays tractable.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import count

from morfo.errors import warn
from morfo.features import FeatureSet
from morfo.lexicon import LexEntry, is_flag
from morfo.resources import read_table

COLUMNS = ("flag", "stem_ending", "morph_ending", *FeatureSet._fields)

_CONTEXT_MARK = "(?<="


def _tests(src: str, what: str) -> tuple:
    """The position tests of a pattern body, one per letter it matches."""
    tests = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "[":
            j = src.find("]", i)
            if j < 0:
                raise ValueError(f"unclosed class in {what} {src!r}")
            inner = src[i + 1:j]
            negated = inner.startswith("^")
            letters = inner[1:] if negated else inner
            if not letters or not all(c.isalpha() for c in letters):
                raise ValueError(f"invalid class {src[i:j + 1]!r} in {what} {src!r}")
            tests.append((letters, negated))
            i = j + 1
        elif ch.isalpha():
            tests.append(ch)
            i += 1
        else:
            raise ValueError(f"unsupported character {ch!r} in {what} {src!r}")
    return tuple(tests)


def parse_stem_pattern(source: str) -> tuple[tuple, tuple]:
    """Check ``source`` against the dialect; return (the tests of its replaced part, all its
    tests, context first)."""
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
    context = _tests(context_src, "context")
    replaced = _tests(src, "pattern")
    return replaced, context + replaced


def ends_with(word: str, tests: tuple) -> bool:
    """Whether the last ``len(tests)`` letters of ``word`` pass ``tests``, in order.

    A test is a letter, passed by that letter alone, or a ``(letters,
    negated)`` class, passed by a letter in ``letters`` or, when negated,
    by one not in them. A word shorter than ``tests`` passes none.
    """
    start = len(word) - len(tests)
    if start < 0:
        return False
    for letter, test in zip(word[start:], tests):
        if type(test) is str:
            if letter != test:
                return False
        elif (letter in test[0]) == test[1]:
            return False
    return True


class MorphRule(namedtuple("MorphRule", "rule_id flag stem_ending morph_ending features replaced "
                                        "tests line_no example", defaults=(0, None))):
    """One rule: on a root licensed by ``flag``, ``stem_ending`` becomes ``morph_ending``.

    ``tests`` holds the position tests (see ``ends_with``) of the letters
    the stem-ending pattern matches at the end of a root, its context first,
    and ``replaced`` the last of them, those of the letters the rule swaps
    out. Build rules with ``MorphRule.build``, which fills both in.
    ``line_no`` is the line the rule was read from, 0 when none, and
    ``example`` the (root, form) pair of an imported rule's comment, None
    when none. Equality compares every field.
    """

    __slots__ = ()

    @classmethod
    def build(cls, flag: str, stem_ending: str, morph_ending: str,
              features: Callable[[], FeatureSet], rule_id: int = 0, line_no: int = 0,
              example: tuple[str, str] | None = None) -> MorphRule:
        """A rule, ``features()`` called last.

        A bad flag, pattern or feature set raises ValueError, checked in that order.
        """
        _check_flag(flag)
        replaced, tests = parse_stem_pattern(stem_ending)
        return cls(rule_id, flag, stem_ending.strip(), morph_ending, features(), replaced, tests,
                   line_no, example)


def _check_flag(flag: str) -> None:
    if not is_flag(flag):
        raise ValueError(f"flag must be one ASCII letter, got {flag!r}")


class RuleTable:
    """Rules in file order, bucketed by flag."""

    def __init__(self, rules: list[MorphRule]):
        self.rules = list(rules)
        self.by_flag: dict[str, list[MorphRule]] = {}
        for rule in self.rules:
            self.by_flag.setdefault(rule.flag, []).append(rule)
        self.by_id = {r.rule_id: r for r in self.rules}

    def __len__(self) -> int:
        return len(self.rules)


def _dash(cell: str) -> str:
    return "" if cell == "-" else cell


def load_rules(source: Iterable[bytes | str]) -> RuleTable:
    """Load the tab-separated rule table; raises LoadError naming the bad row.

    A row's flag, stem-ending pattern and features are checked in that
    order. Each distinct pattern is parsed once, and rules with equal
    feature cells share one ``FeatureSet``.
    """
    rule_ids = count(1)
    patterns: dict[str, tuple[tuple, tuple]] = {}  # stem ending -> parse_stem_pattern of it
    feature_sets: dict[tuple, FeatureSet] = {}  # feature cells -> their FeatureSet

    def parse(row: list[str], line_no: int) -> MorphRule:
        flag, stem_ending, morph_ending, *cells = row
        _check_flag(flag)
        stem_ending = _dash(stem_ending)
        pattern = patterns.get(stem_ending)
        if pattern is None:
            pattern = patterns[stem_ending] = parse_stem_pattern(stem_ending)
        cells = tuple(cells)
        features = feature_sets.get(cells)
        if features is None:
            features = feature_sets[cells] = FeatureSet.from_cells(
                dict(zip(FeatureSet._fields, cells)))
        return MorphRule(next(rule_ids), flag, stem_ending, _dash(morph_ending), features,
                         *pattern, line_no)

    return RuleTable(read_table(source, COLUMNS, COLUMNS, parse))


def dump_rules(rules: Iterable[MorphRule]) -> str:
    """The rule table ``load_rules`` reads, header included; unset cells are left empty."""
    out = ["\t".join(COLUMNS)]
    for rule in rules:
        out.append("\t".join([rule.flag, rule.stem_ending, rule.morph_ending]
                             + [value or "" for value in rule.features]))
    return "\n".join(out) + "\n"


def apply_rule(root: str, rule: MorphRule) -> str | None:
    """Apply one rule forward; None when the root's ending does not match."""
    if not ends_with(root, rule.tests):
        return None
    return root[:len(root) - len(rule.replaced)] + rule.morph_ending


#: A form that a rule makes from a root.
ExpandedForm = namedtuple("ExpandedForm", "form rule_id features")


def expand_entry(entry: LexEntry, table: RuleTable) -> list[ExpandedForm]:
    """All forms produced by the entry's licensed rules, in flag then rule order.

    A rule that would rewrite the whole root to nothing produces no form: no
    lookup can reach the empty word.
    """
    out: list[ExpandedForm] = []
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

