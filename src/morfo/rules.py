"""The morphological rule table: suffix substitutions with feature columns.

``load_rules`` reads the tab-separated table and ``dump_rules`` writes it.
``load_cached_rules``, the CLI's loader, keeps each file's parsed table in
the on-disk cache (``morfo.cache``) while the file and the parsing code are
unchanged.

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
from functools import partial
from io import BufferedIOBase
from itertools import count

from morfo import cache, features, resources
from morfo.errors import warn
from morfo.features import FeatureSet
from morfo.lexicon import LexEntry
from morfo.resources import read_table

COLUMNS = ("flag", "stem_ending", "morph_ending", "pos", "gender", "number",
           "person", "mood", "tense", "animate")
_FEATURE_COLUMNS = COLUMNS[3:]

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
        if len(flag) != 1:
            raise ValueError(f"flag must be a single character, got {flag!r}")
        replaced, tests = parse_stem_pattern(stem_ending)
        return cls(rule_id, flag, stem_ending.strip(), morph_ending, features(), replaced, tests,
                   line_no, example)


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
    """Load the tab-separated rule table; raises LoadError naming the bad row."""
    rule_ids = count(1)
    feature_sets: dict[tuple, FeatureSet] = {}  # feature cells -> their FeatureSet

    def features_of(row: dict[str, str]) -> FeatureSet:
        cells = tuple(map(row.__getitem__, _FEATURE_COLUMNS))
        found = feature_sets.get(cells)
        if found is None:
            found = feature_sets[cells] = FeatureSet.from_cells(row)
        return found

    def parse(row: dict[str, str], line_no: int) -> MorphRule:
        return MorphRule.build(row["flag"], _dash(row["stem_ending"]), _dash(row["morph_ending"]),
                               partial(features_of, row), next(rule_ids), line_no=line_no)

    return RuleTable(read_table(source, COLUMNS, COLUMNS, parse))


def _rows(table: RuleTable) -> list:
    """``table`` as plain data: one row per rule, its features as their values."""
    values: dict[FeatureSet, tuple] = {}
    rows = []
    for rule in table.rules:
        found = values.get(rule.features)
        if found is None:
            found = values[rule.features] = tuple(rule.features.as_dict().values())
        rows.append((rule.rule_id, rule.flag, rule.stem_ending, rule.morph_ending, found,
                     rule.replaced, rule.tests, rule.line_no))
    return rows


def _table(rows: list) -> RuleTable:
    """The rule table whose ``_rows`` are ``rows``, with one ``FeatureSet`` per distinct values."""
    feature_sets: dict[tuple, FeatureSet] = {}
    rules = []
    for rule_id, flag, stem_ending, morph_ending, values, replaced, tests, line_no in rows:
        found = feature_sets.get(values)
        if found is None:
            found = feature_sets[values] = FeatureSet.from_values(values)
        rules.append(MorphRule(rule_id, flag, stem_ending, morph_ending, found, replaced, tests,
                               line_no))
    return RuleTable(rules)


def load_cached_rules(stream: BufferedIOBase) -> RuleTable:
    """``load_rules(stream)``, from the CLI's cache (``cache.load``) while it is current.

    The entry holds one row per rule (``_rows``); its stamp covers this
    module, ``resources`` and ``features``.
    """
    return cache.load(stream, "rules", (__file__, resources.__file__, features.__file__),
                      load_rules, _rows, _table)


def dump_rules(rules: Iterable[MorphRule]) -> str:
    """The rule table ``load_rules`` reads, header included; unset cells are left empty."""
    out = ["\t".join(COLUMNS)]
    for rule in rules:
        feats = rule.features.as_dict()
        out.append("\t".join([rule.flag, rule.stem_ending, rule.morph_ending]
                             + [feats[name] or "" for name in COLUMNS[3:]]))
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

