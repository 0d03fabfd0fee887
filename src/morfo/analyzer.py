"""Surface-form analysis by affix stripping.

A word is recognised the way Ispell and Hunspell recognise one: for every
suffix of the word that some rule produces (its morph ending), the rest of
the word plus the part that rule replaced is a candidate root. The morph
endings are held reversed in a trie, so one walk from the end of the word,
a letter at a time, reaches every ending the word has and stops at the first
suffix that no rule produces. A replaced part that holds a character class
stands for every root tail of its length that it matches, so each candidate
is one dictionary probe. When the lexicon holds that root with the rule's
flag, a rule with a ``(?<=...)`` context confirms it by testing its context
on the end of the stem, the word less the morph ending; any other rule gives
the word back from every such root, so it needs no check. Rules that replace
a whole root (``ser`` -> ``fue``) need no special case. A reading whose lemma
starts with a different letter from the word is labelled ``irregular_table``,
every other one ``dictionary``. ``analyze`` sorts the readings;
``preferred_analysis`` takes the least of them under its preference order,
which is total, without sorting. When no reading exists, a single fallback
analysis comes from an ordered table of word-ending defaults.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from morfo.errors import warn
from morfo.features import FeatureSet, Kind, Mood, Pos
from morfo.lexicon import Lexicon, normalize
from morfo.resources import read_table
from morfo.rules import MorphRule, RuleTable, ends_with


class Provenance(Kind):
    DICTIONARY = "dictionary"
    DEFAULT_FALLBACK = "default_fallback"
    IRREGULAR_TABLE = "irregular_table"


# Read on every lookup. A module global is one read, and ``Provenance.DICTIONARY``
# two (the class, then its attribute): 15-22 ns more per read on Python 3.10-3.13.
_DICTIONARY = Provenance.DICTIONARY
_IRREGULAR = Provenance.IRREGULAR_TABLE
_FALLBACK = Provenance.DEFAULT_FALLBACK
_NOUN = Pos.NOUN
_PARTICIPLE = Mood.PARTICIPLE


#: A reading of a word; ``rule_id`` is None for a fallback.
Analysis = namedtuple("Analysis", "surface lemma rule_id features provenance")

#: A row of the ending-default table; the ending "*" matches any word.
DefaultRow = namedtuple("DefaultRow", "ending features")


_DEFAULT_COLUMNS = ("ending", "pos", "gender", "number", "person", "mood", "tense", "animate")

#: The fallback features of a one-letter or non-alphabetic word, and of a word
#: that no default row matches.
_OTHER = FeatureSet(pos=Pos.OTHER)
_UNSET = FeatureSet()

_NOMINAL_ENDINGS = ("o", "a", "os", "as")


def _parse_default(row: dict[str, str], _line_no: int) -> DefaultRow:
    ending = normalize(row["ending"])
    if not ending:
        raise ValueError("empty ending cell (use '*' for the catch-all row)")
    return DefaultRow(ending=ending, features=FeatureSet.from_cells(row))


def load_default_table(source: Iterable[bytes | str]) -> list[DefaultRow]:
    """Load the ending-default TSV; rows are kept longest-ending-first."""
    rows = read_table(source, _DEFAULT_COLUMNS, ("ending",), _parse_default)
    rows.sort(key=lambda r: -len(r.ending) if r.ending != "*" else 1)
    return rows


def _default_pass(rows: Iterable[DefaultRow]) -> tuple:
    """The fallback over ``rows``: (distinct ending lengths, longest first;
    ending -> features of its first row; features of the first ``*`` row or None).
    """
    by_ending: dict[str, FeatureSet] = {}
    catch_all = None
    for row in rows:
        if row.ending != "*":
            by_ending.setdefault(row.ending, row.features)
        elif catch_all is None:
            catch_all = row.features
    return sorted({len(ending) for ending in by_ending}, reverse=True), by_ending, catch_all


def _rank(reading: tuple[str, MorphRule]):
    """Preference key of a reading of a word with no nominal ending."""
    root, rule = reading
    return rule.rule_id, root


def _rank_nominal(reading: tuple[str, MorphRule]):
    """Preference key of a reading of a word ending in -o, -a, -os or -as."""
    root, rule = reading
    features = rule.features
    if features.pos == _NOUN:
        shape = 0
    elif features.mood == _PARTICIPLE:
        shape = 2
    else:
        shape = 1
    return shape, rule.rule_id, root


def _analysis(surface: str, root: str, rule: MorphRule) -> Analysis:
    return Analysis(surface, root, rule.rule_id, rule.features,
                    _DICTIONARY if root[0] == surface[0] else _IRREGULAR)


def _node(rules: Iterable[MorphRule], heads: dict[tuple, list[str]]) -> tuple:
    """The trie node of one morph ending produced by ``rules``, with no children yet.

    Its heads are ``((head, ((flag, ((rule, check), ...)), ...)), ...)``: each
    literal root tail that some of ``rules`` replace, with those rules by
    flag, in file order. ``check`` is a rule's context tests, which the end
    of the stem must pass: a head matches its rules' replaced parts, so only
    a rule with a context can fail to give stem + morph ending back from
    stem + head.
    """
    by_head: dict[str, dict[str, list]] = {}
    for rule in rules:
        check = rule.tests[:len(rule.tests) - len(rule.replaced)]
        for head in heads[rule.replaced]:
            by_head.setdefault(head, {}).setdefault(rule.flag, []).append((rule, check))
    return tuple([(head, tuple([(flag, tuple(pairs)) for flag, pairs in by_flag.items()]))
                  for head, by_flag in by_head.items()]), {}


class Analyzer:
    """Feature extraction over a lexicon and rule table.

    Construction builds a trie of the rules' morph endings, reversed, whose
    nodes hold the literal root tails the rules replace, and indexes the
    default table by ending; it does not expand the lexicon. A lookup walks
    the trie from the end of the word and changes no state but the parts a
    lexicon loaded from the cache builds as they are first probed, which is
    safe across threads, so an analyzer may be shared between threads.
    """

    def __init__(self, lexicon: Lexicon, rules: RuleTable, defaults: list[DefaultRow]):
        self.lexicon = lexicon
        self.rules = rules
        self.defaults = defaults
        # Every literal root tail a replaced part stands for: the part itself
        # when it is all letters; else each n-letter tail of a lexicon root
        # that it matches, n its length. The roots are read once per distinct
        # n, and not at all when no replaced part holds a class; reading them
        # builds the whole of a lexicon loaded in parts.
        patterns = {rule.replaced for rule in rules.rules}
        classed = {p for p in patterns if any(type(t) is tuple for t in p)}
        root_tails = {n: {root[-n:] for root in lexicon.flags} for n in {len(p) for p in classed}}
        heads = {p: ["".join(p)] for p in patterns if p not in classed}
        for p in classed:
            heads[p] = sorted(tail for tail in root_tails[len(p)] if ends_with(tail, p))
        by_ending: dict[str, list[MorphRule]] = {}
        for rule in rules.rules:
            by_ending.setdefault(rule.morph_ending, []).append(rule)
        # The morph endings, reversed, as a trie. A node is (heads, children):
        # children maps the letter before a node's ending in a word to the
        # node of that longer ending, so a word is walked from its end; the
        # root is the empty ending. A suffix of an ending that is no ending
        # itself has no heads, and a word's walk stops at the first suffix
        # with no node. Endings are added shortest first, so the node of each
        # is new when it is made.
        self._trie = _node(by_ending.pop("", ()), heads)
        for ending in sorted(by_ending, key=len):
            node = self._trie
            for letter in reversed(ending[1:]):
                node = node[1].setdefault(letter, ((), {}))
            node[1][ending[0]] = _node(by_ending[ending], heads)
        # pos hint -> the fallback passes it takes: the rows of that pos, then
        # every row; no hint, or a hint with no rows, takes only the second.
        every_row = _default_pass(defaults)
        self._fallback = {None: (every_row,)}
        for pos in {r.features.pos for r in defaults} - {None}:
            self._fallback[pos] = (_default_pass(r for r in defaults if r.features.pos == pos),
                                   every_row)
        self._warn_unknown_flags()

    def _warn_unknown_flags(self) -> None:
        known = set(self.rules.by_flag)
        # Each distinct flag tuple is checked once, with the count of its roots.
        bad = [(flags, count) for flags, count, _ in self.lexicon.flag_table()
               if not known.issuperset(flags)]
        if bad:
            entries = sum(count for _, count in bad)
            unknown = set().union(*(flags for flags, _ in bad))
            warn(f"{entries} dictionary entries carry flags with no rules "
                 f"({', '.join(sorted(unknown - known))}); those flags are skipped")

    # -- affix stripping ------------------------------------------------------

    def _readings(self, surface: str) -> list[tuple[str, MorphRule]]:
        """Every (root, rule) pair of the lexicon whose forward application gives ``surface``."""
        out = []
        probe = self.lexicon.get
        heads, children = self._trie
        cut = len(surface)
        while True:
            if heads:
                stem = surface[:cut]
                for head, by_flag in heads:
                    root = stem + head
                    flags = probe(root)
                    if flags is None:
                        continue
                    for flag, pairs in by_flag:
                        if flag in flags:
                            for rule, check in pairs:
                                if not check or ends_with(stem, check):
                                    out.append((root, rule))
            if not cut:
                return out
            cut -= 1
            node = children.get(surface[cut])
            if node is None:
                return out
            heads, children = node

    def _kept(self, surface: str, pos_hint: Pos | None) -> list[tuple[str, MorphRule]]:
        """The (root, rule) readings ``analyze`` reports for ``surface``, in no set order."""
        if not surface:
            raise ValueError("empty word")
        readings = self._readings(surface)
        if not surface.isalpha():
            first = surface[0]
            readings = [r for r in readings if r[0][0] != first]
        if pos_hint is not None:
            readings = [r for r in readings if r[1].features.pos == pos_hint]
        return readings

    # -- fallback -------------------------------------------------------------

    def default_features(self, word: str, pos_hint: Pos | None = None) -> FeatureSet:
        """Features from the ordered ending-default table (longest ending first).

        With a hint, the rows of that pos are tried before every row.
        """
        return self._default_features(normalize(word), pos_hint)

    def _default_features(self, surface: str, pos_hint: Pos | None) -> FeatureSet:
        size = len(surface)
        if size <= 1 or not surface.isalpha():
            return _OTHER
        for lengths, by_ending, catch_all in self._fallback.get(pos_hint) or self._fallback[None]:
            for length in lengths:
                if length <= size:
                    features = by_ending.get(surface[size - length:])
                    if features is not None:
                        return features
            if catch_all is not None:
                return catch_all
        return _UNSET

    def _fallback_analysis(self, surface: str, pos_hint: Pos | None) -> Analysis:
        return Analysis(surface, surface, None, self._default_features(surface, pos_hint),
                        _FALLBACK)

    # -- public API -----------------------------------------------------------

    def analyze(self, word: str, pos_hint: Pos | None = None) -> list[Analysis]:
        """All dictionary analyses of ``word`` (POS-filtered when hinted), or one fallback.

        Readings whose lemma starts with a different letter come first, by
        rule then lemma; the others follow, by lemma then rule, and only when
        the word is alphabetic.
        """
        surface = normalize(word)
        readings = self._kept(surface, pos_hint)
        if not readings:
            return [self._fallback_analysis(surface, pos_hint)]
        if len(readings) > 1:
            first = surface[0]
            readings.sort(key=lambda r: (1, r[0], r[1].rule_id) if r[0][0] == first
                          else (0, r[1].rule_id, r[0]))
        return [_analysis(surface, root, rule) for root, rule in readings]

    def preferred_analysis(self, word: str, pos_hint: Pos | None = None) -> Analysis:
        """The first of ``analyze(word, pos_hint)`` under the preference order.

        For a word ending in -o, -a, -os or -as, noun readings come first and
        participle readings last. Then the lower rule id wins, then the lemma
        that sorts first. A fallback analysis is always the only one. The
        readings are not sorted: this order is total, so the least of them is
        the answer.
        """
        surface = normalize(word)
        readings = self._kept(surface, pos_hint)
        if not readings:
            return self._fallback_analysis(surface, pos_hint)
        if len(readings) == 1:
            root, rule = readings[0]
        else:
            root, rule = min(readings, key=_rank_nominal if surface.endswith(_NOMINAL_ENDINGS)
                             else _rank)
        return _analysis(surface, root, rule)
