"""Surface-form analysis by affix stripping.

A word is recognised the way Ispell and Hunspell recognise one: for every
suffix of the word that some rule produces (its morph ending), the rest of
the word plus the part that rule replaced is a candidate root. The morph
endings and the endings of the default table are held reversed in one trie,
so one walk from the end of the word, a letter at a time, reaches every
ending the word has and stops at the first suffix that is part of neither.
A replaced part that holds a character class stands for every root tail of
its length that it matches, so each candidate is one dictionary probe. When
the lexicon holds that root with the rule's flag, a rule with a ``(?<=...)``
context confirms it by testing its context on the end of the stem, the word
less the morph ending; any other rule gives the word back from every such
root, so it needs no check. Rules that replace a whole root (``ser`` ->
``fue``) need no special case. A reading whose lemma
starts with a different letter from the word is labelled ``irregular_table``,
every other one ``dictionary``. ``analyze`` sorts the readings. The
preferred reading is the least of them under a preference order, which is
total, so it is taken without sorting; one step, ``Analyzer._preferred``,
picks it and labels its provenance, as a plain tuple. The CLI's ``analyze``,
``Lemmatizer`` (and so ``Nominalizer``) and ``evaluate_features`` read that
tuple, and the clitic host check reads the readings of ``_walk``; only
``analyze`` and ``preferred_analysis`` build an ``Analysis``. When no reading
is left (the walk tests the pos hint), the single fallback analysis takes the
default features of the last node walked to.
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


#: The fallback features of a one-letter or non-alphabetic word (its fallbacks
#: for any hint), and of a word that no default row matches.
_OTHER = FeatureSet(pos=Pos.OTHER)
_OTHERS = {None: _OTHER}
_UNSET = FeatureSet()

_NOMINAL_ENDINGS = ("o", "a", "os", "as")


def _parse_default(row: dict[str, str], _line_no: int) -> DefaultRow:
    ending = normalize(row["ending"])
    if not ending:
        raise ValueError("empty ending cell (use '*' for the catch-all row)")
    return DefaultRow(ending=ending, features=FeatureSet.from_cells(row))


def load_default_table(source: Iterable[bytes | str]) -> list[DefaultRow]:
    """Load the ending-default TSV; rows are kept longest-ending-first."""
    rows = read_table(source, ("ending", *FeatureSet._fields), ("ending",), _parse_default)
    rows.sort(key=lambda r: -len(r.ending) if r.ending != "*" else 1)
    return rows


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


def _heads(rules: Iterable[MorphRule], heads: dict[tuple, list[str]]) -> tuple:
    """The heads of the trie node of one morph ending produced by ``rules``.

    They are ``((head, ((flag, ((rule, check), ...)), ...)), ...)``: each
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
                  for head, by_flag in by_head.items()])


def _fallbacks(shorter: dict, rows: Iterable[DefaultRow]) -> dict:
    """The fallbacks of the trie node of ``rows``' ending (or ``*``), given those of
    the node one letter shorter: a pos maps to its first row with the longest
    ending the node's has, else to its first ``*`` row, else is left out and
    takes ``None``'s, the same over every row, else ``_UNSET``.
    """
    out = dict(shorter)
    done = set()
    for row in rows:
        for key in {None, row.features.pos} - done:
            out[key] = row.features
            done.add(key)
    return out


class Analyzer:
    """Feature extraction over a lexicon and rule table.

    Construction builds a trie of the rules' morph endings and the default
    endings, reversed, whose nodes hold the literal root tails the rules
    replace and the default features of a word whose walk ends there; it does
    not expand the lexicon. A lookup walks the trie from the end of the word
    and changes no state but the parts a lexicon loaded from the cache builds
    as they are first probed, which is safe across threads, so an analyzer
    may be shared between threads.
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
        by_default: dict[str, list[DefaultRow]] = {}
        for row in defaults:
            by_default.setdefault(row.ending, []).append(row)
        # The morph and default endings, reversed, as a trie. A node is
        # (heads, children, fallbacks): children maps the letter before a
        # node's ending in a word to the node of that longer ending, so a word
        # is walked from its end; the root is the empty ending and "*". The
        # last node a walk reaches has every default ending the word has. A
        # node that is no default ending shares the fallbacks one letter
        # shorter. Endings are added shortest first, so each node is new when
        # it is made and the one a letter shorter is complete.
        self._trie = (_heads(by_ending.pop("", ()), heads), {},
                      _fallbacks({None: _UNSET}, by_default.pop("*", ())))
        for ending in sorted(by_ending.keys() | by_default.keys(), key=len):
            node = self._trie
            for letter in reversed(ending[1:]):
                node = node[1].setdefault(letter, ((), {}, node[2]))
            rows = by_default.get(ending)
            node[1][ending[0]] = (_heads(by_ending.get(ending, ()), heads), {},
                                  node[2] if rows is None else _fallbacks(node[2], rows))
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

    def _walk(self, surface: str, pos_hint: Pos | None) -> tuple[list, dict]:
        """The (root, rule) readings ``analyze`` reports for ``surface``, in no set
        order, that is those of the lexicon whose forward application gives it
        and whose pos is ``pos_hint``, if any; and its fallbacks (see _fallbacks).
        """
        if not surface:
            raise ValueError("empty word")
        out = []
        probe = self.lexicon.get
        heads, children, fallbacks = self._trie
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
                                if ((pos_hint is None or rule.features.pos == pos_hint)
                                        and (not check or ends_with(stem, check))):
                                    out.append((root, rule))
            if not cut:
                break
            cut -= 1
            node = children.get(surface[cut])
            if node is None:
                break
            heads, children, fallbacks = node
        if not surface.isalpha():
            first = surface[0]
            return [r for r in out if r[0][0] != first], _OTHERS
        return out, (fallbacks if len(surface) > 1 else _OTHERS)

    def default_features(self, word: str, pos_hint: Pos | None = None) -> FeatureSet:
        """Features from the ordered ending-default table (longest ending first).

        With a hint, the rows of that pos are tried before every row. The trie
        is walked by its letters only, so no dictionary root is probed.
        """
        surface = normalize(word)
        if len(surface) <= 1 or not surface.isalpha():
            return _OTHER
        node = self._trie
        for letter in reversed(surface):
            child = node[1].get(letter)
            if child is None:
                break
            node = child
        fallbacks = node[2]
        return fallbacks.get(pos_hint) or fallbacks[None]

    # -- public API -----------------------------------------------------------

    def analyze(self, word: str, pos_hint: Pos | None = None) -> list[Analysis]:
        """All dictionary analyses of ``word`` (POS-filtered when hinted), or one fallback.

        Readings whose lemma starts with a different letter come first, by
        rule then lemma; the others follow, by lemma then rule, and only when
        the word is alphabetic.
        """
        surface = normalize(word)
        readings, fallbacks = self._walk(surface, pos_hint)
        if not readings:
            return [Analysis(surface, surface, None,
                             fallbacks.get(pos_hint) or fallbacks[None], _FALLBACK)]
        first = surface[0]
        if len(readings) > 1:
            readings.sort(key=lambda r: (1, r[0], r[1].rule_id) if r[0][0] == first
                          else (0, r[1].rule_id, r[0]))
        return [Analysis(surface, root, rule.rule_id, rule.features,
                         _DICTIONARY if root[0] == first else _IRREGULAR)
                for root, rule in readings]

    def preferred_analysis(self, word: str, pos_hint: Pos | None = None) -> Analysis:
        """The first of ``analyze(word, pos_hint)`` under the preference order.

        For a word ending in -o, -a, -os or -as, noun readings come first and
        participle readings last. Then the lower rule id wins, then the lemma
        that sorts first. A fallback analysis is always the only one. The
        reading is picked by ``_preferred``, the one step that picks it and
        labels its provenance.
        """
        surface = normalize(word)
        return Analysis(surface, *self._preferred(surface, pos_hint))

    def _preferred(self, surface: str, pos_hint: Pos | None) -> tuple:
        """``(lemma, rule_id, features, provenance)`` of the preferred reading of
        ``surface``, a word already normalized; ``rule_id`` is None for a fallback.

        The readings are not sorted: the preference order is total, so the
        least of them is the answer. The CLI's ``analyze``, ``Lemmatizer`` and
        ``evaluate_features`` read this tuple, with no ``Analysis`` built.
        """
        readings, fallbacks = self._walk(surface, pos_hint)
        if not readings:
            return surface, None, fallbacks.get(pos_hint) or fallbacks[None], _FALLBACK
        if len(readings) == 1:
            root, rule = readings[0]
        else:
            root, rule = min(readings, key=_rank_nominal if surface.endswith(_NOMINAL_ENDINGS)
                             else _rank)
        return (root, rule.rule_id, rule.features,
                _DICTIONARY if root[0] == surface[0] else _IRREGULAR)
