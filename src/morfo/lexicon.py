"""Dictionary of root words with rule flags.

The on-disk format is one entry per line, ``word`` or ``word/FLAGS``, where
FLAGS is a run of single-letter rule codes. ``#`` lines are comments and blank
lines are ignored. Entries are NFC-normalized and lowercased, and kept in the
order of their first line; nothing is sorted.

``load_cached_dictionary`` is the CLI's loader: it keeps each file's parsed
roots in the on-disk cache (``morfo.cache``) and reuses them while the file
and the parsing code are unchanged. The entry holds the roots in parts, one
per first two letters, and a lexicon loaded from it builds each part when a
lookup first probes a root of that part, so a short run over a large
dictionary loads only the parts it reaches. A dictionary of fewer than
``WHOLE_BELOW`` roots is built whole at once. ``load_dictionary`` itself
keeps no state and writes nothing.
"""

from __future__ import annotations

import marshal
import unicodedata
from collections import Counter
from itertools import islice
from typing import BinaryIO, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from morfo import cache, resources
from morfo.errors import LoadError

#: A cached dictionary of fewer roots than this is built whole when it is
#: loaded. A lexicon built part by part answers each probe through a Python
#: call until every part is loaded, which costs more over a long run on a
#: small dictionary than building the few parts at once.
WHOLE_BELOW = 5_000


def normalize(word: str) -> str:
    """Lowercase, then NFC-normalize: the canonical form for all lookups.

    Lowercasing last could leave a decomposed pair that NFC would compose.
    Lowercase ASCII is already NFC, so it is returned as it is.
    """
    lower = word.lower()
    return lower if lower.isascii() else unicodedata.normalize("NFC", lower)


class LexEntry(NamedTuple):
    """A root and its flags: ordered, duplicate-free single-letter codes."""

    root: str
    flags: tuple

    def to_line(self) -> str:
        return self.root + ("/" + "".join(self.flags) if self.flags else "")


class Lexicon:
    """Immutable map of roots to flag tuples.

    ``flags`` maps each root to its flags (for a loaded file, in the order of
    each root's first line); roots with equal flags may share one tuple. The
    dict given is kept, not copied, so it must not change afterwards.
    Iterating makes a ``LexEntry`` named tuple, (root, flags), per root.
    ``get(root)`` is the flags of one root, or None; it is how lookups probe
    the lexicon.

    A lexicon loaded from the cache (``load_cached_dictionary``) may hold its
    roots in parts not yet built: ``get`` builds the part of a root it does
    not find, and reading ``flags``, iterating or comparing builds the whole
    map, in file order.
    """

    def __init__(self, flags: Dict[str, tuple]):
        self._flags = flags
        self.get = flags.get
        self._table: Optional[List[Tuple[tuple, int, str]]] = None
        # While the map is partial: the marshalled part of every root prefix,
        # the file order as (prefix, root count) runs, and the parts not yet
        # built into ``_flags``.
        self._parts: Optional[Dict[str, bytes]] = None
        self._runs: list = []
        self._pending: Dict[str, bytes] = {}

    @classmethod
    def _in_parts(cls, table: List[Tuple[tuple, int, str]], parts: Dict[str, bytes],
                  runs: list) -> Lexicon:
        """A lexicon whose parts are built as ``get`` first probes them (see ``_to_data``).

        One of fewer than ``WHOLE_BELOW`` roots is built whole at once.
        """
        lexicon = cls({})
        lexicon._table = table
        lexicon._parts = parts
        lexicon._runs = runs
        lexicon._pending = dict(parts)
        lexicon.get = lexicon._probe
        if sum(count for _, count, _ in table) < WHOLE_BELOW:
            lexicon._build_whole()
        return lexicon

    @property
    def flags(self) -> Dict[str, tuple]:
        if self._parts is not None:
            self._build_whole()
        return self._flags

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[LexEntry]:
        return (LexEntry(root, flags) for root, flags in self.flags.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Lexicon) and self.flags == other.flags

    def flag_table(self) -> List[Tuple[tuple, int, str]]:
        """(flags, root count, first root) per distinct flag tuple, in the order of first roots."""
        if self._table is None:
            flags = self.flags
            counts = Counter(flags.values())
            # Read backwards, the last root stored for a tuple is its first.
            first = dict(zip(reversed(flags.values()), reversed(flags.keys())))
            self._table = [(f, count, first[f]) for f, count in counts.items()]
        return self._table

    def _probe(self, root: str) -> Optional[tuple]:
        """``get`` while some parts are not built: a miss builds the part of ``root``.

        A part is added to the map before it leaves ``_pending``, and a miss
        looks again once ``_pending`` is read, so a probe finds its root
        while another thread builds the root's part or the whole map.
        """
        flags = self._flags.get(root)
        if flags is None:
            prefix = root[:2]
            part = self._pending.get(prefix)
            if part is not None:
                self._flags.update(marshal.loads(part))
                self._pending.pop(prefix, None)
                if not self._pending:
                    self.get = self._flags.get
            flags = self._flags.get(root)
        return flags

    def _build_whole(self) -> None:
        """Build every part into one map in file order, and drop the parts."""
        items = {prefix: iter(marshal.loads(part).items()) for prefix, part in self._parts.items()}
        flags: Dict[str, tuple] = {}
        for prefix, count in self._runs:
            flags.update(islice(items[prefix], count))
        self._flags = flags
        self.get = flags.get
        self._parts = None
        self._runs = []
        self._pending = {}


def _check_line(line: str, line_no: int) -> None:
    """Raise the ``LoadError`` for a malformed stripped line; return if it is well formed."""
    word, sep, flag_part = line.partition("/")
    if not word:
        raise LoadError("empty root", line_no)
    if sep and not flag_part:
        raise LoadError(f"trailing '/' with no flags in {line!r}", line_no)
    for ch in flag_part:
        if not (ch.isascii() and ch.isalpha()):
            raise LoadError(f"invalid flag character {ch!r} in {line!r}", line_no)
    if any(ch.isspace() for ch in word):
        raise LoadError(f"whitespace in root {word!r}", line_no)


def load_dictionary(source: Iterable[bytes | str]) -> Lexicon:
    """Load a dictionary stream, merging duplicate roots by flag-set union."""
    merged: Dict[str, tuple] = {}
    # Flag text -> its duplicate-free tuple, one object per distinct tuple.
    shared: Dict[str, tuple] = {}
    for first_line_no, block in resources.line_blocks(source):
        for line_no, line in enumerate(block, first_line_no):
            line = line.strip()
            if not line or line[0] == "#":
                continue
            word, sep, flag_part = line.partition("/")
            # A root of letters with ASCII-letter flags, the common line, is well formed.
            if not (word.isalpha() and (flag_part.isascii() and flag_part.isalpha() or not sep)):
                _check_line(line, line_no)
            flags = shared.get(flag_part)
            if flags is None:
                flags = tuple(dict.fromkeys(flag_part))
                flags = shared[flag_part] = shared.setdefault("".join(flags), flags)
            root = normalize(word)
            known = merged.get(root)
            if known is not None and known is not flags:
                union = tuple(dict.fromkeys(known + flags))
                flags = shared.setdefault("".join(union), union)
            merged[root] = flags
    return Lexicon(merged)


def _to_data(lexicon: Lexicon) -> tuple:
    """The cache entry of ``lexicon``: (flag table, prefix -> marshalled part, file-order runs).

    A part is the dict of the roots that start with one prefix, their first
    two letters, in file order. The runs give the prefix of each stretch of
    roots in file order and its length.
    """
    parts: Dict[str, Dict[str, tuple]] = {}
    runs: list = []
    for root, flags in lexicon.flags.items():
        prefix = root[:2]
        parts.setdefault(prefix, {})[root] = flags
        if runs and runs[-1][0] == prefix:
            runs[-1][1] += 1
        else:
            runs.append([prefix, 1])
    return (lexicon.flag_table(), {prefix: marshal.dumps(part) for prefix, part in parts.items()},
            runs)


def _from_data(data: tuple) -> Lexicon:
    table, parts, runs = data
    if type(table) is not list or type(parts) is not dict or type(runs) is not list:
        raise TypeError("not a dictionary entry")
    return Lexicon._in_parts(table, parts, runs)


def load_cached_dictionary(stream: BinaryIO) -> Lexicon:
    """``load_dictionary(stream)``, from the CLI's cache (``cache.load``) while it is current.

    The entry holds the roots by prefix (``_to_data``), with the flag table,
    so that warnings and checks over every root need not build the parts;
    its stamp covers this module and ``resources``.
    """
    return cache.load(stream, "dictionary", (__file__, resources.__file__), load_dictionary,
                      _to_data, _from_data)
