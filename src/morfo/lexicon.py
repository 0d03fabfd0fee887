"""Dictionary of root words with rule flags.

The on-disk format is one entry per line, ``word`` or ``word/FLAGS``, where
FLAGS is a run of single-letter rule codes. ``#`` lines are comments and blank
lines are ignored. Entries are NFC-normalized and lowercased; a parsed
dictionary keeps them in the order of their first line, and nothing is sorted.

``load_cached_dictionary`` is the CLI's loader: it keeps each file's parsed
roots in the on-disk cache (``morfo.cache``) and reuses them while the file
and the parsing code are unchanged. The entry holds the roots in parts, one
per first two letters, and a lexicon loaded from it builds each part when a
lookup first probes a root of that part, so a short run over a large
dictionary loads only the parts it reaches. While parts are unbuilt, each
probe is a Python call; once those probes outnumber the roots still unbuilt,
every part left is built, so a long run pays no more in such calls than the
rest would cost to build (the rent-or-buy rule). The map of a lexicon loaded
from the cache is in no set order. ``load_dictionary`` itself keeps no state
and writes nothing.
"""

from __future__ import annotations

import marshal
import unicodedata
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from io import BufferedIOBase

from morfo import cache, resources
from morfo.errors import LoadError


def normalize(word: str) -> str:
    """Lowercase, then NFC-normalize: the canonical form for all lookups.

    Lowercasing last could leave a decomposed pair that NFC would compose.
    Lowercase ASCII is already NFC, so it is returned as it is.
    """
    lower = word.lower()
    return lower if lower.isascii() else unicodedata.normalize("NFC", lower)


class LexEntry(namedtuple("LexEntry", "root flags")):
    """A root and its flags: ordered, duplicate-free single-letter codes."""

    __slots__ = ()

    def to_line(self) -> str:
        return self.root + ("/" + "".join(self.flags) if self.flags else "")


class Lexicon:
    """Immutable map of roots to flag tuples.

    ``flags`` maps each root to its flags; roots with equal flags may share
    one tuple. The dict given is kept, not copied, so it must not change
    afterwards. Iterating makes a ``LexEntry`` named tuple, (root, flags),
    per root. ``get(root)`` is the flags of one root, or None; it is how
    lookups probe the lexicon.

    A parsed lexicon (``load_dictionary``) keeps the order of each root's
    first line. A lexicon loaded from the cache (``load_cached_dictionary``)
    may hold parts of its roots not yet built: ``get`` builds the part of a
    root it does not find (``_probe``), and reading ``flags``, iterating or
    comparing builds every part left. Its map is in no set order.
    """

    def __init__(self, flags: dict[str, tuple]):
        self._flags = flags
        self.get = flags.get
        self._table: list[tuple[tuple, int, str]] | None = None
        # Root prefix -> the marshalled part of its roots, for each part not
        # yet built into ``_flags``.
        self._unbuilt: dict[str, bytes] = {}
        # The lexicon's roots less the probes made through ``_probe``.
        self._budget = 0

    @property
    def flags(self) -> dict[str, tuple]:
        for prefix in list(self._unbuilt):
            self._build(prefix)
        return self._flags

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[LexEntry]:
        return (LexEntry(root, flags) for root, flags in self.flags.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Lexicon) and self.flags == other.flags

    def flag_table(self) -> list[tuple[tuple, int, str]]:
        """(flags, root count, first root) per distinct flag tuple, in the order of first roots."""
        if self._table is None:
            flags = self.flags
            counts = Counter(flags.values())
            # Read backwards, the last root stored for a tuple is its first.
            first = dict(zip(reversed(flags.values()), reversed(flags.keys())))
            self._table = [(f, count, first[f]) for f, count in counts.items()]
        return self._table

    def _probe(self, root: str) -> tuple | None:
        """``get`` while some parts are not built: a miss builds the part of ``root``, and
        once the probes made through here outnumber the roots unbuilt, every part left."""
        self._budget -= 1
        if self._budget < len(self._flags):  # the probes outnumber the roots left
            self.flags  # builds every part left
        flags = self._flags.get(root)
        if flags is None:
            self._build(root[:2])
            flags = self._flags.get(root)
        return flags

    def _build(self, prefix: str) -> None:
        """Add the part of ``prefix`` to the map unless it is built, then drop it.

        The part joins the map before it leaves ``_unbuilt``, so a probe
        finds its root while another thread builds the root's part.
        """
        part = self._unbuilt.get(prefix)
        if part is not None:
            self._flags.update(marshal.loads(part))
            self._unbuilt.pop(prefix, None)
            if not self._unbuilt:
                self.get = self._flags.get


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
    merged: dict[str, tuple] = {}
    # Flag text -> its duplicate-free tuple, one object per distinct tuple.
    shared: dict[str, tuple] = {}
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
    """The cache entry of ``lexicon``: (flag table, prefix -> marshalled part).

    A part is the dict of the roots that start with one prefix, their first
    two letters.
    """
    parts: dict[str, dict[str, tuple]] = {}
    for root, flags in lexicon.flags.items():
        parts.setdefault(root[:2], {})[root] = flags
    return lexicon.flag_table(), {prefix: marshal.dumps(part) for prefix, part in parts.items()}


def _from_data(data: tuple) -> Lexicon:
    """A lexicon whose parts are built as ``get`` first probes them, and all at
    once when the probes outnumber the roots left unbuilt (``Lexicon._probe``).
    """
    table, parts = data
    if type(table) is not list or type(parts) is not dict:
        raise TypeError("not a dictionary entry")
    lexicon = Lexicon({})
    lexicon._table = table
    lexicon._unbuilt = parts
    lexicon._budget = sum(count for _, count, _ in table)
    lexicon.get = lexicon._probe
    return lexicon


def load_cached_dictionary(stream: BufferedIOBase) -> Lexicon:
    """``load_dictionary(stream)``, from the CLI's cache (``cache.load``) while it is current.

    The entry holds the roots by prefix (``_to_data``), with the flag table,
    so that warnings and checks over every root need not build the parts;
    its stamp covers this module and ``resources``.
    """
    return cache.load(stream, "dictionary", (__file__, resources.__file__), load_dictionary,
                      _to_data, _from_data)
