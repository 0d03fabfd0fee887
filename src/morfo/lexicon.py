"""Dictionary of root words with rule flags.

The on-disk format is one entry per line, ``word`` or ``word/FLAGS``, where
FLAGS is a run of single-letter rule codes. ``#`` lines are comments and blank
lines are ignored. Entries are NFC-normalized and lowercased, and kept in the
order of their first line; nothing is sorted.

``load_cached_dictionary`` is the CLI's loader: it keeps each file's parsed
roots in the on-disk cache (``morfo.cache``) and reuses them while the file
and the parsing code are unchanged. ``load_dictionary`` itself keeps no
state and writes nothing.
"""

from __future__ import annotations

import unicodedata
from typing import BinaryIO, Dict, Iterable, Iterator, NamedTuple

from morfo import cache, resources
from morfo.errors import LoadError


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
    """

    def __init__(self, flags: Dict[str, tuple]):
        self.flags = flags

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[LexEntry]:
        return (LexEntry(root, flags) for root, flags in self.flags.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Lexicon) and self.flags == other.flags


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


def _lexicon(flags: Dict[str, tuple]) -> Lexicon:
    if type(flags) is not dict:
        raise TypeError("not a root -> flags dict")
    return Lexicon(flags)


def load_cached_dictionary(stream: BinaryIO) -> Lexicon:
    """``load_dictionary(stream)``, from the CLI's cache (``cache.load``) while it is current.

    The entry holds ``Lexicon.flags``; its stamp covers this module and
    ``resources``.
    """
    return cache.load(stream, "dictionary", (__file__, resources.__file__), load_dictionary,
                      lambda lexicon: lexicon.flags, _lexicon)
