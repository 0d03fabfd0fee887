"""Dictionary of root words with rule flags, sorted for prefix search.

The on-disk format is one entry per line, ``word`` or ``word/FLAGS``, where
FLAGS is a run of single-letter rule codes. ``#`` lines are comments and blank
lines are ignored. Entries are NFC-normalized, lowercased, and kept strictly
sorted by code point so that the roots sharing a prefix can be found by
binary search.
"""

from __future__ import annotations

import string
import unicodedata
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from morfo.errors import LoadError
from morfo.resources import data_lines


def normalize(word: str) -> str:
    """Lowercase, then NFC-normalize: the canonical form for all lookups.

    Lowercasing last could leave a decomposed pair that NFC would compose.
    """
    return unicodedata.normalize("NFC", word.lower())


@dataclass(frozen=True)
class LexEntry:
    root: str
    flags: tuple  # ordered, duplicate-free single-letter codes

    def to_line(self) -> str:
        return self.root + ("/" + "".join(self.flags) if self.flags else "")


class Lexicon:
    """Immutable sorted list of entries plus an exact-match index."""

    def __init__(self, entries: List[LexEntry]):
        self.entries = sorted(entries, key=lambda e: e.root)
        self._roots = [e.root for e in self.entries]
        self._index = {e.root: e for e in self.entries}
        if len(self._index) != len(self.entries):
            raise ValueError("duplicate roots in lexicon")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[LexEntry]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Lexicon) and self.entries == other.entries

    def lookup_exact(self, root: str) -> Optional[LexEntry]:
        return self._index.get(root)

    def with_prefix(self, prefix: str) -> Iterator[LexEntry]:
        """Entries whose root starts with ``prefix``, in sorted order."""
        i = bisect_left(self._roots, prefix)
        while i < len(self._roots) and self._roots[i].startswith(prefix):
            yield self.entries[i]
            i += 1


def _parse_line(line: str, line_no: int):
    word, sep, flag_part = line.partition("/")
    if not word:
        raise LoadError("empty root", line_no)
    if sep and not flag_part:
        raise LoadError(f"trailing '/' with no flags in {line!r}", line_no)
    for ch in flag_part:
        if ch not in string.ascii_letters:
            raise LoadError(f"invalid flag character {ch!r} in {line!r}", line_no)
    root = normalize(word)
    if "/" in root:
        raise LoadError(f"'/' in root {root!r}", line_no)
    flags = []
    for ch in flag_part:
        if ch not in flags:
            flags.append(ch)
    return root, flags


def load_dictionary(source: Iterable[bytes | str]) -> Lexicon:
    """Load a dictionary stream, merging duplicate roots by flag-set union."""
    merged: dict = {}
    for line_no, line in data_lines(source):
        root, flags = _parse_line(line.strip(), line_no)
        if root in merged:
            for ch in flags:
                if ch not in merged[root]:
                    merged[root].append(ch)
        else:
            merged[root] = flags
    return Lexicon([LexEntry(root, tuple(flags)) for root, flags in merged.items()])

