"""Dictionary of root words with rule flags.

The on-disk format is one entry per line, ``word`` or ``word/FLAGS``, where
FLAGS is a run of single-letter rule codes. ``#`` lines are comments and blank
lines are ignored. Entries are NFC-normalized and lowercased, and kept in the
order of their first line; nothing is sorted.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

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
    """Immutable map of roots to flag tuples.

    ``flags`` maps each root to its flags, in the order the entries were
    given (for a loaded file, the order of each root's first line); roots with
    equal flags may share one tuple. ``LexEntry`` objects are made only on
    request.
    """

    def __init__(self, entries: Iterable[LexEntry] = ()):
        entries = list(entries)
        self.flags: Dict[str, tuple] = {e.root: e.flags for e in entries}
        if len(self.flags) != len(entries):
            raise ValueError("duplicate roots in lexicon")

    @classmethod
    def _from_flags(cls, flags: Dict[str, tuple]) -> Lexicon:
        lexicon = cls.__new__(cls)
        lexicon.flags = flags
        return lexicon

    @property
    def entries(self) -> List[LexEntry]:
        return list(self)

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[LexEntry]:
        return (LexEntry(root, flags) for root, flags in self.flags.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Lexicon) and self.flags == other.flags

    def lookup_exact(self, root: str) -> Optional[LexEntry]:
        flags = self.flags.get(root)
        return None if flags is None else LexEntry(root, flags)


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
    for line_no, line in data_lines(source):
        line = line.strip()
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
    return Lexicon._from_flags(merged)
