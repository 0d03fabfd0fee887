"""Dictionary of root words with rule flags.

The on-disk format is one entry per line, ``word`` or ``word/FLAGS``, where
FLAGS is a run of single-letter rule codes. ``#`` lines are comments and blank
lines are ignored. Entries are NFC-normalized and lowercased, and kept in the
order of their first line; nothing is sorted.

``load_cached_dictionary`` is the CLI's loader: it keeps each file's parsed
roots in an on-disk cache and reuses them while the file and the parsing
code are unchanged. ``load_dictionary`` itself keeps no state and writes
nothing.
"""

from __future__ import annotations

import marshal
import os
import stat
import sys
import time
import unicodedata
from binascii import crc32
from typing import BinaryIO, Dict, Iterable, Iterator, Optional, Tuple

from morfo import resources
from morfo.errors import LoadError
from morfo.frozen import Frozen, set_field

#: Part of every cache stamp; a new value makes every existing entry stale.
#: Change it whenever the layout of an entry or of ``Lexicon.flags`` changes.
CACHE_FORMAT = 1

#: A dictionary file modified less than this many nanoseconds ago is parsed
#: but not cached: a second edit of the same size could fall within the file
#: system's timestamp granularity (2 s on FAT) and leave its stamp unchanged.
SETTLE_NS = 2_000_000_000

#: A temporary entry file last modified more than this many seconds ago was
#: left by a writer that died between creating and renaming it (a write takes
#: milliseconds), and the next store beside it removes it.
ORPHAN_S = 3600


def normalize(word: str) -> str:
    """Lowercase, then NFC-normalize: the canonical form for all lookups.

    Lowercasing last could leave a decomposed pair that NFC would compose.
    Lowercase ASCII is already NFC, so it is returned as it is.
    """
    lower = word.lower()
    return lower if lower.isascii() else unicodedata.normalize("NFC", lower)


class LexEntry(Frozen):
    """A root and its flags: ordered, duplicate-free single-letter codes."""

    __slots__ = ("root", "flags")
    _compared = __slots__

    def __init__(self, root: str, flags: tuple):
        set_field(self, "root", root)
        set_field(self, "flags", flags)

    def to_line(self) -> str:
        return self.root + ("/" + "".join(self.flags) if self.flags else "")


class Lexicon:
    """Immutable map of roots to flag tuples.

    ``flags`` maps each root to its flags (for a loaded file, in the order of
    each root's first line); roots with equal flags may share one tuple. The
    dict given is kept, not copied, so it must not change afterwards.
    Iterating makes a ``LexEntry`` per root.
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


def cache_dir() -> Optional[str]:
    """``$XDG_CACHE_HOME/morfo``, else ``~/.cache/morfo``; None when the home is unknown.

    A relative ``XDG_CACHE_HOME`` is ignored, as the XDG base directory
    specification asks.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(base):
            return None
    return os.path.join(base, "morfo")


def _cache_key(stream: BinaryIO) -> Optional[Tuple[str, bytes, bool]]:
    """(entry path, stamp, settled) for the dictionary file ``stream``; None if it is not cached.

    The stamp holds the file's absolute path, device and inode (so that
    ``/dev/stdin`` redirected from another file does not match), size and
    modification time; the size and modification time of the two modules
    whose code parses it (as ``.pyc`` files are checked against their
    source); the interpreter's cache tag; and ``CACHE_FORMAT``. An entry is
    named after the path alone, so each path has one entry, and an edited
    file replaces its entry. ``settled`` is false for a file modified less
    than ``SETTLE_NS`` ago.
    """
    directory = cache_dir()
    if directory is None:
        return None
    try:
        status = os.fstat(stream.fileno())
        if not stat.S_ISREG(status.st_mode):  # a pipe or a terminal
            return None
        code = [os.stat(module) for module in (__file__, resources.__file__)]
    except OSError:
        return None
    path = os.path.abspath(stream.name)
    # ``_remove_stale`` reads the path as the third item.
    stamp = (CACHE_FORMAT, sys.implementation.cache_tag, path, status.st_dev, status.st_ino,
             status.st_size, status.st_mtime_ns, *[(s.st_size, s.st_mtime_ns) for s in code])
    name = f"dictionary-{crc32(os.fsencode(path)):08x}.marshal"
    settled = time.time_ns() - status.st_mtime_ns >= SETTLE_NS
    # Version 2 of the format has no back-references, so equal stamps give equal bytes.
    return os.path.join(directory, name), marshal.dumps(stamp, 2), settled


def _read_entry(entry: str, stamp: bytes) -> Optional[Dict[str, tuple]]:
    """The flags stored in ``entry`` under ``stamp``; None unless it holds them intact.

    An entry is ``stamp``, the CRC-32 of the marshalled flags (4 bytes, big
    endian), and those bytes.
    """
    try:
        with open(entry, "rb") as stream:
            data = stream.read()
        if data.startswith(stamp):
            start = len(stamp) + 4
            payload = memoryview(data)[start:]
            if crc32(payload) == int.from_bytes(data[len(stamp):start], "big"):
                flags = marshal.loads(payload)
                if type(flags) is dict:
                    return flags
    except (OSError, EOFError, ValueError, TypeError):  # missing, unreadable or damaged
        pass
    return None


def _write_entry(entry: str, stamp: bytes, flags: Dict[str, tuple]) -> None:
    """Store ``flags`` under ``stamp`` through a temporary file, so that no reader sees part of it.

    A directory or file that cannot be written leaves the cache as it was.
    Once stored, the entry's stale neighbours are removed (``_remove_stale``).
    """
    payload = marshal.dumps(flags)
    temporary = f"{entry}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(entry), mode=0o700, exist_ok=True)
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except OSError:
        return
    try:
        with open(fd, "wb") as out:
            out.writelines([stamp, crc32(payload).to_bytes(4, "big"), payload])
        os.replace(temporary, entry)
    except OSError:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        return
    _remove_stale(entry)


def _remove_stale(entry: str) -> None:
    """Remove each other entry beside ``entry`` whose dictionary is gone or stamp unreadable.

    The stamp is the first marshalled object of an entry, and its third item
    is the dictionary's absolute path. A temporary file is removed once it is
    older than ``ORPHAN_S``; a younger one may belong to a writer still
    running. Any file that cannot be read or removed is left alone.
    """
    directory, own = os.path.split(entry)
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if name == own or not name.startswith("dictionary-"):
            continue
        path = os.path.join(directory, name)
        if name.endswith(".tmp") and ".marshal." in name:
            try:
                stale = time.time() - os.stat(path).st_mtime > ORPHAN_S
            except OSError:
                continue
        elif name.endswith(".marshal"):
            try:
                with open(path, "rb") as stream:
                    data = stream.read()
            except OSError:
                continue
            try:
                stamp = marshal.loads(data)  # the payload after the stamp is not decoded
            except (EOFError, ValueError, TypeError):
                stamp = None
            dictionary = stamp[2] if type(stamp) is tuple and len(stamp) > 2 else None
            stale = not (type(dictionary) is str and os.path.exists(dictionary))
        else:
            continue
        if stale:
            try:
                os.unlink(path)
            except OSError:
                pass


def load_cached_dictionary(stream: BinaryIO) -> Lexicon:
    """``load_dictionary(stream)`` for a file opened by path, from the cache while it is current.

    The parsed roots of a regular file are stored under ``cache_dir()`` with
    a stamp (see ``_cache_key``), and loaded with ``marshal`` while the stamp
    still matches. Any other stream, a missing, stale or damaged entry, or a
    cache that cannot be read or written falls back to the parse, and
    nothing is printed. A file that fails to load, or was modified too
    recently to tell a later same-size edit by its stamp, stores nothing.
    Storing an entry removes those of dictionaries that no longer exist.
    """
    key = _cache_key(stream)
    if key is None:
        return load_dictionary(stream)
    entry, stamp, settled = key
    flags = _read_entry(entry, stamp)
    if flags is None:
        flags = load_dictionary(stream).flags
        if settled:
            _write_entry(entry, stamp, flags)
    return Lexicon(flags)
