"""The CLI's on-disk cache of parsed data files.

``load`` keeps what a loader parsed from a regular file in ``cache_dir()``,
as plain data that ``marshal`` can store, and gives it back while the file
and the code that parses it are unchanged. Entries are named after the kind
of file and its path; the dictionary (``lexicon.load_cached_dictionary``) is
the one kind cached. No entry of another kind, such as the ``rules`` entries
of earlier versions, is read, and a store removes one once its file is gone.
The library loaders never read or write the cache.
"""

from __future__ import annotations

import marshal
import os
import stat
import sys
import time
from binascii import crc32
from collections.abc import Callable, Sequence
from io import BufferedIOBase

#: Part of every cache stamp; a new value makes every existing entry stale.
#: Change it whenever the layout of an entry or of any kind's data changes.
CACHE_FORMAT = 4

#: A file modified less than this many nanoseconds ago is parsed but not
#: cached: a second edit of the same size could fall within the file
#: system's timestamp granularity (2 s on FAT) and leave its stamp unchanged.
SETTLE_NS = 2_000_000_000

#: A temporary entry file last modified more than this many seconds ago was
#: left by a writer that died between creating and renaming it (a write takes
#: milliseconds), and the next store beside it removes it.
ORPHAN_S = 3600

def cache_dir() -> str | None:
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


def _key(stream: BufferedIOBase, kind: str,
         code: Sequence[str]) -> tuple[str, bytes, bool] | None:
    """(entry path, stamp, settled) for the ``kind`` file ``stream``; None if it is not cached.

    The stamp holds the file's absolute path, device and inode (so that
    ``/dev/stdin`` redirected from another file does not match), size and
    modification time; the size and modification time of the modules in
    ``code`` and of this one (as ``.pyc`` files are checked against their
    source); the interpreter's cache tag; and ``CACHE_FORMAT``. An entry is
    named after the kind and the path alone, so each path has one entry of a
    kind, and an edited file replaces its entry. ``settled`` is false for a
    file modified less than ``SETTLE_NS`` ago.
    """
    directory = cache_dir()
    if directory is None:
        return None
    try:
        status = os.fstat(stream.fileno())
        if not stat.S_ISREG(status.st_mode):  # a pipe or a terminal
            return None
        modules = [os.stat(module) for module in (*code, __file__)]
    except OSError:
        return None
    path = os.path.abspath(stream.name)
    # ``_remove_stale`` reads the path as the third item.
    stamp = (CACHE_FORMAT, sys.implementation.cache_tag, path, status.st_dev, status.st_ino,
             status.st_size, status.st_mtime_ns, *[(s.st_size, s.st_mtime_ns) for s in modules])
    name = f"{kind}-{crc32(os.fsencode(path)):08x}.marshal"
    settled = time.time_ns() - status.st_mtime_ns >= SETTLE_NS
    # Version 2 of the format has no back-references, so equal stamps give equal bytes.
    return os.path.join(directory, name), marshal.dumps(stamp, 2), settled


def _read_entry(entry: str, stamp: bytes, from_data: Callable[[object], object]) -> object:
    """``from_data`` of the data stored in ``entry`` under ``stamp``; None unless it is intact.

    An entry is ``stamp``, the CRC-32 of the marshalled data (4 bytes, big
    endian), and those bytes. Data that ``from_data`` rejects with a
    ``TypeError`` or ``ValueError`` counts as damaged.
    """
    try:
        with open(entry, "rb") as stream:
            data = stream.read()
        if data.startswith(stamp):
            start = len(stamp) + 4
            payload = memoryview(data)[start:]
            if crc32(payload) == int.from_bytes(data[len(stamp):start], "big"):
                return from_data(marshal.loads(payload))
    except (OSError, EOFError, ValueError, TypeError):  # missing, unreadable or damaged
        pass
    return None


def _write_entry(entry: str, stamp: bytes, data: object) -> None:
    """Store ``data`` under ``stamp`` through a temporary file, so that no reader sees part of it.

    A directory or file that cannot be written leaves the cache as it was.
    Once stored, the entry's stale neighbours are removed (``_remove_stale``).
    """
    payload = marshal.dumps(data)
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
    """Remove each other entry beside ``entry`` whose file is gone or stamp unreadable.

    The stamp is the first marshalled object of an entry of any kind, and its
    third item is the cached file's absolute path. A temporary file is
    removed once it is older than ``ORPHAN_S``; a younger one may belong to a
    writer still running. Any file that cannot be read or removed is left
    alone.
    """
    directory, own = os.path.split(entry)
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if name == own:
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
                    stamp = marshal.load(stream)  # the payload after the stamp is not read
            except OSError:
                continue
            except (EOFError, ValueError, TypeError):
                stamp = None
            cached = stamp[2] if type(stamp) is tuple and len(stamp) > 2 else None
            stale = not (type(cached) is str and os.path.exists(cached))
        else:
            continue
        if stale:
            try:
                os.unlink(path)
            except OSError:
                pass


def load(stream: BufferedIOBase, kind: str, code: Sequence[str],
         parse: Callable[[BufferedIOBase], object], to_data: Callable[[object], object],
         from_data: Callable[[object], object]) -> object:
    """``parse(stream)`` for a file opened by path, from the cache while it is current.

    ``to_data`` turns what ``parse`` returns into plain data that ``marshal``
    stores, and ``from_data`` turns that back. For a regular file, the data
    is stored under ``cache_dir()`` as the ``kind`` entry of its path, with a
    stamp that covers the files of the modules in ``code`` (see ``_key``),
    and loaded while the stamp still matches. Any other stream, a missing,
    stale or damaged entry, or a cache that cannot be read or written falls
    back to the parse, and nothing is printed. A file that fails to load, or
    was modified too recently to tell a later same-size edit by its stamp,
    stores nothing. Storing an entry removes those of files that no longer
    exist.
    """
    key = _key(stream, kind, code)
    if key is None:
        return parse(stream)
    entry, stamp, settled = key
    loaded = _read_entry(entry, stamp, from_data)
    if loaded is None:
        loaded = parse(stream)
        if settled:
            _write_entry(entry, stamp, to_data(loaded))
    return loaded
