"""Data file resolution, overridable per file or via MORFO_DATA, and the readers all loaders share.

``blocks`` is the one reader of input. From a binary or text stream it
reads about ``READ_SIZE`` bytes (or characters) at a time, completes a line
that the read cut short with ``readline``, and drops a byte-order mark from
the first block only; the CLI's stream commands read stdin with it and
split its blocks into ``bytes`` lines themselves. Any other iterable is read
an item at a time. ``line_blocks`` decodes each block once and splits it
into lines; ``lines``, ``data_lines`` and ``read_table`` build on it, and
``load_dictionary`` reads its blocks directly.
"""

from __future__ import annotations

import codecs
import os
from collections.abc import Callable, Iterable, Iterator, Sequence

from morfo.errors import LoadError

DATA_ENV = "MORFO_DATA"

DICTIONARY = "dictionary.txt"
RULES = "rules.tsv"
DEFAULTS = "defaults.tsv"
PRONOUNS = "pronouns.tsv"
NOMINAL_FLAGS = "nominal_flags.txt"
CONLL_MAPPING = "conll_mapping.tsv"

#: Bytes (or characters) that ``blocks`` reads from a stream at a time. On
#: the bench's seed-stream input, the first output of ``morfo analyze``
#: reaches stdout after 205 lines, against 247 with one write per line into
#: the 8 KiB output buffer and 794 with 8 KiB reads.
READ_SIZE = 2048

def data_file(name: str, override: str | None = None) -> str:
    """Resolve a data file's path: explicit override > $MORFO_DATA dir > packaged data.

    An override is returned as it is given, even ``""``, which names no
    file; an empty ``$MORFO_DATA`` counts as unset.
    """
    if override is not None:
        return override
    env_dir = os.environ.get(DATA_ENV)
    if env_dir:
        candidate = os.path.join(env_dir, name)
        if os.path.exists(candidate):
            return candidate
    return os.path.join(os.path.dirname(__file__), "data", name)


def data_path(name: str, override: str | None = None):
    """``data_file(name, override)`` as a ``pathlib.Path``."""
    from pathlib import Path  # only library callers need it; the CLI uses ``data_file``

    return Path(data_file(name, override))


def _reads(stream) -> Iterator[bytes | str]:
    """Whole lines of ``stream``, about ``READ_SIZE`` at a time."""
    # read1 returns what one read gives, so a line typed at a terminal is
    # answered at once; readline then completes a line that the read cut short.
    read, size = getattr(stream, "read1", stream.read), READ_SIZE
    data = read(size)
    newline = b"\n" if isinstance(data, bytes) else "\n"
    while data:
        if not data.endswith(newline):
            data += stream.readline()
        yield data
        data = read(size)


def blocks(source: Iterable[bytes | str]) -> Iterator[bytes | str]:
    """Blocks of whole lines: reads of a stream, else ``source``'s items.

    A stream's block ends with an LF unless it ends the stream. Each item of
    any other iterable is a block of its own, usually one line. The first
    block loses a leading byte-order mark; later blocks keep theirs.
    """
    chunks = _reads(source) if hasattr(source, "read") else iter(source)
    first = next(chunks, None)
    if first is not None:
        yield first.removeprefix(codecs.BOM_UTF8 if isinstance(first, bytes) else "\ufeff")
        yield from chunks


def line_blocks(source: Iterable[bytes | str]) -> Iterator[tuple[int, list[str]]]:
    """``(number of its first line, its lines)`` for every one of ``blocks(source)``.

    A ``bytes`` block is decoded as UTF-8 at once. Lines lose their LF or
    CRLF ending. A line that does not decode raises ``LoadError`` naming it,
    once the lines before it in its block are yielded, so that a fault in
    one of those is found first.
    """
    line_no = 1
    for block in blocks(source):
        error = None
        if isinstance(block, bytes):
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                # An LF never falls inside a UTF-8 sequence, so the bad one is on this line.
                end = block.rfind(b"\n", 0, exc.start) + 1
                error = LoadError("invalid UTF-8", line_no + block.count(b"\n", 0, end))
                if not end:
                    raise error from None
                text = block[:end].decode("utf-8")
        else:
            text = block
        split = text.split("\n")
        if len(split) > 1 and not split[-1]:  # the empty string after the last LF
            split.pop()
        if "\r" in text:
            split = [line.rstrip("\r") for line in split]
        yield line_no, split
        line_no += len(split)
        if error is not None:
            raise error


def lines(source: Iterable[bytes | str]) -> Iterator[tuple[int, str]]:
    """Yield ``(line_no, line)`` for every line of ``line_blocks(source)``."""
    for first_line_no, block in line_blocks(source):
        yield from enumerate(block, first_line_no)


def data_lines(source: Iterable[bytes | str]) -> Iterator[tuple[int, str]]:
    """``lines(source)`` without blank and ``#`` lines."""
    for line_no, line in lines(source):
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            yield line_no, line


def read_table(
    source: Iterable[bytes | str],
    columns: Sequence[str],
    required: Sequence[str],
    parse_row: Callable[[list[str], int], object],
) -> list:
    """Parse a tab-separated table with a header row, one ``parse_row(cells, line_no)`` per row.

    Header names are matched case-insensitively, with spaces read as ``_``,
    in any order. A blank name, a name outside ``columns``, a repeated name,
    or a missing ``required`` one is an error at the header line. Blank and
    ``#`` lines are skipped, as ``data_lines`` skips them. ``parse_row``
    receives the row's cells, stripped, as a list in ``columns`` order, with
    ``""`` for cells the row or the header lacks; a ``ValueError`` it raises
    becomes a ``LoadError`` naming the row's line, as does a cell past the
    last header column that is not blank.
    """
    positions: list[int] | None = None
    out = []
    for first_line_no, block in line_blocks(source):
        for line_no, line in enumerate(block, first_line_no):
            stripped = line.lstrip()
            if not stripped or stripped[0] == "#":
                continue
            cells = line.split("\t")
            if positions is None:
                header = [c.strip().lower().replace(" ", "_") for c in cells]
                if "" in header:
                    raise LoadError(f"empty column name in column {header.index('') + 1}",
                                    line_no)
                unknown = [c for c in header if c not in columns]
                if unknown:
                    raise LoadError(f"unknown column name(s): {', '.join(unknown)}", line_no)
                repeated = list(dict.fromkeys(c for i, c in enumerate(header)
                                              if c in header[:i]))
                if repeated:
                    raise LoadError(f"duplicate column name(s): {', '.join(repeated)}", line_no)
                missing = [c for c in required if c not in header]
                if missing:
                    raise LoadError(f"missing column(s): {', '.join(missing)}", line_no)
                width = len(header)
                # A column the header lacks reads the blank cell that each row gets at ``width``.
                positions = [header.index(c) if c in header else width for c in columns]
                continue
            short = width + 1 - len(cells)
            if short > 0:
                cells += [""] * short
            elif "".join(cells[width:]).strip():
                raise LoadError(f"{len(cells)} cells for {width} columns", line_no)
            try:
                out.append(parse_row([cells[i].strip() for i in positions], line_no))
            except ValueError as exc:
                raise LoadError(str(exc), line_no) from None
    if positions is None:
        raise LoadError("table has no header row")
    return out
