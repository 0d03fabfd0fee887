"""Data file resolution, overridable per file or via MORFO_DATA, and the readers all loaders share."""

from __future__ import annotations

import codecs
import os
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from morfo.errors import LoadError

DATA_ENV = "MORFO_DATA"

DICTIONARY = "dictionary.txt"
RULES = "rules.tsv"
DEFAULTS = "defaults.tsv"
PRONOUNS = "pronouns.tsv"
NOMINAL_FLAGS = "nominal_flags.txt"
CONLL_MAPPING = "conll_mapping.tsv"

T = TypeVar("T")


def data_path(name: str, override: Optional[str] = None) -> Path:
    """Resolve a data file: explicit override > $MORFO_DATA dir > packaged data."""
    if override:
        return Path(override)
    env_dir = os.environ.get(DATA_ENV)
    if env_dir:
        candidate = Path(env_dir) / name
        if candidate.exists():
            return candidate
    return Path(resources.files("morfo").joinpath("data", name))


def without_bom(first_line: bytes | str) -> bytes | str:
    """``first_line`` less a leading byte-order mark; a source's other lines keep theirs."""
    return first_line.removeprefix(codecs.BOM_UTF8 if isinstance(first_line, bytes) else "\ufeff")


def decode(line: bytes | str) -> str:
    """``line`` without its LF or CRLF ending; ``bytes`` are decoded as UTF-8.

    Raises ``UnicodeDecodeError`` for ``bytes`` that are not UTF-8.
    """
    return (line.decode("utf-8") if isinstance(line, bytes) else line).rstrip("\r\n")


def lines(source: Iterable[bytes | str]) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_no, decode(line))`` for every line, line 1 ``without_bom``.

    A ``bytes`` line that does not decode raises ``LoadError`` naming it.
    """
    source = iter(source)
    first = next(source, None)
    if first is None:
        return
    for line_no, line in enumerate(chain((without_bom(first),), source), start=1):
        try:
            text = decode(line)
        except UnicodeDecodeError:
            raise LoadError("invalid UTF-8", line_no) from None
        yield line_no, text


def data_lines(source: Iterable[bytes | str]) -> Iterator[Tuple[int, str]]:
    """``lines(source)`` without blank and ``#`` lines."""
    for line_no, line in lines(source):
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            yield line_no, line


def read_table(
    source: Iterable[bytes | str],
    columns: Sequence[str],
    required: Sequence[str],
    parse_row: Callable[[Dict[str, str]], T],
) -> List[T]:
    """Parse a tab-separated table with a header row, one ``parse_row`` call per row.

    Header names are matched case-insensitively, with spaces read as ``_``,
    in any order. A name outside ``columns``, a repeated name, or a missing
    ``required`` one is an error at the header line. ``parse_row`` receives
    every column, stripped, with ``""`` for cells the row or the header lacks;
    a ``ValueError`` it raises becomes a ``LoadError`` naming the row's line.
    """
    header: Optional[List[str]] = None
    out: List[T] = []
    for line_no, line in data_lines(source):
        cells = line.split("\t")
        if header is None:
            header = [c.strip().lower().replace(" ", "_") for c in cells]
            unknown = [c for c in header if c not in columns]
            if unknown:
                raise LoadError(f"unknown column name(s): {', '.join(unknown)}", line_no)
            repeated = list(dict.fromkeys(c for i, c in enumerate(header) if c in header[:i]))
            if repeated:
                raise LoadError(f"duplicate column name(s): {', '.join(repeated)}", line_no)
            missing = [c for c in required if c not in header]
            if missing:
                raise LoadError(f"missing column(s): {', '.join(missing)}", line_no)
            continue
        row = dict.fromkeys(columns, "")
        row.update((name, cell.strip()) for name, cell in zip(header, cells))
        try:
            out.append(parse_row(row))
        except ValueError as exc:
            raise LoadError(str(exc), line_no) from None
    if header is None:
        raise LoadError("table has no header row")
    return out
