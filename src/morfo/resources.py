"""Data file resolution, overridable per file or via MORFO_DATA, and the readers all loaders share."""

from __future__ import annotations

import os
from importlib import resources
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


def lines(source: Iterable[bytes | str]) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_no, line)`` for every line, without its LF or CRLF ending.

    ``bytes`` lines are decoded as UTF-8, and one that does not decode raises
    ``LoadError`` naming it; ``str`` lines are kept. A leading byte-order mark is dropped.
    """
    for line_no, line in enumerate(source, start=1):
        try:
            line = line.decode("utf-8") if isinstance(line, bytes) else line
        except UnicodeDecodeError:
            raise LoadError("invalid UTF-8", line_no) from None
        line = line.rstrip("\r\n")
        yield line_no, line.removeprefix("\ufeff") if line_no == 1 else line


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
    in any order. A name outside ``columns`` or a missing ``required`` one is
    an error at the header line. ``parse_row`` receives every column, stripped,
    with ``""`` for cells the row or the header lacks; a ``ValueError`` it
    raises becomes a ``LoadError`` naming the row's line.
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
