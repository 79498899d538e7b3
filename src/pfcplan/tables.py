"""Column tables: every CSV the pipeline reads or writes follows one table.

An output column table is a dict mapping each output header to the attribute
of the row object that fills it, in column order. Each row type declares its
table next to its dataclass; CSV files are written by ``write_csv`` and JSON
row lists built by ``rows`` from those same tables.

An input column table maps each header to the parser of its cells, in the
order the row type takes them. ``read_input`` reads every input CSV and
``write_rows`` writes them, as it writes every output CSV, so the CSV format
is decided here alone.

Every CSV goes through one writer, ``write_columns``, which takes at most
``CHUNK_ROWS`` rows at a time as one list of formatted cells per column and
joins them into lines. Cells have the bytes ``csv.writer`` gave them: text is
quoted by ``csv`` itself, once per distinct value (``text_cell``), a float is
its repr (``float_cell``), an int its ``str``, a boolean ``true``/``false``
and None an empty cell; a NumPy scalar is written as the equal Python value.
``write_rows`` formats values of any kind with ``cell``; ``overloads.csv`` and
``dispatch.csv`` format whole columns from their arrays.
"""

from __future__ import annotations

import csv
import io
import math
from functools import lru_cache
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path

import numpy as np

# rows formatted per write: enough to amortize each join, few enough that a
# chunk's cells add no visible peak memory
CHUNK_ROWS = 4096


def select(columns: dict[str, str], *headers: str) -> dict[str, str]:
    """The named columns of a table, in the order given."""
    return {header: columns[header] for header in headers}


def rows(columns: dict[str, str], items) -> list[dict]:
    """One JSON-ready dict per item, keyed by header."""
    get = attrgetter(*columns.values())
    return [dict(zip(columns, get(item))) for item in items]


def write_csv(path, columns: dict[str, str], items) -> None:
    """Write the header row, then one row per item.

    A table has at least two columns, because ``attrgetter`` of a single
    name returns a bare value, not a row.
    """
    write_rows(path, columns, map(attrgetter(*columns.values()), items))


def write_rows(path, columns: dict, rows, lineterminator: str = "\r\n") -> None:
    """Write a column table's header row, then ``rows`` of values in column
    order, each value formatted by ``cell``."""
    rows = iter(rows)
    chunks = (
        [[cell(value, lineterminator) for value in column] for column in zip(*chunk)]
        for chunk in iter(lambda: list(islice(rows, CHUNK_ROWS)), [])
    )
    write_columns(path, columns, chunks, lineterminator)


def write_columns(path, header, chunks, lineterminator: str = "\r\n") -> None:
    """Write the ``header`` names, then each chunk of rows, given as one list
    of formatted cells per column; an empty chunk writes nothing."""
    names = [[text_cell(name, lineterminator)] for name in header]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for cells in chain([names], chunks):
            join = ",".join if len(cells) > 1 else _lone_cell
            lines = lineterminator.join(map(join, zip(*cells)))
            if lines:
                fh.write(lines + lineterminator)


def _lone_cell(row) -> str:
    # csv quotes a row that is one empty cell, so that it is not a blank line
    return row[0] or '""'


def cell(value, lineterminator: str = "\r\n") -> str:
    """The cell of a value of any kind; an object of no kind below is
    written as the text of its ``str``."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return float_cell(value)
    return text_cell(str(value), lineterminator)


@lru_cache(maxsize=1 << 12)
def text_cell(value: str, lineterminator: str = "\r\n") -> str:
    """A text cell, quoted where ``csv.writer`` quotes it; which characters
    need quotes depends on the line terminator."""
    out = io.StringIO()
    # a second, empty cell keeps csv from quoting an empty value
    csv.writer(out, lineterminator=lineterminator).writerow((value, ""))
    return out.getvalue()[: -1 - len(lineterminator)]


# a float's cell is its repr, which reads back to the same bits; a NumPy
# float64 is a float, so it is written as the equal Python float
float_cell = float.__repr__


# -- input files -----------------------------------------------------------------


def text(raw: str) -> str:
    """A non-empty cell, as written."""
    if not raw:
        raise ValueError("must not be empty")
    return raw


def number(raw: str) -> float:
    """A finite decimal number."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def boolean(raw: str) -> bool:
    """``true`` or ``false`` in any letter case."""
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"must be true or false, got {raw!r}")


def read_input(path, columns: dict, row, error: type[ValueError], rest=None):
    """Parse an input CSV into one ``row(*values)`` per data row.

    ``columns`` maps each header the file must have to the parser of its
    stripped cells. With ``rest``, every other header is a column too, parsed
    by ``rest`` after the declared ones. ``row`` None keeps each row as its
    list of values. Returns the headers read, in value order, and the rows.

    Blank lines are skipped; row numbers count the header as row 1. Every
    failure is raised as ``error`` naming the file once, and the row and
    column where it has them.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in columns if name not in header]
        if missing:
            raise error(f"{path}: missing columns {missing}")
        names = list(columns)
        if rest is not None:
            names += [name for name in header if name not in columns]
        cells = [(header.index(name), columns.get(name, rest)) for name in names]
        rows = []
        for row_no, raw in enumerate(filter(None, reader), start=2):
            values = []
            try:
                for i, parse in cells:
                    values.append(parse(raw[i].strip()))
                rows.append(values if row is None else row(*values))
            except (ValueError, IndexError) as exc:
                where = f"{path} row {row_no}"
                if len(values) < len(cells):  # a cell failed, not the row type
                    where += f", column {names[len(values)]}"
                    exc = "missing" if isinstance(exc, IndexError) else exc
                raise error(f"{where}: {exc}") from None
    return names, rows
