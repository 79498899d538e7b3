"""Column tables: every CSV the pipeline reads or writes follows one table.

An output column table is a dict mapping each output header to the attribute
of the row object that fills it, in column order. Each row type declares its
table next to its dataclass; CSV files are written by ``write_csv`` and JSON
row lists built by ``rows`` from those same tables.

An input column table maps each header to the parser of its cells, in the
order the row type takes them. ``read_input`` reads every input CSV and
``write_rows`` writes them, as it writes every output CSV, so the CSV format
is decided here alone.
"""

from __future__ import annotations

import csv
import math
from operator import attrgetter
from pathlib import Path


def select(columns: dict[str, str], *headers: str) -> dict[str, str]:
    """The named columns of a table, in the order given."""
    return {header: columns[header] for header in headers}


def rows(columns: dict[str, str], items) -> list[dict]:
    """One JSON-ready dict per item, keyed by header."""
    get = attrgetter(*columns.values())
    return [dict(zip(columns, get(item))) for item in items]


def write_csv(path, columns: dict[str, str], items) -> None:
    """Write the header row, then one row per item.

    Cells follow ``csv.writer``'s own conventions: None becomes an empty cell
    and a float is written as its repr, so floats read back exactly. That
    holds only while row attributes are plain Python int/float, not numpy
    scalars: under numpy 2 an ``np.float64`` (a float subclass) would be
    written as ``np.float64(...)``. A table has at least two columns, because
    ``attrgetter`` of a single name returns a bare value, not a row.
    """
    write_rows(path, columns, map(attrgetter(*columns.values()), items))


def write_rows(path, columns: dict, rows, lineterminator: str = "\r\n") -> None:
    """Write a column table's header row, then ``rows`` of values in column
    order; the cells of a ``boolean`` column are written as true/false."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(columns)
        if boolean in columns.values():
            rows = ([_cell(value) for value in values] for values in rows)
        writer.writerows(rows)


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


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
