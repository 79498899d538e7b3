"""Output tables: every workbook and report table comes from one column table.

A column table is a dict mapping each output header to the attribute of the
row object that fills it, in column order. Each row type declares its table
next to its dataclass; CSV files are written by ``write_csv`` and JSON row
lists built by ``rows`` from those same tables.
"""

from __future__ import annotations

import csv
from operator import attrgetter


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(map(attrgetter(*columns.values()), items))
