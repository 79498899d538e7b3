"""Column tables: every CSV the pipeline reads or writes follows one table.

An output column table is a dict mapping each output header to the attribute
of the row object that fills it, in column order. Each row type declares its
table next to its dataclass; CSV files are written by ``write_csv`` and JSON
row lists built by ``rows`` from those same tables.

An input column table maps each header to the parser of its cells (``number``,
``int``, ``text``, ``str`` or ``boolean``). Every CSV read, input or stage
output, goes through one column reader, ``read_chunks``: one ``np.loadtxt``
pass with a structured dtype built from the table, each column then checked
whole; the parsers run only on the error path, to name the first bad cell.
``write_rows`` writes the inputs, so the CSV format is decided here alone.

Every CSV goes through one writer, ``write_columns``, which writes the header
line, then the text of each chunk of at most ``CHUNK_ROWS`` rows: whole lines,
each ended by the line terminator. Cells have the bytes ``csv.writer`` gave
them: text is quoted by ``csv`` itself, once per distinct value
(``text_cell``), a float is its repr (``float_cell``), an int its ``str``, a
boolean ``true``/``false`` and None an empty cell; a NumPy scalar is written
as the equal Python value. ``write_rows`` formats values of any kind with
``cell``, and ``column_lines`` joins a chunk's cells, given as one list per
column, into its lines. ``overloads.csv`` and ``dispatch.csv`` build each
chunk's text from their arrays through ``interleave``: one ``"".join`` over
lists of row pieces, taken a row at a time, each piece carrying its own
``,`` or line break, so a cell repeated down a column is formatted once.
``float_cells`` writes the float columns (``loading_pct`` with
``excess_mw``, and ``output_mw``) and the dispatch summary's two hourly
series a chunk at a time: one cell per row of a rows x k array, the row's
reprs joined by ``,``, from one orjson pass, whose C writer gives repr's
bytes for every float from 1e-4 up to 1e16 in magnitude and for ±0.0, and
repr for the rows with a value outside that range.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from functools import lru_cache, partial
from itertools import chain, filterfalse, islice
from operator import attrgetter
from pathlib import Path

import numpy as np

# rows formatted per write: enough to amortize each join, few enough that a
# chunk's cells add no visible peak memory (4096 rows set grid30's peak)
CHUNK_ROWS = 1024
# bytes of rows parsed per read, for the same reason
CHUNK_BYTES = 1 << 16


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
        column_lines(
            [[cell(value, lineterminator) for value in column] for column in zip(*chunk)],
            lineterminator,
        )
        for chunk in iter(lambda: list(islice(rows, CHUNK_ROWS)), [])
    )
    write_columns(path, columns, chunks, lineterminator)


def write_columns(path, header, chunks, lineterminator: str = "\r\n") -> None:
    """Write the ``header`` names as the first line, then the text of each
    chunk: whole lines, each ended by ``lineterminator``."""
    names = [[text_cell(name, lineterminator)] for name in header]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for text in chain([column_lines(names, lineterminator)], chunks):
            fh.write(text)


def column_lines(cells, lineterminator: str = "\r\n") -> str:
    """The lines of a chunk of rows given as one list of formatted cells per
    column, each ended by ``lineterminator``; no rows give no text."""
    join = ",".join if len(cells) > 1 else _lone_cell
    lines = lineterminator.join(map(join, zip(*cells)))
    return lines + lineterminator if lines else ""


def interleave(pieces) -> str:
    """The text of a chunk of rows given as lists of pieces, all of one
    length, each piece carrying its own ``,`` or line break: one
    ``"".join`` over the first piece of every list, then the second, and on."""
    k = len(pieces)
    joined = [""] * (k * len(pieces[0]))
    for i, column in enumerate(pieces):
        joined[i::k] = column
    return "".join(joined)


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


def float_cells(values) -> list[str]:
    """One cell per row of a rows x k float array, a 1-D array being k = 1:
    the row's floats as ``float_cell`` writes them, joined by ``,``. One
    orjson pass over the values in C order makes every cell, every k-th
    comma then breaks a row; a row with a value outside orjson's exact range
    is rebuilt from repr."""
    # imported on first use, not with this module: orjson's import pulls in
    # uuid, zoneinfo and datetime, which would add to every command's start-up
    import orjson

    table = np.asarray(values, dtype=np.float64)
    if table.ndim == 1:
        table = table[:, None]
    n, k = table.shape
    if not table.size:
        return [""] * n
    values = np.ascontiguousarray(table).reshape(-1)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    if k > 1:
        text = bytearray(text)
        body = np.frombuffer(text, np.uint8)
        body[np.flatnonzero(body == ord(","))[k - 1::k]] = ord("\n")
    cells = text.decode().split("," if k == 1 else "\n")
    # orjson writes repr's bytes for ±0.0 and 1e-4 <= |x| < 1e16; outside
    # that it writes 0.00009999999999999999 for 9.999999999999999e-05, 1e16
    # for 1e+16 and null for nan
    magnitude = np.abs(values)
    exact = (magnitude >= 1e-4) & (magnitude < 1e16) | (values == 0.0)
    for i in set((np.flatnonzero(~exact) // k).tolist()):
        cells[i] = ",".join(map(float_cell, table[i].tolist()))
    return cells


def left_sum(values, total: float = 0.0) -> float:
    """``total`` plus each of ``values`` in turn, left to right: how every
    written float sum is added. Python's ``sum`` compensates float sums from
    3.12 on and numpy's adds pairwise, so the last digits of either depend
    on the version."""
    for value in values:
        total += value
    return total


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
    """``true`` or ``false`` in any letter case, spaces around it ignored."""
    lowered = raw.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"must be true or false, got {raw!r}")


# the loadtxt field of each parser; text is read as str objects
_FIELDS = {number: "f8", int: "i8", text: "O", str: "O", boolean: "?"}


@contextmanager
def _lines(path, error: type[ValueError]):
    """A CSV's header cells and its lines of more than whitespace, BOM dropped;
    a byte that is not UTF-8, met anywhere in the ``with`` block, is raised as
    ``error``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield next(csv.reader(fh), []), filterfalse(str.isspace, fh)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


_loadtxt = partial(np.loadtxt, comments=None, delimiter=",", quotechar='"', ndmin=1)


def read_chunks(path, columns: dict, error: type[ValueError], rest=None):
    """Yield an empty chunk, then each chunk of rows of an input CSV as one
    array per column, keyed by header. With ``rest``, every other header is
    a column too, parsed by ``rest``. Every failure is raised as ``error``
    naming the file once, and the row (the header is row 1) and column."""
    path = Path(path)
    if not path.exists():
        raise error(f"input file not found: {path}")
    with _lines(path, error) as (header, lines):
        if missing := [name for name in columns if name not in header]:
            raise error(f"{path}: missing columns {missing}")
        if repeated := [name for i, name in enumerate(header) if name in header[:i]]:
            raise error(f"{path}: column {repeated[0]} repeated")
        names = [*columns, *(n for n in header if rest is not None and n not in columns)]
        cells = [(name, columns.get(name, rest), header.index(name)) for name in names]
        dtype = np.dtype([(f"f{i}", _FIELDS[cell[1]]) for i, cell in enumerate(cells)])
        rows = CHUNK_BYTES // dtype.itemsize + 1
        read = partial(_loadtxt, dtype=dtype, usecols=[i for *_, i in cells],
                       converters={i: boolean for _, parse, i in cells if parse is boolean})
        table, start = np.zeros(0, dtype), 0
        while True:  # one loadtxt call per chunk
            chunk = {}
            for (name, parse, _), field in zip(cells, dtype.names):
                column = chunk[name] = table[field]
                if parse in (text, str):
                    column = chunk[name] = np.array([*map(str.strip, column)], object)
                if (parse is text and (column == "").any()
                        or parse is number and not np.isfinite(column).all()):
                    raise _cell_error(path, cells, read, start, error)
            yield chunk
            start += len(table)
            if (first := next(lines, None)) is None:  # loadtxt warns at no data
                return
            try:
                table = read(chain([first], lines), max_rows=rows)
            except ValueError:
                raise _cell_error(path, cells, read, start, error) from None


def read_columns(path, columns: dict, error: type[ValueError], rest=None) -> dict:
    """Read an input CSV whole: the chunks of ``read_chunks``, joined."""
    chunks = list(read_chunks(path, columns, error, rest))
    return {name: np.concatenate([chunk[name] for chunk in chunks]) for name in chunks[0]}


def _cell_error(path, cells, read, start: int, error: type[ValueError]):
    """The error of the first cell, from data row ``start`` on, that its
    parser refuses; ``cells`` holds each column's name, parser and index."""
    with _lines(path, error) as (_, lines):
        if start:
            read(lines, max_rows=start)
        for row_no, line in enumerate(lines, start + 2):
            raw = _loadtxt(chain([line], lines), object, max_rows=1).tolist()
            for name, parse, i in cells:
                try:
                    value = parse(cell := raw[i].strip())
                    # what int() and float() read beyond numpy's grammar
                    if parse in (number, int) and ("_" in cell or not cell.isascii()):
                        raise ValueError(
                            f"must be ASCII digits without underscores, got {cell!r}")
                    if parse is int and not -(2**63) <= value < 2**63:
                        raise ValueError(f"must fit in 64 bits, got {cell!r}")
                except (IndexError, ValueError) as exc:
                    problem = "missing" if isinstance(exc, IndexError) else exc
                    return error(f"{path} row {row_no}, column {name}: {problem}")
    return error(f"{path}: a row from row {start + 2} on could not be parsed")
