"""The column CSV reader against the per-cell ``csv.reader`` loop it replaced,
kept here as the reference, and the input grammar it reads.

Generated files mix CRLF and LF ends, quoted cells, surrounding spaces, blank
and whitespace-only lines, extra and reordered columns, bad cells and short
rows; doubles are written by repr, ``%.17g``, ``%.25g``, ``%e`` and ``%.3f``.
The reader must return the reference's values bit for bit, or raise its
message. A whitespace-only line is skipped by the reader, so the reference
reads the same file without those lines; digit-group underscores, non-ASCII
digits and whole numbers outside 64 bits are left out of the generated
files, and tested on their own below.
"""

import csv
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfcplan import cases, tables
from pfcplan.cli import main
from pfcplan.dispatch import (
    DispatchYear, read_dispatch_outputs, write_dispatch_csv, write_dispatch_summary,
)
from pfcplan.network import HOURS_PER_YEAR
from pfcplan.screening import OverloadRecords, read_overloads_csv, write_workbook
from pfcplan.tables import boolean, number, read_columns, text

from conftest import in_record_order
from test_inputs import _one_error_line, _set
from test_tables import _cycled

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


# -- the reference: the per-cell reader, as it read before -----------------------


def reference_number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def reference_boolean(raw: str) -> bool:
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"must be true or false, got {raw!r}")


# the reference parser of each column kind
REFERENCE = {number: reference_number, int: int, text: text, str: str, boolean: reference_boolean}


def reference_read_input(path, columns: dict, error, rest=None):
    """The headers read, in value order, and one list of values per data row,
    each stripped cell parsed on its own by ``csv.reader`` rows."""
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
                rows.append(values)
            except (ValueError, IndexError) as exc:
                where = f"{path} row {row_no}, column {names[len(values)]}"
                exc = "missing" if isinstance(exc, IndexError) else exc
                raise error(f"{where}: {exc}") from None
    return names, rows


# -- generated files -------------------------------------------------------------

FINITE = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 0.1]) | st.floats(
    allow_nan=False, allow_infinity=False
)
FORMATS = [repr, "%.17g".__mod__, "%.25g".__mod__, "%e".__mod__, "%.3f".__mod__]
TEXT = st.text(st.sampled_from(list("aZ0 ,\"';é字\t")), max_size=6)
# cells each kind refuses, in both readers
BAD = {
    number: ["abc", "", "nan", "-Infinity", "1e999", "1.5.2", "0x10", '1"2'],
    int: ["1.5", "x", "", "1e3", "- 1"],
    text: ["", "  "],
    boolean: ["maybe", "", "1", "yes"],
    str: [],
}


@st.composite
def cells(draw, kind):
    if kind is number:
        return draw(st.sampled_from(FORMATS))(draw(FINITE))
    if kind is int:
        value = str(draw(st.integers(-(2**63), 2**63 - 1)))
        return draw(st.sampled_from(["", "+", "00"])) + value if value[0] != "-" else value
    if kind is boolean:
        return "".join(c.upper() if draw(st.booleans()) else c for c in draw(
            st.sampled_from(["true", "false"])
        ))
    return draw(TEXT)


def _quoted(cell: str, quote: bool) -> str:
    if quote or any(c in cell for c in ',"'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_files(draw):
    """A column table, ``rest``, the file's lines (each marked if it holds
    only whitespace), its line end and whether the last line has one."""
    names = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=3), min_size=1,
                          max_size=6, unique=True))
    n_declared = draw(st.integers(1, len(names)))
    kinds = [draw(st.sampled_from(list(BAD))) for _ in names[:n_declared]]
    columns = dict(zip(names[:n_declared], kinds))
    rest = draw(st.sampled_from([None, number]))
    kind_of = {name: columns.get(name, rest or str) for name in names}
    header = draw(st.permutations(names))
    lines = [(",".join(map(_quoted, header, [False] * len(header))), False)]
    for _ in range(draw(st.integers(0, 6))):
        row = []
        for name in header:
            cell = draw(cells(kind_of[name]))
            if BAD[kind_of[name]] and draw(st.integers(0, 30)) == 0:
                cell = draw(st.sampled_from(BAD[kind_of[name]]))
            pad = draw(st.sampled_from(["", "", " ", "\t", "  "]))
            if draw(st.integers(0, 9)):
                row.append(_quoted(pad + cell + pad[::-1], draw(st.booleans())))
            else:  # spaces outside the quotes: the quotes are part of the cell
                row.append(pad + _quoted(cell, True) + pad[::-1])
        if draw(st.integers(0, 20)) == 0:
            row = row[: draw(st.integers(0, len(row)))]  # a short row
        fillers = draw(st.lists(st.sampled_from(["", " ", "\t ", "  "]), max_size=1))
        lines += [(line, line.isspace()) for line in [",".join(row), *fillers]]
    end = draw(st.sampled_from(["\r\n", "\n"]))
    return columns, rest, lines, end, draw(st.booleans())


def _bits(rows) -> list:
    """Rows with each value's type, and each float as its bits."""
    return [
        [(type(v).__name__, v.hex() if isinstance(v, float) else v) for v in row]
        for row in rows
    ]


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc).replace(str(path), "<file>")


@SETTINGS
@given(csv_files(), st.sampled_from([1, 40, tables.CHUNK_BYTES]))
def test_column_reader_matches_the_per_cell_reader(tmp_path_factory, drawn, chunk_bytes):
    columns, rest, lines, end, final_end = drawn
    tmp = tmp_path_factory.mktemp("reader")
    (tmp / "got.csv").write_bytes(
        (end.join(line for line, _ in lines) + end * final_end).encode()
    )
    (tmp / "ref.csv").write_bytes(
        (end.join(line for line, blank in lines if not blank) + end * final_end).encode()
    )
    reference = {name: REFERENCE[kind] for name, kind in columns.items()}
    expected = _outcome(
        lambda p: reference_read_input(p, reference, ValueError, REFERENCE.get(rest)),
        tmp / "ref.csv",
    )
    with mock.patch.object(tables, "CHUNK_BYTES", chunk_bytes):
        got = _outcome(lambda p: read_columns(p, columns, ValueError, rest), tmp / "got.csv")
    if isinstance(expected, str):
        assert got == expected
    else:
        names, rows = expected
        assert list(got) == names
        assert _bits(zip(*(column.tolist() for column in got.values()))) == _bits(rows)


# -- the input grammar -----------------------------------------------------------


def _dispatch_csv(tmp_path, name, edit) -> bytes:
    """``dispatch.csv`` of the triangle study with one input file edited."""
    paths = cases.write_study_inputs(cases.triangle_case(), tmp_path / "inputs")
    if name is not None:
        path = Path(paths[name])
        path.write_bytes(edit(path.read_bytes()))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": paths, "out_dir": str(tmp_path / "out")}))
    assert main(["dispatch", "--config", str(config)]) == 0
    return (tmp_path / "out" / "dispatch.csv").read_bytes()


INPUTS = ["buses", "lines", "generators", "demand", "bus_shares", "res_availability"]


@pytest.mark.parametrize("name", INPUTS)
def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, name):
    plain = _dispatch_csv(tmp_path / "plain", None, None)
    assert _dispatch_csv(tmp_path / "bom", name, lambda raw: b"\xef\xbb\xbf" + raw) == plain


def _blank_lines(raw: bytes) -> bytes:
    end = b"\r\n" if b"\r\n" in raw else b"\n"
    head, rest = raw.split(end, 1)
    return head + end + b"   " + end + rest.replace(end, end + b" \t" + end, 1)


@pytest.mark.parametrize("name", INPUTS)
def test_whitespace_only_lines_are_skipped_as_blank(tmp_path, name):
    plain = _dispatch_csv(tmp_path / "plain", None, None)
    assert _dispatch_csv(tmp_path / "spaced", name, _blank_lines) == plain


def _repeat_column(col: int, value: str):
    """Repeat column ``col``'s header at the end, with ``value`` in every row."""

    def edit(lines):
        lines[0] += "," + lines[0].split(",")[col]
        for i in range(1, len(lines)):
            lines[i] += "," + value

    return edit


# a repeated column used to read its first copy and ignore the second
REPEATED_COLUMNS = {
    "buses": (_repeat_column(3, "Elsewhere"), "region"),
    "lines": (_repeat_column(4, "1.0"), "rating_summer_mw"),
    "generators": (_repeat_column(2, "wind"), "kind"),
    "demand": (_repeat_column(1, "0.0"), "demand_mw"),
    "bus_shares": (_repeat_column(1, "0.0"), "share"),
    "res_availability": (_repeat_column(1, "0.0"), "W1"),
}


@pytest.mark.parametrize("name", sorted(REPEATED_COLUMNS))
def test_repeated_column_exits_2_naming_it(tmp_path, capsys, name):
    edit, column = REPEATED_COLUMNS[name]
    line = _one_error_line(tmp_path, capsys, name, edit, None)
    assert f"column {column} repeated" in line


# cells that float() and int() read and the column reader refuses:
# (file, edit, the row the message names, words it holds)
GRAMMAR = {
    "demand-underscore": ("demand", _set(1, 1, "1_000"), 2, "column demand_mw"),
    "demand-arabic-digits": ("demand", _set(1, 1, "٢٥٠"), 2, "column demand_mw"),
    "demand-hour-underscore": ("demand", _set(2, 0, "0_1"), 3, "column hour"),
    "lines-fullwidth-digits": ("lines", _set(2, 4, "１５０"), 3, "column rating_summer_mw"),
    "demand-hour-beyond-64-bits": ("demand", _set(1, 0, "9" * 20), 2, "fit in 64 bits"),
}


@pytest.mark.parametrize("case", sorted(GRAMMAR))
def test_number_outside_the_grammar_exits_2(tmp_path, capsys, case):
    *args, words = GRAMMAR[case]
    assert words in _one_error_line(tmp_path, capsys, *args)


# -- stage outputs read back bit for bit ---------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 0.1, 1 / 3]


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=40), st.integers(1, 97))
def test_dispatch_csv_round_trips_bits(tmp_path_factory, pool, step):
    tmp = tmp_path_factory.mktemp("dispatch")
    model = cases.mesh6()
    n = HOURS_PER_YEAR * len(model.generators)
    outputs = np.array(_cycled(pool + SPECIAL, n, step)).reshape(HOURS_PER_YEAR, -1)
    zeros = np.zeros(HOURS_PER_YEAR)
    feasible = np.ones(HOURS_PER_YEAR, dtype=bool)
    year = DispatchYear(outputs, zeros, zeros, feasible, model.generator_ids, 0.7, "s")
    write_dispatch_csv(year, tmp / "dispatch.csv")
    write_dispatch_summary(year, tmp / "dispatch_summary.json")
    back = read_dispatch_outputs(tmp / "dispatch.csv", tmp / "dispatch_summary.json", model)
    assert back.outputs_mw.tobytes() == outputs.tobytes()


IDS = st.text(st.sampled_from(list("Lx1 ,\"'é字-")), min_size=1, max_size=5).filter(
    lambda s: s == s.strip()
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_overloads_csv_round_trips_bits(tmp_path_factory, data):
    ids = data.draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    n = data.draw(st.sampled_from([0, 1, 5, tables.CHUNK_ROWS + 3]))
    step = data.draw(st.integers(1, 7))
    draw_pool = lambda strategy: data.draw(st.lists(strategy, min_size=1, max_size=6))  # noqa: E731
    line = _cycled(draw_pool(st.integers(0, len(ids) - 1)), n, step)
    contingency = _cycled(draw_pool(st.integers(-1, len(ids) - 1)), n, step)
    hour = _cycled(draw_pool(st.integers(0, HOURS_PER_YEAR - 1)), n, step)
    loading = _cycled(draw_pool(st.floats(90.0, 1e6, exclude_min=True)), n, step)
    excess = _cycled(draw_pool(FINITE | st.sampled_from(SPECIAL)), n, step)
    over = _cycled(draw_pool(st.booleans()), n, step)
    records = in_record_order(
        OverloadRecords(tuple(ids), line, hour, contingency, loading, excess, over)
    )
    tmp = tmp_path_factory.mktemp("records")
    write_workbook(records, [], {}, tmp)
    back = read_overloads_csv(tmp / "overloads.csv")
    assert list(back) == list(records)
    for name in ("hour", "loading_pct", "excess_mw", "overload"):
        assert getattr(back, name).tobytes() == getattr(records, name).tobytes(), name
