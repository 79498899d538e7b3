"""The column CSV writer against ``csv.writer``, kept here as the reference.

Tables are drawn with text that needs quoting, repr-sensitive floats, ints,
booleans and None, under both line terminators, and with row counts on both
sides of the writer's chunk boundary. Rows are built by cycling a few drawn
values per column, so a table of thousands of rows costs a handful of draws.
``float_cells``, which writes the float columns of ``overloads.csv`` and
``dispatch.csv``, is checked against repr on its own, one float per cell and
one row of k floats per cell, at the edges of the range where orjson's bytes
are used.
"""

import csv
import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfcplan.dispatch import DISPATCH_COLUMNS, DispatchYear, write_dispatch_csv
from pfcplan.network import HOURS_PER_YEAR
from pfcplan.screening import OVERLOAD_COLUMNS, OverloadRecords, write_workbook
from pfcplan.tables import CHUNK_ROWS, boolean, float_cells, write_csv, write_rows

from conftest import in_record_order

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def reference_write_rows(path, columns, rows, lineterminator="\r\n"):
    """The row-by-row ``csv.writer`` writer; a ``boolean`` column makes
    every bool cell true/false."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(columns)
        if boolean in columns.values():
            rows = (
                [("true" if v else "false") if isinstance(v, bool) else v for v in row]
                for row in rows
            )
        writer.writerows(rows)


TEXTS = st.text(st.sampled_from(list(',"\r\n ;\'aZé字')), max_size=5) | st.text(max_size=5)
FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1.5e-05, 123456789.0]) | st.floats()
VALUES = st.one_of(TEXTS, FLOATS, st.integers(), st.booleans(), st.none())
ROW_COUNTS = st.sampled_from([0, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])


def _cycled(pool: list, n: int, step: int) -> list:
    return [pool[(i * step) % len(pool)] for i in range(n)]


@st.composite
def tables(draw):
    header = draw(st.lists(TEXTS, min_size=1, max_size=4, unique=True))
    n = draw(ROW_COUNTS)
    step = draw(st.integers(1, 7))
    pools = [draw(st.lists(VALUES, min_size=1, max_size=6)) for _ in header]
    columns = [_cycled(pool, n, step) for pool in pools]
    return header, list(zip(*columns)) if n else [], draw(st.sampled_from(["\r\n", "\n"]))


@SETTINGS
@given(tables())
@example((["a"], [("",), (None,), ("x",)], "\r\n"))  # a lone empty cell is ""
@example(([""], [], "\n"))
def test_column_writer_matches_csv_writer(tmp_path_factory, table):
    header, rows, lineterminator = table
    columns = dict.fromkeys(header, boolean)
    tmp = tmp_path_factory.mktemp("table")
    reference_write_rows(tmp / "ref.csv", columns, rows, lineterminator)
    write_rows(tmp / "got.csv", columns, iter(rows), lineterminator)
    assert (tmp / "got.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


@st.composite
def record_sets(draw):
    ids = draw(st.lists(TEXTS.filter(bool), min_size=1, max_size=4, unique=True))
    n = draw(ROW_COUNTS)
    step = draw(st.integers(1, 7))
    # and loadings at and beyond orjson's exact range, whose rows fall back to repr
    loadings = st.floats(90.0, 400.0, exclude_min=True) | st.sampled_from(
        [9999999999999998.0, 1e16, 1e22])
    excess = st.sampled_from([0.0, -0.0, 5e-324, 1.5e-05]) | st.floats(0.0, 1e4)
    pools = [
        draw(st.lists(st.integers(0, len(ids) - 1), min_size=1, max_size=4)),
        draw(st.lists(st.integers(0, 8759), min_size=1, max_size=6)),
        draw(st.lists(st.integers(-1, len(ids) - 1), min_size=1, max_size=4)),
        draw(st.lists(loadings, min_size=1, max_size=6)),
        draw(st.lists(st.tuples(st.booleans(), excess), min_size=1, max_size=6)),
    ]
    line, hour, contingency, loading, classed = (_cycled(p, n, step) for p in pools)
    # a near record's excess is 0.0 or -0.0, an overload record's anything drawn
    over = [o for o, _ in classed]
    excess_mw = [x if o else np.copysign(0.0, x) for o, x in classed]
    return in_record_order(
        OverloadRecords(tuple(ids), line, hour, contingency, loading, excess_mw, over)
    )


NEGATIVE_ZERO = OverloadRecords(
    ("L,1", 'L"2'), [0, 1, 1], [3, 3, 4], [-1, 0, 0],
    [95.0, 101.5, 100.0], [0.0, -0.0, -0.0], [False, True, False],
)


@SETTINGS
@given(record_sets())
@example(NEGATIVE_ZERO)
def test_overloads_csv_matches_csv_writer(tmp_path_factory, records):
    tmp = tmp_path_factory.mktemp("records")
    write_workbook(records, [], tmp)
    reference_write_rows(tmp / "ref.csv", OVERLOAD_COLUMNS, records)
    assert (tmp / "overloads.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


@dataclasses.dataclass(frozen=True)
class Cells:
    value: object
    count: object
    flag: object


def test_numpy_scalars_are_written_as_their_values(tmp_path):
    columns = {"value": "value", "count": "count", "flag": "flag"}
    python = [Cells(1.5, 3, True), Cells(-0.0, -7, False), Cells(1e16, 0, None)]
    numpy = [
        Cells(np.float64(1.5), np.int64(3), np.bool_(True)),
        Cells(np.float64(-0.0), np.int64(-7), np.bool_(False)),
        Cells(np.float64(1e16), np.int64(0), None),
    ]
    write_csv(tmp_path / "python.csv", columns, python)
    write_csv(tmp_path / "numpy.csv", columns, numpy)
    expected = b"value,count,flag\r\n1.5,3,true\r\n-0.0,-7,false\r\n1e+16,0,\r\n"
    assert (tmp_path / "python.csv").read_bytes() == expected
    assert (tmp_path / "numpy.csv").read_bytes() == expected


# the edges of orjson's exact range (1e-4 <= |x| < 1e16, and ±0.0) and
# values outside it, where repr and orjson differ
EDGES = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 5e-324, -0.0, 0.0,
         -1e-4, float("nan"), float("inf"), float("-inf"), 1.5e-05, 1e22]


@SETTINGS
@given(st.lists(st.floats() | st.sampled_from(EDGES), max_size=40).map(np.array))
@example(np.array(EDGES))
@example(np.zeros(0))
@example(np.array(EDGES * 3)[::4])  # not contiguous
def test_float_cells_are_reprs(values):
    assert float_cells(values) == list(map(float.__repr__, values.tolist()))


@st.composite
def float_tables(draw):
    """A rows x k array, k from 1 to 3, or a non-contiguous view of the same values."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    values = st.floats() | st.sampled_from(EDGES)
    table = np.array(draw(st.lists(values, min_size=n * k, max_size=n * k))).reshape(n, k)
    if draw(st.booleans()):
        wide = np.zeros((n, 2 * k))
        wide[:, ::2] = table
        table = wide[:, ::2]
    return table


@SETTINGS
@given(float_tables())
@example(np.array(EDGES[:12]).reshape(4, 3))
@example(np.zeros((0, 2)))
@example(np.array(EDGES * 2).reshape(-1, 2)[:, ::2])  # not contiguous, k = 1
def test_float_cells_join_each_rows_reprs(table):
    assert float_cells(table) == [",".join(map(repr, row)) for row in table.tolist()]


def test_dispatch_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(7)
    ids = ("G,1", 'G"2', "G3")
    # magnitudes from 1e-9 to 1e20, both signs, and every seventh cell an edge
    shape = (HOURS_PER_YEAR, len(ids))
    outputs = rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-9, 21, shape)
    outputs.flat[::7] = np.resize(EDGES, len(outputs.flat[::7]))
    year = DispatchYear(
        outputs_mw=outputs, curtailed_mw=np.zeros(HOURS_PER_YEAR),
        snsp=np.zeros(HOURS_PER_YEAR), feasible=np.ones(HOURS_PER_YEAR, bool),
        generator_ids=ids, snsp_cap=0.5,
    )
    write_dispatch_csv(year, tmp_path / "dispatch.csv")
    rows = (
        (hour, gid, value)
        for hour, values in enumerate(outputs.tolist())
        for gid, value in zip(ids, values)
    )
    reference_write_rows(tmp_path / "ref.csv", DISPATCH_COLUMNS, rows)
    assert (tmp_path / "dispatch.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
