"""Stage 1 (intact) and Stage 2 (N-1) overload screening over the study year.

Stage 1 solves one DC load flow per feasible hour and checks every monitored
line against its effective (derated) seasonal rating, from the one source
``network.effective_ratings``. Stage 2 reuses the retained hourly base flows
and applies LODF columns, so the whole year of N-1 scans costs a handful of
matrix passes instead of 8,760 x n_outages re-solves.

Stage 2 first prunes every (monitored line l, outage k) pair that cannot
reach the near threshold in any hour (Brandwajn's bound): the post-outage flow
f_l + LODF[l,k] f_k never exceeds max_h|f_l| + |LODF[l,k]| max_h|f_k| in
magnitude, and a record needs more than near% of the line's lowest effective
rating. The bound holds for every hour, and a relative margin of 1e-9 covers
the rounding of both sides, so a pruned pair never holds a record.

Stage 1's working set is the year's injections, their per-unit reduced
right-hand side and its solution, and the base flows, with no other array the
size of the year; at most two of them are held at once, apart from SuperLU's
own work arrays. The injections are indexed by the feasible hours only when
some hour is infeasible, ``dcflow.reduced_injections`` forms the rhs and the
injections are dropped, ``dcflow.solve_angles_batch`` solves every feasible
hour in one ``lu.solve`` and the rhs is dropped, and ``dcflow.flows_from_angles``
writes the flows a block of hours at a time.

Both stages find their records with one screen loop, ``_screen``, over one
stack of rows in record order, each a line, its outage, its LODF factor and
its two effective ratings: the intact network first (the monitored lines'
base flows), then each screened outage k (the kept rows of f_l + LODF[l,k]
f_k, the unpruned superposition's product and sum). ``stage1_scan`` passes
the intact rows alone, ``stage2_scan`` all of them. The loop cuts the hours
where the season changes and each season run into blocks
``dcflow.BLOCK_CELLS`` x min(entries, 4) / rows hours wide (at least one),
so a block reads one rating per row. In each block it keeps the rows whose
bound peak_l + |LODF[l,k]| peak_k, each peak the line's largest |f| over
the block's hours, raised by the same margin, exceeds the row's floor:
near% of its season's rating less the margin. No skipped row passes its
floor in any hour of the block. For the kept rows it forms the post-outage
flows and loads only the cells whose |f| exceeds the floor, each with the
unpruned scan's 100 |f| / r against the block's season rating, so every
loading keeps its bits and no dense loading matrix is formed.

Records are emitted for loadings strictly above the near threshold (default
90%); the near class covers (90%, 100%] and the overload class (100%, inf), so
the two classes partition everything above 90%. A loading of exactly 90%
produces no record. Records are held as column arrays (``OverloadRecords``,
indices as int32) in record order: by hour, then contingency id (intact
first), then line id. Their producers hand them over in that order. The
loop reads each block hours x rows, so its hits come out by hour, then row:
in record order, with no sort. The blocks arrive in record order: each
column is filled from them into one array, and no order or gathered copy
the size of the record set is held. ``summarize`` reads the records in
slices cut where an hour starts, each with one radix pass by line whose run
boundaries give its rollups; each line's energy is one left fold continued
from slice to slice, so it keeps the bits of one fold over the year. Above
65,536 line ids the radix pass falls back to a comparison sort.
``region_counts``, the summaries' overloaded lines by region, is the one
source of every region count: workbook, report and the screen's stdout.

``overloads.csv`` is written straight from those arrays, a chunk of records
at a time, through ``tables.write_columns``, each chunk's text one
``tables.interleave`` join over five piece lists. Line and contingency pieces
index one text cell per line id with its ``,`` (index -1, the intact network,
is the lone ``,``), hour pieces one cell per hour with its ``,``, and class
pieces ``,near`` or ``,overload`` with the line break. The ``loading,excess``
pieces come from one ``tables.float_cells`` call over the chunk's two float
columns: each float is its repr (the +0.0 excess of every near record is
``0.0``, a -0.0 ``-0.0``), so each float reads back exactly.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dcflow
from .dispatch import DemandProfile, DispatchYear, injection_matrix
from .network import NetworkModel, SeasonCalendar, effective_ratings
from .shift_factors import LodfMatrix
from .tables import (
    CHUNK_ROWS, float_cells, interleave, left_sum, number, read_columns, select, text, text_cell,
    write_columns, write_csv,
)

log = logging.getLogger(__name__)

NEAR_PCT_DEFAULT = 90.0
OVERLOAD_PCT_DEFAULT = 100.0
# relative slack on the Stage 2 bound, far above the rounding of either side
PRUNE_MARGIN = 1e-9


class OverloadRecord(NamedTuple):
    """One (line, hour, contingency) loading excursion above the near threshold."""

    line_id: str
    hour: int
    contingency: str | None  # None means the intact network (Stage 1)
    loading_pct: float
    excess_mw: float  # MW above the effective rating, 0 for near records
    category: str  # "overload" (>100%) or "near" (>90% and <=100%)


# column -> dtype, in OverloadRecord field order
_RECORD_COLUMNS = {
    "line": np.int32, "hour": np.int32, "contingency": np.int32,
    "loading_pct": np.float64, "excess_mw": np.float64, "overload": bool,
}


@dataclass(frozen=True, eq=False)
class OverloadRecords:
    """Overload records as column arrays, one entry per record.

    ``line`` and ``contingency`` index ``line_ids``; a contingency of -1 is
    the intact network. The columns must arrive in record order: by hour,
    then contingency id (the intact network first), then line id, as
    ``stage1_scan``, ``stage2_scan`` and ``read_overloads_csv`` hand them.
    Construction only casts each column to its dtype. ``len`` counts the
    records and iteration yields one ``OverloadRecord`` per record.
    """

    line_ids: tuple[str, ...]
    line: np.ndarray
    hour: np.ndarray
    contingency: np.ndarray
    loading_pct: np.ndarray
    excess_mw: np.ndarray  # 0 for near records
    overload: np.ndarray  # True: overload class, False: near class

    def __post_init__(self):
        for name, dtype in _RECORD_COLUMNS.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    @classmethod
    def from_columns(cls, line, hour, contingency, loading, excess, category):
        """Records from columns in ``OverloadRecord`` field order, in record
        order as ``read_overloads_csv`` reads them; a contingency of None or
        "" is the intact network."""
        line_ids = tuple(sorted(set(line) | set(contingency) - {None, ""}))
        index = {lid: i for i, lid in enumerate(line_ids)}
        index[None] = index[""] = -1
        return cls(
            line_ids,
            np.fromiter(map(index.__getitem__, line), np.int32, len(line)),
            hour,
            np.fromiter(map(index.__getitem__, contingency), np.int32, len(contingency)),
            loading,
            excess,
            np.asarray(category, dtype=object) == "overload",
        )

    def __len__(self) -> int:
        return len(self.hour)

    def __iter__(self):
        """One ``OverloadRecord`` per record, built a chunk at a time; the
        tests and bench/tracer.py (which counts records by class) read it."""
        ids = np.array(self.line_ids + (None,), dtype=object)
        category = np.array(["near", "overload"], dtype=object)
        for start in range(0, len(self), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            yield from map(OverloadRecord._make, zip(
                ids[self.line[part]].tolist(),
                self.hour[part].tolist(),
                ids[self.contingency[part]].tolist(),
                self.loading_pct[part].tolist(),
                self.excess_mw[part].tolist(),
                category[self.overload[part].astype(np.int64)].tolist(),
            ))

    def csv_chunks(self):
        """The ``overloads.csv`` lines, a chunk of records at a time, each
        chunk one ``interleave`` join over five piece lists: line and
        hour and contingency cells with their separators, the
        ``loading,excess`` pair and the class cell with its line break."""
        ids = np.array([text_cell(lid) + "," for lid in self.line_ids] + [","], dtype=object)
        hours = np.array([f"{h}," for h in range(self.hour.max(initial=0) + 1)], dtype=object)
        category = np.array([",near\r\n", ",overload\r\n"], dtype=object)
        for start in range(0, len(self), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            yield interleave([
                ids[self.line[part]].tolist(),
                hours[self.hour[part]].tolist(),
                ids[self.contingency[part]].tolist(),
                float_cells(np.column_stack((self.loading_pct[part], self.excess_mw[part]))),
                category[self.overload[part].view(np.int8)].tolist(),
            ])

    def lines(self) -> list[str]:
        """Ids of the lines with a record, sorted."""
        return sorted(self.line_ids[i] for i in np.unique(self.line).tolist())


# overloads.csv columns: header -> OverloadRecord attribute
OVERLOAD_COLUMNS = {
    "line": "line_id", "hour": "hour", "contingency": "contingency",
    "loading_pct": "loading_pct", "excess_mw": "excess_mw", "class": "category",
}


@dataclass(frozen=True)
class LineSummary:
    line_id: str
    overload_hours: int  # distinct hours with at least one overload record
    near_hours: int  # distinct hours with at least one near record
    max_loading_pct: float
    overload_energy_mwh: float  # sum over overloaded hours of the worst excess
    contingency_count: int  # distinct outages that overload this line
    region: str


# line_summary.csv columns; the other per-line tables select from them
LINE_SUMMARY_COLUMNS = {
    "line": "line_id", "overload_hours": "overload_hours", "near_hours": "near_hours",
    "max_loading_pct": "max_loading_pct", "overload_energy_mwh": "overload_energy_mwh",
    "contingency_count": "contingency_count", "region": "region",
}
DURATION_COLUMNS = select(LINE_SUMMARY_COLUMNS, "line", "overload_hours")
SEVERITY_COLUMNS = select(
    LINE_SUMMARY_COLUMNS, "line", "max_loading_pct", "overload_energy_mwh"
)


@dataclass(frozen=True)
class RegionCount:
    region: str
    overloaded_lines: int  # lines with at least one overloaded hour


REGION_COLUMNS = {"region": "region", "overloaded_lines": "overloaded_lines"}


@dataclass(frozen=True)
class BaseFlows:
    """Hourly intact-network flows retained from Stage 1 for Stage 2 reuse."""

    hours: np.ndarray  # feasible hour indices, ascending
    flows_mw: np.ndarray  # hours x lines; Stage 1's a view of its lines x hours
    line_ids: tuple[str, ...]


def _by_id(line_ids: tuple[str, ...]) -> list[int]:
    """The indices of ``line_ids`` in line-id order, the records' line order."""
    return sorted(range(len(line_ids)), key=line_ids.__getitem__)


def _monitored_columns(
    line_ids: tuple[str, ...], monitored: set[str] | None
) -> np.ndarray:
    """The indices of the monitored lines, in line-id order."""
    return np.array(
        [i for i in _by_id(line_ids) if monitored is None or line_ids[i] in monitored],
        dtype=np.int32,  # the record columns' dtype
    )


def _stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """The stable ascending order of ``key``, whose entries lie in [0, bound):
    numpy's radix sort when they fit in 16 bits, its comparison sort above."""
    return np.argsort(key.astype(np.uint16) if bound <= 1 << 16 else key, kind="stable")


def _filled(parts: list[np.ndarray], dtype) -> np.ndarray:
    """``parts`` end to end in one new array, each part freed once copied."""
    column = np.empty(sum(map(len, parts)), dtype=dtype)
    end = 0
    while parts:
        part = parts.pop(0)
        column[end : end + len(part)] = part
        end += len(part)
        del part
    return column


def _hour_slices(hour: np.ndarray, size: int) -> list[slice]:
    """Slices of about ``size`` rows of ``hour`` (ascending), each cut where
    an hour starts."""
    cuts = np.searchsorted(hour, hour[::size]).tolist() + [len(hour)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Where each run of rows equal in every one of ``columns`` starts."""
    start = np.zeros(len(columns[0]), dtype=bool)
    start[:1] = True
    for column in columns:
        start[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(start)


def _screen(base: BaseFlows, is_summer, ratings, line, outage, factor, near_pct, overload_pct):
    """The records of the stacked rows over the hours of ``base``, in record
    order, and the screen's counters: the season-block count and width, the
    (row, block) pairs the block bound skipped and the cells above the floor.

    Row i checks line ``line[i]`` under outage ``outage[i]``: the intact
    network (-1, ``factor`` 0) its base flow, and outage k the sum
    f_l + LODF[l,k] f_k, ``factor[i]`` being the LODF entry. The rows come
    in record order, contingency id (the intact rows first), then line id.
    ``ratings`` holds the summer and winter effective rating of every line.

    The hours are cut where the season changes and each season run into
    blocks ``BLOCK_CELLS`` x min(entries, 4) / rows hours wide, at least
    one, so every block reads one rating per row. A block keeps the rows
    whose bound peak_l + |LODF[l,k]| peak_k, each peak the line's largest
    |f| over the block's hours, raised by ``PRUNE_MARGIN``, exceeds the
    row's floor: near% of its season's rating less the same margin. A
    skipped row cannot pass its floor in any hour of the block. The kept
    rows' flows are formed with the product and sum of the unpruned scan
    and only the cells above their floor get 100 |f| / r: a record needs
    fl(fl(100 |f|) / r) > near, so |f| > near r / 100 (1 - 2^-51), and
    the margin is far above that rounding. Blocks are read hours x rows from
    ``base.flows_mw``, so the cells come out by hour, then row: record order.
    """
    n_hours, n_rows = len(base.hours), len(line)
    n_entries = len(_run_starts(outage))
    width = dcflow.BLOCK_CELLS * min(n_entries, 4) // n_rows if n_rows else n_hours
    width = max(1, min(width, n_hours))
    # the season runs of the hours, each cut into blocks of at most width hours
    cuts = [0, *(np.flatnonzero(is_summer[1:] != is_summer[:-1]) + 1).tolist(), n_hours]
    starts = [c for a, b in zip(cuts, cuts[1:]) for c in range(a, b, width)] if n_rows else []
    ends = [*starts[1:], n_hours]
    hours = base.hours.astype(np.int32)  # the pieces at the record column's width
    rating = ratings[:, line]  # per season, one rating per row
    floor = rating * (near_pct / 100.0 * (1.0 - PRUNE_MARGIN))
    coupling = np.abs(factor)
    n_intact = np.count_nonzero(outage < 0)

    n_skipped = n_cells = 0
    pieces = {name: [] for name in _RECORD_COLUMNS}  # per column, one piece per block
    for c0, c1 in zip(starts, ends):
        season = 0 if is_summer[c0] else 1
        block = base.flows_mw[c0:c1]  # hours x lines
        peak = np.abs(block).max(axis=0)
        bound = peak[line] + coupling * peak[outage]
        rows = np.flatnonzero(bound * (1.0 + PRUNE_MARGIN) > floor[season])
        n_skipped += n_rows - len(rows)
        post = block[:, line[rows]]
        n = np.searchsorted(rows, n_intact)  # the kept intact rows come first
        if n < len(rows):
            post_k = block[:, outage[rows[n:]]]
            post_k *= factor[rows[n:]]
            post[:, n:] += post_k
            del post_k
        magnitude = np.abs(post, out=post)
        # the cells above the floor by hour, then row: in record order
        cells = np.flatnonzero(magnitude > floor[season, rows])
        n_cells += len(cells)
        col, row = np.divmod(cells, len(rows))
        a = magnitude.ravel()[cells]
        del post, magnitude, cells
        row = rows[row]
        r = rating[season, row]
        pct = 100.0 * a / r
        hit = np.flatnonzero(pct > near_pct)
        row, col, pct, a, r = row[hit], col[hit], pct[hit], a[hit], r[hit]
        over = pct > overload_pct
        for name, piece in zip(_RECORD_COLUMNS, (
            line[row], hours[c0 + col], outage[row], pct,
            np.where(over, a - r, 0.0), over,
        )):
            pieces[name].append(piece)
    records = OverloadRecords(base.line_ids, **{
        name: _filled(pieces.pop(name), dtype) for name, dtype in _RECORD_COLUMNS.items()
    })
    return records, len(starts), width, n_skipped, n_cells


def stage1_scan(
    year: DispatchYear,
    model: NetworkModel,
    system: dcflow.SusceptanceSystem,
    profile: DemandProfile,
    calendar: SeasonCalendar,
    monitored: set[str] | None = None,
    near_pct: float = NEAR_PCT_DEFAULT,
    overload_pct: float = OVERLOAD_PCT_DEFAULT,
) -> tuple[OverloadRecords, BaseFlows]:
    """Intact-network scan of every feasible hour.

    Returns the records and the full base-flow matrix, which Stage 2 needs
    for the LODF superposition. Infeasible dispatch hours are excluded.
    """
    hours = year.feasible_hours
    inj = injection_matrix(model, year, profile)
    if len(hours) < len(inj):
        inj = inj[hours]
    rhs = dcflow.reduced_injections(system.model, inj, hours)
    del inj
    angles = dcflow.solve_angles_batch(system, rhs)
    del rhs
    flows_t = dcflow.flows_from_angles(system, angles)  # (n_lines, n_hours)
    del angles
    base = BaseFlows(hours=hours, flows_mw=flows_t.T, line_ids=system.line_ids)
    ratings = effective_ratings(model, system.line_ids, calendar)
    lines = _monitored_columns(system.line_ids, monitored)
    records, *_ = _screen(
        base, calendar.summer_mask[hours], ratings, lines,
        np.full(len(lines), -1, dtype=np.int32), np.zeros(len(lines)), near_pct, overload_pct,
    )
    return records, base


def screened_pairs(
    base: BaseFlows, lodf: LodfMatrix, ratings: np.ndarray, near_pct: float
) -> np.ndarray:
    """Which (line, outage) pairs Stage 2 computes: bool, lines x outages.

    A pair is kept when max_h|f_l| + |LODF[l,k]| max_h|f_k|, raised by
    ``PRUNE_MARGIN``, exceeds near% of the line's lowest effective rating in
    ``ratings`` (one row per hour, or per season in the hours; one column
    per line). No other pair can hold a record. Islanding outages (NaN
    columns) and the outaged line itself keep no pair.
    """
    peak = np.abs(base.flows_mw).max(axis=0, initial=0.0)
    bound = peak[:, None] + np.abs(lodf.matrix) * peak
    floor = near_pct / 100.0 * ratings.min(axis=0, initial=np.inf)
    kept = bound * (1.0 + PRUNE_MARGIN) > floor[:, None]
    np.fill_diagonal(kept, False)
    return kept


def stage2_scan(
    base: BaseFlows,
    lodf: LodfMatrix,
    model: NetworkModel,
    calendar: SeasonCalendar,
    monitored: set[str] | None = None,
    near_pct: float = NEAR_PCT_DEFAULT,
    overload_pct: float = OVERLOAD_PCT_DEFAULT,
) -> OverloadRecords:
    """The screen of every feasible hour over the monitored lines, as one
    record set: the intact network first, whose records are Stage 1's over
    the same lines, then every non-islanding outage through the one
    topology-only LODF matrix.

    The screen's rows are stacked once, in record order: the intact rows
    (the monitored lines), then the (line, outage) pairs ``screened_pairs``
    keeps over the year, by outage id, then line id, from one ``np.nonzero``
    of the kept matrix. ``_screen`` checks them in season blocks, where each
    block's own bound skips more rows.
    """
    if base.line_ids != lodf.line_ids:
        raise ValueError("base flows and LODF cover different line sets")
    columns = _monitored_columns(base.line_ids, monitored)
    ratings = effective_ratings(model, base.line_ids, calendar)
    is_summer = calendar.summer_mask[base.hours]
    # the ratings of the seasons the hours cover, one row each
    kept = screened_pairs(
        base, lodf, ratings[np.array([is_summer.any(), not is_summer.all()])], near_pct
    )
    outages = np.array([k for k in _by_id(base.line_ids) if not lodf.islanding[k]], np.int32)
    k, line = np.nonzero(kept[np.ix_(columns, outages)].T)  # by outage, then line
    k, line = outages[k], columns[line]
    records, n_blocks, width, n_skipped, n_cells = _screen(
        base, is_summer, ratings,
        np.concatenate([columns, line]),
        np.concatenate([np.full(len(columns), -1, dtype=np.int32), k]),
        np.concatenate([np.zeros(len(columns)), lodf.matrix[line, k]]),
        near_pct, overload_pct,
    )
    n_pairs = len(outages) * len(columns) - np.count_nonzero(~lodf.islanding[columns])
    intact, over = records.contingency < 0, records.overload
    log.info(
        "stage 2: %d outages screened, %d bridge outages skipped, "
        "%d of %d (line, outage) pairs kept, %d season blocks of at most %d hours, "
        "%d of %d (row, block) pairs skipped by the block bound, "
        "%d cells above the floor, intact records %d near %d overload, "
        "post-outage records %d near %d overload",
        len(outages), np.count_nonzero(lodf.islanding),
        len(k), n_pairs, n_blocks, width,
        n_skipped, n_blocks * (len(columns) + len(k)), n_cells,
        *(np.count_nonzero(a & b) for a in (intact, ~intact) for b in (~over, over)),
    )
    return records


def summarize(records: OverloadRecords, model: NetworkModel) -> list[LineSummary]:
    """Per-line duration/severity rollups, one per line with a record, by line id.

    Duration counts distinct overloaded hours (not record pairs); the energy
    rollup takes the worst excess per overloaded hour so parallel contingencies
    in one hour are not double counted.

    The records are read in slices of about ``dcflow.BLOCK_CELLS`` records
    cut at hour boundaries, so no (line, hour) pair spans two slices. One
    stable radix pass by line leaves each line's rows of a slice in record
    order, so by hour, and the run boundaries give each line's running peak
    loading, its overloaded and near (line, hour) runs, counted slice by
    slice, and the worst excess of each overloaded hour. A boolean matrix of
    the lines by the outages that overload one marks each (line, outage)
    pair once. Each line's energy is one left fold from 0.0 over its worst
    excesses in hour order (``left_sum``), continued from slice to slice:
    the additions and their order are those of one fold over the year, so
    the bits depend neither on the slices nor on the Python version (``sum``
    compensates float sums from 3.12) nor on numpy's pairwise summation.
    """
    if not len(records):
        return []
    n_ids = len(records.line_ids)
    parts = _hour_slices(records.hour, dcflow.BLOCK_CELLS)
    # the matrix's rows and columns: the lines with an overload record and
    # the outages that overload a line (the intact network's -1 marks the
    # spare last entry)
    lines_hit, outages_hit = np.zeros(n_ids, dtype=bool), np.zeros(n_ids + 1, dtype=bool)
    for part in parts:
        rows = np.flatnonzero(records.overload[part])
        lines_hit[records.line[part][rows]] = outages_hit[records.contingency[part][rows]] = True
    row, col = np.cumsum(lines_hit) - 1, np.cumsum(outages_hit[:-1]) - 1
    outages = np.zeros((row[-1] + 1, col[-1] + 1), dtype=bool)

    peak = np.full(n_ids, -np.inf)
    overload_hours, near_hours = np.zeros(n_ids, dtype=np.int64), np.zeros(n_ids, dtype=np.int64)
    energy = [0.0] * n_ids
    for part in parts:
        # the slice by line, each line's rows in record order, so by hour
        by_line = _stable_order(records.line[part], n_ids)
        line, hour = records.line[part][by_line], records.hour[part][by_line]
        starts = _run_starts(line)
        lines = line[starts]
        loading = np.maximum.reduceat(records.loading_pct[part][by_line], starts)
        peak[lines] = np.maximum(peak[lines], loading)
        # one run per near (line, hour), one per overloaded (line, hour)
        over = records.overload[part][by_line]
        near, over = np.flatnonzero(~over), np.flatnonzero(over)
        near_line, over_line = line[near], line[over]
        near_hours += np.bincount(near_line[_run_starts(near_line, hour[near])], minlength=n_ids)
        pairs = _run_starts(over_line, hour[over])
        over = by_line[over]  # the overload records, by line
        # each (line, outage) pair of the overload records, marked once
        ctg = records.contingency[part][over]
        outage = np.flatnonzero(ctg >= 0)
        outages[row[over_line[outage]], col[ctg[outage]]] = True
        # each overloaded hour's worst excess, never below 0, folded onto its
        # line's energy in hour order
        worst = np.maximum.reduceat(records.excess_mw[part][over], pairs)
        worst = np.maximum(worst, 0.0).tolist()
        over_line = over_line[pairs]
        overload_hours += np.bincount(over_line, minlength=n_ids)
        ends = _run_starts(over_line).tolist() + [len(worst)]
        for i, start, end in zip(over_line[ends[:-1]].tolist(), ends, ends[1:]):
            energy[i] = left_sum(worst[start:end], energy[i])
    contingency_count = np.zeros(n_ids, dtype=np.int64)
    contingency_count[lines_hit] = outages.sum(axis=1)

    summaries = []
    for i in sorted(np.flatnonzero(peak > -np.inf).tolist(), key=records.line_ids.__getitem__):
        line_id = records.line_ids[i]
        summaries.append(
            LineSummary(
                line_id=line_id,
                overload_hours=int(overload_hours[i]),
                near_hours=int(near_hours[i]),
                max_loading_pct=float(peak[i]),
                overload_energy_mwh=energy[i],
                contingency_count=int(contingency_count[i]),
                region=model.bus_by_id[model.line_by_id[line_id].from_bus].region,
            )
        )
    return summaries


def region_counts(summaries: list[LineSummary]) -> list[RegionCount]:
    """The lines with an overloaded hour, counted by region and sorted by
    region: the rows of both region_summary.csv files."""
    counts = Counter(s.region for s in summaries if s.overload_hours)
    return [RegionCount(region, n) for region, n in sorted(counts.items())]


# -- workbook output ---------------------------------------------------------


def write_workbook(records: OverloadRecords, summaries: list[LineSummary], out_dir) -> list[str]:
    """Write the overload workbook CSVs; returns the file names written."""
    overloaded = [s for s in summaries if s.overload_hours]
    tables = {
        "line_summary.csv": (LINE_SUMMARY_COLUMNS, summaries),
        "region_summary.csv": (REGION_COLUMNS, region_counts(summaries)),
        "duration_histogram.csv": (DURATION_COLUMNS, overloaded),
        "severity.csv": (SEVERITY_COLUMNS, summaries),
    }
    paths = [f"{out_dir}/overloads.csv"]
    write_columns(paths[0], OVERLOAD_COLUMNS, records.csv_chunks())
    for name, (columns, items) in tables.items():
        paths.append(f"{out_dir}/{name}")
        write_csv(paths[-1], columns, items)
    return paths


def read_overloads_csv(path) -> OverloadRecords:
    """Read an overloads.csv back; floats round-trip exactly via repr. An
    empty contingency cell is the intact network. The rows are kept in file
    order: ``write_workbook`` wrote them in record order, and the stage
    runner reads the file only once its sha256 verifies."""
    columns = dict(zip(OVERLOAD_COLUMNS, (text, int, str, number, number, text)))
    return OverloadRecords.from_columns(*read_columns(path, columns, ValueError).values())


def read_line_summary_csv(path) -> list[LineSummary]:
    """Read a line_summary.csv back; its columns are in ``LineSummary`` field order."""
    columns = dict(zip(LINE_SUMMARY_COLUMNS, (text, int, int, number, number, int, text)))
    table = read_columns(path, columns, ValueError)
    return list(map(LineSummary, *(column.tolist() for column in table.values())))
