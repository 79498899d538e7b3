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

Both stages find their records with one hit kernel over flows laid out lines
x hours: Stage 1 passes the monitored rows of the intact flows, and Stage 2,
per outage, the surviving rows of f_l + LODF[l,k] f_k, the product and sum
the unpruned superposition makes. The kernel loads only the cells whose |f|
exceeds near% of the line's lower effective rating, less the same relative
margin, which no record can fall below; each of those cells gets the unpruned
scan's 100 |f| / r against the rating of its hour's season, so every loading
keeps its bits and no dense loading matrix is formed.

Records are emitted for loadings strictly above the near threshold (default
90%); the near class covers (90%, 100%] and the overload class (100%, inf), so
the two classes partition everything above 90%. A loading of exactly 90%
produces no record. Records are held as column arrays (``OverloadRecords``,
indices as int32) in record order: by hour, then contingency id (intact
first), then line id. Their producers hand them over in that order. The hit
kernel yields hits by line id, then hour, and one stable radix pass by hour
column orders them: ``stage1_scan`` makes it over its hits, and
``stage2_scan(..., intact=...)`` over Stage 1's records followed by each
outage's hits, so the screen's records are assembled once. ``summarize``
reads its rollups from the run boundaries of radix passes by line and by
contingency. Above 65,536 line ids both fall back to a comparison sort.

``overloads.csv`` is written straight from those arrays, a chunk of records
at a time, through ``tables.write_columns``. Line and contingency cells index
one text cell per line id (index -1, the intact network, is the empty cell),
hour cells one cell per hour and class cells a two-entry array. Loading and
excess cells come from ``tables.float_cells``: each is the float's repr (the
+0.0 excess of every near record is ``0.0``, a -0.0 ``-0.0``), so each float
reads back exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dcflow
from .dispatch import DemandProfile, DispatchYear, injection_matrix
from .network import NetworkModel, SeasonCalendar, effective_ratings
from .shift_factors import LodfMatrix
from .tables import (
    CHUNK_ROWS, float_cells, number, read_columns, select, text, text_cell, write_columns,
    write_csv,
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

    def cells(self):
        """The ``overloads.csv`` cells, one list per column in ``OverloadRecord``
        field order, a chunk of records at a time."""
        ids = np.array([text_cell(lid) for lid in self.line_ids] + [""], dtype=object)
        hours = np.array([str(h) for h in range(self.hour.max(initial=0) + 1)], dtype=object)
        category = np.array(["near", "overload"], dtype=object)
        for start in range(0, len(self), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            yield [
                ids[self.line[part]].tolist(),
                hours[self.hour[part]].tolist(),
                ids[self.contingency[part]].tolist(),
                float_cells(self.loading_pct[part]),
                float_cells(self.excess_mw[part]),
                category[self.overload[part].view(np.int8)].tolist(),
            ]

    def lines(self, overload: bool = False) -> list[str]:
        """Ids of the lines with a record (with an overload record), sorted."""
        line = self.line[self.overload] if overload else self.line
        return sorted(self.line_ids[i] for i in np.unique(line).tolist())


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
    flows_mw: np.ndarray  # shape (n_hours, n_lines)
    line_ids: tuple[str, ...]


def _hits(flows_t, lines, summer, winter, is_summer, near_pct, overload_pct):
    """Every loading above ``near_pct`` in ``flows_t``, the flows of
    ``lines`` laid out lines x hours, which it overwrites with |f|.

    ``summer`` and ``winter`` are the effective ratings of every line and
    ``is_summer`` marks the summer hours (columns). Only the cells whose |f|
    exceeds the line's floor, near% of its lower rating less ``PRUNE_MARGIN``,
    are loaded: a record needs fl(fl(100 |f|) / r) > near, so
    |f| > near r / 100 (1 - 2^-51), and the margin is far above that
    rounding. Returns the number of those cells and, per record, its line,
    hour column, loading, excess (0 for near records) and class.
    """
    magnitude = np.abs(flows_t, out=flows_t)
    floor = np.minimum(summer, winter)[lines] * (near_pct / 100.0 * (1.0 - PRUNE_MARGIN))
    # the cells above the floor in row-major order, as np.nonzero gives them
    cells = np.flatnonzero(magnitude > floor[:, None])
    rows, cols = np.divmod(cells, magnitude.shape[1])
    a = magnitude.ravel()[cells]
    line = lines[rows]
    r = np.where(is_summer[cols], summer[line], winter[line])
    pct = 100.0 * a / r
    hit = np.flatnonzero(pct > near_pct)
    pct = pct[hit]
    over = pct > overload_pct
    excess = np.where(over, a[hit] - r[hit], 0.0)
    return len(cells), line[hit], cols[hit], pct, excess, over


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


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Where each run of rows equal in every one of ``columns`` (all >= 0) starts."""
    return np.flatnonzero(np.logical_or.reduce([np.diff(c, prepend=-1) != 0 for c in columns]))


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
    inj = injection_matrix(model, year, profile)[hours]
    dcflow.check_balance(inj, hours)
    angles = dcflow.solve_angles_batch(system, inj.T)
    flows_t = dcflow.flows_from_angles(system, angles)  # (n_lines, n_hours)
    base = BaseFlows(hours=hours, flows_mw=flows_t.T, line_ids=system.line_ids)

    columns = _monitored_columns(system.line_ids, monitored)
    summer, winter = effective_ratings(model, system.line_ids, calendar)
    _, line, cols, pct, excess, over = _hits(
        flows_t[columns], columns, summer, winter, calendar.summer_mask[hours],
        near_pct, overload_pct,
    )
    # the hits come by line id, then hour: a stable pass by hour orders them
    order = _stable_order(cols, len(hours))
    records = OverloadRecords(
        system.line_ids, line[order], hours[cols[order]], np.full(len(line), -1),
        pct[order], excess[order], over[order],
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
    intact: OverloadRecords | None = None,
) -> OverloadRecords:
    """N-1 scan of every feasible hour against every non-islanding outage.

    The same topology-only LODF matrix serves every hour. Islanding outages
    are skipped (they are marked, not numeric). Only the (line, outage) pairs
    ``screened_pairs`` keeps are computed. With ``intact``, Stage 1's records
    of the same lines and hours, returns those and Stage 2's as one set.
    """
    if base.line_ids != lodf.line_ids:
        raise ValueError("base flows and LODF cover different line sets")
    intact = intact if intact is not None else OverloadRecords(base.line_ids, *[()] * 6)
    at = np.searchsorted(base.hours, intact.hour)  # the intact records' hour columns
    if intact.line_ids != base.line_ids or (np.append(base.hours, -1)[at] != intact.hour).any():
        raise ValueError("Stage 1 and Stage 2 records cover different line sets or hours")
    columns = _monitored_columns(base.line_ids, monitored)
    summer, winter = effective_ratings(model, base.line_ids, calendar)
    is_summer = calendar.summer_mask[base.hours]
    # the ratings of the seasons the hours cover, one row each
    seasons = np.array([summer, winter])[np.array([is_summer.any(), not is_summer.all()])]
    kept = screened_pairs(base, lodf, seasons, near_pct)
    flows_t = np.ascontiguousarray(base.flows_mw.T)  # (n_lines, n_hours)

    # per column, the intact records and then each outage's hits, hours as columns
    pieces = {name: [getattr(intact, name)] for name in _RECORD_COLUMNS}
    pieces["hour"] = [at]
    screened = skipped = n_kept = n_pairs = n_cells = 0
    for k in _by_id(base.line_ids):
        if lodf.islanding[k]:
            skipped += 1
            continue
        cols = columns[kept[columns, k]]
        screened += 1
        n_kept += len(cols)
        n_pairs += len(columns) - int(k in columns)
        post = flows_t[cols]
        post += lodf.matrix[cols, k, None] * flows_t[k]
        cells, line, hour, pct, excess, over = _hits(
            post, cols, summer, winter, is_summer, near_pct, overload_pct
        )
        n_cells += cells
        ctg = np.full(len(line), k, dtype=np.int32)
        for name, piece in zip(_RECORD_COLUMNS, (line, hour, ctg, pct, excess, over)):
            pieces[name].append(piece)
    del flows_t
    # the intact records in record order, then each outage's hits (outages in
    # id order) in (line id, hour) order: a stable pass by hour orders them all
    column = np.concatenate(pieces.pop("hour"))
    order = _stable_order(column, len(base.hours))
    joined = {"hour": base.hours.astype(np.int32)[column[order]]}
    del column
    for name in list(pieces):  # one column at a time, its pieces freed
        joined[name] = np.concatenate(pieces.pop(name))[order]
    records = OverloadRecords(base.line_ids, **joined)
    log.info(
        "stage 2: %d outages screened, %d bridge outages skipped, "
        "%d of %d (line, outage) pairs kept, %d pair-hours above the floor, "
        "%d records",
        screened, skipped, n_kept, n_pairs, n_cells, len(records) - len(intact),
    )
    return records


def summarize(
    records: OverloadRecords, model: NetworkModel
) -> tuple[list[LineSummary], dict[str, int]]:
    """Per-line duration/severity rollups plus overloaded-line counts by region.

    Duration counts distinct overloaded hours (not record pairs); the energy
    rollup takes the worst excess per overloaded hour so parallel contingencies
    in one hour are not double counted. It is summed in hour order by Python's
    ``sum``: numpy's pairwise sum could change the last digits.
    """
    if not len(records):
        return [], {}
    n_ids = len(records.line_ids)
    # the records by line, each line's in record order, so by hour
    by_line = _stable_order(records.line, n_ids)
    line, hour, over = records.line[by_line], records.hour[by_line], records.overload[by_line]
    starts = _run_starts(line)
    lines, max_loading = line[starts], np.maximum.reduceat(records.loading_pct[by_line], starts)
    # one run per overloaded (line, hour) with its worst excess, one per near (line, hour)
    over_rows, over_line, near_line = by_line[over], line[over], line[~over]
    pairs = _run_starts(over_line, hour[over])
    overload_hours = np.bincount(over_line[pairs], minlength=n_ids)
    worst = np.maximum.reduceat(records.excess_mw[over_rows], pairs)
    near_hours = np.bincount(near_line[_run_starts(near_line, hour[~over])], minlength=n_ids)
    # the overloading outages by contingency: one run per (contingency, line) pair
    ctg = records.contingency[over_rows]
    outage = ctg >= 0
    by_ctg = _stable_order(ctg[outage], n_ids)
    ctg, ctg_line = ctg[outage][by_ctg], over_line[outage][by_ctg]
    contingency_count = np.bincount(ctg_line[_run_starts(ctg, ctg_line)], minlength=n_ids)
    # each line's worst excess per overloaded hour, in hour order, never below 0
    worst = np.maximum(worst, 0.0).tolist()
    ends = np.cumsum(overload_hours).tolist()

    summaries = []
    regional: dict[str, int] = {}
    peak = dict(zip(lines.tolist(), max_loading.tolist()))
    for i in sorted(peak, key=records.line_ids.__getitem__):
        line_id = records.line_ids[i]
        n_over = int(overload_hours[i])
        region = model.bus_by_id[model.line_by_id[line_id].from_bus].region
        summaries.append(
            LineSummary(
                line_id=line_id,
                overload_hours=n_over,
                near_hours=int(near_hours[i]),
                max_loading_pct=peak[i],
                overload_energy_mwh=float(sum(worst[ends[i] - n_over : ends[i]])),
                contingency_count=int(contingency_count[i]),
                region=region,
            )
        )
        if n_over:
            regional[region] = regional.get(region, 0) + 1
    return summaries, regional


# -- workbook output ---------------------------------------------------------


def write_workbook(
    records: OverloadRecords,
    summaries: list[LineSummary],
    regional: dict[str, int],
    out_dir,
) -> list[str]:
    """Write the overload workbook CSVs; returns the file names written."""
    overloaded = [s for s in summaries if s.overload_hours]
    tables = {
        "line_summary.csv": (LINE_SUMMARY_COLUMNS, summaries),
        "region_summary.csv": (REGION_COLUMNS, region_counts(regional)),
        "duration_histogram.csv": (DURATION_COLUMNS, overloaded),
        "severity.csv": (SEVERITY_COLUMNS, summaries),
    }
    paths = [f"{out_dir}/overloads.csv"]
    write_columns(paths[0], OVERLOAD_COLUMNS, records.cells())
    for name, (columns, items) in tables.items():
        paths.append(f"{out_dir}/{name}")
        write_csv(paths[-1], columns, items)
    return paths


def region_counts(regional: dict[str, int]) -> list[RegionCount]:
    """The rows of both region_summary.csv files, sorted by region."""
    return [RegionCount(region, n) for region, n in sorted(regional.items())]


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
