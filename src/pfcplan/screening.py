"""Stage 1 (intact) and Stage 2 (N-1) overload screening over the study year.

Stage 1 solves one DC load flow per feasible hour and checks every monitored
line against its effective (derated) seasonal rating. Stage 2 reuses the
retained hourly base flows and applies LODF columns, so the whole year of N-1
scans costs a handful of matrix passes instead of 8,760 x n_outages re-solves.

Records are emitted for loadings strictly above the near threshold (default
90%); the near class covers (90%, 100%] and the overload class (100%, inf), so
the two classes partition everything above 90%. A loading of exactly 90%
produces no record. Record streams are deterministically ordered by hour,
then contingency id, then line id.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from . import dcflow
from .dispatch import DemandProfile, DispatchYear, injection_matrix
from .network import NetworkModel, SeasonCalendar
from .shift_factors import LodfMatrix
from .tables import read_input, select, text, write_csv

log = logging.getLogger(__name__)

NEAR_PCT_DEFAULT = 90.0
OVERLOAD_PCT_DEFAULT = 100.0


@dataclass(frozen=True)
class OverloadRecord:
    """One (line, hour, contingency) loading excursion above the near threshold."""

    line_id: str
    hour: int
    contingency: str | None  # None means the intact network (Stage 1)
    loading_pct: float
    excess_mw: float  # MW above the effective rating, 0 for near records
    category: str  # "overload" (>100%) or "near" (>90% and <=100%)


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


def effective_rating_matrix(
    model: NetworkModel,
    line_ids: tuple[str, ...],
    hours: np.ndarray,
    calendar: SeasonCalendar,
) -> np.ndarray:
    """Effective MW ratings, shape (n_hours, n_lines)."""
    summer = np.array(
        [model.line_by_id[lid].rating_summer_mw for lid in line_ids]
    )
    winter = np.array(
        [model.line_by_id[lid].rating_winter_mw for lid in line_ids]
    )
    seasonal = np.where(calendar.summer_mask[hours][:, None], summer, winter)
    return seasonal * (1.0 - calendar.derate_factor)


def _extract_records(
    flows: np.ndarray,
    ratings: np.ndarray,
    hours: np.ndarray,
    line_ids: tuple[str, ...],
    columns: np.ndarray,
    contingency: str | None,
    near_pct: float,
    overload_pct: float,
) -> list[OverloadRecord]:
    loading = 100.0 * np.abs(flows[:, columns]) / ratings[:, columns]
    hit_h, hit_l = np.nonzero(loading > near_pct)
    records = []
    for hi, li in zip(hit_h, hit_l):
        col = columns[li]
        pct = float(loading[hi, li])
        is_overload = pct > overload_pct
        excess = (
            float(abs(flows[hi, col]) - ratings[hi, col]) if is_overload else 0.0
        )
        records.append(
            OverloadRecord(
                line_id=line_ids[col],
                hour=int(hours[hi]),
                contingency=contingency,
                loading_pct=pct,
                excess_mw=excess,
                category="overload" if is_overload else "near",
            )
        )
    return records


def _sort_key(record: OverloadRecord):
    return (record.hour, record.contingency or "", record.line_id)


def stage1_scan(
    year: DispatchYear,
    model: NetworkModel,
    system: dcflow.SusceptanceSystem,
    profile: DemandProfile,
    calendar: SeasonCalendar,
    monitored: set[str] | None = None,
    near_pct: float = NEAR_PCT_DEFAULT,
    overload_pct: float = OVERLOAD_PCT_DEFAULT,
) -> tuple[list[OverloadRecord], BaseFlows]:
    """Intact-network scan of every feasible hour.

    Returns the (sorted) records and the full base-flow matrix, which Stage 2
    needs for the LODF superposition. Infeasible dispatch hours are excluded.
    """
    hours = np.array(year.feasible_hours, dtype=int)
    inj = injection_matrix(model, year, profile)[hours]
    residuals = np.abs(inj.sum(axis=1))
    if residuals.size and residuals.max() > dcflow.RESIDUAL_TOL_MW:
        worst = int(hours[int(residuals.argmax())])
        raise ValueError(
            f"hour {worst}: injections do not balance "
            f"(residual {residuals.max():.3e} MW)"
        )
    angles = dcflow.solve_angles_batch(system, inj.T)
    flows = dcflow.flows_from_angles(system, angles).T  # (n_hours, n_lines)
    base = BaseFlows(hours=hours, flows_mw=flows, line_ids=system.line_ids)

    mon_ids = monitored if monitored is not None else set(system.line_ids)
    columns = np.array(
        [i for i, lid in enumerate(system.line_ids) if lid in mon_ids], dtype=int
    )
    ratings = effective_rating_matrix(model, system.line_ids, hours, calendar)
    records = _extract_records(
        flows, ratings, hours, system.line_ids, columns, None, near_pct, overload_pct
    )
    records.sort(key=_sort_key)
    return records, base


def stage2_scan(
    base: BaseFlows,
    lodf: LodfMatrix,
    model: NetworkModel,
    calendar: SeasonCalendar,
    monitored: set[str] | None = None,
    outages: tuple[str, ...] | None = None,
    near_pct: float = NEAR_PCT_DEFAULT,
    overload_pct: float = OVERLOAD_PCT_DEFAULT,
) -> list[OverloadRecord]:
    """N-1 scan of every feasible hour against every non-islanding outage.

    The same topology-only LODF matrix serves every hour. Islanding outages in
    the candidate set are skipped (they are marked, not numeric).
    """
    if base.line_ids != lodf.line_ids:
        raise ValueError("base flows and LODF cover different line sets")
    mon_ids = monitored if monitored is not None else set(base.line_ids)
    columns = np.array(
        [i for i, lid in enumerate(base.line_ids) if lid in mon_ids], dtype=int
    )
    outage_ids = outages if outages is not None else lodf.non_islanding_outages()
    ratings = effective_rating_matrix(model, base.line_ids, base.hours, calendar)

    records: list[OverloadRecord] = []
    skipped = 0
    for outage in outage_ids:
        k = base.line_ids.index(outage)
        if lodf.islanding[k]:
            skipped += 1
            continue
        post = base.flows_mw + np.outer(base.flows_mw[:, k], lodf.matrix[:, k])
        post[:, k] = 0.0
        records.extend(
            _extract_records(
                post,
                ratings,
                base.hours,
                base.line_ids,
                columns,
                outage,
                near_pct,
                overload_pct,
            )
        )
    if skipped:
        log.info("skipped %d islanding outages in the N-1 scan", skipped)
    records.sort(key=_sort_key)
    return records


def summarize(
    records: list[OverloadRecord], model: NetworkModel
) -> tuple[list[LineSummary], dict[str, int]]:
    """Per-line duration/severity rollups plus overloaded-line counts by region.

    Duration counts distinct overloaded hours (not record pairs); the energy
    rollup takes the worst excess per overloaded hour so parallel contingencies
    in one hour are not double counted.
    """
    by_line: dict[str, list[OverloadRecord]] = {}
    for rec in records:
        by_line.setdefault(rec.line_id, []).append(rec)

    summaries = []
    regional: dict[str, int] = {}
    for line_id in sorted(by_line):
        recs = by_line[line_id]
        overload_hours = sorted({r.hour for r in recs if r.category == "overload"})
        near_hours = {r.hour for r in recs if r.category == "near"}
        worst_excess = {}
        for r in recs:
            if r.category == "overload":
                worst_excess[r.hour] = max(worst_excess.get(r.hour, 0.0), r.excess_mw)
        energy = float(sum(worst_excess[h] for h in overload_hours))
        contingencies = {
            r.contingency
            for r in recs
            if r.category == "overload" and r.contingency is not None
        }
        region = model.bus_by_id[model.line_by_id[line_id].from_bus].region
        summaries.append(
            LineSummary(
                line_id=line_id,
                overload_hours=len(overload_hours),
                near_hours=len(near_hours),
                max_loading_pct=max(r.loading_pct for r in recs),
                overload_energy_mwh=energy,
                contingency_count=len(contingencies),
                region=region,
            )
        )
        if overload_hours:
            regional[region] = regional.get(region, 0) + 1
    return summaries, regional


# -- workbook output ---------------------------------------------------------


def write_workbook(
    records: list[OverloadRecord],
    summaries: list[LineSummary],
    regional: dict[str, int],
    out_dir,
) -> list[str]:
    """Write the overload workbook CSVs; returns the file names written."""
    overloaded = [s for s in summaries if s.overload_hours]
    tables = {
        "overloads.csv": (OVERLOAD_COLUMNS, sorted(records, key=_sort_key)),
        "line_summary.csv": (LINE_SUMMARY_COLUMNS, summaries),
        "region_summary.csv": (REGION_COLUMNS, region_counts(regional)),
        "duration_histogram.csv": (DURATION_COLUMNS, overloaded),
        "severity.csv": (SEVERITY_COLUMNS, summaries),
    }
    paths = []
    for name, (columns, items) in tables.items():
        paths.append(f"{out_dir}/{name}")
        write_csv(paths[-1], columns, items)
    return paths


def region_counts(regional: dict[str, int]) -> list[RegionCount]:
    """The rows of both region_summary.csv files, sorted by region."""
    return [RegionCount(region, n) for region, n in sorted(regional.items())]


def read_overloads_csv(path) -> list[OverloadRecord]:
    """Read an overloads.csv back; floats round-trip exactly via repr.

    ``OVERLOAD_COLUMNS`` lists the columns in ``OverloadRecord`` field order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows, None)  # the header
        records = [
            OverloadRecord(line, int(hour), ctg or None, float(pct), float(excess), cls)
            for line, hour, ctg, pct, excess, cls in rows
        ]
    records.sort(key=_sort_key)
    return records


def read_line_summary_csv(path) -> list[LineSummary]:
    """Read a line_summary.csv back; its columns are in ``LineSummary`` field order."""
    columns = dict(zip(LINE_SUMMARY_COLUMNS, (text, int, int, float, float, int, text)))
    return read_input(path, columns, LineSummary, ValueError)[1]
