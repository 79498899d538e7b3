"""Simplified merit-order dispatch for the 8,760-hour study year.

This is deliberately a stand-in for a full production-cost model: no unit
commitment, no start costs, no reserves. Non-synchronous generation (wind,
solar) is dispatched first at its availability, scaled down pro rata whenever
the system non-synchronous penetration (SNSP) cap or demand binds; the rest of
demand is met by synchronous thermal units in ascending short-run marginal
cost order, ties broken by generator id.

SNSP for an hour is defined as total non-synchronous output divided by system
demand; interconnector flows are not modeled. Minimum stable generation is
enforced only as a post-hoc clamp on the marginal unit, with the surplus taken
back from cheaper running units (so the strict merit-order property holds
exactly on fleets with p_min = 0).

Hours where demand cannot be met are recorded as infeasible instead of
aborting the year; downstream stages skip them.

``dispatch.csv`` holds one row per (hour, generator), in hour order. It is
written through ``tables.write_columns`` from ``DispatchYear.output_matrix``,
a few thousand rows at a time, each output as its repr, and read back with a
positional ``csv.reader``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .network import HOURS_PER_YEAR, NetworkModel
from .tables import (
    CHUNK_ROWS, float_cell, number, read_input, text, text_cell, write_columns,
)

BALANCE_TOL_MW = 1e-6


class DispatchInputError(ValueError):
    """Malformed or inconsistent dispatch input data."""


@dataclass(frozen=True)
class DemandProfile:
    """Hourly system demand plus the static per-bus demand split."""

    demand_mw: np.ndarray  # shape (8760,)
    bus_shares: dict[str, float]

    def __post_init__(self):
        demand = np.asarray(self.demand_mw, dtype=float)
        if demand.shape != (HOURS_PER_YEAR,):
            raise DispatchInputError(
                f"demand must cover all {HOURS_PER_YEAR} hours, got {demand.shape}"
            )
        if (demand < 0).any():
            raise DispatchInputError("demand must be non-negative")
        object.__setattr__(self, "demand_mw", demand)
        shares = np.array(list(self.bus_shares.values()), dtype=float)
        if (shares < 0).any():
            raise DispatchInputError("bus shares must be non-negative")
        if abs(shares.sum() - 1.0) > 1e-9:
            raise DispatchInputError(
                f"bus shares must sum to 1, got {float(shares.sum())!r}"
            )


# demand.csv (one row per hour) and bus_shares.csv columns: header -> parser
DEMAND_COLUMNS = {"hour": int, "demand_mw": number}
BUS_SHARE_COLUMNS = {"bus": text, "share": number}


@dataclass(frozen=True)
class ResAvailability:
    """Hourly availability factor in [0, 1] per renewable generator."""

    factors: dict[str, np.ndarray]

    def __post_init__(self):
        clean = {}
        for gid, arr in self.factors.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (HOURS_PER_YEAR,):
                raise DispatchInputError(
                    f"availability for {gid} must cover all {HOURS_PER_YEAR} hours"
                )
            if (arr < 0).any() or (arr > 1).any():
                raise DispatchInputError(
                    f"availability for {gid} must lie in [0, 1]"
                )
            clean[gid] = arr
        object.__setattr__(self, "factors", clean)


# res_availability.csv columns (one row per hour): "hour", then one number
# column per renewable generator, headed by its id
AVAILABILITY_COLUMNS = {"hour": int}


@dataclass(frozen=True)
class DispatchHour:
    """One hour's generator outputs in model generator order."""

    hour: int
    outputs_mw: np.ndarray
    demand_mw: float
    curtailed_mw: float
    snsp: float
    feasible: bool = True
    deficit_mw: float = 0.0


@dataclass(frozen=True)
class DispatchYear:
    hours: tuple[DispatchHour, ...]
    generator_ids: tuple[str, ...]
    snsp_cap: float
    scenario: str = ""

    def __post_init__(self):
        if len(self.hours) != HOURS_PER_YEAR:
            raise DispatchInputError(
                f"a dispatch year needs exactly {HOURS_PER_YEAR} hours"
            )
        if [h.hour for h in self.hours] != list(range(HOURS_PER_YEAR)):
            raise DispatchInputError("hours must be 0..8759 each exactly once")

    @cached_property
    def output_matrix(self) -> np.ndarray:
        return np.vstack([h.outputs_mw for h in self.hours])

    @cached_property
    def infeasible_hours(self) -> tuple[int, ...]:
        return tuple(h.hour for h in self.hours if not h.feasible)

    @cached_property
    def feasible_hours(self) -> tuple[int, ...]:
        return tuple(h.hour for h in self.hours if h.feasible)


class _Fleet:
    """Static per-fleet arrays shared by every hourly solve."""

    def __init__(self, model: NetworkModel):
        gens = model.generators
        self.gen_ids = model.generator_ids
        self.nonsync = np.array([not g.synchronous for g in gens], dtype=bool)
        self.p_max = np.array([g.p_max_mw for g in gens])
        self.p_min = np.array([g.p_min_mw for g in gens])
        self.srmc = np.array([g.srmc for g in gens])
        thermal = np.flatnonzero(~self.nonsync)
        order = sorted(thermal, key=lambda i: (self.srmc[i], self.gen_ids[i]))
        self.merit_order = np.array(order, dtype=int)
        self.thermal_cap = float(self.p_max[thermal].sum()) if thermal.size else 0.0


def _dispatch_hour(
    fleet: _Fleet, hour: int, demand: float, factors: np.ndarray, snsp_cap: float
) -> DispatchHour:
    n = len(fleet.gen_ids)
    outputs = np.zeros(n)

    available = np.where(fleet.nonsync, factors * fleet.p_max, 0.0)
    total_available = float(available.sum())
    res_target = min(total_available, snsp_cap * demand, demand)
    residual = demand - res_target

    if fleet.thermal_cap < residual - BALANCE_TOL_MW:
        deficit = residual - fleet.thermal_cap
        return DispatchHour(
            hour=hour,
            outputs_mw=outputs,
            demand_mw=demand,
            curtailed_mw=0.0,
            snsp=0.0,
            feasible=False,
            deficit_mw=deficit,
        )

    if total_available > 0.0:
        outputs[fleet.nonsync] = available[fleet.nonsync] * (res_target / total_available)

    # merit-order fill of the thermal residual
    remaining = residual
    marginal = -1
    for i in fleet.merit_order:
        if remaining <= 0.0:
            break
        take = min(fleet.p_max[i], remaining)
        outputs[i] = take
        remaining -= take
        marginal = i

    # p_min is a clamp on the marginal unit only; the surplus comes back from
    # cheaper running units (down to their own floors), then from extra RES
    # curtailment
    if marginal >= 0 and 0.0 < outputs[marginal] < fleet.p_min[marginal]:
        surplus = fleet.p_min[marginal] - outputs[marginal]
        outputs[marginal] = fleet.p_min[marginal]
        for i in reversed(fleet.merit_order):
            if surplus <= 0.0:
                break
            if i == marginal or outputs[i] <= 0.0:
                continue
            room = outputs[i] - fleet.p_min[i]
            cut = min(room, surplus)
            outputs[i] -= cut
            surplus -= cut
        if surplus > BALANCE_TOL_MW and res_target > 0.0:
            cut = min(res_target, surplus)
            scale = (res_target - cut) / res_target
            outputs[fleet.nonsync] *= scale
            res_target -= cut
            surplus -= cut
        if surplus > BALANCE_TOL_MW:
            # running floors exceed demand: over-generation infeasibility
            return DispatchHour(
                hour=hour,
                outputs_mw=np.zeros(n),
                demand_mw=demand,
                curtailed_mw=0.0,
                snsp=0.0,
                feasible=False,
                deficit_mw=-surplus,
            )

    curtailed = total_available - float(outputs[fleet.nonsync].sum())
    snsp = float(outputs[fleet.nonsync].sum()) / demand if demand > 0 else 0.0
    return DispatchHour(
        hour=hour,
        outputs_mw=outputs,
        demand_mw=demand,
        curtailed_mw=max(curtailed, 0.0),
        snsp=snsp,
    )


def merit_order_dispatch(
    model: NetworkModel,
    demand_mw: float,
    res_factors: dict[str, float],
    snsp_cap: float,
    hour: int = 0,
) -> DispatchHour:
    """Solve a single hour. ``res_factors`` maps renewable generator ids to
    availability in [0, 1]; non-synchronous units without an entry count as
    fully available."""
    if demand_mw < 0:
        raise DispatchInputError("demand must be non-negative")
    if not (0 < snsp_cap <= 1):
        raise DispatchInputError("snsp_cap must lie in (0, 1]")
    fleet = _Fleet(model)
    factors = np.array(
        [res_factors.get(gid, 1.0) for gid in fleet.gen_ids], dtype=float
    )
    if (factors < 0).any() or (factors > 1).any():
        raise DispatchInputError("availability factors must lie in [0, 1]")
    return _dispatch_hour(fleet, hour, float(demand_mw), factors, snsp_cap)


def run_year(
    model: NetworkModel,
    profile: DemandProfile,
    availability: ResAvailability,
    snsp_cap: float,
    scenario: str = "",
) -> DispatchYear:
    """8,760 independent merit-order solves assembled in hour order."""
    if not (0 < snsp_cap <= 1):
        raise DispatchInputError("snsp_cap must lie in (0, 1]")
    fleet = _Fleet(model)
    for g in model.generators:
        if g.kind in ("wind", "solar") and g.id not in availability.factors:
            raise DispatchInputError(
                f"no availability series for renewable generator {g.id}"
            )
    factor_matrix = np.ones((HOURS_PER_YEAR, len(fleet.gen_ids)))
    for j, gid in enumerate(fleet.gen_ids):
        if gid in availability.factors:
            factor_matrix[:, j] = availability.factors[gid]

    hours = tuple(
        _dispatch_hour(fleet, h, float(profile.demand_mw[h]), factor_matrix[h], snsp_cap)
        for h in range(HOURS_PER_YEAR)
    )
    return DispatchYear(
        hours=hours,
        generator_ids=fleet.gen_ids,
        snsp_cap=snsp_cap,
        scenario=scenario,
    )


def bus_injections(
    model: NetworkModel, dispatch_hour: DispatchHour, profile: DemandProfile
) -> np.ndarray:
    """Net MW injection per bus (model bus order): generation minus demand."""
    inj = np.zeros(len(model.buses))
    for g, out in zip(model.generators, dispatch_hour.outputs_mw):
        inj[model.bus_index[g.bus]] += out
    for bus_id, share in profile.bus_shares.items():
        inj[model.bus_index[bus_id]] -= share * dispatch_hour.demand_mw
    return inj


def injection_matrix(
    model: NetworkModel, year: DispatchYear, profile: DemandProfile
) -> np.ndarray:
    """Net MW injections for all hours at once, shape (8760, n_buses)."""
    n_bus = len(model.buses)
    gen_to_bus = np.zeros((len(model.generators), n_bus))
    for i, g in enumerate(model.generators):
        gen_to_bus[i, model.bus_index[g.bus]] = 1.0
    gen_by_bus = year.output_matrix @ gen_to_bus
    shares = np.zeros(n_bus)
    for bus_id, share in profile.bus_shares.items():
        shares[model.bus_index[bus_id]] = share
    demand = np.array([h.demand_mw for h in year.hours])
    return gen_by_bus - np.outer(demand, shares)


# -- CSV / JSON interfaces ---------------------------------------------------


def _hourly_series(path, columns: dict, rest=None) -> dict[str, np.ndarray]:
    """The 8,760-hour series, in hour order, of each value column of an
    hour-indexed input file; every hour must appear exactly once."""
    path = Path(path)
    names, rows = read_input(path, columns, None, DispatchInputError, rest=rest)
    by_hour = [None] * HOURS_PER_YEAR
    for row_no, row in enumerate(rows, start=2):
        hour = row[0]
        if not 0 <= hour < HOURS_PER_YEAR:
            raise DispatchInputError(f"{path} row {row_no}: hour {hour} out of range")
        if by_hour[hour] is not None:
            raise DispatchInputError(f"{path} row {row_no}: hour {hour} repeated")
        by_hour[hour] = row
    missing = by_hour.count(None)
    if missing:
        raise DispatchInputError(f"{path}: {missing} hours missing")
    series = np.array(by_hour, dtype=float)[:, 1:].T.copy()
    return dict(zip(names[1:], series))


def load_demand_profile(demand_file, shares_file, bus_ids) -> DemandProfile:
    """The demand series and its bus shares; a share on a bus not in
    ``bus_ids`` (the network's buses) is rejected at its row."""
    demand = _hourly_series(demand_file, DEMAND_COLUMNS)["demand_mw"]
    _, rows = read_input(shares_file, BUS_SHARE_COLUMNS, None, DispatchInputError)
    shares: dict[str, float] = {}
    for row_no, (bus, share) in enumerate(rows, start=2):
        if bus in shares or bus not in bus_ids:
            problem = "repeated" if bus in shares else "not in the network"
            raise DispatchInputError(
                f"{Path(shares_file)} row {row_no}: bus {bus} {problem}"
            )
        shares[bus] = share
    return DemandProfile(demand_mw=demand, bus_shares=shares)


def load_res_availability(path) -> ResAvailability:
    factors = _hourly_series(path, AVAILABILITY_COLUMNS, rest=number)
    return ResAvailability(factors=factors)


def write_dispatch_csv(year: DispatchYear, path) -> None:
    """``dispatch.csv``: each hour's row per generator, in generator order."""
    hours = np.array([str(h.hour) for h in year.hours], dtype=object)
    generators = [text_cell(gid) for gid in year.generator_ids]
    step = max(1, CHUNK_ROWS // max(1, len(generators)))  # hours per chunk
    outputs = year.output_matrix

    def chunks():
        for start in range(0, len(hours), step):
            part = slice(start, start + step)
            yield [
                np.repeat(hours[part], len(generators)).tolist(),
                generators * len(hours[part]),
                list(map(float_cell, outputs[part].ravel().tolist())),
            ]

    write_columns(path, ("hour", "generator", "output_mw"), chunks())


def write_dispatch_summary(year: DispatchYear, path, config_hash: str = "") -> None:
    summary = {
        "schema_version": 1,
        "scenario": year.scenario,
        "snsp_cap": year.snsp_cap,
        "config_hash": config_hash,
        "infeasible_hours": list(year.infeasible_hours),
        "total_curtailment_mwh": float(sum(h.curtailed_mw for h in year.hours)),
        "curtailment_mwh": [float(h.curtailed_mw) for h in year.hours],
        "snsp": [float(h.snsp) for h in year.hours],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dispatch_outputs(
    csv_path, summary_path, model: NetworkModel, profile: DemandProfile
) -> DispatchYear:
    """Rebuild the dispatch year from ``dispatch.csv`` and its summary JSON."""
    gen_pos = {gid: i for i, gid in enumerate(model.generator_ids)}
    outputs = np.zeros((HOURS_PER_YEAR, len(gen_pos)))
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header: hour, generator, output_mw
        for hour, gen, out in reader:
            outputs[int(hour), gen_pos[gen]] = float(out)
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    infeasible = set(summary["infeasible_hours"])
    hours = tuple(
        DispatchHour(
            hour=h,
            outputs_mw=outputs[h],
            demand_mw=float(profile.demand_mw[h]),
            curtailed_mw=float(summary["curtailment_mwh"][h]),
            snsp=float(summary["snsp"][h]),
            feasible=h not in infeasible,
        )
        for h in range(HOURS_PER_YEAR)
    )
    return DispatchYear(
        hours=hours,
        generator_ids=model.generator_ids,
        snsp_cap=summary["snsp_cap"],
        scenario=summary["scenario"],
    )
