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

Hours where demand cannot be met, or where running floors exceed it, are
recorded as infeasible instead of aborting the year; downstream stages skip
them.

One kernel (``_dispatch``) walks the merit order once over all hours, each
step masked to the hours it applies to, so an hour gets the same bits whether
``merit_order_dispatch`` solves it alone or ``run_year`` in the year.

A year is held as columns (``DispatchYear``). ``dispatch.csv`` holds one row
per (hour, generator), in hour order. It is written through
``tables.write_columns`` from ``DispatchYear.outputs_mw``, a few thousand rows
at a time, each output as its repr, and read back a chunk at a time by
``tables.read_chunks``; the other columns go to the summary JSON, so a year
read back equals the computed one bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .network import HOURS_PER_YEAR, NetworkModel
from .tables import (
    CHUNK_ROWS, float_cell, number, read_chunks, read_columns, text, text_cell,
    write_columns,
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
        # an hour's injections miss balance by the shares' error times its
        # demand, and screening refuses a miss above 1e-6 MW
        error = abs(float(shares.sum()) - 1.0)
        if error > 1e-9 or error * demand.max() > BALANCE_TOL_MW:
            raise DispatchInputError(
                f"bus shares must sum to 1, got {float(shares.sum())!r}"
            )


# demand.csv (one row per hour) and bus_shares.csv columns: header -> parser
DEMAND_COLUMNS = {"hour": int, "demand_mw": number}
BUS_SHARE_COLUMNS = {"bus": text, "share": number}
# dispatch.csv columns, one row per (hour, generator)
DISPATCH_COLUMNS = {"hour": int, "generator": text, "output_mw": number}


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
    """One hour's solve, outputs in model generator order: the result of
    ``merit_order_dispatch``."""

    outputs_mw: np.ndarray
    curtailed_mw: float
    snsp: float
    feasible: bool
    deficit_mw: float


@dataclass(frozen=True)
class DispatchYear:
    """The 8,760 hours as columns, one row per hour: generator outputs (hours
    x generators, model generator order), curtailed MW, SNSP and whether the
    hour could be dispatched. An infeasible hour has zero outputs."""

    outputs_mw: np.ndarray
    curtailed_mw: np.ndarray
    snsp: np.ndarray
    feasible: np.ndarray
    generator_ids: tuple[str, ...]
    snsp_cap: float
    scenario: str = ""

    def __post_init__(self):
        columns = (self.outputs_mw, self.curtailed_mw, self.snsp, self.feasible)
        if any(len(c) != HOURS_PER_YEAR for c in columns):
            raise DispatchInputError(
                f"a dispatch year needs exactly {HOURS_PER_YEAR} hours"
            )

    @cached_property
    def infeasible_hours(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.feasible).tolist())

    @cached_property
    def feasible_hours(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.feasible).tolist())


class _Fleet:
    """Static per-fleet arrays shared by every hourly solve."""

    def __init__(self, model: NetworkModel):
        gens = model.generators
        self.gen_ids = model.generator_ids
        self.renewable = [g.id for g in gens if g.kind in ("wind", "solar")]
        self.nonsync = np.array([not g.synchronous for g in gens], dtype=bool)
        self.p_max = np.array([g.p_max_mw for g in gens])
        self.p_min = np.array([g.p_min_mw for g in gens])
        self.srmc = np.array([g.srmc for g in gens])
        thermal = np.flatnonzero(~self.nonsync)
        order = sorted(thermal, key=lambda i: (self.srmc[i], self.gen_ids[i]))
        self.merit_order = np.array(order, dtype=int)
        self.thermal_cap = float(self.p_max[thermal].sum()) if thermal.size else 0.0

    def check_availability_ids(self, ids) -> None:
        """Refuse an availability id that names no wind or solar generator."""
        if extra := sorted(set(ids) - set(self.renewable)):
            raise DispatchInputError(
                f"availability for no wind or solar generator: {extra[0]}"
            )


def _dispatch(
    fleet: _Fleet, demand: np.ndarray, factors: np.ndarray, snsp_cap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merit-order solve of every hour at once: ``demand`` per hour and the
    availability ``factors`` (hours x generators) give each hour's outputs,
    curtailed MW, SNSP, feasibility and deficit (negative for
    over-generation). An infeasible hour has zero outputs, curtailment and
    SNSP."""
    if not (0 < snsp_cap <= 1):
        raise DispatchInputError("snsp_cap must lie in (0, 1]")
    nonsync, p_max, p_min = fleet.nonsync, fleet.p_max, fleet.p_min
    outputs = np.zeros(factors.shape)

    available = np.where(nonsync, factors * p_max, 0.0)
    total_available = available.sum(axis=1)
    res_target = np.minimum(np.minimum(total_available, snsp_cap * demand), demand)
    residual = demand - res_target
    feasible = ~(fleet.thermal_cap < residual - BALANCE_TOL_MW)
    deficit = np.where(feasible, 0.0, residual - fleet.thermal_cap)

    res_share = np.divide(res_target, total_available, out=np.zeros_like(demand),
                          where=total_available > 0.0)
    outputs[:, nonsync] = available[:, nonsync] * res_share[:, None]

    # merit-order fill of the thermal residual, one unit at a time over the
    # hours still short (a cumsum over the units would round differently)
    remaining = residual.copy()
    marginal = np.full(len(demand), -1)
    for i in fleet.merit_order:
        on = remaining > 0.0
        take = np.minimum(p_max[i], remaining[on])
        outputs[on, i] = take
        remaining[on] -= take
        marginal[on] = i

    # p_min is a clamp on the marginal unit only; the surplus comes back from
    # cheaper running units (down to their own floors), then from extra RES
    # curtailment
    hours = np.flatnonzero(marginal >= 0)
    unit = marginal[hours]
    below = (0.0 < outputs[hours, unit]) & (outputs[hours, unit] < p_min[unit])
    hours, unit = hours[below], unit[below]
    surplus = p_min[unit] - outputs[hours, unit]
    outputs[hours, unit] = p_min[unit]
    for i in fleet.merit_order[::-1]:
        cut_from = (surplus > 0.0) & (unit != i) & (outputs[hours, i] > 0.0)
        room = outputs[hours[cut_from], i] - p_min[i]
        cut = np.minimum(room, surplus[cut_from])
        outputs[hours[cut_from], i] -= cut
        surplus[cut_from] -= cut
    spill = (surplus > BALANCE_TOL_MW) & (res_target[hours] > 0.0)
    target = res_target[hours[spill]]
    cut = np.minimum(target, surplus[spill])
    outputs[np.ix_(hours[spill], nonsync)] *= ((target - cut) / target)[:, None]
    surplus[spill] -= cut
    # running floors exceed demand: over-generation infeasibility
    over = surplus > BALANCE_TOL_MW
    feasible[hours[over]] = False
    deficit[hours[over]] = -surplus[over]

    outputs[~feasible] = 0.0
    res_output = outputs[:, nonsync].sum(axis=1)
    curtailed = np.where(feasible, np.maximum(total_available - res_output, 0.0), 0.0)
    snsp = np.divide(res_output, demand, out=np.zeros_like(demand),
                     where=feasible & (demand > 0))
    return outputs, curtailed, snsp, feasible, deficit


def merit_order_dispatch(
    model: NetworkModel,
    demand_mw: float,
    res_factors: dict[str, float],
    snsp_cap: float,
) -> DispatchHour:
    """Solve a single hour. ``res_factors`` maps wind and solar generator ids
    to availability in [0, 1], and any other id is refused; non-synchronous
    units without an entry count as fully available."""
    if demand_mw < 0:
        raise DispatchInputError("demand must be non-negative")
    fleet = _Fleet(model)
    fleet.check_availability_ids(res_factors)
    factors = np.array(
        [[res_factors.get(gid, 1.0) for gid in fleet.gen_ids]], dtype=float
    )
    if (factors < 0).any() or (factors > 1).any():
        raise DispatchInputError("availability factors must lie in [0, 1]")
    outputs, *scalars = _dispatch(
        fleet, np.array([demand_mw], dtype=float), factors, snsp_cap
    )
    return DispatchHour(outputs[0], *(column.item() for column in scalars))


def run_year(
    model: NetworkModel,
    profile: DemandProfile,
    availability: ResAvailability,
    snsp_cap: float,
    scenario: str = "",
) -> DispatchYear:
    """The year's merit-order dispatch, every hour on its own inputs, in one
    pass; each wind and solar generator has one availability series, and no other."""
    fleet = _Fleet(model)
    if missing := [gid for gid in fleet.renewable if gid not in availability.factors]:
        raise DispatchInputError(
            f"no availability series for renewable generator {missing[0]}"
        )
    fleet.check_availability_ids(availability.factors)
    factor_matrix = np.ones((HOURS_PER_YEAR, len(fleet.gen_ids)))
    for j, gid in enumerate(fleet.gen_ids):
        if gid in availability.factors:
            factor_matrix[:, j] = availability.factors[gid]
    outputs, curtailed, snsp, feasible, _ = _dispatch(
        fleet, profile.demand_mw, factor_matrix, snsp_cap
    )
    return DispatchYear(
        outputs, curtailed, snsp, feasible, fleet.gen_ids, snsp_cap, scenario
    )


def injection_matrix(
    model: NetworkModel, year: DispatchYear, profile: DemandProfile
) -> np.ndarray:
    """Net MW injections for all hours at once, shape (8760, n_buses)."""
    n_bus = len(model.buses)
    gen_to_bus = np.zeros((len(model.generators), n_bus))
    for i, g in enumerate(model.generators):
        gen_to_bus[i, model.bus_index[g.bus]] = 1.0
    gen_by_bus = year.outputs_mw @ gen_to_bus
    shares = np.zeros(n_bus)
    for bus_id, share in profile.bus_shares.items():
        shares[model.bus_index[bus_id]] = share
    return gen_by_bus - np.outer(profile.demand_mw, shares)


# -- CSV / JSON interfaces ---------------------------------------------------


def _hourly_series(path, columns: dict, rest=None) -> dict[str, np.ndarray]:
    """The 8,760-hour series, in hour order, of each value column of an
    hour-indexed input file; every hour must appear exactly once."""
    path = Path(path)
    table = read_columns(path, columns, DispatchInputError, rest=rest)
    hour = table.pop("hour")
    # the first row whose hour is out of range or on an earlier row
    repeated = np.ones(len(hour), dtype=bool)
    repeated[np.unique(hour, return_index=True)[1]] = False
    out_of_range = (hour < 0) | (hour >= HOURS_PER_YEAR)
    for row in np.flatnonzero(out_of_range | repeated)[:1].tolist():
        problem = "out of range" if out_of_range[row] else "repeated"
        raise DispatchInputError(f"{path} row {row + 2}: hour {hour[row]} {problem}")
    if len(hour) < HOURS_PER_YEAR:
        raise DispatchInputError(f"{path}: {HOURS_PER_YEAR - len(hour)} hours missing")
    order = np.argsort(hour)
    return {name: column[order] for name, column in table.items()}


def load_demand_profile(demand_file, shares_file, bus_ids) -> DemandProfile:
    """The demand series and its bus shares; a share on a bus not in
    ``bus_ids`` (the network's buses) is rejected at its row."""
    demand = _hourly_series(demand_file, DEMAND_COLUMNS)["demand_mw"]
    table = read_columns(shares_file, BUS_SHARE_COLUMNS, DispatchInputError)
    shares: dict[str, float] = {}
    rows = zip(table["bus"].tolist(), table["share"].tolist())
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
    hours = np.array([str(h) for h in range(HOURS_PER_YEAR)], dtype=object)
    generators = [text_cell(gid) for gid in year.generator_ids]
    step = max(1, CHUNK_ROWS // max(1, len(generators)))  # hours per chunk
    outputs = year.outputs_mw

    def chunks():
        for start in range(0, len(hours), step):
            part = slice(start, start + step)
            yield [
                np.repeat(hours[part], len(generators)).tolist(),
                generators * len(hours[part]),
                list(map(float_cell, outputs[part].ravel().tolist())),
            ]

    write_columns(path, DISPATCH_COLUMNS, chunks())


def write_dispatch_summary(year: DispatchYear, path, config_hash: str = "") -> None:
    curtailed = year.curtailed_mw.tolist()
    summary = {
        "schema_version": 1,
        "scenario": year.scenario,
        "snsp_cap": year.snsp_cap,
        "config_hash": config_hash,
        "infeasible_hours": list(year.infeasible_hours),
        # summed in hour order, as a Python sum, so the digits do not depend
        # on numpy's pairwise summation
        "total_curtailment_mwh": float(sum(curtailed)),
        "curtailment_mwh": curtailed,
        "snsp": year.snsp.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dispatch_outputs(csv_path, summary_path, model: NetworkModel) -> DispatchYear:
    """Rebuild the dispatch year from ``dispatch.csv`` and its summary JSON."""
    gen_pos = {gid: i for i, gid in enumerate(model.generator_ids)}
    outputs = np.zeros((HOURS_PER_YEAR, len(gen_pos)))
    for chunk in read_chunks(csv_path, DISPATCH_COLUMNS, DispatchInputError):
        generator = chunk["generator"]
        generator = np.fromiter(map(gen_pos.__getitem__, generator), int, len(generator))
        outputs[chunk["hour"], generator] = chunk["output_mw"]
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    feasible = np.ones(HOURS_PER_YEAR, dtype=bool)
    feasible[summary["infeasible_hours"]] = False
    return DispatchYear(
        outputs_mw=outputs,
        curtailed_mw=np.array(summary["curtailment_mwh"], dtype=float),
        snsp=np.array(summary["snsp"], dtype=float),
        feasible=feasible,
        generator_ids=model.generator_ids,
        snsp_cap=summary["snsp_cap"],
        scenario=summary["scenario"],
    )
