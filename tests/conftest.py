"""Shared fixtures, independent oracles and Stage 3 on one pair.

The oracle helpers here deliberately re-derive results from first principles
(dense linear algebra, union-find graph traversal) instead of calling the
package's own machinery, so they stay valid checks of it. The Stage 3 helpers
do the opposite: they run the package's own sizer on one (hour, contingency)
pair, grouped by ``group_pairs``, the pair-at-a-time reference for
``siting.pair_table``'s groups.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from pfcplan import cases, screening, siting
from pfcplan.cli import Study
from pfcplan.config import load_config
from pfcplan.dcflow import IslandingError, build_system, check_outage, reduced_injections
from pfcplan.dispatch import run_year
from pfcplan.network import HOURS_PER_YEAR, Bus, Generator, Line, NetworkModel, effective_ratings
from pfcplan.shift_factors import compute_lodf, compute_ptdf


RECORD_COLUMNS = ("line", "hour", "contingency", "loading_pct", "excess_mw", "overload")


def in_record_order(records: screening.OverloadRecords) -> screening.OverloadRecords:
    """The records sorted by hour, contingency id (the intact network first)
    and line id through one stable sort of an int64 key: the reference order
    every producer of ``OverloadRecords`` must hand its columns in."""
    n = len(records.line_ids)
    rank = np.empty(n + 1, dtype=np.int64)
    rank[sorted(range(n), key=records.line_ids.__getitem__)] = np.arange(n)
    rank[-1] = -1  # the intact network sorts first
    # (hour, contingency rank + 1, line rank) in base n + 1
    key = records.hour.astype(np.int64) * (n + 1) + rank[records.contingency] + 1
    key = key * (n + 1) + rank[records.line]
    perm = np.argsort(key, kind="stable")
    return screening.OverloadRecords(
        records.line_ids, *(getattr(records, name)[perm] for name in RECORD_COLUMNS)
    )


def records_from_rows(rows) -> screening.OverloadRecords:
    """Records from rows in ``OverloadRecord`` field order, in any order."""
    return in_record_order(
        screening.OverloadRecords.from_columns(*(list(zip(*rows)) or [()] * 6))
    )


def concat_records(
    first: screening.OverloadRecords, second: screening.OverloadRecords
) -> screening.OverloadRecords:
    """Two record sets as one, by concatenating every column and sorting the
    whole set again: the reference order of a joined screen."""
    known = set(first.line_ids)
    line_ids = first.line_ids + tuple(lid for lid in second.line_ids if lid not in known)
    pos = {lid: i for i, lid in enumerate(line_ids)}
    remap = np.array([pos[lid] for lid in second.line_ids] + [-1], dtype=np.int32)
    return in_record_order(screening.OverloadRecords(
        line_ids,
        np.concatenate([first.line, remap[second.line]]),
        np.concatenate([first.hour, second.hour]),
        np.concatenate([first.contingency, remap[second.contingency]]),
        np.concatenate([first.loading_pct, second.loading_pct]),
        np.concatenate([first.excess_mw, second.excess_mw]),
        np.concatenate([first.overload, second.overload]),
    ))


def same_records(got: screening.OverloadRecords, expected: screening.OverloadRecords) -> None:
    """The two record sets hold the same line table and columns, bit for bit."""
    assert got.line_ids == expected.line_ids
    for name in RECORD_COLUMNS:
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name


def select_records(
    records: screening.OverloadRecords, keep: np.ndarray
) -> screening.OverloadRecords:
    """The records where ``keep`` holds, in their order."""
    return screening.OverloadRecords(
        records.line_ids, *(getattr(records, name)[keep] for name in RECORD_COLUMNS)
    )


def outage_records(records: screening.OverloadRecords) -> screening.OverloadRecords:
    """A screen's post-outage records: all but the intact network's."""
    return select_records(records, records.contingency >= 0)


def cli_screens(year, model, system, profile, calendar, lodf):
    """The screen as ``pfcplan screen`` runs it, monitoring every line,
    every other line id, and every line with ``screen_from_stage1`` (Stage 2
    over the lines Stage 1 flagged): Stage 1's records and the screen's
    record set of each."""
    every_other = set(sorted(system.line_ids)[::2])
    for monitored, from_stage1 in ((None, False), (every_other, False), (None, True)):
        rec1, base = screening.stage1_scan(year, model, system, profile, calendar, monitored)
        if from_stage1:
            monitored = set(rec1.lines())
        yield rec1, screening.stage2_scan(base, lodf, model, calendar, monitored)


def assert_producers_keep_record_order(rec1, base, lodf, model, calendar, out_dir,
                                       monitored=None):
    """Stage 1's records ``rec1``, the screen's and the read-back of the
    workbook written from the screen's each equal ``in_record_order`` of
    themselves, bit for bit."""
    records = screening.stage2_scan(base, lodf, model, calendar, monitored)
    screening.write_workbook(records, [], out_dir)
    back = screening.read_overloads_csv(f"{out_dir}/overloads.csv")
    for each in (rec1, records, back):
        same_records(each, in_record_order(each))


def left_fold(values) -> float:
    """The floats added one at a time from 0.0, left to right: the bits of
    every written sum, whatever the Python version (its ``sum`` compensates
    float sums from 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _group_max(keys: np.ndarray, values: np.ndarray):
    """The distinct non-negative keys, ascending, and each one's largest value."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.maximum.reduceat(values[order], starts)


def summarize_by_sorting(records: screening.OverloadRecords, model):
    """``screening.summarize`` by comparison sorts and ``np.unique`` over
    integer (line, hour) and (line, contingency) keys: the reference the
    run-boundary rollup must match bit for bit."""
    if not len(records):
        return []
    n_ids = len(records.line_ids)
    line, over = records.line.astype(np.int64), records.overload  # keys below pass 2**31
    lines, max_loading = _group_max(line, records.loading_pct)
    stride = int(records.hour.max()) + 1
    hour_key = line * stride + records.hour
    pairs, worst = _group_max(hour_key[over], records.excess_mw[over])
    overload_hours = np.bincount(pairs // stride, minlength=n_ids)
    near_hours = np.bincount(np.unique(hour_key[~over]) // stride, minlength=n_ids)
    outage = over & (records.contingency >= 0)
    ctg_pairs = np.unique(line[outage] * n_ids + records.contingency[outage])
    contingency_count = np.bincount(ctg_pairs // n_ids, minlength=n_ids)
    worst = np.maximum(worst, 0.0).tolist()
    ends = np.cumsum(overload_hours).tolist()

    summaries = []
    peak = dict(zip(lines.tolist(), max_loading.tolist()))
    for i in sorted(peak, key=records.line_ids.__getitem__):
        line_id = records.line_ids[i]
        n_over = int(overload_hours[i])
        summaries.append(screening.LineSummary(
            line_id=line_id,
            overload_hours=n_over,
            near_hours=int(near_hours[i]),
            max_loading_pct=peak[i],
            overload_energy_mwh=left_fold(worst[ends[i] - n_over : ends[i]]),
            contingency_count=int(contingency_count[i]),
            region=model.bus_by_id[model.line_by_id[line_id].from_bus].region,
        ))
    return summaries


# -- independent oracles -----------------------------------------------------


def effective_rating(line: Line, hour: int, calendar) -> float:
    """The derated MW rating of one line in one hour, seasonal * (1 - derate):
    the scalar reference for ``network.effective_ratings``."""
    if not 0 <= hour < HOURS_PER_YEAR:
        raise ValueError(f"hour {hour} outside [0, {HOURS_PER_YEAR})")
    seasonal = line.rating_summer_mw if calendar.summer_mask[hour] else line.rating_winter_mw
    return seasonal * (1.0 - calendar.derate_factor)


def reduced_matrix(system) -> sp.csc_matrix:
    """The matrix a ``SusceptanceSystem`` factorized, as a CSC matrix over
    its read-only ``data``, ``indices`` and ``indptr``."""
    n = len(system.non_slack)
    return sp.csc_matrix((system.data, system.indices, system.indptr), shape=(n, n))


def post_contingency_flows(base, lodf, outage_line: str) -> np.ndarray:
    """MW line flows after an outage, from a ``FlowSolution`` and the LODF
    column: flow'(l) = flow(l) + LODF(l, k) * flow(k), the outaged line
    itself carrying zero. Islanding-marked outages are refused."""
    if base.line_ids != lodf.line_ids:
        raise ValueError("base solution and LODF cover different line sets")
    k = lodf.line_ids.index(outage_line)
    if lodf.islanding[k]:
        raise IslandingError(outage_line)
    flows = base.flows_mw + lodf.matrix[:, k] * base.flows_mw[k]
    flows[k] = 0.0
    return flows


def dense_dc_flows(model: NetworkModel, injections_mw: np.ndarray) -> dict[str, float]:
    """Dense, from-scratch DC solve used as the oracle for the sparse path."""
    n = len(model.buses)
    pos = {b.id: i for i, b in enumerate(model.buses)}
    B = np.zeros((n, n))
    lines = [ln for ln in model.lines if ln.in_service]
    for ln in lines:
        b = 1.0 / ln.reactance_pu
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        B[i, i] += b
        B[j, j] += b
        B[i, j] -= b
        B[j, i] -= b
    slack = pos[model.slack_bus]
    keep = [i for i in range(n) if i != slack]
    theta = np.zeros(n)
    theta[keep] = np.linalg.solve(
        B[np.ix_(keep, keep)], np.asarray(injections_mw, float)[keep] / model.system_base_mva
    )
    return {
        ln.id: (theta[pos[ln.from_bus]] - theta[pos[ln.to_bus]])
        / ln.reactance_pu
        * model.system_base_mva
        for ln in lines
    }


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def connected_components(model: NetworkModel, skip_line: str | None = None):
    """Union-find components over in-service lines; independent of the
    depth-first bridge search the package uses."""
    uf = UnionFind([b.id for b in model.buses])
    for ln in model.lines:
        if ln.in_service and ln.id != skip_line:
            uf.union(ln.from_bus, ln.to_bus)
    groups: dict[str, set[str]] = {}
    for b in model.buses:
        groups.setdefault(uf.find(b.id), set()).add(b.id)
    return list(groups.values())


def graph_bridges(model: NetworkModel) -> set[str]:
    """Bridges by the definition: removal increases the component count."""
    base = len(connected_components(model))
    return {
        ln.id
        for ln in model.lines
        if ln.in_service and len(connected_components(model, skip_line=ln.id)) > base
    }


def balanced_injection(rng: np.random.Generator, n: int, scale: float = 50.0) -> np.ndarray:
    inj = rng.normal(0.0, scale, size=n)
    inj[0] -= inj.sum()
    return inj


# -- Stage 3 on one (hour, contingency) pair ---------------------------------


def group_pairs(
    model: NetworkModel,
    pairs: set[tuple[int, str | None]],
    injections: np.ndarray,
    calendar,
) -> list[siting._PairGroup]:
    """Stage 3's pair groups of (hour, contingency) pairs, one pair at a time:
    pairs sorted by contingency id (the intact network first) and hour, and
    grouped by contingency, season and the bytes of the hour's injections;
    each group checks its contingency and reduces its first hour's
    injections. The reference for ``siting.pair_table``'s groups."""
    hours: dict[tuple, list[int]] = {}
    for hour, contingency in sorted(pairs, key=lambda p: (p[1] or "", p[0])):
        if not 0 <= hour < HOURS_PER_YEAR:
            raise ValueError(f"hour {hour} outside [0, {HOURS_PER_YEAR})")
        key = (contingency, bool(calendar.summer_mask[hour]), injections[hour].tobytes())
        hours.setdefault(key, []).append(hour)
    summer, winter = effective_ratings(model, model.in_service_line_ids, calendar)
    summer.flags.writeable = winter.flags.writeable = False
    groups = []
    for (contingency, is_summer, _), group in hours.items():
        outage = -1
        if contingency is not None:
            check_outage(model, contingency)
            outage = model.in_service_line_ids.index(contingency)
        groups.append(siting._PairGroup(
            hours=group,
            contingency=contingency,
            rhs=reduced_injections(model, injections[group[0]]),
            outage=outage,
            ratings=summer if is_summer else winter,
        ))
    return groups


def pair_group(model: NetworkModel, injection: np.ndarray, contingency: str | None):
    """Stage 3's pair group of one hour's injections under one contingency."""
    [group] = group_pairs(model, {(0, contingency)}, injection[None, :], cases.flat_calendar())
    return group


def min_reactance_increase(
    model: NetworkModel,
    injection: np.ndarray,
    contingency: str | None,
    candidate: siting.PfcCandidate,
    rating_mw: float,
    cap_pct: float = siting.CAP_PCT_DEFAULT,
    tol_pp: float = siting.BISECTION_TOL_PP,
) -> float | None:
    """Smallest reactance increase (percent) that brings the target's flow
    within the rating: Stage 3's bisection against exact re-solves, on one pair.

    Returns 0.0 when no increase is needed and None when even the cap fails.
    The returned value satisfies the rating while a value one tolerance step
    lower does not.
    """
    group = pair_group(model, injection, contingency)
    [(delta, _, _)] = siting._size_increases(
        model, [(group, rating_mw)], candidate, cap_pct, tol_pp
    )
    return delta


# -- canonical models --------------------------------------------------------


@pytest.fixture
def triangle():
    return cases.triangle()


@pytest.fixture
def mesh6():
    return cases.mesh6()


@pytest.fixture
def grid30():
    return cases.grid30()


@pytest.fixture
def radial_pair():
    return cases.radial_pair()


LATTICE = Path(__file__).resolve().parents[1] / "bench" / "lattice.py"


@pytest.fixture(scope="session")
def lattice_year(tmp_path_factory):
    """``bench/lattice.py``'s 8x9 lattice at 1.6x ratings, seed 1, loaded and
    dispatched as ``run-all`` would: what ``stage1_scan`` takes, in its
    order (year, model, system, profile, calendar)."""
    spec = importlib.util.spec_from_file_location("lattice", LATTICE)
    lattice = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lattice)
    root = tmp_path_factory.mktemp("lattice")
    lattice.write_lattice_inputs(root / "inputs", 8, 9, 1, 1.6)
    (root / "study.json").write_text(json.dumps({
        "inputs": {name: f"inputs/{name}.csv" for name in lattice.INPUT_NAMES},
        "slack_bus": lattice.slack_bus(8, 9),
    }))
    cfg = load_config(root / "study.json")
    study = Study(cfg)
    model, profile = study.model, study.profile
    year = run_year(model, profile, study.availability, cfg.snsp_cap)
    return year, model, build_system(model), profile, cfg.calendar()


# near 55% on the lattice year: 355,883 records, 10.3 MB of columns; Stage 1
# finds 852 of them, on 8 lines
LOWERED_NEAR_PCT = 55.0


@pytest.fixture(scope="session")
def lattice_screen(lattice_year):
    """The lattice year's Stage 1 records at ``LOWERED_NEAR_PCT``, base
    flows, LODF, model and calendar."""
    year, model, system, profile, calendar = lattice_year
    rec1, base = screening.stage1_scan(year, model, system, profile, calendar,
                                       near_pct=LOWERED_NEAR_PCT)
    return rec1, base, compute_lodf(compute_ptdf(system, model), model), model, calendar


def two_bus_model(x: float = 0.1, rating: float = 100.0) -> NetworkModel:
    return NetworkModel(
        buses=(
            Bus("B1", "Bus 1", 110.0, "West"),
            Bus("B2", "Bus 2", 110.0, "East"),
        ),
        lines=(Line("L1", "B1", "B2", x, rating, rating),),
        generators=(
            Generator("G1", "B1", "thermal", 200.0, 0.0, 10.0, True),
        ),
        slack_bus="B1",
    )


def fleet_model(gens) -> NetworkModel:
    """Two buses and one line around a fleet; every generator bus exists."""
    buses = tuple(Bus(f"B{i}", f"B{i}", 110.0, "W") for i in (1, 2))
    lines = (Line("L1", "B1", "B2", 0.1, 1000.0, 1000.0),)
    return NetworkModel(buses=buses, lines=lines, generators=tuple(gens), slack_bus="B1")
