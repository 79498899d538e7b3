"""Shared fixtures, independent oracles and Stage 3 on one pair.

The oracle helpers here deliberately re-derive results from first principles
(dense linear algebra, union-find graph traversal) instead of calling the
package's own machinery, so they stay valid checks of it. The Stage 3 helpers
do the opposite: they run the package's own pair grouping and sizer on one
(hour, contingency) pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from pfcplan import cases, screening, siting
from pfcplan.network import Bus, Generator, Line, NetworkModel


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
    whole set again: the reference ``stage2_scan(..., intact=...)`` must match."""
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


def assert_producers_keep_record_order(rec1, base, lodf, model, calendar, out_dir,
                                       monitored=None):
    """Stage 1's records ``rec1``, Stage 2's with and without them and the
    read-back of the workbook written from the joined set each equal
    ``in_record_order`` of themselves, bit for bit."""
    alone = screening.stage2_scan(base, lodf, model, calendar, monitored)
    joined = screening.stage2_scan(base, lodf, model, calendar, monitored, intact=rec1)
    screening.write_workbook(joined, [], {}, out_dir)
    back = screening.read_overloads_csv(f"{out_dir}/overloads.csv")
    for records in (rec1, alone, joined, back):
        same_records(records, in_record_order(records))


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
        return [], {}
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
    regional: dict[str, int] = {}
    peak = dict(zip(lines.tolist(), max_loading.tolist()))
    for i in sorted(peak, key=records.line_ids.__getitem__):
        line_id = records.line_ids[i]
        n_over = int(overload_hours[i])
        region = model.bus_by_id[model.line_by_id[line_id].from_bus].region
        summaries.append(screening.LineSummary(
            line_id=line_id,
            overload_hours=n_over,
            near_hours=int(near_hours[i]),
            max_loading_pct=peak[i],
            overload_energy_mwh=float(sum(worst[ends[i] - n_over : ends[i]])),
            contingency_count=int(contingency_count[i]),
            region=region,
        ))
        if n_over:
            regional[region] = regional.get(region, 0) + 1
    return summaries, regional


# -- independent oracles -----------------------------------------------------


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
    """Union-find components over in-service lines; independent of the BFS
    the package uses."""
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


def pair_group(model: NetworkModel, injection: np.ndarray, contingency: str | None):
    """Stage 3's pair group of one hour's injections under one contingency."""
    [group] = siting._group_pairs(
        model, {(0, contingency)}, injection[None, :], cases.flat_calendar()
    )
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
