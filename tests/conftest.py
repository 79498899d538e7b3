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


def records_from_rows(rows) -> screening.OverloadRecords:
    """Records from rows in ``OverloadRecord`` field order, in any order."""
    return screening.OverloadRecords.from_columns(*(list(zip(*rows)) or [()] * 6))


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
