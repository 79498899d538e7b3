"""Topology-only sensitivity matrices for N-1 screening.

PTDF (generation shift factors): MW change on each line per MW injected at a
bus and withdrawn at the slack. LODF (line outage shift factors): fraction of
an outaged line's pre-contingency flow that lands on each other line. Both
depend only on topology, so they are computed once per topology and reused
across all 8,760 hourly operating points.

LODF(l, k) = phi(l, k) / (1 - phi(k, k)) where phi(m, k) is the PTDF of line m
for a unit transfer from k's from-bus to k's to-bus. The columns of the graph's
bridges (``NetworkModel.bridges``), which island part of the network, are
marked rather than filled; any other outage too close to singular is refused.
By convention LODF(k, k) = -1: a line's own post-outage flow is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcflow import IslandingError, SingularSystemError, SusceptanceSystem
from .network import NetworkModel

# an outage with 1 - phi(k,k) below this times the reactance spread (largest /
# smallest) is refused: its column's error, ~1e-16 * spread / (1 - phi(k,k)), passes 1e-7
MIN_SELF_MARGIN_PER_SPREAD = 1e-9


@dataclass(frozen=True)
class PtdfMatrix:
    """Dense lines x buses matrix of slack-referenced injection factors."""

    matrix: np.ndarray
    line_ids: tuple[str, ...]
    bus_ids: tuple[str, ...]

    def entry(self, line_id: str, bus_id: str) -> float:
        return float(
            self.matrix[self.line_ids.index(line_id), self.bus_ids.index(bus_id)]
        )


@dataclass(frozen=True)
class LodfMatrix:
    """Dense monitored-lines x outage-lines matrix with islanding marks.

    Columns flagged in ``islanding`` are the graph's bridges; their numeric
    entries are NaN and must not be used. No other column is near singular.
    """

    matrix: np.ndarray
    line_ids: tuple[str, ...]
    islanding: np.ndarray  # bool per outage column

    def entry(self, line_id: str, outage_id: str) -> float:
        k = self.line_ids.index(outage_id)
        if self.islanding[k]:
            raise IslandingError(outage_id)
        return float(self.matrix[self.line_ids.index(line_id), k])

    def is_islanding(self, outage_id: str) -> bool:
        return bool(self.islanding[self.line_ids.index(outage_id)])

    def non_islanding_outages(self) -> tuple[str, ...]:
        return tuple(
            lid for lid, isl in zip(self.line_ids, self.islanding) if not isl
        )


def compute_ptdf(system: SusceptanceSystem, model: NetworkModel) -> PtdfMatrix:
    """PTDF via one back substitution per non-slack bus against the shared LU."""
    n = system.n_buses
    # angle response to a unit injection at each non-slack bus
    rhs = np.eye(n - 1)
    theta_red = system.lu.solve(rhs)
    theta = np.zeros((n, n))
    theta[np.ix_(system.non_slack, system.non_slack)] = theta_red
    ptdf = system.susceptance[:, None] * (
        theta[system.from_idx, :] - theta[system.to_idx, :]
    )
    # exact zeros on the slack column, not just tiny residue
    ptdf[:, system.slack_index] = 0.0
    return PtdfMatrix(matrix=ptdf, line_ids=system.line_ids, bus_ids=model.bus_ids)


def line_transfer_factors(ptdf: PtdfMatrix, model: NetworkModel) -> np.ndarray:
    """phi[m, k]: flow on line m for a unit transfer across line k's terminals."""
    bus_pos = {bid: i for i, bid in enumerate(ptdf.bus_ids)}
    from_cols = np.array(
        [bus_pos[model.line_by_id[lid].from_bus] for lid in ptdf.line_ids]
    )
    to_cols = np.array(
        [bus_pos[model.line_by_id[lid].to_bus] for lid in ptdf.line_ids]
    )
    return ptdf.matrix[:, from_cols] - ptdf.matrix[:, to_cols]


def compute_lodf(ptdf: PtdfMatrix, model: NetworkModel) -> LodfMatrix:
    phi = line_transfer_factors(ptdf, model)
    islanding = np.array([lid in model.bridges for lid in ptdf.line_ids], dtype=bool)
    safe = np.where(islanding, 1.0, 1.0 - np.diag(phi))
    x = [ln.reactance_pu for ln in model.in_service_lines] or [1.0]
    bound = MIN_SELF_MARGIN_PER_SPREAD * max(x) / min(x)
    if safe.size and safe.min() < bound:
        k = int(safe.argmin())
        raise SingularSystemError(f"outage of line {ptdf.line_ids[k]} leaves a system too close"
                                  f" to singular: 1 - phi(k,k) = {safe[k]:.3g} < {bound:.3g}")
    lodf = phi / safe[None, :]
    np.fill_diagonal(lodf, -1.0)
    lodf[:, islanding] = np.nan
    return LodfMatrix(matrix=lodf, line_ids=ptdf.line_ids, islanding=islanding)

