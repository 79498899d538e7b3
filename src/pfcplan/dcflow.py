"""Linearized (DC) power flow.

Classic lossless DC assumptions: flat 1 pu voltage profile, resistance and
reactive power ignored, small angle differences. Bus angles solve B * theta = P
on the slack-reduced nodal susceptance matrix; line flow is
(theta_from - theta_to) / x, rescaled to MW on the system base.

The susceptance system is factorized once per topology (sparse LU) and reused
for every hour of the study year; each solve only does back substitution into
a private right-hand-side workspace, so concurrent solves are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .network import NetworkModel, islanded_buses

# a reduced-system pivot below this fraction of the largest matrix entry is
# treated as singular (an undetected island)
SINGULARITY_TOL = 1e-12

# injections must balance to zero; anything under this is absorbed by the slack
RESIDUAL_TOL_MW = 1e-6


class SingularSystemError(RuntimeError):
    """The reduced susceptance matrix is numerically singular."""


class IslandingError(RuntimeError):
    """A line outage would split the network."""

    def __init__(self, line_id: str, separated: set[str]):
        self.line_id = line_id
        self.separated = set(separated)
        super().__init__(
            f"outage of line {line_id} islands buses "
            + "{" + ", ".join(sorted(self.separated)) + "}"
        )


@dataclass(frozen=True)
class SusceptanceSystem:
    """Factorized slack-reduced susceptance system for one topology.

    Immutable after construction. ``lu`` solves the reduced system; the line
    arrays describe the in-service lines (minus any excluded outage) in model
    order and are what flow reconstruction uses.
    """

    model: NetworkModel
    lu: object  # SuperLU factorization of the reduced matrix
    reduced: sp.csc_matrix
    slack_index: int
    non_slack: np.ndarray  # bus positions kept in the reduced system
    line_ids: tuple[str, ...]
    from_idx: np.ndarray
    to_idx: np.ndarray
    susceptance: np.ndarray  # 1/x per line

    @property
    def n_buses(self) -> int:
        return len(self.model.buses)


def susceptance_matrix(
    model: NetworkModel,
    exclude_line: str | None = None,
    reactance_scale: dict[str, float] | None = None,
) -> sp.csc_matrix:
    """Full (unreduced) nodal susceptance matrix B.

    B[i, i] = sum of 1/x over lines at bus i, B[i, j] = -sum of 1/x over lines
    between i and j. Out-of-service lines and ``exclude_line`` are skipped;
    ``reactance_scale`` multiplies selected line reactances (PFC perturbation).
    """
    n = len(model.buses)
    idx = model.bus_index
    rows, cols, vals = [], [], []
    for ln in model.in_service_lines:
        if ln.id == exclude_line:
            continue
        x = ln.reactance_pu
        if reactance_scale and ln.id in reactance_scale:
            x = x * reactance_scale[ln.id]
        b = 1.0 / x
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [b, b, -b, -b]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def build_system(
    model: NetworkModel,
    exclude_line: str | None = None,
    reactance_scale: dict[str, float] | None = None,
) -> SusceptanceSystem:
    """Assemble and factorize the slack-reduced susceptance system."""
    n = len(model.buses)
    slack = model.bus_index[model.slack_bus]
    full = susceptance_matrix(model, exclude_line, reactance_scale)
    keep = np.array([i for i in range(n) if i != slack], dtype=int)
    reduced = full[np.ix_(keep, keep)].tocsc()

    try:
        lu = splu(reduced)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from None
    u_diag = np.abs(lu.U.diagonal())
    scale = np.abs(reduced).max() if reduced.nnz else 0.0
    if scale == 0.0 or u_diag.min() < SINGULARITY_TOL * scale:
        raise SingularSystemError(
            "reduced susceptance matrix is singular; the network is "
            "effectively disconnected"
        )

    lines = [ln for ln in model.in_service_lines if ln.id != exclude_line]
    suscept = []
    for ln in lines:
        x = ln.reactance_pu
        if reactance_scale and ln.id in reactance_scale:
            x = x * reactance_scale[ln.id]
        suscept.append(1.0 / x)
    return SusceptanceSystem(
        model=model,
        lu=lu,
        reduced=reduced,
        slack_index=slack,
        non_slack=keep,
        line_ids=tuple(ln.id for ln in lines),
        from_idx=np.array([model.bus_index[ln.from_bus] for ln in lines], dtype=int),
        to_idx=np.array([model.bus_index[ln.to_bus] for ln in lines], dtype=int),
        susceptance=np.array(suscept),
    )


@dataclass(frozen=True)
class FlowSolution:
    """Bus angles (radians, slack = 0) and signed from->to line flows in MW."""

    bus_ids: tuple[str, ...]
    angles: np.ndarray
    line_ids: tuple[str, ...]
    flows_mw: np.ndarray

    def flow_of(self, line_id: str) -> float:
        return float(self.flows_mw[self.line_ids.index(line_id)])


def _check_balance(injections_mw: np.ndarray) -> None:
    residual = abs(float(injections_mw.sum()))
    if residual > RESIDUAL_TOL_MW:
        raise ValueError(
            f"injections do not balance: residual {residual:.3e} MW exceeds "
            f"{RESIDUAL_TOL_MW} MW"
        )


def solve_angles_batch(system: SusceptanceSystem, injections_mw: np.ndarray) -> np.ndarray:
    """Bus angles for a (n_buses, n_cases) MW injection matrix."""
    base = system.model.system_base_mva
    p = np.asarray(injections_mw, dtype=float) / base
    reduced_rhs = p[system.non_slack]
    theta_red = system.lu.solve(reduced_rhs)
    theta = np.zeros_like(p)
    theta[system.non_slack] = theta_red
    return theta


def flows_from_angles(system: SusceptanceSystem, angles: np.ndarray) -> np.ndarray:
    """Signed MW flows per line from a bus angle vector or matrix."""
    base = system.model.system_base_mva
    diff = angles[system.from_idx] - angles[system.to_idx]
    if diff.ndim == 1:
        return system.susceptance * diff * base
    return system.susceptance[:, None] * diff * base


def solve_flows(system: SusceptanceSystem, injections_mw: np.ndarray) -> FlowSolution:
    """Solve one DC load flow for a MW injection vector in model bus order.

    The injections must sum to zero within 1e-6 MW; any residual below that
    tolerance lands on the slack bus implicitly.
    """
    inj = np.asarray(injections_mw, dtype=float)
    if inj.shape != (system.n_buses,):
        raise ValueError(
            f"expected {system.n_buses} injections, got shape {inj.shape}"
        )
    _check_balance(inj)
    angles = solve_angles_batch(system, inj)
    flows = flows_from_angles(system, angles)
    return FlowSolution(
        bus_ids=tuple(b.id for b in system.model.buses),
        angles=angles,
        line_ids=system.line_ids,
        flows_mw=flows,
    )


def solve_with_outage(
    model: NetworkModel,
    injections_mw: np.ndarray,
    outaged_line: str,
    reactance_scale: dict[str, float] | None = None,
) -> FlowSolution:
    """Exact DC solution with one line removed (the oracle for LODF checks).

    The outaged line is reported with zero flow so the solution lines up with
    the in-service line ordering of the intact model.
    """
    if outaged_line not in {ln.id for ln in model.in_service_lines}:
        raise ValueError(f"line {outaged_line} is not an in-service line")
    if outaged_line in model.bridges:  # name the buses it cuts off
        separated = islanded_buses(model, outaged_line)
        raise IslandingError(outaged_line, separated)
    system = build_system(model, exclude_line=outaged_line, reactance_scale=reactance_scale)
    partial = solve_flows(system, injections_mw)

    all_ids = tuple(ln.id for ln in model.in_service_lines)
    flows = np.zeros(len(all_ids))
    pos = {lid: i for i, lid in enumerate(all_ids)}
    for lid, f in zip(partial.line_ids, partial.flows_mw):
        flows[pos[lid]] = f
    return FlowSolution(
        bus_ids=partial.bus_ids,
        angles=partial.angles,
        line_ids=all_ids,
        flows_mw=flows,
    )
