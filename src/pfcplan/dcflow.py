"""Linearized (DC) power flow.

Classic lossless DC assumptions: flat 1 pu voltage profile, resistance and
reactive power ignored, small angle differences. Bus angles solve B * theta = P
on the slack-reduced nodal susceptance matrix; line flow is
(theta_from - theta_to) / x, rescaled to MW on the system base.

The susceptance system is factorized once per topology (sparse LU) and reused
for every hour of the study year; each solve only does back substitution into
a private right-hand-side workspace, so concurrent solves are safe.

Building a system is cheap to repeat. The sparsity pattern of the reduced
matrix depends only on which line is excluded, so it is derived once per
excluded line from the COO assembly in ``susceptance_matrix`` and cached on
the model (``NetworkModel.susceptance_patterns``, at most one entry per
in-service line plus the intact network). A call computes only the line
susceptances, adds them into the pattern's slots in the order the COO
assembly adds them, and factorizes: the matrix, and so its LU, is the COO
assembly's bit for bit.

Repeating a build costs a lookup. The model also keeps what ``build_system``
factorized, bounded: the unscaled system of each excluded line
(``NetworkModel.susceptance_systems``, the same bound as the patterns) and one
slot for the last system built with a reactance scale that applies
(``NetworkModel.scaled_system``). A call with the same excluded line and the
same applying (line, scale) pairs gets the kept system back; its arrays are
read-only, so every caller sees the same numbers a fresh build would give. A
singular build is never kept. ``factorizations`` counts the LUs computed.

Singularity is caught structurally. The intact network is validated as
connected, so excluding a bridge (``NetworkModel.bridges``) raises
``SingularSystemError`` before any LU, and every other topology is a
connected Laplacian. The pivot check reads ``lu.U``, which converts both
factors to CSC matrices, so only unscaled builds run it: at most one per
topology, as that system is kept. ``reduced_injections`` gives the checked
right-hand side that callers solving many systems of one model can reuse.
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

# sparse LUs computed so far in this process; siting.assess_target logs its share
factorizations = 0


class SingularSystemError(RuntimeError):
    """The reduced susceptance matrix is numerically singular."""


class ImbalanceError(ValueError):
    """Bus injections whose sum misses zero by more than ``RESIDUAL_TOL_MW``."""


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


@dataclass(frozen=True)
class _Pattern:
    """Structure of one topology's slack-reduced susceptance matrix.

    Derived once per excluded line from the assembly in
    ``susceptance_matrix`` and ``np.ix_``, so it is that assembly's structure
    by construction. Kept line ``l`` has 4 stamps: 1/x at both diagonals and
    -1/x at both off-diagonals. ``stamp_line`` and ``stamp_sign`` list the
    stamps that land in the reduced matrix in the order the COO-to-CSC
    conversion adds them, and ``slots`` the data slot each is added into.
    ``structure`` is the reduced matrix itself: every system built on the
    pattern shares its checked indices and pointers and sets its own data.
    """

    kept: np.ndarray  # in-service positions of the kept lines, in model order
    line_ids: tuple[str, ...]
    position: dict[str, int]  # kept line id -> index into line_ids
    reactance: np.ndarray  # per kept line
    from_idx: np.ndarray
    to_idx: np.ndarray
    stamp_line: np.ndarray
    stamp_sign: np.ndarray
    slots: np.ndarray
    structure: sp.csc_matrix
    slack_index: int
    non_slack: np.ndarray


def _pattern(model: NetworkModel, exclude_line: str | None) -> _Pattern:
    patterns = model.susceptance_patterns
    if exclude_line not in patterns:
        patterns[exclude_line] = _derive_pattern(model, exclude_line)
    return patterns[exclude_line]


def _derive_pattern(model: NetworkModel, exclude_line: str | None) -> _Pattern:
    n = len(model.buses)
    slack = model.bus_index[model.slack_bus]
    non_slack = np.array([i for i in range(n) if i != slack], dtype=int)
    kept = [p for p, ln in enumerate(model.in_service_lines) if ln.id != exclude_line]
    lines = [model.in_service_lines[p] for p in kept]
    i = np.array([model.bus_index[ln.from_bus] for ln in lines], dtype=int)
    j = np.array([model.bus_index[ln.to_bus] for ln in lines], dtype=int)

    # susceptance_matrix's stamps, numbered in its order, converted the way it
    # converts them but with duplicates kept: sorting each column's indices is
    # the first step of tocsc's sum_duplicates, which then adds each run of
    # equal indices left to right. scipy's sort is not stable for long
    # columns, so the order comes from scipy itself, not from line order.
    rows = np.stack((i, j, i, j), axis=1).ravel()
    cols = np.stack((i, j, j, i), axis=1).ravel()
    probe = sp.coo_matrix((np.arange(rows.size, dtype=float), (rows, cols)), shape=(n, n))
    probe.has_canonical_format = True  # convert without summing
    probe = probe.tocsc()
    probe.sort_indices()
    stamps = probe.data.astype(int)
    column = np.repeat(np.arange(n), np.diff(probe.indptr))
    starts = np.ones(len(stamps), dtype=bool)
    starts[1:] = (probe.indices[1:] != probe.indices[:-1]) | (column[1:] != column[:-1])
    entry = np.cumsum(starts) - 1  # the summed entry each stamp is added into

    # number the COO assembly's summed entries and reduce it with np.ix_, so
    # each reduced slot's number names the entry it holds
    full = susceptance_matrix(model, exclude_line)
    full.data = np.arange(1.0, full.nnz + 1.0)
    reduced = full[np.ix_(non_slack, non_slack)].tocsc()
    slot_of = np.full(full.nnz, -1)
    slot_of[reduced.data.astype(int) - 1] = np.arange(reduced.nnz)
    slots = slot_of[entry]
    inside = slots >= 0

    pattern = _Pattern(
        kept=np.array(kept, dtype=int),
        line_ids=tuple(ln.id for ln in lines),
        position={ln.id: p for p, ln in enumerate(lines)},
        reactance=np.array([ln.reactance_pu for ln in lines], dtype=float),
        from_idx=i,
        to_idx=j,
        stamp_line=stamps[inside] // 4,
        stamp_sign=np.where(stamps[inside] % 4 < 2, 1.0, -1.0),
        slots=slots[inside],
        structure=reduced,
        slack_index=slack,
        non_slack=non_slack,
    )
    arrays = [v for v in vars(pattern).values() if isinstance(v, np.ndarray)]
    for value in arrays + [reduced.data, reduced.indices, reduced.indptr]:
        value.flags.writeable = False  # shared by every system built from it
    return pattern


def build_system(
    model: NetworkModel,
    exclude_line: str | None = None,
    reactance_scale: dict[str, float] | None = None,
) -> SusceptanceSystem:
    """Assemble and factorize the slack-reduced susceptance system.

    Only the numbers are computed per build: the line susceptances, summed
    into the topology's cached pattern in the order the COO assembly sums
    them, so the matrix is the COO assembly's bit for bit.

    A built system is kept on the model and returned again for the same
    excluded line and the same (line, scale) pairs that apply to its kept
    lines: the unscaled system of every excluded line, and only the last
    scaled one. Its arrays are read-only. A singular system is not kept.

    Excluding a bridge raises ``SingularSystemError`` before any LU; only an
    unscaled build checks its pivots (see the module docstring).
    """
    if exclude_line is not None and exclude_line in model.bridges:
        raise SingularSystemError(
            f"reduced susceptance matrix is singular: excluding bridge line "
            f"{exclude_line} disconnects the network"
        )
    pattern = _pattern(model, exclude_line)
    scaled = tuple(sorted(
        (lid, scale) for lid, scale in (reactance_scale or {}).items()
        if lid in pattern.position
    ))
    if not scaled:
        memo, key = model.susceptance_systems, exclude_line
    else:
        memo, key = model.scaled_system, (exclude_line, scaled)
    system = memo.get(key)
    if system is None:
        system = _factorize(model, pattern, scaled)
        if scaled:
            memo.clear()  # one scaled slot
        memo[key] = system
    return system


def _factorize(
    model: NetworkModel, pattern: _Pattern, scaled: tuple[tuple[str, float], ...]
) -> SusceptanceSystem:
    global factorizations
    x = pattern.reactance.copy()
    for lid, scale in scaled:
        p = pattern.position[lid]
        x[p] = x[p] * scale
    suscept = 1.0 / x
    data = np.bincount(
        pattern.slots,
        weights=suscept[pattern.stamp_line] * pattern.stamp_sign,
        minlength=pattern.structure.nnz,
    )
    reduced = sp.csc_matrix(pattern.structure)  # shares its structure, unchecked
    reduced.data = data

    factorizations += 1
    try:
        lu = splu(reduced)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from None
    # reading lu.U converts both factors to CSC matrices: unscaled builds only
    if not scaled:
        scale = np.abs(data).max() if data.size else 0.0
        if scale == 0.0 or np.abs(lu.U.diagonal()).min() < SINGULARITY_TOL * scale:
            raise SingularSystemError(
                "reduced susceptance matrix is singular; the network is "
                "effectively disconnected"
            )

    for array in (reduced.data, reduced.indices, reduced.indptr, suscept):
        array.flags.writeable = False  # served again to later callers
    return SusceptanceSystem(
        model=model,
        lu=lu,
        reduced=reduced,
        slack_index=pattern.slack_index,
        non_slack=pattern.non_slack,
        line_ids=pattern.line_ids,
        from_idx=pattern.from_idx,
        to_idx=pattern.to_idx,
        susceptance=suscept,
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


def check_balance(injections_mw: np.ndarray, hours: np.ndarray | None = None) -> None:
    """Refuse MW injections whose sum misses zero by more than
    ``RESIDUAL_TOL_MW``: one vector, or one row per hour of ``hours``, the
    message naming the worst hour."""
    residuals = np.atleast_1d(np.abs(injections_mw.sum(axis=-1)))
    if residuals.size and residuals.max() > RESIDUAL_TOL_MW:
        worst = int(residuals.argmax())
        where = "" if hours is None else f"hour {hours[worst]}: "
        raise ImbalanceError(
            f"{where}injections do not balance: residual {residuals[worst]:.3e} MW "
            f"exceeds {RESIDUAL_TOL_MW} MW"
        )


def reduced_injections(model: NetworkModel, injections_mw: np.ndarray) -> np.ndarray:
    """The right-hand side ``solve_flows`` solves for one MW injection vector
    in model bus order: per unit, without the slack bus. It is checked as
    ``solve_flows`` checks it, and read-only, so one vector serves any number
    of ``lu.solve`` calls on the systems of one model."""
    inj = np.asarray(injections_mw, dtype=float)
    if inj.shape != (len(model.buses),):
        raise ValueError(
            f"expected {len(model.buses)} injections, got shape {inj.shape}"
        )
    check_balance(inj)
    slack = model.bus_index[model.slack_bus]
    rhs = np.concatenate((inj[:slack], inj[slack + 1:])) / model.system_base_mva
    rhs.flags.writeable = False
    return rhs


def solve_reduced(system: SusceptanceSystem, rhs: np.ndarray) -> np.ndarray:
    """Bus angles (radians, slack = 0) for a ``reduced_injections`` vector:
    one back-substitution."""
    angles = np.zeros(system.n_buses)
    angles[system.non_slack] = system.lu.solve(rhs)
    return angles


def check_outage(model: NetworkModel, outaged_line: str) -> None:
    """Reject an outage ``solve_with_outage`` cannot solve: a line that is not
    in service, or a bridge (naming the buses it cuts off)."""
    if outaged_line not in model.in_service_line_ids:
        raise ValueError(f"line {outaged_line} is not an in-service line")
    if outaged_line in model.bridges:
        raise IslandingError(outaged_line, islanded_buses(model, outaged_line))


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
    angles = solve_reduced(system, reduced_injections(system.model, injections_mw))
    return FlowSolution(
        bus_ids=system.model.bus_ids,
        angles=angles,
        line_ids=system.line_ids,
        flows_mw=flows_from_angles(system, angles),
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
    check_outage(model, outaged_line)
    system = build_system(model, exclude_line=outaged_line, reactance_scale=reactance_scale)
    partial = solve_flows(system, injections_mw)

    flows = np.zeros(len(model.in_service_line_ids))
    flows[_pattern(model, outaged_line).kept] = partial.flows_mw
    return FlowSolution(
        bus_ids=partial.bus_ids,
        angles=partial.angles,
        line_ids=model.in_service_line_ids,
        flows_mw=flows,
    )
