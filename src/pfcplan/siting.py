"""Stage 3: size and place series-reactance increases to relieve overloads.

A power flow controller is modeled as a reactance increase of up to a cap
(default 40%) on one hosting line, diverting flow onto parallel paths. For
every target line with overload records, candidate hosting lines are ranked
by flow sensitivity in one pass over the target's contingencies (each host
by its best coupling, one array maximum per contingency), the smallest
sufficient increase is found by bisection against exact re-solves, and every
other line is checked for new or worsened loadings; the check returns the
ids of the lines it flags.
Outcomes fall into three classes:

* FullyResolved: one candidate and one fixed increase clear every overloaded
  (hour, contingency) pair with no line left above its effective rating.
* NoChange: the target flow is insensitive to any reactance increase (no
  parallel path under the relevant contingencies).
* PartiallyResolved: everything else, including side-effect interactions and
  overloads the capped increase cannot clear.

Every Stage-3 value is an exact SuperLU back-substitution on the perturbed
topology's factorization; the screening shift factors are never reused here
because a reactance change invalidates them. Hours with identical injections,
season, and contingency form one pair group, solved once and shared.
``pair_table`` checks the injections and contingencies once per study and
keeps the right-hand side (injections without the slack, per unit) of each
distinct injection row and each season's ratings from
``network.effective_ratings`` for every target's groups.

Each topology is factorized about once (grid30: 1,663 factorizations for
15,352 Stage-3 solves on 1,660 topologies). A candidate's pair groups are
sized in lockstep, in contingency order: the target flow without the device
for every group, then at the cap for every group, then bisection rounds that
visit the groups still open by (contingency, increase). Each group makes the
same solves in the same order as a bisection of its own, and its result is
the same; only the interleaving differs. The solves on one perturbed topology
thus follow each other, and ``dcflow.build_system`` serves all but the first
from the systems it keeps: the unscaled one per excluded line and the last
scaled one. Evaluations at the chosen increase run in the same group order.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from . import dcflow
from .network import HOURS_PER_YEAR, NetworkModel, SeasonCalendar, effective_ratings
from .screening import OverloadRecords
from .shift_factors import LodfMatrix, PtdfMatrix, line_transfer_factors
from .tables import select, write_csv

log = logging.getLogger(__name__)

FULLY_RESOLVED = "FullyResolved"
PARTIALLY_RESOLVED = "PartiallyResolved"
NO_CHANGE = "NoChange"

CAP_PCT_DEFAULT = 40.0
BISECTION_TOL_PP = 0.1
SENSITIVITY_TOL = 1e-6
# MW change below this between zero and cap counts as "insensitive"
INSENSITIVE_MW = 1e-9

# exact re-solves made so far in this process; assess_target logs its share
_exact_solves = 0


@dataclass(frozen=True)
class PfcCandidate:
    """A hosting line proposal for relieving one target line."""

    target_line: str
    pfc_line: str
    score: float  # expected relief per unit fractional reactance increase


@dataclass(frozen=True)
class PfcOutcome:
    target_line: str
    classification: str
    pfc_line: str | None
    delta_pct: float | None
    overload_hours: int
    resolved_hours: int
    residual_max_loading_pct: float
    side_effect_lines: tuple[str, ...]

    @property
    def resolved_fraction(self) -> float:
        if self.overload_hours == 0:
            return 0.0
        return self.resolved_hours / self.overload_hours

    @property
    def side_effect_cell(self) -> str:
        """The side-effect lines as one ';'-separated CSV cell."""
        return ";".join(self.side_effect_lines)


# outcome rows of report/summary.json; pfc_outcomes.csv selects from them and
# report/pfc_performance.csv writes side_effect_lines from side_effect_cell
PFC_OUTCOME_COLUMNS = {
    "target_line": "target_line", "classification": "classification",
    "pfc_line": "pfc_line", "delta_pct": "delta_pct",
    "overload_hours": "overload_hours", "resolved_hours": "resolved_hours",
    "resolved_fraction": "resolved_fraction",
    "residual_max_loading_pct": "residual_max_loading_pct",
    "side_effect_lines": "side_effect_lines",
}
PFC_OUTCOME_CSV_COLUMNS = select(
    PFC_OUTCOME_COLUMNS, "target_line", "classification", "pfc_line", "delta_pct",
    "overload_hours", "resolved_hours", "residual_max_loading_pct",
)


@dataclass(frozen=True)
class RankEntry:
    rank: int
    target_line: str
    classification: str
    overload_hours: int
    resolved_fraction: float
    delta_pct: float | None


RANK_COLUMNS = {
    "rank": "rank", "target_line": "target_line", "classification": "classification",
    "overload_hours": "overload_hours", "resolved_fraction": "resolved_fraction",
    "delta_pct": "delta_pct",
}


def candidate_locations(
    target: str,
    lodf: LodfMatrix,
    phi: np.ndarray,
    model: NetworkModel,
    contingencies: Iterable[str | None] = (None,),
) -> list[PfcCandidate]:
    """Hosting lines ordered by expected relief of the target per unit increase.

    Each host scores its best coupling over ``contingencies`` (None: the
    intact network), evaluated on each post-contingency topology via the
    outage compensation of the intact network's transfer factors ``phi``. A
    contingency that leaves the target's own relief, 1 - phi(t, t), at or below
    ``SENSITIVITY_TOL`` offers no candidates: nothing can move the target's flow there.
    """
    line_ids = lodf.line_ids
    if target not in line_ids:
        raise ValueError(f"target {target} is not an in-service line")
    t = line_ids.index(target)
    coupling = np.zeros(len(line_ids))  # each line's best |phi(t, c)| so far
    relief = []  # the target's 1 - phi(t, t) under each contingency kept
    for contingency in contingencies:
        if contingency == target:
            raise ValueError("target cannot be its own contingency")
        phi_t = phi[t, :]
        if contingency is not None:
            dcflow.check_outage(model, contingency)
            k = line_ids.index(contingency)
            phi_t = phi_t + lodf.matrix[t, k] * phi[k, :]
        self_factor = float(phi_t[t])
        if self_factor >= 1.0 - SENSITIVITY_TOL:
            continue  # a sensitivity threshold, not a topology test
        relief.append(1.0 - self_factor)
        phi_t = np.abs(phi_t)
        if contingency is not None:
            phi_t[k] = 0.0  # the outaged line hosts nothing
        np.maximum(coupling, phi_t, out=coupling)
    hosts = np.flatnonzero(coupling > SENSITIVITY_TOL).tolist()
    best = {line_ids[c]: float(coupling[c]) for c in hosts}
    if relief:  # the target scores by its relief, not its coupling
        best[target] = max(relief)
    # strongest coupling first; the target itself wins ties
    ranked = sorted(best.items(), key=lambda ls: (-ls[1], ls[0] != target, ls[0]))
    return [PfcCandidate(target_line=target, pfc_line=lid, score=s) for lid, s in ranked]


@dataclass(eq=False)  # hashed by identity
class _PairGroup:
    """Overloaded (hour, contingency) pairs of one target that share one exact
    solve: their injections' rhs and their season's ratings (read-only rows of
    a ``PairTable``) and the contingency's in-service position (-1: intact)."""

    hours: list[int]
    contingency: str | None
    rhs: np.ndarray
    outage: int
    ratings: np.ndarray


@dataclass(frozen=True, eq=False)
class PairTable:
    """What Stage 3's targets share, built once per study by ``pair_table``."""

    model: NetworkModel
    lodf: LodfMatrix
    phi: np.ndarray  # line_transfer_factors of the intact network
    ratings: np.ndarray  # effective (summer, winter) ratings, read-only
    spans: dict[str, slice]  # each target's slice of the three record columns
    hour: np.ndarray  # the overload records' hours, sorted by target line
    contingency: np.ndarray  # their contingencies, indices into line_ids
    loading_pct: np.ndarray
    line_ids: tuple[str | None, ...]  # the records' line ids; index -1: None
    rhs: np.ndarray  # one read-only row per distinct injection row of the hours
    row: np.ndarray  # each hour's row of rhs
    season: np.ndarray  # each hour's row of ratings

    def groups(self, target: str) -> list[_PairGroup]:
        """The target's pair groups by contingency id, then first hour."""
        span, ids = self.spans.get(target, slice(0)), self.line_ids
        groups: dict[tuple, list[int]] = {}
        for k, h in sorted(set(zip(self.contingency[span].tolist(), self.hour[span].tolist())),
                           key=lambda pair: (ids[pair[0]] or "", pair[1])):
            groups.setdefault((ids[k], self.season[h], self.row[h]), []).append(h)
        position = self.model.in_service_line_ids.index
        return [_PairGroup(hours, c, self.rhs[r], -1 if c is None else position(c), self.ratings[s])
                for (c, s, r), hours in groups.items()]


def pair_table(
    records: OverloadRecords, model: NetworkModel, injections: np.ndarray,
    calendar: SeasonCalendar, ptdf: PtdfMatrix, lodf: LodfMatrix,
) -> PairTable:
    """Stage 3's shared inputs from the study's overload records, each
    contingency checked and each distinct injection row (told apart by its
    bits) reduced once; an hour outside the year raises."""
    hit = np.flatnonzero(records.overload)[np.argsort(records.line[records.overload])]
    hours = records.hour[hit]
    for bad in hours[(hours < 0) | (hours >= HOURS_PER_YEAR)][:1].tolist():
        raise ValueError(f"hour {bad} outside [0, {HOURS_PER_YEAR})")
    ids = records.line_ids + (None,)
    for k in sorted(set(records.contingency[hit].tolist()) - {-1}, key=ids.__getitem__):
        dcflow.check_outage(model, ids[k])
    lines, starts, counts = np.unique(records.line[hit], return_index=True, return_counts=True)
    distinct = np.unique(hours)
    rows = np.asarray(injections, dtype=float)[distinct]
    _, first, inverse = np.unique(rows.view("u8"), axis=0, return_index=True, return_inverse=True)
    row = np.full(HOURS_PER_YEAR, -1)
    row[distinct] = inverse.reshape(-1)
    ratings = effective_ratings(model, model.in_service_line_ids, calendar)
    ratings.flags.writeable = False
    return PairTable(
        model, lodf, line_transfer_factors(ptdf, model), ratings,
        {ids[k]: slice(a, a + n) for k, a, n in zip(lines.tolist(), starts.tolist(),
                                                     counts.tolist())},
        hours, records.contingency[hit], records.loading_pct[hit], ids,
        dcflow.reduced_injections(model, rows[first], distinct[first]), row,
        np.where(calendar.summer_mask, 0, 1),
    )


def _system(
    model: NetworkModel, contingency: str | None, pfc_line: str | None, delta_pct: float
) -> dcflow.SusceptanceSystem:
    """The system of one exact solve: the contingency's topology with the
    device's reactance increase."""
    global _exact_solves
    _exact_solves += 1
    scale = None
    if pfc_line is not None and delta_pct != 0.0:
        scale = {pfc_line: 1.0 + delta_pct / 100.0}
    return dcflow.build_system(model, exclude_line=contingency, reactance_scale=scale)


def _flows(
    model: NetworkModel, group: _PairGroup, pfc_line: str | None = None,
    delta_pct: float = 0.0,
) -> np.ndarray:
    """MW flows of every in-service line from one exact solve of the group, the
    contingency's line at 0: ``solve_with_outage``'s numbers."""
    system = _system(model, group.contingency, pfc_line, delta_pct)
    flows = dcflow.flows_from_angles(system, dcflow.solve_reduced(system, group.rhs))
    k = group.outage
    if k < 0:
        return flows
    full = np.zeros(len(flows) + 1)
    full[:k], full[k + 1:] = flows[:k], flows[k:]
    return full


def _size_increases(
    model: NetworkModel,
    cases: list[tuple[_PairGroup, float]],
    candidate: PfcCandidate,
    cap_pct: float,
    tol_pp: float,
) -> list[tuple[float | None, float, float]]:
    """Per (pair group, target rating) case, in contingency order: (minimal
    delta or None, |flow| at zero, |flow| at cap) for the target, the cases
    bisected in lockstep.

    Each step is one exact solve that reads only the target's flow,
    susceptance * (angle_from - angle_to) * base, from two angles (the
    slack's is 0): the bits of the full flow vector's entry.
    """
    base = model.system_base_mva
    t = model.in_service_line_ids.index(candidate.target_line)
    slack = model.bus_index[model.slack_bus]
    line = model.in_service_lines[t]
    # the target's end buses in the reduced system (-1: the slack)
    ends = [model.bus_index[line.from_bus], model.bus_index[line.to_bus]]
    frm, to = [-1 if b == slack else b - (b > slack) for b in ends]
    # the target's position among the lines each case's topology keeps
    position = [t - (0 <= g.outage < t) for g, _ in cases]

    def target_flow(i: int, delta: float) -> float:
        g = cases[i][0]
        system = _system(model, g.contingency, candidate.pfc_line, delta)
        theta = system.lu.solve(g.rhs)
        diff = (theta.item(frm) if frm >= 0 else 0.0) - (theta.item(to) if to >= 0 else 0.0)
        return abs(system.susceptance.item(position[i]) * diff * base)

    f_zero = [target_flow(i, 0.0) for i in range(len(cases))]
    f_cap = [target_flow(i, cap_pct) for i in range(len(cases))]
    bounds = {  # case -> [lo, hi], for the cases the cap clears but zero does not
        i: [0.0, cap_pct]
        for i, (_, rating) in enumerate(cases)
        if f_zero[i] > rating and f_cap[i] <= rating
    }
    # a case closes at the tolerance, or once its bounds are adjacent floats
    # and the midpoint is one of them
    while mids := {
        i: 0.5 * (lo + hi) for i, (lo, hi) in bounds.items()
        if hi - lo > tol_pp and lo < 0.5 * (lo + hi) < hi
    }:
        for i in sorted(mids, key=lambda i: (cases[i][0].contingency or "", mids[i])):
            within = target_flow(i, mids[i]) <= cases[i][1]
            bounds[i][1 if within else 0] = mids[i]
    sized = []
    for i, (_, rating) in enumerate(cases):
        delta = 0.0 if f_zero[i] <= rating else bounds[i][1] if i in bounds else None
        sized.append((delta, f_zero[i], f_cap[i]))
    return sized


def check_side_effects(
    model: NetworkModel,
    group: _PairGroup,
    pfc_line: str,
    delta_pct: float,
    overload_pct: float = 100.0,
) -> list[str]:
    """Ids of the lines, in in-service order, pushed above their effective
    rating, or made worse while already above it, by the reactance increase:
    exact re-solves of the group."""
    pre_pct = 100.0 * np.abs(_flows(model, group)) / group.ratings
    post_pct = 100.0 * np.abs(_flows(model, group, pfc_line, delta_pct)) / group.ratings
    worse = (post_pct > overload_pct) & (post_pct > pre_pct + 1e-9)
    return [model.in_service_line_ids[i] for i in np.flatnonzero(worse)]


def assess_target(
    target: str,
    table: PairTable,
    cap_pct: float = CAP_PCT_DEFAULT,
    tol_pp: float = BISECTION_TOL_PP,
    overload_pct: float = 100.0,
    max_candidates: int = 8,
) -> PfcOutcome:
    """Classify one overloaded target line and size the best single device.

    One device and one fixed increase must serve the whole year. A covered
    (hour, contingency) pair counts as resolved when, at the chosen setting,
    no line anywhere is above its effective rating; an hour is resolved when
    all its pairs are. Candidates are tried in relief order until one resolves
    everything; otherwise the candidate resolving the most hours is reported.

    Only the ``max_candidates`` best-coupled hosting lines are sized (pass 0
    for no limit); weaker couplings cannot beat a stronger one that already
    failed, so this bounds the exact re-solve work on large meshes. One INFO
    line reports the pair groups, the candidates sized, the exact solves and
    the factorizations they took.
    """
    solves_before, factorizations_before = _exact_solves, dcflow.factorizations
    model, groups = table.model, table.groups(target)
    if not groups:
        raise ValueError(f"no overload records for target {target}")
    total_hours = len({h for g in groups for h in g.hours})

    candidates = candidate_locations(
        target, table.lodf, table.phi, model, dict.fromkeys(g.contingency for g in groups)
    )
    if max_candidates:
        candidates = candidates[:max_candidates]
    t = model.in_service_line_ids.index(target)

    best = None  # (clean_hours, cleared_hours, -sized, candidate fields...)
    any_sensitive = False
    sized = 0
    for sized, cand in enumerate(candidates, 1):
        # a device cannot sit on the line its group's contingency takes out
        hosted = [g for g in groups if g.contingency != cand.pfc_line]
        sizes = dict(zip(hosted, _size_increases(
            model, [(g, g.ratings[t]) for g in hosted], cand, cap_pct, tol_pp,
        )))
        deltas = [sizes[g][0] if g in sizes else None for g in groups]
        any_sensitive = any_sensitive or any(
            abs(f_zero - f_cap) > INSENSITIVE_MW for _, f_zero, f_cap in sizes.values()
        )
        clearable = [d for d in deltas if d is not None]
        if not clearable:
            continue
        delta_star = max(clearable)

        dirty, uncleared, effects, residual = set(), set(), set(), 0.0
        for g, delta_g in zip(groups, deltas):
            flows = _flows(model, g, cand.pfc_line, delta_star)
            peak = float((100.0 * np.abs(flows) / g.ratings).max())
            residual = max(residual, peak)
            cleared = delta_g is not None and delta_g <= delta_star
            if not cleared:
                uncleared.update(g.hours)
            if not cleared or peak > overload_pct:
                dirty.update(g.hours)
            effects.update(
                check_side_effects(model, g, cand.pfc_line, delta_star, overload_pct)
            )
        entry = (total_hours - len(dirty), total_hours - len(uncleared), -sized,
                 cand.pfc_line, delta_star, tuple(sorted(effects)), residual)
        if best is None or entry[:3] > best[:3]:
            best = entry
        if not dirty:
            break  # first candidate that fully resolves wins

    log.info(
        "stage 3 %s: %d pair groups, %d candidates sized, %d exact solves, "
        "%d factorizations",
        target, len(groups), sized, _exact_solves - solves_before,
        dcflow.factorizations - factorizations_before,
    )
    # no candidate, or none could clear any pair: the screened peak stands
    clean, _, _, pfc_line, delta_star, effect_lines, residual = best or (
        0, 0, 0, None, None, (), float(table.loading_pct[table.spans[target]].max()),
    )
    return PfcOutcome(
        target_line=target,
        classification=(
            FULLY_RESOLVED if clean == total_hours
            else PARTIALLY_RESOLVED if best or any_sensitive else NO_CHANGE
        ),
        pfc_line=pfc_line,
        delta_pct=delta_star,
        overload_hours=total_hours,
        resolved_hours=clean,
        residual_max_loading_pct=residual,
        side_effect_lines=effect_lines,
    )


_CLASS_ORDER = {FULLY_RESOLVED: 0, PARTIALLY_RESOLVED: 1, NO_CHANGE: 2}


def rank_targets(outcomes: list[PfcOutcome]) -> tuple[RankEntry, ...]:
    """Deterministic deployment ranking.

    Sort key: classification (fully < partially < no change), then more
    overloaded hours, then larger resolved fraction, then smaller increase,
    then line id.
    """
    ordered = sorted(
        outcomes,
        key=lambda o: (
            _CLASS_ORDER[o.classification],
            -o.overload_hours,
            -o.resolved_fraction,
            o.delta_pct if o.delta_pct is not None else float("inf"),
            o.target_line,
        ),
    )
    return tuple(
        RankEntry(
            rank=i + 1,
            target_line=o.target_line,
            classification=o.classification,
            overload_hours=o.overload_hours,
            resolved_fraction=o.resolved_fraction,
            delta_pct=o.delta_pct,
        )
        for i, o in enumerate(ordered)
    )


def _by_target(outcomes: list[PfcOutcome]) -> list[PfcOutcome]:
    return sorted(outcomes, key=lambda o: o.target_line)


def write_outcomes(outcomes: list[PfcOutcome], path) -> None:
    write_csv(path, PFC_OUTCOME_CSV_COLUMNS, _by_target(outcomes))


def write_outcomes_json(outcomes: list[PfcOutcome], path) -> None:
    """Full outcome detail (side effects included) for report re-emission."""
    with open(path, "w", encoding="utf-8") as fh:
        payload = [asdict(o) for o in _by_target(outcomes)]
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_outcomes_json(path) -> list[PfcOutcome]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [
        PfcOutcome(**{**row, "side_effect_lines": tuple(row["side_effect_lines"])})
        for row in payload
    ]


def write_ranking(ranking: tuple[RankEntry, ...], path) -> None:
    write_csv(path, RANK_COLUMNS, ranking)
