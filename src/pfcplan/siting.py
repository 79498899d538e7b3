"""Stage 3: size and place series-reactance increases to relieve overloads.

A power flow controller is modeled as a reactance increase of up to a cap
(default 40%) on one hosting line, diverting flow onto parallel paths. For
every target line with overload records, candidate hosting lines are ordered
by flow sensitivity, the smallest sufficient increase is found by bisection
against exact re-solves, and every other line is checked for new or worsened
loadings. Outcomes fall into three classes:

* FullyResolved: one candidate and one fixed increase clear every overloaded
  (hour, contingency) pair with no line left above its effective rating.
* NoChange: the target flow is insensitive to any reactance increase (no
  parallel path under the relevant contingencies).
* PartiallyResolved: everything else, including side-effect interactions and
  overloads the capped increase cannot clear.

Every Stage-3 value is an exact SuperLU back-substitution on the perturbed
topology's factorization; the screening shift factors are never reused here
because a reactance change invalidates them. Hours with identical injections,
season, and contingency form one pair group, solved once and shared. A group
checks its injections and contingency once and keeps the right-hand side
(injections without the slack, per unit). A sizing step reads only the
target's flow, susceptance * (angle_from - angle_to) * base, from two entries
of its one solve; the evaluation at the chosen increase and
``check_side_effects`` compute every line's flow from the angles. Each value
has the bits of the full flow vector's entry.

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
from dataclasses import asdict, dataclass

import numpy as np

from . import dcflow
from .network import NetworkModel, SeasonCalendar, effective_rating
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
class SideEffect:
    line_id: str
    loading_pct: float
    pre_loading_pct: float


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
    ptdf: PtdfMatrix,
    model: NetworkModel,
    contingency: str | None = None,
    min_score: float = SENSITIVITY_TOL,
) -> list[PfcCandidate]:
    """Hosting lines ordered by expected relief of the target per unit increase.

    Sensitivities are evaluated on the post-contingency topology when a
    contingency is given (via the outage compensation of the transfer
    factors). A target that is a bridge under the relevant contingency has no
    parallel path, so the list is empty: nothing can move its flow.
    """
    line_ids = ptdf.line_ids
    if target not in line_ids:
        raise ValueError(f"target {target} is not an in-service line")
    if contingency == target:
        raise ValueError("target cannot be its own contingency")
    t = line_ids.index(target)
    phi = line_transfer_factors(ptdf, model)

    if contingency is None:
        phi_t = phi[t, :].copy()
    else:
        k = line_ids.index(contingency)
        if lodf.islanding[k]:
            raise dcflow.IslandingError(contingency, set())
        phi_t = phi[t, :] + lodf.matrix[t, k] * phi[k, :]

    self_factor = float(phi_t[t])
    if self_factor >= 1.0 - min_score:
        return []  # bridge under the relevant contingency

    scored = [(1.0 - self_factor, target)]
    for c, lid in enumerate(line_ids):
        if lid == target or lid == contingency:
            continue
        coupling = abs(float(phi_t[c]))
        if coupling > min_score:
            scored.append((coupling, lid))
    # strongest coupling first; the target itself wins ties
    scored.sort(key=lambda sc: (-sc[0], sc[1] != target, sc[1]))
    return [PfcCandidate(target_line=target, pfc_line=lid, score=s) for s, lid in scored]


@dataclass(frozen=True)
class _Setting:
    """One hour's injections on one contingency's topology, checked once: the
    right-hand side of every exact solve of it, and the contingency's
    in-service position (-1 for the intact network)."""

    contingency: str | None
    rhs: np.ndarray
    outage: int


def _setting(
    model: NetworkModel, injections: np.ndarray, contingency: str | None
) -> _Setting:
    outage = -1
    if contingency is not None:
        dcflow.check_outage(model, contingency)
        outage = model.in_service_line_ids.index(contingency)
    return _Setting(contingency, dcflow.reduced_injections(model, injections), outage)


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
    model: NetworkModel, setting: _Setting, pfc_line: str | None = None,
    delta_pct: float = 0.0,
) -> np.ndarray:
    """MW flows of every in-service line from one exact solve, the
    contingency's line at 0: ``solve_with_outage``'s numbers."""
    system = _system(model, setting.contingency, pfc_line, delta_pct)
    flows = dcflow.flows_from_angles(system, dcflow.solve_reduced(system, setting.rhs))
    k = setting.outage
    if k < 0:
        return flows
    full = np.zeros(len(flows) + 1)
    full[:k], full[k + 1:] = flows[:k], flows[k:]
    return full


def _size_increases(
    model: NetworkModel,
    cases: list[tuple[_Setting, float]],
    candidate: PfcCandidate,
    cap_pct: float,
    tol_pp: float,
) -> list[tuple[float | None, float, float]]:
    """Per (setting, target rating) case, in contingency order: (minimal
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
    position = [t - (0 <= setting.outage < t) for setting, _ in cases]

    def target_flow(i: int, delta: float) -> float:
        setting = cases[i][0]
        system = _system(model, setting.contingency, candidate.pfc_line, delta)
        theta = system.lu.solve(setting.rhs)
        diff = (theta.item(frm) if frm >= 0 else 0.0) - (theta.item(to) if to >= 0 else 0.0)
        return abs(system.susceptance.item(position[i]) * diff * base)

    f_zero = [target_flow(i, 0.0) for i in range(len(cases))]
    f_cap = [target_flow(i, cap_pct) for i in range(len(cases))]
    bounds = {  # case -> [lo, hi], for the cases the cap clears but zero does not
        i: [0.0, cap_pct]
        for i, (_, rating) in enumerate(cases)
        if f_zero[i] > rating and f_cap[i] <= rating
    }
    while mids := {
        i: 0.5 * (lo + hi) for i, (lo, hi) in bounds.items() if hi - lo > tol_pp
    }:
        for i in sorted(mids, key=lambda i: (cases[i][0].contingency or "", mids[i])):
            within = target_flow(i, mids[i]) <= cases[i][1]
            bounds[i][1 if within else 0] = mids[i]
    sized = []
    for i, (_, rating) in enumerate(cases):
        delta = 0.0 if f_zero[i] <= rating else bounds[i][1] if i in bounds else None
        sized.append((delta, f_zero[i], f_cap[i]))
    return sized


def min_reactance_increase(
    model: NetworkModel,
    injections: np.ndarray,
    contingency: str | None,
    candidate: PfcCandidate,
    rating_mw: float,
    cap_pct: float = CAP_PCT_DEFAULT,
    tol_pp: float = BISECTION_TOL_PP,
) -> float | None:
    """Smallest reactance increase (percent) that brings the target's flow
    within the rating, by bisection against exact re-solves.

    Returns 0.0 when no increase is needed and None when even the cap fails.
    The returned value satisfies the rating while a value one tolerance step
    lower does not.
    """
    if candidate.pfc_line == contingency:
        raise ValueError("PFC cannot be hosted on the contingency line")
    setting = _setting(model, injections, contingency)
    [(delta, _, _)] = _size_increases(
        model, [(setting, rating_mw)], candidate, cap_pct, tol_pp
    )
    return delta


def _ratings(model: NetworkModel, hour: int, calendar: SeasonCalendar) -> np.ndarray:
    """Effective ratings of the in-service lines at one hour: the row
    ``effective_rating_matrix`` gives, from one season lookup."""
    summer = calendar.season(hour) == "summer"
    seasonal = np.array([
        ln.rating_summer_mw if summer else ln.rating_winter_mw
        for ln in model.in_service_lines
    ])
    return seasonal * (1.0 - calendar.derate_factor)


def check_side_effects(
    model: NetworkModel,
    pfc_line: str,
    delta_pct: float,
    injections: np.ndarray,
    contingency: str | None,
    hour: int,
    calendar: SeasonCalendar,
    overload_pct: float = 100.0,
) -> list[SideEffect]:
    """Lines pushed above their effective rating, or made worse while already
    above it, by the reactance increase. Exact re-solves of both states."""
    calendar.season(hour)  # rejects an hour outside the study year
    setting = _setting(model, injections, contingency)
    pre = _flows(model, setting)
    post = _flows(model, setting, pfc_line, delta_pct)
    ratings = _ratings(model, hour, calendar)
    post_pct = 100.0 * np.abs(post) / ratings
    pre_pct = 100.0 * np.abs(pre) / ratings
    worse = (post_pct > overload_pct) & (post_pct > pre_pct + 1e-9)
    return [
        SideEffect(
            line_id=model.in_service_line_ids[i],
            loading_pct=float(post_pct[i]),
            pre_loading_pct=float(pre_pct[i]),
        )
        for i in np.flatnonzero(worse)
    ]


@dataclass(eq=False)  # hashed by identity
class _PairGroup:
    """Overloaded (hour, contingency) pairs that share one exact solve: its
    setting at the first hour, and the in-service lines' ratings there."""

    hours: list[int]
    setting: _Setting
    ratings: np.ndarray


def _group_pairs(
    model: NetworkModel,
    pairs: set[tuple[int, str | None]],
    injections: np.ndarray,
    calendar: SeasonCalendar,
) -> list[_PairGroup]:
    """Pairs grouped by contingency, season and injections, in contingency
    order; no outcome depends on the order of the groups."""
    hours: dict[tuple, list[int]] = {}
    for hour, contingency in sorted(pairs, key=lambda p: (p[1] or "", p[0])):
        key = (contingency, calendar.season(hour), injections[hour].tobytes())
        hours.setdefault(key, []).append(hour)
    return [
        _PairGroup(
            hours=group,
            setting=_setting(model, injections[group[0]], contingency),
            ratings=_ratings(model, group[0], calendar),
        )
        for (contingency, _, _), group in hours.items()
    ]


def assess_target(
    target: str,
    records: OverloadRecords,
    model: NetworkModel,
    injections: np.ndarray,
    calendar: SeasonCalendar,
    ptdf: PtdfMatrix,
    lodf: LodfMatrix,
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
    ids = records.line_ids
    # the target's overload records; no record has the line index -1
    target_index = ids.index(target) if target in ids else -1
    hit = records.overload & (records.line == target_index)
    outages = ids + (None,)  # contingency index -1 is the intact network
    pairs = set(zip(
        records.hour[hit].tolist(),
        [outages[k] for k in records.contingency[hit].tolist()],
    ))
    if not pairs:
        raise ValueError(f"no overload records for target {target}")
    all_hours = sorted({h for h, _ in pairs})
    total_hours = len(all_hours)
    pre_max_loading = max(records.loading_pct[hit].tolist())

    groups = _group_pairs(model, pairs, injections, calendar)
    contingencies = sorted({g.setting.contingency for g in groups}, key=lambda c: c or "")

    # union of per-contingency candidate lists, keeping the best score each
    best_score: dict[str, float] = {}
    for contingency in contingencies:
        for cand in candidate_locations(target, lodf, ptdf, model, contingency):
            if cand.pfc_line not in best_score or cand.score > best_score[cand.pfc_line]:
                best_score[cand.pfc_line] = cand.score
    candidates = [
        PfcCandidate(target_line=target, pfc_line=lid, score=s)
        for lid, s in sorted(
            best_score.items(), key=lambda kv: (-kv[1], kv[0] != target, kv[0])
        )
    ]
    if max_candidates:
        candidates = candidates[:max_candidates]

    best = None  # (clean_hours, cleared_hours, order, candidate fields...)
    any_sensitive = False
    sized = 0
    for order, cand in enumerate(candidates):
        sized += 1
        # a device cannot sit on the line its group's contingency takes out
        hosted = [g for g in groups if g.setting.contingency != cand.pfc_line]
        sizes = dict(zip(hosted, _size_increases(
            model,
            [
                (g.setting, effective_rating(model.line_by_id[target], g.hours[0], calendar))
                for g in hosted
            ],
            cand, cap_pct, tol_pp,
        )))
        deltas = [sizes[g][0] if g in sizes else None for g in groups]
        any_sensitive = any_sensitive or any(
            abs(f_zero - f_cap) > INSENSITIVE_MW for _, f_zero, f_cap in sizes.values()
        )
        clearable = [d for d in deltas if d is not None]
        if not clearable:
            continue
        delta_star = max(clearable)

        hour_clean = {h: True for h in all_hours}
        hour_cleared = {h: True for h in all_hours}
        effects: list[SideEffect] = []
        residual = 0.0
        for g, delta_g in zip(groups, deltas):
            flows = _flows(model, g.setting, cand.pfc_line, delta_star)
            loadings = 100.0 * np.abs(flows) / g.ratings
            residual = max(residual, float(loadings.max()))
            target_ok = delta_g is not None and delta_g <= delta_star
            if not target_ok or float(loadings.max()) > overload_pct:
                for h in g.hours:
                    hour_clean[h] = False
            if not target_ok:
                for h in g.hours:
                    hour_cleared[h] = False
            effects.extend(
                check_side_effects(
                    model, cand.pfc_line, delta_star, injections[g.hours[0]],
                    g.setting.contingency, g.hours[0], calendar, overload_pct,
                )
            )
        n_clean = sum(hour_clean.values())
        n_cleared = sum(hour_cleared.values())
        entry = (
            n_clean,
            n_cleared,
            -order,
            cand.pfc_line,
            delta_star,
            tuple(sorted({e.line_id for e in effects})),
            residual,
        )
        if best is None or entry[:3] > best[:3]:
            best = entry
        if n_clean == total_hours:
            break  # first candidate that fully resolves wins

    log.info(
        "stage 3 %s: %d pair groups, %d candidates sized, %d exact solves, "
        "%d factorizations",
        target, len(groups), sized, _exact_solves - solves_before,
        dcflow.factorizations - factorizations_before,
    )
    if best is None:  # no candidate, or none could clear any pair
        return PfcOutcome(
            target_line=target,
            classification=PARTIALLY_RESOLVED if any_sensitive else NO_CHANGE,
            pfc_line=None,
            delta_pct=None,
            overload_hours=total_hours,
            resolved_hours=0,
            residual_max_loading_pct=pre_max_loading,
            side_effect_lines=(),
        )

    clean, _cleared, _order, pfc_line, delta_star, effect_lines, residual = best
    classification = FULLY_RESOLVED if clean == total_hours else PARTIALLY_RESOLVED
    return PfcOutcome(
        target_line=target,
        classification=classification,
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
