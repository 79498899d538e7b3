from dataclasses import replace

import numpy as np
import pytest

from pfcplan import cases, dcflow, siting
from pfcplan.cli import main
from pfcplan.dcflow import build_system, solve_flows, solve_with_outage
from pfcplan.dispatch import injection_matrix, run_year
from pfcplan.network import HOURS_PER_YEAR
from pfcplan.screening import OverloadRecord, stage1_scan, stage2_scan
from pfcplan.shift_factors import compute_lodf, compute_ptdf, line_transfer_factors
from pfcplan.siting import (
    FULLY_RESOLVED,
    NO_CHANGE,
    PARTIALLY_RESOLVED,
    PfcCandidate,
    PfcOutcome,
    assess_target,
    candidate_locations,
    check_side_effects,
    pair_table,
    rank_targets,
)

from conftest import effective_rating, graph_bridges, min_reactance_increase, records_from_rows
from test_cli import _study


def _factors(model):
    system = build_system(model)
    ptdf = compute_ptdf(system, model)
    return ptdf, compute_lodf(ptdf, model)


def _run_study(case):
    model = case.model
    year = run_year(model, case.profile, case.availability, case.snsp_cap)
    system = build_system(model)
    _, base = stage1_scan(year, model, system, case.profile, case.calendar)
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    records = stage2_scan(base, lodf, model, case.calendar)
    injections = injection_matrix(model, year, case.profile)
    return model, records, injections, ptdf, lodf


# -- candidate listing ----------------------------------------------------------


def test_triangle_candidates_include_self(triangle):
    ptdf, lodf = _factors(triangle)
    cands = candidate_locations("L13", lodf, line_transfer_factors(ptdf, triangle), triangle)
    assert [c.pfc_line for c in cands][0] == "L13"  # self relief ranked first
    assert {c.pfc_line for c in cands} == {"L12", "L13", "L23"}


def test_radial_target_has_no_candidates(radial_pair):
    ptdf, lodf = _factors(radial_pair)
    assert candidate_locations("L1", lodf, line_transfer_factors(ptdf, radial_pair),
                               radial_pair) == []


def test_parallel_paths_fixture_offers_multiple_candidates():
    model = cases.parallel_paths_case().model
    ptdf, lodf = _factors(model)
    cands = candidate_locations("LB", lodf, line_transfer_factors(ptdf, model), model, ["LE"])
    assert len(cands) >= 2
    assert "LB" in {c.pfc_line for c in cands}


def test_bridge_under_contingency_empties_candidates():
    model = cases.radial_feed_case().model
    ptdf, lodf = _factors(model)
    phi = line_transfer_factors(ptdf, model)
    # intact, T has a parallel path; once K is out it has none
    assert candidate_locations("T", lodf, phi, model) != []
    assert candidate_locations("T", lodf, phi, model, ["K"]) == []


# -- sizing ----------------------------------------------------------------------


def _triangle_injections(mw=90.0):
    return np.array([mw, 0.0, -mw])


def test_bisection_matches_closed_form_divider(triangle):
    cand = PfcCandidate(target_line="L13", pfc_line="L13", score=1.0)
    delta = min_reactance_increase(
        triangle, _triangle_injections(), None, cand, rating_mw=55.0
    )
    # closed form: flow(d) = 90 / (1 + 0.5 (1 + d/100)) = 55  =>  d = 300/11
    assert delta == pytest.approx(300.0 / 11.0, abs=0.1)
    # the returned setting satisfies the rating, one step lower does not
    system = build_system(triangle, reactance_scale={"L13": 1 + delta / 100})
    assert abs(solve_flows(system, _triangle_injections()).flow_of("L13")) <= 55.0
    lower = build_system(
        triangle, reactance_scale={"L13": 1 + (delta - 0.1) / 100}
    )
    assert abs(solve_flows(lower, _triangle_injections()).flow_of("L13")) > 55.0


def test_bisection_below_float_spacing_ends_at_adjacent_floats(triangle):
    # at 1e-20 pp the bracket shrinks until lo and hi are adjacent floats and
    # their midpoint is one of them; the sizer returns hi there
    cand = PfcCandidate(target_line="L13", pfc_line="L13", score=1.0)
    delta = min_reactance_increase(
        triangle, _triangle_injections(), None, cand, rating_mw=55.0, tol_pp=1e-20
    )
    assert delta == pytest.approx(300.0 / 11.0, rel=1e-12)

    def flow(d):
        system = build_system(triangle, reactance_scale={"L13": 1 + d / 100})
        return abs(solve_flows(system, _triangle_injections()).flow_of("L13"))

    assert flow(delta) <= 55.0 < flow(np.nextafter(delta, 0.0))


def test_sizing_zero_when_rating_already_met(triangle):
    cand = PfcCandidate(target_line="L13", pfc_line="L13", score=1.0)
    delta = min_reactance_increase(
        triangle, _triangle_injections(), None, cand, rating_mw=65.0
    )
    assert delta == 0.0


def test_sizing_none_when_cap_insufficient(triangle):
    cand = PfcCandidate(target_line="L13", pfc_line="L13", score=1.0)
    delta = min_reactance_increase(
        triangle, _triangle_injections(), None, cand, rating_mw=50.0
    )
    assert delta is None  # 90 / 1.7 = 52.9 MW even at the 40% cap


def test_sizing_respects_higher_cap(triangle):
    cand = PfcCandidate(target_line="L13", pfc_line="L13", score=1.0)
    delta = min_reactance_increase(
        triangle, _triangle_injections(), None, cand, rating_mw=50.0, cap_pct=100.0
    )
    assert delta is not None and delta <= 100.0


def test_monotone_relief_on_divider(triangle):
    flows = []
    for delta in np.linspace(0.0, 40.0, 41):
        system = build_system(
            triangle, reactance_scale={"L13": 1 + float(delta) / 100}
        )
        flows.append(abs(solve_flows(system, _triangle_injections()).flow_of("L13")))
    assert all(a >= b - 1e-12 for a, b in zip(flows, flows[1:]))


def test_radial_invariance_across_delta_grid():
    for case_model in (cases.radial_pair(), cases.radial_feed_case().model):
        bridges = graph_bridges(case_model)
        system0 = build_system(case_model)
        inj = np.zeros(len(case_model.buses))
        inj[0] = 50.0
        inj[-1] = -50.0
        base = solve_flows(system0, inj)
        for bridge in bridges:
            for delta in (0.0, 10.0, 20.0, 30.0, 40.0):
                system = build_system(
                    case_model, reactance_scale={bridge: 1 + delta / 100}
                )
                sol = solve_flows(system, inj)
                assert np.abs(sol.flows_mw - base.flows_mw).max() <= 1e-9


# -- side effects -----------------------------------------------------------------


def _group(case, inj, contingency, hour=0):
    """Stage 3's pair group of one overload record at (hour, contingency),
    ``inj`` in every hour."""
    model = case.model
    target = next(lid for lid in model.in_service_line_ids if lid != contingency)
    records = records_from_rows([OverloadRecord(target, hour, contingency, 101.0, 1.0,
                                                "overload")])
    injections = np.tile(inj, (HOURS_PER_YEAR, 1))
    [group] = pair_table(records, model, injections, case.calendar, *_factors(model)).groups(
        target
    )
    return group


def test_side_effect_fixture_lists_violation():
    case = cases.side_effect_case()
    inj = np.array([100.0, -100.0, 0.0, 0.0])
    assert check_side_effects(case.model, _group(case, inj, "K"), "T", 30.0) == ["B"]
    # with K out, +30% on T pushes B above its effective rating, and higher
    # than it was without the device
    rating = effective_rating(case.model.line_by_id["B"], 0, case.calendar)
    pre = solve_with_outage(case.model, inj, "K").flow_of("B")
    post = solve_with_outage(case.model, inj, "K", reactance_scale={"T": 1.3}).flow_of("B")
    assert 100.0 * abs(post) / rating > 100.0
    assert 100.0 * abs(post) / rating > 100.0 * abs(pre) / rating


def test_zero_delta_no_side_effects():
    case = cases.side_effect_case()
    inj = np.array([100.0, -100.0, 0.0, 0.0])
    assert check_side_effects(case.model, _group(case, inj, "K"), "T", 0.0) == []


@pytest.mark.parametrize("hour", [-1, 8760])
def test_side_effects_reject_an_hour_outside_the_year(hour):
    case = cases.side_effect_case()
    inj = np.array([100.0, -100.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        _group(case, inj, "K", hour)


def test_clean_diversion_has_no_side_effects():
    case = cases.parallel_paths_case()
    inj = np.array([100.0, 0.0, 0.0, -100.0])
    effects = check_side_effects(case.model, _group(case, inj, "LE"), "LB", 28.0)
    assert effects == []


# -- assessment -------------------------------------------------------------------


def test_parallel_paths_fully_resolved():
    case = cases.parallel_paths_case()
    model, records, injections, ptdf, lodf = _run_study(case)
    outcome = assess_target(
        "LB", pair_table(records, model, injections, case.calendar, ptdf, lodf)
    )
    assert outcome.classification == FULLY_RESOLVED
    assert outcome.pfc_line == "LB"
    assert outcome.delta_pct is not None and outcome.delta_pct <= 40.0
    assert outcome.resolved_hours == outcome.overload_hours == HOURS_PER_YEAR
    assert outcome.side_effect_lines == ()
    assert outcome.residual_max_loading_pct <= 100.0


def test_fully_resolved_soundness_by_exact_resolve():
    case = cases.parallel_paths_case()
    model, records, injections, ptdf, lodf = _run_study(case)
    outcome = assess_target(
        "LB", pair_table(records, model, injections, case.calendar, ptdf, lodf)
    )
    scale = {outcome.pfc_line: 1 + outcome.delta_pct / 100}
    pairs = {
        (r.hour, r.contingency)
        for r in records
        if r.line_id == "LB" and r.category == "overload"
    }
    for hour, contingency in sorted(pairs, key=lambda p: (p[0], p[1] or ""))[:5]:
        sol = solve_with_outage(
            model, injections[hour], contingency, reactance_scale=scale
        )
        for lid, flow in zip(sol.line_ids, sol.flows_mw):
            line = model.line_by_id[lid]
            rating = line.rating_summer_mw  # flat zero-derate calendar
            assert abs(flow) <= rating * 1.0 + 1e-6


def test_side_effect_case_partially_resolved_with_line_listed():
    case = cases.side_effect_case()
    model, records, injections, ptdf, lodf = _run_study(case)
    outcome = assess_target(
        "T", pair_table(records, model, injections, case.calendar, ptdf, lodf)
    )
    assert outcome.classification == PARTIALLY_RESOLVED
    assert "B" in outcome.side_effect_lines
    assert outcome.pfc_line == "T"


def test_radial_feed_no_change():
    case = cases.radial_feed_case()
    model, records, injections, ptdf, lodf = _run_study(case)
    outcome = assess_target(
        "T", pair_table(records, model, injections, case.calendar, ptdf, lodf)
    )
    assert outcome.classification == NO_CHANGE
    assert outcome.pfc_line is None and outcome.delta_pct is None
    assert outcome.resolved_hours == 0


def test_capped_relief_resolves_half_the_hours():
    case = cases.capped_relief_case()
    model, records, injections, ptdf, lodf = _run_study(case)
    outcome = assess_target(
        "L13a", pair_table(records, model, injections, case.calendar, ptdf, lodf)
    )
    assert outcome.classification == PARTIALLY_RESOLVED
    assert outcome.overload_hours == 2750
    assert outcome.resolved_fraction == pytest.approx(0.5)
    assert outcome.side_effect_lines == ()


def test_assess_requires_overload_records(triangle):
    ptdf, lodf = _factors(triangle)
    near_only = [OverloadRecord("L13", 5, None, 95.0, 0.0, "near")]
    for rows in ([], near_only):
        with pytest.raises(ValueError, match="no overload records"):
            assess_target("L13", pair_table(
                records_from_rows(rows), triangle,
                np.zeros((HOURS_PER_YEAR, 3)), cases.flat_calendar(), ptdf, lodf,
            ))


def test_site_pfc_builds_what_its_targets_share_once(tmp_path, monkeypatch):
    """grid30's three targets share one pair table: one transfer-factor
    matrix, one effective-ratings call and one matrix of right-hand sides."""
    config, _ = _study(tmp_path, cases.grid30_case())
    for stage in ("dispatch", "screen"):
        assert main([stage, "--config", str(config)]) == 0
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((siting, "line_transfer_factors"), (siting, "effective_ratings"),
                        (dcflow, "reduced_injections"), (siting, "assess_target")):
        counted(owner, name)
    assert main(["site-pfc", "--config", str(config)]) == 0
    assert calls == {"line_transfer_factors": 1, "effective_ratings": 1,
                     "reduced_injections": 1, "assess_target": 3}


def _with_line_reactance(model, line_id, scale):
    """The model with one line's reactance multiplied by ``scale``."""
    lines = tuple(
        replace(ln, reactance_pu=ln.reactance_pu * scale) if ln.id == line_id else ln
        for ln in model.lines
    )
    return replace(model, lines=lines)


def test_factors_recomputed_for_perturbed_model_differ(triangle):
    # a PFC changes the topology matrices: factors must come from the
    # perturbed model, and a stale cache is detectably wrong
    ptdf, _ = _factors(triangle)
    perturbed = _with_line_reactance(triangle, "L13", 1.4)
    ptdf2, _ = _factors(perturbed)
    assert not np.allclose(ptdf.matrix, ptdf2.matrix)
    system = build_system(perturbed)
    inj = _triangle_injections()
    direct = solve_flows(system, inj)
    via_ptdf = ptdf2.matrix @ inj
    assert np.abs(via_ptdf - direct.flows_mw).max() < 1e-6
    stale = ptdf.matrix @ inj
    assert np.abs(stale - direct.flows_mw).max() > 1.0  # stale use is visible


# -- ranking ----------------------------------------------------------------------


def _outcome(target, classification, hours, resolved, delta):
    return PfcOutcome(
        target_line=target,
        classification=classification,
        pfc_line=target if delta is not None else None,
        delta_pct=delta,
        overload_hours=hours,
        resolved_hours=resolved,
        residual_max_loading_pct=100.0,
        side_effect_lines=(),
    )


def test_ranking_prefers_long_duration_fully_resolved():
    big = _outcome("L35", FULLY_RESOLVED, 2750, 2750, 22.0)
    small = _outcome("L07", FULLY_RESOLVED, 100, 100, 8.0)
    ranking = rank_targets([small, big])
    assert [e.target_line for e in ranking] == ["L35", "L07"]
    assert ranking[0].rank == 1


def test_ranking_all_no_change_listed_last():
    outcomes = [
        _outcome("LX", NO_CHANGE, 50, 0, None),
        _outcome("LY", NO_CHANGE, 500, 0, None),
        _outcome("LZ", PARTIALLY_RESOLVED, 10, 5, 12.0),
    ]
    ranking = rank_targets(outcomes)
    assert [e.target_line for e in ranking] == ["LZ", "LY", "LX"]
    assert all(
        e.classification == NO_CHANGE for e in ranking[1:]
    )


def test_ranking_singleton():
    ranking = rank_targets([_outcome("L1", FULLY_RESOLVED, 10, 10, 5.0)])
    assert len(ranking) == 1
    assert ranking[0].target_line == "L1"


def test_ranking_deterministic_tiebreak_by_line_id():
    a = _outcome("LA", FULLY_RESOLVED, 100, 100, 10.0)
    b = _outcome("LB", FULLY_RESOLVED, 100, 100, 10.0)
    ranking = rank_targets([b, a])
    assert [e.target_line for e in ranking] == ["LA", "LB"]
