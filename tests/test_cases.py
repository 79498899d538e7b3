"""Integrity checks for the bundled study cases.

The analytic cases carry hand-derived numbers that other tests lean on, so
this module pins the structural facts: sizes, connectivity, bridge content,
demand patterns, and which lines the screening year actually flags.
"""

import pytest

from pfcplan import cases
from pfcplan.dcflow import build_system
from pfcplan.dispatch import run_year
from pfcplan.network import HOURS_PER_YEAR
from pfcplan.screening import RegionCount, region_counts, stage1_scan, stage2_scan, summarize
from pfcplan.shift_factors import compute_lodf, compute_ptdf

from conftest import graph_bridges


ALL_CASES = [
    cases.triangle_case,
    cases.mesh6_case,
    cases.grid30_case,
    cases.parallel_paths_case,
    cases.side_effect_case,
    cases.radial_feed_case,
    cases.capped_relief_case,
]


@pytest.mark.parametrize("factory", ALL_CASES)
def test_case_is_well_formed(factory):
    case = factory()
    # models validate on construction; shares must cover existing buses
    for bus_id in case.profile.bus_shares:
        assert bus_id in case.model.bus_by_id
    assert case.profile.demand_mw.shape == (HOURS_PER_YEAR,)
    for gid in case.availability.factors:
        assert gid in case.model.generator_by_id


def test_grid30_shape():
    model = cases.grid30()
    assert len(model.buses) == 30
    assert len(model.in_service_lines) == 41
    assert graph_bridges(model) == set()  # every outage is non-islanding
    regions = {b.region for b in model.buses}
    assert regions == {"West", "Midlands", "East"}


def test_grid30_year_finds_the_three_weak_corridors():
    case = cases.grid30_case()
    model = case.model
    year = run_year(model, case.profile, case.availability, case.snsp_cap)
    assert year.infeasible_hours == ()
    system = build_system(model)
    rec1, base = stage1_scan(year, model, system, case.profile, case.calendar)
    assert len(rec1) == 0  # the intact year is clean by construction
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    rec2 = stage2_scan(base, lodf, model, case.calendar)
    summaries = summarize(rec2, model)
    overloaded = {s.line_id for s in summaries if s.overload_hours}
    assert overloaded == {"N01-N02", "N10-N16", "N17-N23"}
    assert region_counts(summaries) == [
        RegionCount("East", 1), RegionCount("Midlands", 1), RegionCount("West", 1)
    ]


def test_capped_relief_demand_pattern():
    case = cases.capped_relief_case()
    demand = case.profile.demand_mw
    assert (demand[:1375] == 90.0).all()
    assert (demand[1375:2750] == 97.5).all()
    assert (demand[2750:] == 70.0).all()


def test_radial_pair_is_all_bridge():
    assert graph_bridges(cases.radial_pair()) == {"L1"}


def test_triangle_rating_overrides():
    model = cases.triangle(ratings={"L12": 85.0})
    assert model.line_by_id["L12"].rating_summer_mw == 85.0
    assert model.line_by_id["L13"].rating_summer_mw == 200.0


def test_written_inputs_reload_to_the_same_model(tmp_path):
    from pfcplan.network import load_network

    for factory in (cases.triangle_case, cases.grid30_case):
        case = factory()
        paths = cases.write_study_inputs(case, tmp_path / case.name)
        again = load_network(
            paths["buses"], paths["lines"], paths["generators"],
            slack_bus=case.model.slack_bus,
        )
        assert again == case.model
