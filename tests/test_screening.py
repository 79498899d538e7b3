import dataclasses
import logging

import numpy as np
import pytest

from pfcplan import cases
from pfcplan.dcflow import build_system, solve_with_outage
from pfcplan.dispatch import (
    DemandProfile,
    ResAvailability,
    injection_matrix,
    run_year,
)
from pfcplan.network import (
    HOURS_PER_YEAR,
    Bus,
    Generator,
    Line,
    NetworkModel,
    effective_rating,
)
from pfcplan.screening import (
    BaseFlows,
    OverloadRecord,
    read_overloads_csv,
    stage1_scan,
    stage2_scan,
    summarize,
    write_workbook,
)
from pfcplan.shift_factors import compute_lodf, compute_ptdf

from conftest import records_from_rows


def _two_bus(x=0.1, rating=100.0):
    return NetworkModel(
        buses=(Bus("B1", "B1", 110, "West"), Bus("B2", "B2", 110, "East")),
        lines=(Line("L1", "B1", "B2", x, rating, rating),),
        generators=(Generator("G1", "B1", "thermal", 500.0, 0.0, 10.0, True),),
        slack_bus="B1",
    )


def _year_for(model, demand):
    profile = DemandProfile(demand_mw=demand, bus_shares={model.buses[-1].id: 1.0})
    year = run_year(model, profile, ResAvailability(factors={}), snsp_cap=1.0)
    return year, profile


def _scan(model, demand, calendar=None, **kwargs):
    calendar = calendar or cases.flat_calendar()
    year, profile = _year_for(model, demand)
    system = build_system(model)
    records, base = stage1_scan(
        year, model, system, profile, calendar, **kwargs
    )
    return records, base, system, year, profile, calendar


def test_near_band_hours_counted():
    model = _two_bus()
    demand = np.full(HOURS_PER_YEAR, 50.0)
    demand[:10] = 95.0  # 95% of the 100 MW effective rating
    records, _, _, _, _, _ = _scan(model, demand)
    assert len(records) == 10
    assert all(r.category == "near" for r in records)
    assert all(r.excess_mw == 0.0 for r in records)
    assert next(iter(records)).loading_pct == pytest.approx(95.0)


def test_exactly_90_percent_emits_nothing():
    # x = 1/8 makes the solve exact in floating point, so the loading is
    # computed as exactly 90.0 and the strict threshold keeps it out
    model = _two_bus(x=0.125)
    demand = np.full(HOURS_PER_YEAR, 50.0)
    demand[0] = 90.0
    records, base, _, _, _, _ = _scan(model, demand)
    assert base.flows_mw[0, 0] == 90.0
    assert len(records) == 0


def test_just_above_90_percent_emits_near():
    model = _two_bus(x=0.125)
    demand = np.full(HOURS_PER_YEAR, 50.0)
    demand[0] = 90.001
    records, _, _, _, _, _ = _scan(model, demand)
    assert len(records) == 1 and next(iter(records)).category == "near"


def test_overload_class_above_100():
    model = _two_bus()
    demand = np.full(HOURS_PER_YEAR, 50.0)
    demand[3] = 104.0
    records, _, _, _, _, _ = _scan(model, demand)
    assert len(records) == 1
    [rec] = records
    assert rec.category == "overload" and rec.hour == 3
    assert rec.excess_mw == pytest.approx(4.0)


def test_seasonal_ratings_split_the_record_set():
    from pfcplan.network import SeasonCalendar

    # 95 MW rides a line rated 100 in summer and 120 in winter: only the
    # summer hours breach the 90% band
    model = _two_bus(rating=100.0)
    import dataclasses

    lines = (dataclasses.replace(model.lines[0], rating_winter_mw=120.0),)
    model = dataclasses.replace(model, lines=lines)
    calendar = SeasonCalendar.from_months(derate_factor=0.0)
    demand = np.full(HOURS_PER_YEAR, 95.0)
    records, _, _, _, _, _ = _scan(model, demand, calendar=calendar)
    summer_hours = int(calendar.summer_mask.sum())
    assert len(records) == summer_hours
    assert all(calendar.season(r.hour) == "summer" for r in records)


def test_clean_intact_fixture_has_zero_stage1_records():
    case = cases.parallel_paths_case()
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    records, _ = stage1_scan(
        year, case.model, system, case.profile, case.calendar
    )
    assert len(records) == 0


def test_stage2_triangle_overload_record():
    model = cases.triangle(ratings={"L12": 85.0})
    demand = np.full(HOURS_PER_YEAR, 50.0)
    demand[0] = 90.0
    calendar = cases.flat_calendar()  # zero derate: ratings are effective
    year, profile = _year_for(model, demand)
    system = build_system(model)
    _, base = stage1_scan(year, model, system, profile, calendar)
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    records = stage2_scan(base, lodf, model, calendar)
    hits = [r for r in records if r.hour == 0 and r.contingency == "L13"]
    target = [r for r in hits if r.line_id == "L12"]
    assert len(target) == 1
    rec = target[0]
    assert rec.category == "overload"
    assert rec.loading_pct == pytest.approx(100 * 90 / 85)
    assert rec.excess_mw == pytest.approx(5.0)


def test_stage2_zero_flow_hour_emits_nothing():
    model = cases.triangle()
    records, base, system, *_ = _scan(model, np.zeros(HOURS_PER_YEAR))
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    calendar = cases.flat_calendar()
    assert len(stage2_scan(base, lodf, model, calendar)) == 0


def test_stage2_identical_hours_identical_records():
    model = cases.triangle(ratings={"L12": 85.0})
    demand = np.full(HOURS_PER_YEAR, 50.0)
    demand[10] = 90.0
    demand[20] = 90.0
    records, base, system, _, _, calendar = _scan(model, demand)
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    rec2 = stage2_scan(base, lodf, model, calendar)
    at10 = sorted(
        (r.line_id, r.contingency, r.loading_pct)
        for r in rec2
        if r.hour == 10
    )
    at20 = sorted(
        (r.line_id, r.contingency, r.loading_pct)
        for r in rec2
        if r.hour == 20
    )
    assert at10 == at20 and at10


def test_stage2_monitored_subset_and_islanding_skip():
    case = cases.radial_feed_case()  # has K as a meshed line, none islanding
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    _, base = stage1_scan(year, case.model, system, case.profile, case.calendar)
    ptdf = compute_ptdf(system, case.model)
    lodf = compute_lodf(ptdf, case.model)
    all_records = stage2_scan(base, lodf, case.model, case.calendar)
    only_t = stage2_scan(
        base, lodf, case.model, case.calendar, monitored={"T"}
    )
    assert {r.line_id for r in only_t} == {"T"}
    assert set(only_t) <= set(all_records)


def test_stage2_logs_outages_bridges_and_pairs(caplog):
    case = cases.grid30_case()
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    _, base = stage1_scan(year, case.model, system, case.profile, case.calendar)
    lodf = compute_lodf(compute_ptdf(system, case.model), case.model)
    # a triangle with a radial spur: its one bridge is skipped, and with no
    # flow no (line, outage) pair of the 3 outages x 3 other lines is kept,
    # so no pair-hour reaches the kernel
    spur = cases.triangle()
    spur = dataclasses.replace(
        spur,
        buses=spur.buses + (Bus("B4", "B4", 110.0, "East"),),
        lines=spur.lines + (Line("L34", "B3", "B4", 0.1, 50.0, 50.0),),
    )
    spur_system = build_system(spur)
    idle = BaseFlows(np.arange(2), np.zeros((2, 4)), spur_system.line_ids)
    spur_lodf = compute_lodf(compute_ptdf(spur_system, spur), spur)
    with caplog.at_level(logging.INFO, logger="pfcplan.screening"):
        stage2_scan(base, lodf, case.model, case.calendar)
        stage2_scan(idle, spur_lodf, spur, cases.flat_calendar())
    assert caplog.messages == [
        "stage 2: 41 outages screened, 0 bridge outages skipped, "
        "109 of 1640 (line, outage) pairs kept, "
        "14095 pair-hours above the floor, 8028 records",
        "stage 2: 3 outages screened, 1 bridge outages skipped, "
        "0 of 9 (line, outage) pairs kept, 0 pair-hours above the floor, 0 records",
    ]


# -- summaries -----------------------------------------------------------------


def test_stage1_rejects_unbalanced_dispatch_with_hour_context():
    # a malformed dispatch (outputs not matching its own demand) must surface
    # as an error naming the hour, not as silently wrong flows
    import dataclasses

    model = _two_bus()
    demand = np.full(HOURS_PER_YEAR, 50.0)
    profile = DemandProfile(demand_mw=demand, bus_shares={"B2": 1.0})
    year = run_year(model, profile, ResAvailability(factors={}), snsp_cap=1.0)
    outputs = year.outputs_mw.copy()
    outputs[3] += 10.0
    year = dataclasses.replace(year, outputs_mw=outputs)
    system = build_system(model)
    with pytest.raises(ValueError, match="hour 3"):
        stage1_scan(year, model, system, profile, cases.flat_calendar())


def test_summarize_empty():
    summaries, regional = summarize(records_from_rows([]), cases.triangle())
    assert summaries == [] and regional == {}


def test_summarize_distinct_hours_and_contingency_count():
    model = cases.triangle()
    records = records_from_rows([
        OverloadRecord("L12", 5, "L13", 110.0, 8.5, "overload"),
        OverloadRecord("L12", 5, "L23", 104.0, 3.4, "overload"),
        OverloadRecord("L12", 9, "L13", 102.0, 1.7, "overload"),
        OverloadRecord("L12", 7, None, 95.0, 0.0, "near"),
    ])
    summaries, regional = summarize(records, model)
    assert len(summaries) == 1
    s = summaries[0]
    assert s.overload_hours == 2  # hours 5 and 9, not three record pairs
    assert s.near_hours == 1
    assert s.contingency_count == 2
    assert s.max_loading_pct == 110.0
    # hour 5 counts its worst excess once
    assert s.overload_energy_mwh == pytest.approx(8.5 + 1.7)
    assert regional == {model.bus_by_id["B1"].region: 1}


def test_summarize_2750_hour_line():
    case = cases.capped_relief_case()
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    rec1, base = stage1_scan(year, case.model, system, case.profile, case.calendar)
    ptdf = compute_ptdf(system, case.model)
    lodf = compute_lodf(ptdf, case.model)
    rec2 = stage2_scan(base, lodf, case.model, case.calendar)
    summaries, _ = summarize(rec1 + rec2, case.model)
    target = next(s for s in summaries if s.line_id == "L13a")
    assert target.overload_hours == 2750


def test_near_only_line_not_in_regional_rollup():
    model = cases.triangle()
    records = records_from_rows([OverloadRecord("L12", 5, None, 95.0, 0.0, "near")])
    summaries, regional = summarize(records, model)
    assert summaries[0].overload_hours == 0
    assert regional == {}


# -- properties over a real study year -------------------------------------------


@pytest.fixture(scope="module")
def mesh6_scan():
    case = cases.mesh6_case(demand_mw=330.0)
    model = case.model
    year = run_year(model, case.profile, case.availability, case.snsp_cap)
    system = build_system(model)
    rec1, base = stage1_scan(year, model, system, case.profile, case.calendar)
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    rec2 = stage2_scan(base, lodf, model, case.calendar)
    inj = injection_matrix(model, year, case.profile)
    return case, year, base, rec1, rec2, lodf, inj


def test_every_record_above_near_threshold(mesh6_scan):
    _, _, _, rec1, rec2, _, _ = mesh6_scan
    assert rec1 or rec2  # the fixture is tuned to produce findings
    for r in rec1 + rec2:
        assert r.loading_pct > 90.0
        assert (r.excess_mw > 0) == (r.category == "overload")


def test_stage2_matches_full_resolve_on_sampled_pairs(mesh6_scan):
    case, _, base, _, rec2, lodf, inj = mesh6_scan
    model, calendar = case.model, case.calendar
    rng = np.random.default_rng(5)
    outages = lodf.non_islanding_outages()
    by_pair = {}
    for r in rec2:
        by_pair.setdefault((r.hour, r.contingency), {})[r.line_id] = r

    for _ in range(100):
        hour = int(rng.choice(base.hours))
        outage = str(rng.choice(outages))
        exact = solve_with_outage(model, inj[hour], outage)
        recorded = by_pair.get((hour, outage), {})
        for lid, flow in zip(exact.line_ids, exact.flows_mw):
            rating = effective_rating(model.line_by_id[lid], hour, calendar)
            loading = 100.0 * abs(flow) / rating
            if loading > 90.0:
                assert lid in recorded, (hour, outage, lid, loading)
                rec = recorded[lid]
                assert abs(rec.loading_pct - loading) <= 1e-6 * max(1.0, loading)
            else:
                assert lid not in recorded or lid == outage


def test_record_stream_deterministic_and_ordered(mesh6_scan):
    case, year, base, rec1, rec2, lodf, _ = mesh6_scan
    model, calendar = case.model, case.calendar
    system = build_system(model)
    rec1b, baseb = stage1_scan(
        year, model, system, case.profile, calendar
    )
    rec2b = stage2_scan(baseb, lodf, model, calendar)
    assert rec1 == rec1b and rec2 == rec2b
    keys = [(r.hour, r.contingency or "", r.line_id) for r in rec2]
    assert keys == sorted(keys)


def test_overload_energy_matches_record_recomputation(mesh6_scan):
    case, _, _, rec1, rec2, _, _ = mesh6_scan
    summaries, _ = summarize(rec1 + rec2, case.model)
    for s in summaries:
        worst = {}
        for r in rec1 + rec2:
            if r.line_id == s.line_id and r.category == "overload":
                worst[r.hour] = max(worst.get(r.hour, 0.0), r.excess_mw)
        assert s.overload_energy_mwh == pytest.approx(sum(worst.values()))
        assert s.overload_hours == len(worst)


def test_workbook_roundtrip(tmp_path, mesh6_scan):
    case, _, _, rec1, rec2, _, _ = mesh6_scan
    records = rec1 + rec2
    summaries, regional = summarize(records, case.model)
    files = write_workbook(records, summaries, regional, tmp_path)
    assert len(files) == 5
    again = read_overloads_csv(tmp_path / "overloads.csv")
    assert again == records
    # the read-back records index their own line id table
    assert again + rec1 == rec1 + records
