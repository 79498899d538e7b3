import dataclasses
import logging
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    OverloadRecords,
    _hits,
    read_overloads_csv,
    stage1_scan,
    stage2_scan,
    summarize,
    write_workbook,
)
from pfcplan.shift_factors import compute_lodf, compute_ptdf

from conftest import (
    assert_producers_keep_record_order, concat_records, in_record_order, records_from_rows,
    same_records, summarize_by_sorting,
)


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
    records = stage2_scan(base, lodf, case.model, case.calendar, intact=rec1)
    summaries, _ = summarize(records, case.model)
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


@pytest.fixture(scope="module")
def mesh6_records(mesh6_scan):
    """The mesh6 year's Stage 1 and Stage 2 records as one set."""
    case, _, base, rec1, _, lodf, _ = mesh6_scan
    return stage2_scan(base, lodf, case.model, case.calendar, intact=rec1)


def test_every_record_above_near_threshold(mesh6_scan, mesh6_records):
    _, _, _, rec1, rec2, _, _ = mesh6_scan
    assert rec1 or rec2  # the fixture is tuned to produce findings
    for r in mesh6_records:
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
    same_records(rec1b, rec1)
    same_records(rec2b, rec2)
    keys = [(r.hour, r.contingency or "", r.line_id) for r in rec2]
    assert keys == sorted(keys)


def test_overload_energy_matches_record_recomputation(mesh6_scan, mesh6_records):
    case = mesh6_scan[0]
    summaries, _ = summarize(mesh6_records, case.model)
    for s in summaries:
        worst = {}
        for r in mesh6_records:
            if r.line_id == s.line_id and r.category == "overload":
                worst[r.hour] = max(worst.get(r.hour, 0.0), r.excess_mw)
        assert s.overload_energy_mwh == pytest.approx(sum(worst.values()))
        assert s.overload_hours == len(worst)


def test_workbook_roundtrip(tmp_path, mesh6_scan, mesh6_records):
    case, _, _, rec1, _, _, _ = mesh6_scan
    records = mesh6_records
    summaries, regional = summarize(records, case.model)
    files = write_workbook(records, summaries, regional, tmp_path)
    assert len(files) == 5
    again = read_overloads_csv(tmp_path / "overloads.csv")
    assert list(again) == list(records)
    # the read-back records index their own line id table
    assert list(concat_records(again, rec1)) == list(concat_records(rec1, records))


def _screen_inputs(case):
    """A case's Stage 1 records, base flows and LODF matrix."""
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    rec1, base = stage1_scan(year, case.model, system, case.profile, case.calendar)
    return rec1, base, compute_lodf(compute_ptdf(system, case.model), case.model)


# the bundled cases; mesh6 at 360 MW is the one with Stage 1 records
BUNDLED_CASES = ("triangle_case", "mesh6_case", "grid30_case", "parallel_paths_case",
                 "side_effect_case", "radial_feed_case", "capped_relief_case")
LOADED_MESH6 = cases.mesh6_case(demand_mw=360.0)


@pytest.mark.parametrize("name", BUNDLED_CASES + ("loaded_mesh6",))
def test_stage2_with_intact_records_is_the_sorted_concatenation(name):
    case = LOADED_MESH6 if name == "loaded_mesh6" else getattr(cases, name)()
    rec1, base, lodf = _screen_inputs(case)
    every_other = set(sorted(base.line_ids)[::2])
    for monitored in (None, every_other):
        alone = stage2_scan(base, lodf, case.model, case.calendar, monitored=monitored)
        joined = stage2_scan(base, lodf, case.model, case.calendar, monitored=monitored,
                             intact=rec1)
        same_records(joined, concat_records(rec1, alone))


@pytest.mark.parametrize("name", BUNDLED_CASES + ("loaded_mesh6",))
def test_every_producer_hands_its_records_in_record_order(tmp_path, name):
    case = LOADED_MESH6 if name == "loaded_mesh6" else getattr(cases, name)()
    rec1, base, lodf = _screen_inputs(case)
    every_other = set(sorted(base.line_ids)[::2])
    for monitored in (None, every_other):
        assert_producers_keep_record_order(rec1, base, lodf, case.model, case.calendar,
                                           tmp_path, monitored)


def _only_16_bit_sorts(monkeypatch) -> list[int]:
    """Let ``np.argsort`` sort only keys of 16 bits or fewer, and refuse
    ``np.unique``; returns the list the length of each sorted key goes to."""
    argsort, keys = np.argsort, []

    def radix_only(key, *args, **kwargs):
        assert key.dtype.itemsize <= 2, f"a comparison sort of {key.dtype} keys"
        keys.append(len(key))
        return argsort(key, *args, **kwargs)

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique on the screen path")

    monkeypatch.setattr(np, "argsort", radix_only)
    monkeypatch.setattr(np, "unique", no_unique)
    return keys


def test_stage1_orders_its_records_with_one_16_bit_sort(monkeypatch):
    case = LOADED_MESH6
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    keys = _only_16_bit_sorts(monkeypatch)
    records, _ = stage1_scan(year, case.model, system, case.profile, case.calendar)
    monkeypatch.undo()
    assert keys == [len(records)] and len(records) > 1
    same_records(records, in_record_order(records))


# a triangle whose line table is not in line-id order, rated 100 MW
LINE_IDS = ("L2", "L10", "L1")
UNORDERED = NetworkModel(
    buses=tuple(Bus(f"B{i}", f"B{i}", 110.0, "West") for i in (1, 2, 3)),
    lines=tuple(Line(lid, f, t, x, 100.0, 100.0) for lid, (f, t), x in zip(
        LINE_IDS, (("B1", "B2"), ("B1", "B3"), ("B2", "B3")), (0.1, 0.2, 0.15))),
    generators=(),
    slack_bus="B1",
)
UNORDERED_LODF = compute_lodf(compute_ptdf(build_system(UNORDERED), UNORDERED), UNORDERED)


@st.composite
def intact_records(draw):
    """Stage 1 records over ``LINE_IDS`` and hours 0-5: distinct (hour, line)
    pairs, in any order."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)),
                          unique=True, max_size=15))
    pct = np.array(draw(st.lists(st.floats(90.5, 150.0), min_size=len(pairs),
                                 max_size=len(pairs))))
    hour, line = (np.array(c, dtype=np.int32).reshape(-1) for c in zip(*pairs)) \
        if pairs else [np.zeros(0)] * 2
    return in_record_order(OverloadRecords(
        LINE_IDS, line, hour, np.full(len(pairs), -1), pct,
        np.where(pct > 100.0, pct - 100.0, 0.0), pct > 100.0,
    ))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(intact_records(),
       st.lists(st.floats(-150.0, 150.0), min_size=18, max_size=18),
       st.none() | st.sets(st.sampled_from(LINE_IDS)))
def test_stage2_with_intact_matches_the_sorted_concatenation_field_for_field(
    rec1, flows, monitored
):
    base = BaseFlows(np.arange(6), np.array(flows).reshape(6, 3), LINE_IDS)
    calendar = cases.flat_calendar()
    alone = stage2_scan(base, UNORDERED_LODF, UNORDERED, calendar, monitored)
    joined = stage2_scan(base, UNORDERED_LODF, UNORDERED, calendar, monitored, intact=rec1)
    same_records(joined, concat_records(rec1, alone))


def _unordered_screen():
    """Stage 1 records, base flows, LODF, model and calendar of the
    ``UNORDERED`` triangle, whose line table is not in line-id order."""
    flows = np.array([[95.0, -120.0, 60.0], [50.0, 80.0, -99.0], [130.0, 10.0, -40.0],
                      [0.0, 0.0, 0.0], [99.0, 99.0, 99.0], [-150.0, 140.0, 20.0]])
    pct = np.array([95.0, 120.0, 130.0, 99.0])
    rec1 = in_record_order(OverloadRecords(LINE_IDS, [0, 1, 0, 2], [0, 0, 2, 4], [-1] * 4,
                                           pct, np.maximum(pct - 100.0, 0.0), pct > 100.0))
    base = BaseFlows(np.arange(6), flows, LINE_IDS)
    return rec1, base, UNORDERED_LODF, UNORDERED, cases.flat_calendar()


@pytest.mark.parametrize("name", ["loaded_mesh6", "unordered_triangle"])
def test_the_screen_path_sorts_only_16_bit_keys(monkeypatch, name):
    if name == "loaded_mesh6":
        model, calendar = LOADED_MESH6.model, LOADED_MESH6.calendar
        rec1, base, lodf = _screen_inputs(LOADED_MESH6)
    else:
        rec1, base, lodf, model, calendar = _unordered_screen()
    assert len(rec1)
    expected = concat_records(rec1, stage2_scan(base, lodf, model, calendar))
    expected_summary = summarize_by_sorting(expected, model)
    keys = _only_16_bit_sorts(monkeypatch)
    records = stage2_scan(base, lodf, model, calendar, intact=rec1)
    summary = summarize(records, model)
    monkeypatch.undo()
    same_records(records, expected)
    assert summary == expected_summary
    assert keys[0] == len(expected) > len(rec1)  # the one pass that orders the joined set


def test_stage2_refuses_intact_records_of_other_lines_or_hours(mesh6_scan):
    case, _, base, _, _, lodf, _ = mesh6_scan
    other_lines = records_from_rows([OverloadRecord("L12", 5, None, 95.0, 0.0, "near")])
    off_hour = OverloadRecords(base.line_ids, [0], [int(base.hours[-1]) + 1], [-1], [95.0],
                               [0.0], [False])
    before_first = OverloadRecords(base.line_ids, [0], [-1], [-1], [95.0], [0.0], [False])
    for intact in (other_lines, off_hour, before_first):
        with pytest.raises(ValueError, match="different line sets"):
            stage2_scan(base, lodf, case.model, case.calendar, intact=intact)


def _hex(summary):
    return tuple(float.hex(v) if isinstance(v, float) else v
                 for v in dataclasses.astuple(summary))


def _regions(line_ids):
    """What ``summarize`` reads of a model: each line's from-bus and its region."""
    buses = {f"B{r}": Bus(f"B{r}", f"B{r}", 110.0, f"R{r}") for r in range(3)}
    ends = {lid: types.SimpleNamespace(from_bus=f"B{i % 3}") for i, lid in enumerate(line_ids)}
    return types.SimpleNamespace(bus_by_id=buses, line_by_id=ends)


def _rollup_records(n_ids, rows):
    """Records over ``n_ids`` lines (ids not in index order) from (line,
    hour, contingency, loading, excess, overload) rows, in any order."""
    line_ids = tuple(f"L{(i * 7919) % n_ids:05d}" for i in range(n_ids))
    columns = (list(c) for c in zip(*rows)) if rows else [()] * 6
    return in_record_order(OverloadRecords(line_ids, *columns))


@st.composite
def rollup_records(draw):
    """Record sets for ``summarize``: distinct (line, hour, contingency)
    triples over few hours, so hours repeat, loadings with ties, and excesses
    that include -0.0 and 0.0 on overload records."""
    n_ids = draw(st.integers(1, 5))
    triples = draw(st.lists(st.tuples(st.integers(0, n_ids - 1), st.integers(0, 6),
                                      st.integers(-1, n_ids - 1)),
                            unique=True, max_size=40))
    rows = []
    for line, hour, contingency in triples:
        over = draw(st.booleans())
        pct = draw(st.sampled_from((95.0, 120.0)) | st.floats(90.5, 200.0))
        excess = draw(st.sampled_from((-0.0, 0.0)) | st.floats(-1.0, 50.0)) if over else 0.0
        rows.append((line, hour, contingency, pct, excess, over))
    return _rollup_records(n_ids, rows)


# line ids 0, 1 and 65,536: a 16-bit key would put 65,536 with line 0
WIDE = _rollup_records(65_537, [
    (0, 3, -1, 101.0, 1.0, True), (65_536, 3, 0, 99.0, 0.0, False),
    (1, 3, 65_536, 130.0, 30.0, True), (0, 4, 65_536, 140.0, 40.0, True),
    (65_536, 4, 1, 120.0, 20.0, True), (0, 5, 1, 111.0, -0.0, True),
    (65_536, 5, 0, 125.0, 25.0, True),
])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rollup_records())
@example(_rollup_records(1, []))
@example(_rollup_records(1, [(0, 2, -1, 95.0, 0.0, False), (0, 2, 0, 96.0, 0.0, False),
                             (0, 5, 0, 97.0, 0.0, False)]))
@example(_rollup_records(2, [(1, 0, -1, 101.0, -0.0, True), (1, 0, 0, 102.0, -0.0, True)]))
@example(WIDE)
def test_summarize_matches_the_sorting_reference_bit_for_bit(records):
    model = _regions(records.line_ids)
    got, regional = summarize(records, model)
    expected, expected_regional = summarize_by_sorting(records, model)
    assert [_hex(s) for s in got] == [_hex(s) for s in expected]
    assert regional == expected_regional


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0)])
def test_hit_kernel_without_hours_or_lines_finds_nothing(shape):
    # no feasible hour leaves a lines x 0 flow matrix: no record and no
    # numpy warning (warnings are errors here)
    flows = np.zeros(shape)
    ratings = np.ones(3)
    cells, line, hour, pct, excess, over = _hits(
        flows, np.arange(shape[0]), ratings, ratings, np.zeros(shape[1], dtype=bool),
        90.0, 100.0,
    )
    assert cells == 0
    assert all(len(column) == 0 for column in (line, hour, pct, excess, over))


def test_scans_of_a_year_without_feasible_hours_find_nothing():
    model = cases.triangle(ratings={"L12": 85.0})
    _, base, system, year, profile, calendar = _scan(model, np.full(HOURS_PER_YEAR, 90.0))
    lodf = compute_lodf(compute_ptdf(system, model), model)
    assert len(stage2_scan(base, lodf, model, calendar))  # as dispatched, it has records
    year = dataclasses.replace(year, feasible=np.zeros(HOURS_PER_YEAR, dtype=bool))
    records, base = stage1_scan(year, model, system, profile, calendar)
    assert len(records) == 0 and base.flows_mw.shape == (0, len(model.lines))
    assert len(stage2_scan(base, lodf, model, calendar)) == 0
