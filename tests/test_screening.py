import dataclasses
import hashlib
import logging
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfcplan import cases, dcflow, screening
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
    SeasonCalendar,
)
from pfcplan.screening import (
    BaseFlows,
    OverloadRecord,
    OverloadRecords,
    RegionCount,
    _screen,
    read_overloads_csv,
    region_counts,
    stage1_scan,
    stage2_scan,
    summarize,
    write_workbook,
)
from pfcplan.shift_factors import compute_lodf, compute_ptdf

from conftest import (
    LOWERED_NEAR_PCT, RECORD_COLUMNS, assert_producers_keep_record_order, cli_screens,
    concat_records, effective_rating, in_record_order, outage_records, records_from_rows,
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
    assert all(calendar.summer_mask[r.hour] for r in records)


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


def test_stage2_logs_outages_bridges_and_pairs(caplog, monkeypatch):
    case = cases.grid30_case()
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    _, base = stage1_scan(year, case.model, system, case.profile, case.calendar)
    lodf = compute_lodf(compute_ptdf(system, case.model), case.model)
    # a triangle with a radial spur: its one bridge is skipped, and with no
    # flow no (line, outage) pair of the 3 outages x 3 other lines is kept,
    # so no pair-hour reaches the kernel and the block bound skips the 4
    # intact rows of its one block
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
        # the year's season runs (2,160, 4,392 and 2,208 hours) cut into
        # blocks of 65,536 * 4 // 150 = 1,747 hours over the intact
        # network's 41 rows and the 109 kept pairs: 2 + 3 + 2 blocks
        stage2_scan(base, lodf, case.model, case.calendar)
        stage2_scan(idle, spur_lodf, spur, cases.flat_calendar())
        # at near 70% and overload 71% the intact network holds records of
        # both classes
        stage2_scan(base, lodf, case.model, case.calendar, near_pct=70.0, overload_pct=71.0)
        # 1,000 cells per block and entry, at most 4 entries, over 150 rows:
        # 1000 * 4 // 150 = 26 hours
        monkeypatch.setattr(dcflow, "BLOCK_CELLS", 1000)
        stage2_scan(base, lodf, case.model, case.calendar)
    assert caplog.messages == [
        "stage 2: 41 outages screened, 0 bridge outages skipped, "
        "109 of 1640 (line, outage) pairs kept, 7 season blocks of at most 1747 hours, "
        "788 of 1050 (row, block) pairs skipped by the block bound, "
        "8028 cells above the floor, intact records 0 near 0 overload, "
        "post-outage records 7157 near 871 overload",
        "stage 2: 3 outages screened, 1 bridge outages skipped, "
        "0 of 9 (line, outage) pairs kept, 1 season blocks of at most 2 hours, "
        "4 of 4 (row, block) pairs skipped by the block bound, "
        "0 cells above the floor, intact records 0 near 0 overload, "
        "post-outage records 0 near 0 overload",
        "stage 2: 41 outages screened, 0 bridge outages skipped, "
        "333 of 1640 (line, outage) pairs kept, 15 season blocks of at most 700 hours, "
        "3388 of 5610 (row, block) pairs skipped by the block bound, "
        "106244 cells above the floor, intact records 12 near 23 overload, "
        "post-outage records 9586 near 96623 overload",
        "stage 2: 41 outages screened, 0 bridge outages skipped, "
        "109 of 1640 (line, outage) pairs kept, 338 season blocks of at most 26 hours, "
        "40775 of 50700 (row, block) pairs skipped by the block bound, "
        "8028 cells above the floor, intact records 0 near 0 overload, "
        "post-outage records 7157 near 871 overload",
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
    summaries = summarize(records_from_rows([]), cases.triangle())
    assert summaries == [] and region_counts(summaries) == []


def test_summarize_distinct_hours_and_contingency_count():
    model = cases.triangle()
    records = records_from_rows([
        OverloadRecord("L12", 5, "L13", 110.0, 8.5, "overload"),
        OverloadRecord("L12", 5, "L23", 104.0, 3.4, "overload"),
        OverloadRecord("L12", 9, "L13", 102.0, 1.7, "overload"),
        OverloadRecord("L12", 7, None, 95.0, 0.0, "near"),
    ])
    summaries = summarize(records, model)
    assert len(summaries) == 1
    s = summaries[0]
    assert s.overload_hours == 2  # hours 5 and 9, not three record pairs
    assert s.near_hours == 1
    assert s.contingency_count == 2
    assert s.max_loading_pct == 110.0
    # hour 5 counts its worst excess once
    assert s.overload_energy_mwh == pytest.approx(8.5 + 1.7)
    assert region_counts(summaries) == [RegionCount(model.bus_by_id["B1"].region, 1)]


def test_summarize_2750_hour_line():
    case = cases.capped_relief_case()
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    _, base = stage1_scan(year, case.model, system, case.profile, case.calendar)
    ptdf = compute_ptdf(system, case.model)
    lodf = compute_lodf(ptdf, case.model)
    records = stage2_scan(base, lodf, case.model, case.calendar)
    summaries = summarize(records, case.model)
    target = next(s for s in summaries if s.line_id == "L13a")
    assert target.overload_hours == 2750


def test_overload_energy_is_a_left_fold_in_hour_order(monkeypatch):
    # ten overloaded hours of 0.1 MW excess: added one at a time from 0.0
    # they give 0.9999999999999999, where Python's sum gives 1.0 from 3.12
    # on; the fold goes on from slice to slice (3 records a slice)
    model = cases.triangle()
    records = records_from_rows(
        [OverloadRecord("L12", hour, "L13", 110.0, 0.1, "overload") for hour in range(10)]
    )
    for cells in (dcflow.BLOCK_CELLS, 3):
        monkeypatch.setattr(dcflow, "BLOCK_CELLS", cells)
        [summary] = summarize(records, model)
        assert summary.overload_energy_mwh == 0.9999999999999999


def test_near_only_line_not_in_regional_rollup():
    model = cases.triangle()
    records = records_from_rows([OverloadRecord("L12", 5, None, 95.0, 0.0, "near")])
    summaries = summarize(records, model)
    assert summaries[0].overload_hours == 0
    assert region_counts(summaries) == []


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
    rec2 = stage2_scan(base, lodf, model, case.calendar)  # intact and post-outage
    inj = injection_matrix(model, year, case.profile)
    return case, year, base, rec1, rec2, lodf, inj


def test_every_record_above_near_threshold(mesh6_scan):
    _, _, _, rec1, rec2, _, _ = mesh6_scan
    assert rec1 or outage_records(rec2)  # the fixture is tuned to produce findings
    for r in rec2:
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


def test_overload_energy_matches_record_recomputation(mesh6_scan):
    case, records = mesh6_scan[0], mesh6_scan[4]
    summaries = summarize(records, case.model)
    for s in summaries:
        worst = {}
        for r in records:
            if r.line_id == s.line_id and r.category == "overload":
                worst[r.hour] = max(worst.get(r.hour, 0.0), r.excess_mw)
        assert s.overload_energy_mwh == pytest.approx(sum(worst.values()))
        assert s.overload_hours == len(worst)


def test_workbook_roundtrip(tmp_path, mesh6_scan):
    case, _, _, rec1, records, _, _ = mesh6_scan
    files = write_workbook(records, summarize(records, case.model), tmp_path)
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


def _cli_screens(case):
    """``cli_screens`` of a case's year."""
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    lodf = compute_lodf(compute_ptdf(system, case.model), case.model)
    return cli_screens(year, case.model, system, case.profile, case.calendar, lodf)


# the bundled cases; mesh6 at 360 MW is the one with Stage 1 records
BUNDLED_CASES = ("triangle_case", "mesh6_case", "grid30_case", "parallel_paths_case",
                 "side_effect_case", "radial_feed_case", "capped_relief_case")
LOADED_MESH6 = cases.mesh6_case(demand_mw=360.0)


@pytest.mark.parametrize("name", BUNDLED_CASES + ("loaded_mesh6",))
def test_stage2_with_intact_records_is_the_sorted_concatenation(name):
    # the screen's intact records are Stage 1's over the same lines, bit for
    # bit, in each way the CLI monitors lines
    case = LOADED_MESH6 if name == "loaded_mesh6" else getattr(cases, name)()
    for rec1, records in _cli_screens(case):
        same_records(records, concat_records(rec1, outage_records(records)))


@pytest.mark.parametrize("name", BUNDLED_CASES + ("loaded_mesh6",))
def test_every_producer_hands_its_records_in_record_order(tmp_path, name):
    case = LOADED_MESH6 if name == "loaded_mesh6" else getattr(cases, name)()
    rec1, base, lodf = _screen_inputs(case)
    every_other = set(sorted(base.line_ids)[::2])
    for monitored in (None, every_other):
        assert_producers_keep_record_order(rec1, base, lodf, case.model, case.calendar,
                                           tmp_path, monitored)


def _blocks_logged(caplog) -> tuple[int, int]:
    """The season-block count and width of the last Stage 2 log line."""
    found = re.search(r"(\d+) season blocks of at most (\d+) hours", caplog.messages[-1])
    return tuple(map(int, found.groups()))


def _season_runs(calendar, hours) -> int:
    """The number of runs of one season in ``hours``."""
    is_summer = calendar.summer_mask[hours]
    return int(len(hours) > 0) + int(np.count_nonzero(is_summer[1:] != is_summer[:-1]))


@pytest.mark.parametrize("name", BUNDLED_CASES + ("loaded_mesh6",))
def test_stage2_and_summarize_in_hour_blocks_are_the_one_pass_references(
    monkeypatch, caplog, name
):
    # a year with infeasible hours, screened over every line, every other
    # line and Stage 1's lines (screen_from_stage1), in one block per season
    # run (BLOCK_CELLS 2^40), then in season blocks of BLOCK_CELLS 1,024 and
    # 64: the records are the reference order of the season-run scan's, and
    # the summaries the sorting reference's, bit for bit
    case = LOADED_MESH6 if name == "loaded_mesh6" else getattr(cases, name)()
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    feasible = year.feasible.copy()
    feasible[[*range(5), 4000, 8759]] = False
    year = dataclasses.replace(year, feasible=feasible)
    system = build_system(case.model)
    rec1, base = stage1_scan(year, case.model, system, case.profile, case.calendar)
    lodf = compute_lodf(compute_ptdf(system, case.model), case.model)
    at = np.searchsorted(base.hours, rec1.hour)  # Stage 1's hour columns
    n_runs = _season_runs(case.calendar, base.hours)  # 1 on a one-season calendar
    split_stage1 = False
    for monitored in (None, set(sorted(base.line_ids)[::2]), set(rec1.lines())):
        monkeypatch.setattr(dcflow, "BLOCK_CELLS", 1 << 40)
        with caplog.at_level(logging.INFO, logger="pfcplan.screening"):
            expected = in_record_order(stage2_scan(base, lodf, case.model, case.calendar,
                                                   monitored))
        monkeypatch.undo()
        assert _blocks_logged(caplog)[0] == (n_runs if monitored != set() else 0)
        expected_summary = [_hex(s) for s in summarize_by_sorting(expected, case.model)]
        for cells in (1024, 64):
            monkeypatch.setattr(dcflow, "BLOCK_CELLS", cells)
            with caplog.at_level(logging.INFO, logger="pfcplan.screening"):
                records = stage2_scan(base, lodf, case.model, case.calendar, monitored)
            summaries = summarize(records, case.model)
            monkeypatch.undo()
            same_records(records, expected)
            assert [_hex(s) for s in summaries] == expected_summary
            n_blocks, width = _blocks_logged(caplog)
            assert n_blocks > n_runs or monitored == set()  # a monitored line splits the runs
            # a block holds at most width hours: a block start inside Stage 1's records
            split_stage1 |= bool(len(at)) and at[-1] - at[0] >= width
    assert split_stage1 or not len(rec1)


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


def _screened_without_a_sort(monkeypatch) -> tuple[list[int], list[tuple]]:
    """``_only_16_bit_sorts``, with ``np.argsort`` refused inside
    ``screening._screen``; returns the lists the length of each sorted key
    and each ``_screen`` call's counters (season blocks, width, skipped
    (row, block) pairs, cells above the floor) go to."""
    keys, counters, screen = _only_16_bit_sorts(monkeypatch), [], screening._screen

    def no_sort(*args, **kwargs):
        raise AssertionError("np.argsort inside _screen")

    def unsorted_screen(*args):
        with monkeypatch.context() as inside:
            inside.setattr(np, "argsort", no_sort)
            records, *counts = screen(*args)
        counters.append(tuple(counts))
        return records, *counts

    monkeypatch.setattr(screening, "_screen", unsorted_screen)
    return keys, counters


def test_stage1_hands_its_records_over_in_record_order_with_no_sort(monkeypatch):
    # mesh6's 8 lines make 65,536 // 8 = 8,192-hour blocks, so each of the
    # year's season runs (2,160, 4,392 and 2,208 hours) is one block; at
    # 8,000 cells the blocks are 1,000 hours: 3 + 5 + 3 of them
    case = LOADED_MESH6
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    system = build_system(case.model)
    for cells, n_blocks, width in ((dcflow.BLOCK_CELLS, 3, 8192), (8000, 11, 1000)):
        monkeypatch.setattr(dcflow, "BLOCK_CELLS", cells)
        keys, counters = _screened_without_a_sort(monkeypatch)
        records, _ = stage1_scan(year, case.model, system, case.profile, case.calendar)
        monkeypatch.undo()
        assert keys == [] and [c[:2] for c in counters] == [(n_blocks, width)]
        # records in more than one 1,000-hour block, and hours with more than one
        assert records.hour[-1] - records.hour[0] > 1000
        assert len(np.unique(records.hour)) < len(records)
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


def _dense_screen(base, monitored):
    """``UNORDERED``'s screen over a flat calendar, one scalar at a time:
    each hour's intact loadings, then each outage's f_l + LODF[l,k] f_k, by
    line id, against the 100 MW rating; rows in ``OverloadRecord`` order."""
    lines = [i for i in sorted(range(3), key=LINE_IDS.__getitem__)
             if monitored is None or LINE_IDS[i] in monitored]
    rows = []
    for hour, flows in zip(base.hours.tolist(), base.flows_mw.tolist()):
        for k in [-1, *sorted(range(3), key=LINE_IDS.__getitem__)]:
            for i in lines:
                if i == k:
                    continue
                flow = flows[i] if k < 0 else flows[i] + float(UNORDERED_LODF.matrix[i, k]) * flows[k]
                pct = 100.0 * abs(flow) / 100.0
                if pct > 90.0:
                    over = pct > 100.0
                    rows.append((LINE_IDS[i], hour, LINE_IDS[k] if k >= 0 else None, pct,
                                 abs(flow) - 100.0 if over else 0.0,
                                 "overload" if over else "near"))
    return rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.floats(-150.0, 150.0), min_size=18, max_size=18),
       st.none() | st.sets(st.sampled_from(LINE_IDS)))
def test_stage2_matches_the_dense_screen_field_for_field(flows, monitored):
    # a line table not in line-id order, any monitored subset
    base = BaseFlows(np.arange(6), np.array(flows).reshape(6, 3), LINE_IDS)
    records = stage2_scan(base, UNORDERED_LODF, UNORDERED, cases.flat_calendar(), monitored)
    assert [tuple(r) for r in records] == _dense_screen(base, monitored)


def _unordered_screen():
    """Base flows, LODF, model and calendar of the ``UNORDERED`` triangle,
    whose line table is not in line-id order."""
    flows = np.array([[95.0, -120.0, 60.0], [50.0, 80.0, -99.0], [130.0, 10.0, -40.0],
                      [0.0, 0.0, 0.0], [99.0, 99.0, 99.0], [-150.0, 140.0, 20.0]])
    base = BaseFlows(np.arange(6), flows, LINE_IDS)
    return base, UNORDERED_LODF, UNORDERED, cases.flat_calendar()


@pytest.mark.parametrize("name", ["loaded_mesh6", "unordered_triangle"])
def test_the_screen_path_sorts_only_16_bit_keys(monkeypatch, name):
    if name == "loaded_mesh6":
        model, calendar = LOADED_MESH6.model, LOADED_MESH6.calendar
        _, base, lodf = _screen_inputs(LOADED_MESH6)
    else:
        base, lodf, model, calendar = _unordered_screen()
    expected = in_record_order(stage2_scan(base, lodf, model, calendar))
    n_intact = int((expected.contingency < 0).sum())
    assert n_intact
    expected_summary = summarize_by_sorting(expected, model)
    n_runs = _season_runs(calendar, base.hours)
    passes = []
    # one block per season run and one slice, then several (the triangle's
    # blocks are 1 hour)
    for cells in (dcflow.BLOCK_CELLS, 4096 if name == "loaded_mesh6" else 1):
        monkeypatch.setattr(dcflow, "BLOCK_CELLS", cells)
        keys, counters = _screened_without_a_sort(monkeypatch)
        records = stage2_scan(base, lodf, model, calendar)
        summary = summarize(records, model)
        monkeypatch.undo()
        same_records(records, expected)
        assert summary == expected_summary
        # the screen sorts nothing, and one pass per slice reads the rollups
        [(n_blocks, *_)] = counters
        assert len(keys) == len(screening._hour_slices(records.hour, cells))
        assert sum(keys) == len(expected) > n_intact
        passes.append((n_blocks, len(keys)))
    assert passes[0] == (n_runs, 1) and passes[1][0] > n_runs and passes[1][1] > 1


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
    got = summarize(records, model)
    expected = summarize_by_sorting(records, model)
    assert [_hex(s) for s in got] == [_hex(s) for s in expected]


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0), (3, 4)])
def test_hit_kernel_without_hours_or_lines_finds_nothing(shape):
    # the screen loop over (rows, hours): no feasible hour leaves a lines x 0
    # flow matrix, no row leaves nothing to check, and 3 rows without flow
    # over 4 hours around the spring season change are pruned in both of
    # their blocks: no record, no cell and no numpy warning (warnings are
    # errors here), and the index columns are int32
    n_rows, n_hours = shape
    hours = np.arange(2158, 2158 + n_hours)  # 2160 is the first summer hour
    base = BaseFlows(hours, np.zeros((n_hours, 3)), ("L1", "L2", "L3"))
    rows = (np.arange(n_rows, dtype=np.int32), np.array([-1, 0, 0][:n_rows], dtype=np.int32),
            np.array([0.0, 0.5, -0.5][:n_rows]))
    is_summer = SeasonCalendar.from_months().summer_mask[hours]
    records, n_blocks, _, n_skipped, n_cells = _screen(
        base, is_summer, np.ones((2, 3)), *rows, 90.0, 100.0
    )
    assert n_blocks == (2 if n_rows and n_hours else 0)
    assert n_cells == 0 and n_skipped == n_rows * n_blocks
    assert len(records) == 0
    assert all(getattr(records, name).dtype == np.int32 for name in ("line", "hour", "contingency"))


def test_scans_of_a_year_without_feasible_hours_find_nothing():
    model = cases.triangle(ratings={"L12": 85.0})
    _, base, system, year, profile, calendar = _scan(model, np.full(HOURS_PER_YEAR, 90.0))
    lodf = compute_lodf(compute_ptdf(system, model), model)
    assert len(stage2_scan(base, lodf, model, calendar))  # as dispatched, it has records
    year = dataclasses.replace(year, feasible=np.zeros(HOURS_PER_YEAR, dtype=bool))
    records, base = stage1_scan(year, model, system, profile, calendar)
    assert len(records) == 0 and base.flows_mw.shape == (0, len(model.lines))
    assert len(stage2_scan(base, lodf, model, calendar)) == 0


@pytest.mark.parametrize("name", ["grid30", "lattice"])
def test_stage1_holds_no_year_sized_array_but_its_flows_and_two_rhs(request, name):
    # Stage 1's working set: the injections, the reduced rhs and its
    # solution, and the base flows, with no other array the size of the year;
    # its tracemalloc peak above entry stays within the flows, two rhs and 1 MiB
    if name == "lattice":
        year, model, system, profile, calendar = request.getfixturevalue("lattice_year")
    else:
        case = cases.grid30_case()
        model, profile, calendar = case.model, case.profile, case.calendar
        year = run_year(model, profile, case.availability, case.snsp_cap)
        system = build_system(model)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        _, base = stage1_scan(year, model, system, profile, calendar)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    rhs_bytes = len(base.hours) * len(system.non_slack) * 8
    assert peak <= base.flows_mw.nbytes + 2 * rhs_bytes + 2**20


def _traced(fn, *args, **kwargs):
    """``fn``'s result and its tracemalloc peak above entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return result, peak


def _record_bytes(records) -> int:
    return sum(getattr(records, name).nbytes for name in RECORD_COLUMNS)


def test_stage2_holds_no_record_sized_order_or_gathered_copy(lattice_screen):
    # Stage 2 orders each hour block on its own and fills each column from
    # the blocks: its peak above entry stays within 1.5 times the records'
    # bytes and 1 MiB (a global order and gather of the joined set took 1.67)
    _, base, lodf, model, calendar = lattice_screen
    records, peak = _traced(stage2_scan, base, lodf, model, calendar,
                            near_pct=LOWERED_NEAR_PCT)
    assert len(records) > 300_000
    assert peak <= 1.5 * _record_bytes(records) + 2**20


def test_summarize_holds_one_slice_of_the_records(lattice_screen):
    # summarize reads the records in hour slices: its peak above entry stays
    # within a quarter of the records' bytes and 1 MiB (a by-line order and
    # gathered copies of every column took 1.45)
    _, base, lodf, model, calendar = lattice_screen
    records = stage2_scan(base, lodf, model, calendar, near_pct=LOWERED_NEAR_PCT)
    summaries, peak = _traced(summarize, records, model)
    assert summaries and len(records) > 300_000
    assert peak <= 0.25 * _record_bytes(records) + 2**20


# the screen's record count and sha256 of its columns (RECORD_COLUMNS in
# order, each column's bytes) on the lattice at near 55%, taken before Stage 1
# and Stage 2 shared one screen loop; no benchmark workload monitors a subset
SCREEN_DIGESTS = {
    "all": (355_883, "cf031fc11ebdc79d054f473d31c46f73acecc48f086be69e426171bff81e53b9"),
    "every_other": (160_866, "3c4d4ec8255f4f9a5f6747f58035b14b83cacf6944451053ce00d10d10b05508"),
    "from_stage1": (208_318, "072a5924e9a812c2e8cee78a40b3546fad827aad440d3988466f133285140d7a"),
}


@pytest.mark.parametrize("name", SCREEN_DIGESTS)
def test_lattice_screens_keep_their_pinned_digests(lattice_screen, name):
    # every line, every other line id, and screen_from_stage1 (the lines
    # Stage 1 flagged)
    rec1, base, lodf, model, calendar = lattice_screen
    monitored = {"all": None, "every_other": set(sorted(base.line_ids)[::2]),
                 "from_stage1": set(rec1.lines())}[name]
    records = stage2_scan(base, lodf, model, calendar, monitored, near_pct=LOWERED_NEAR_PCT)
    digest = hashlib.sha256()
    for column in RECORD_COLUMNS:
        digest.update(getattr(records, column).tobytes())
    assert (len(records), digest.hexdigest()) == SCREEN_DIGESTS[name]


def test_stage1_solves_every_feasible_hour_in_one_lu_solve():
    # SuperLU's bits for a column depend on the columns solved with it, so
    # the year is one solve, not chunks of hours
    case = cases.grid30_case()
    model = case.model
    year = run_year(model, case.profile, case.availability, case.snsp_cap)
    year = dataclasses.replace(year, feasible=np.arange(HOURS_PER_YEAR) % 5 > 0)
    system = build_system(model)
    widths = []

    class CountingLU:
        def solve(self, rhs):
            widths.append(rhs.shape[1])
            return system.lu.solve(rhs)

    counting = dataclasses.replace(system, lu=CountingLU())
    _, base = stage1_scan(year, model, counting, case.profile, case.calendar)
    assert widths == [len(base.hours)] == [HOURS_PER_YEAR * 4 // 5]
