import numpy as np
import pytest

from pfcplan import cases
from pfcplan.dispatch import (
    DemandProfile,
    DispatchInputError,
    ResAvailability,
    injection_matrix,
    load_demand_profile,
    load_res_availability,
    merit_order_dispatch,
    read_dispatch_outputs,
    run_year,
    write_dispatch_csv,
    write_dispatch_summary,
)
from pfcplan.network import HOURS_PER_YEAR, Bus, Generator, Line, NetworkModel


def _fleet_model(gens):
    # string of buses so every generator bus exists
    buses = tuple(Bus(f"B{i}", f"B{i}", 110.0, "W") for i in (1, 2))
    lines = (Line("L1", "B1", "B2", 0.1, 1000.0, 1000.0),)
    return NetworkModel(buses=buses, lines=lines, generators=tuple(gens), slack_bus="B1")


def _thermal(gid, p_max, srmc, p_min=0.0, bus="B1"):
    return Generator(gid, bus, "thermal", p_max, p_min, srmc, True)


def _wind(gid, p_max, bus="B1"):
    return Generator(gid, bus, "wind", p_max, 0.0, 0.0, False)


def test_single_unit_balances_demand():
    model = _fleet_model([_thermal("G1", 200.0, 30.0)])
    hour = merit_order_dispatch(model, 100.0, {}, snsp_cap=0.65)
    assert hour.outputs_mw[0] == pytest.approx(100.0)
    assert hour.snsp == 0.0
    assert hour.curtailed_mw == 0.0
    assert hour.feasible


def test_snsp_cap_binds_wind_scaled_and_curtailed():
    model = _fleet_model([_thermal("G1", 200.0, 30.0), _wind("W1", 100.0)])
    hour = merit_order_dispatch(model, 100.0, {"W1": 0.8}, snsp_cap=0.65)
    by_id = dict(zip(model.generator_ids, hour.outputs_mw))
    assert by_id["W1"] == pytest.approx(65.0)  # capped at 0.65 * 100
    assert hour.curtailed_mw == pytest.approx(15.0)
    assert by_id["G1"] == pytest.approx(35.0)
    assert hour.snsp == pytest.approx(0.65)


def test_capacity_shortfall_yields_infeasible_record():
    model = _fleet_model([_thermal("G1", 400.0, 30.0)])
    hour = merit_order_dispatch(model, 500.0, {}, snsp_cap=0.65)
    assert not hour.feasible
    assert hour.deficit_mw == pytest.approx(100.0)
    assert np.all(hour.outputs_mw == 0.0)


def test_merit_order_cheapest_first_with_id_tiebreak():
    model = _fleet_model(
        [
            _thermal("G_b", 50.0, 20.0),
            _thermal("G_a", 50.0, 20.0),  # same cost, earlier id
            _thermal("G_c", 100.0, 10.0),
        ]
    )
    hour = merit_order_dispatch(model, 130.0, {}, snsp_cap=0.65)
    by_id = dict(zip(model.generator_ids, hour.outputs_mw))
    assert by_id["G_c"] == pytest.approx(100.0)  # cheapest fills first
    assert by_id["G_a"] == pytest.approx(30.0)  # tie broken by id
    assert by_id["G_b"] == pytest.approx(0.0)


def test_p_min_clamp_pulls_back_cheaper_unit():
    model = _fleet_model(
        [_thermal("G1", 100.0, 10.0), _thermal("G2", 50.0, 20.0, p_min=20.0)]
    )
    hour = merit_order_dispatch(model, 110.0, {}, snsp_cap=0.65)
    by_id = dict(zip(model.generator_ids, hour.outputs_mw))
    assert by_id["G2"] == pytest.approx(20.0)  # clamped up to its floor
    assert by_id["G1"] == pytest.approx(90.0)  # surplus removed here
    assert hour.outputs_mw.sum() == pytest.approx(110.0)


def test_res_only_demand_no_cap():
    model = _fleet_model([_wind("W1", 100.0)])
    hour = merit_order_dispatch(model, 40.0, {"W1": 0.5}, snsp_cap=1.0)
    assert hour.outputs_mw[0] == pytest.approx(40.0)  # demand binds, not cap
    assert hour.curtailed_mw == pytest.approx(10.0)
    assert hour.snsp == pytest.approx(1.0)


def test_p_min_surplus_spills_into_res_curtailment():
    # the only thermal unit is clamped to its floor; with no cheaper unit to
    # back off, the excess comes out of the wind instead
    model = _fleet_model(
        [_thermal("G1", 100.0, 10.0, p_min=50.0), _wind("W1", 100.0)]
    )
    hour = merit_order_dispatch(model, 100.0, {"W1": 0.8}, snsp_cap=1.0)
    by_id = dict(zip(model.generator_ids, hour.outputs_mw))
    assert by_id["G1"] == pytest.approx(50.0)
    assert by_id["W1"] == pytest.approx(50.0)
    assert hour.curtailed_mw == pytest.approx(30.0)
    assert hour.outputs_mw.sum() == pytest.approx(100.0)


def test_p_min_overgeneration_is_infeasible():
    model = _fleet_model([_thermal("G1", 200.0, 10.0, p_min=150.0)])
    hour = merit_order_dispatch(model, 100.0, {}, snsp_cap=0.65)
    assert not hour.feasible
    assert hour.deficit_mw == pytest.approx(-50.0)  # running floor above demand


def _constant_profile(demand):
    return DemandProfile(
        demand_mw=np.full(HOURS_PER_YEAR, float(demand)), bus_shares={"B2": 1.0}
    )


def test_run_year_constant_inputs_identical_hours():
    model = _fleet_model([_thermal("G1", 200.0, 30.0), _wind("W1", 50.0)])
    year = run_year(
        model,
        _constant_profile(100.0),
        ResAvailability(factors={"W1": np.full(HOURS_PER_YEAR, 0.6)}),
        snsp_cap=0.65,
    )
    assert year.outputs_mw.shape == (HOURS_PER_YEAR, 2)
    assert (year.outputs_mw == year.outputs_mw[0]).all()
    assert (year.snsp == year.snsp[0]).all()


def test_run_year_zero_demand_zero_output():
    model = _fleet_model([_thermal("G1", 200.0, 30.0)])
    year = run_year(
        model, _constant_profile(0.0), ResAvailability(factors={}), snsp_cap=0.65
    )
    assert np.all(year.outputs_mw == 0.0)


def test_run_year_flags_single_infeasible_hour():
    model = _fleet_model([_thermal("G1", 200.0, 30.0)])
    demand = np.full(HOURS_PER_YEAR, 100.0)
    demand[4000] = 500.0
    year = run_year(
        model,
        DemandProfile(demand_mw=demand, bus_shares={"B2": 1.0}),
        ResAvailability(factors={}),
        snsp_cap=0.65,
    )
    assert year.infeasible_hours == (4000,)
    assert len(year.feasible_hours) == HOURS_PER_YEAR - 1


def test_run_year_requires_availability_for_renewables():
    model = _fleet_model([_thermal("G1", 200.0, 30.0), _wind("W1", 50.0)])
    with pytest.raises(DispatchInputError, match="W1"):
        run_year(
            model, _constant_profile(100.0), ResAvailability(factors={}), snsp_cap=0.65
        )


# -- injections ---------------------------------------------------------------


def test_two_bus_injection_vector():
    model = _fleet_model([_thermal("G1", 200.0, 30.0)])
    profile = _constant_profile(100.0)
    year = run_year(model, profile, ResAvailability(factors={}), snsp_cap=0.65)
    inj = injection_matrix(model, year, profile)
    assert inj[0] == pytest.approx([100.0, -100.0])


def test_split_demand_injections():
    model = NetworkModel(
        buses=(Bus("B1", "B1", 110, "W"), Bus("B2", "B2", 110, "W")),
        lines=(Line("L1", "B1", "B2", 0.1, 1000, 1000),),
        generators=(_thermal("G1", 200.0, 30.0, bus="B1"),),
        slack_bus="B1",
    )
    profile = DemandProfile(
        demand_mw=np.full(HOURS_PER_YEAR, 100.0),
        bus_shares={"B1": 0.5, "B2": 0.5},
    )
    year = run_year(model, profile, ResAvailability(factors={}), snsp_cap=0.65)
    inj = injection_matrix(model, year, profile)
    assert inj[0] == pytest.approx([50.0, -50.0])


def test_injections_sum_to_zero_every_feasible_hour():
    case = cases.grid30_case()
    year = run_year(case.model, case.profile, case.availability, case.snsp_cap)
    inj = injection_matrix(case.model, year, case.profile)
    feasible = np.array(year.feasible_hours)
    assert np.abs(inj[feasible].sum(axis=1)).max() < 1e-6


# -- invariants over random fleets ---------------------------------------------


def _random_fleet(rng, n_thermal=4, n_wind=2):
    gens = [
        _thermal(f"T{i}", rng.uniform(50, 200), rng.uniform(10, 80))
        for i in range(n_thermal)
    ]
    gens += [_wind(f"W{i}", rng.uniform(30, 120)) for i in range(n_wind)]
    return _fleet_model(gens)


def test_energy_balance_and_cap_over_random_hours():
    rng = np.random.default_rng(101)
    for _ in range(50):
        model = _random_fleet(rng)
        demand = rng.uniform(0, 500)
        cap = rng.uniform(0.3, 1.0)
        factors = {g.id: rng.uniform(0, 1) for g in model.generators if g.kind == "wind"}
        hour = merit_order_dispatch(model, demand, factors, snsp_cap=cap)
        if not hour.feasible:
            continue
        assert abs(hour.outputs_mw.sum() - demand) <= 1e-6
        assert hour.snsp <= cap + 1e-9
        nonsync = np.array([not g.synchronous for g in model.generators])
        assert np.all(hour.outputs_mw >= -1e-12)
        avail = np.array(
            [
                factors.get(g.id, 1.0) * g.p_max_mw if not g.synchronous else g.p_max_mw
                for g in model.generators
            ]
        )
        assert np.all(hour.outputs_mw <= avail + 1e-9)
        # curtailment only when the cap or demand binds
        if hour.curtailed_mw > 1e-9:
            res_out = hour.outputs_mw[nonsync].sum()
            assert res_out == pytest.approx(
                min(cap * demand, demand), abs=1e-6
            )


def test_merit_order_no_inversion_on_zero_pmin_fleets():
    rng = np.random.default_rng(202)
    for _ in range(50):
        model = _random_fleet(rng, n_wind=0)
        demand = rng.uniform(0, 400)
        hour = merit_order_dispatch(model, demand, {}, snsp_cap=0.65)
        if not hour.feasible:
            continue
        gens = model.generators
        order = sorted(range(len(gens)), key=lambda i: (gens[i].srmc, gens[i].id))
        for later_pos in range(len(order)):
            for earlier_pos in range(later_pos):
                i, j = order[earlier_pos], order[later_pos]
                if gens[i].srmc < gens[j].srmc and hour.outputs_mw[j] > 1e-9:
                    assert hour.outputs_mw[i] == pytest.approx(gens[i].p_max_mw)


def test_curtailment_monotone_in_snsp_cap():
    model = _fleet_model([_thermal("G1", 300.0, 30.0), _wind("W1", 120.0)])
    demand, factor = 150.0, 0.9
    caps = np.linspace(0.1, 1.0, 10)
    curtailed = [
        merit_order_dispatch(model, demand, {"W1": factor}, snsp_cap=float(c)).curtailed_mw
        for c in caps
    ]
    # decreasing the cap never decreases curtailment
    assert all(a >= b - 1e-9 for a, b in zip(curtailed, curtailed[1:]))


# -- file interfaces ------------------------------------------------------------


def _grid30_year():
    case = cases.grid30_case()
    return case.model, case.profile, case.availability, case.snsp_cap


def _one_infeasible_hour_year():
    demand = np.full(HOURS_PER_YEAR, 100.0)
    demand[4000] = 500.0
    model = _fleet_model([_thermal("G1", 200.0, 30.0), _thermal("G2", 150.0, 20.0)])
    profile = DemandProfile(demand_mw=demand, bus_shares={"B2": 1.0})
    return model, profile, ResAvailability(factors={}), 0.65


def _curtailing_year():
    # wind available up to 120 MW against a 20% SNSP cap on 100-160 MW demand
    hours = np.arange(HOURS_PER_YEAR)
    demand = 130.0 + 30.0 * np.sin(hours / 24.0)
    model = _fleet_model([_thermal("G1", 300.0, 30.0), _wind("W1", 120.0)])
    profile = DemandProfile(demand_mw=demand, bus_shares={"B2": 1.0})
    factors = {"W1": (hours % 97) / 96.0}
    return model, profile, ResAvailability(factors=factors), 0.2


@pytest.mark.parametrize(
    "make_year", [_grid30_year, _one_infeasible_hour_year, _curtailing_year]
)
def test_year_read_back_equals_the_computed_year(tmp_path, make_year):
    model, profile, availability, snsp_cap = make_year()
    year = run_year(model, profile, availability, snsp_cap, scenario="s")
    write_dispatch_csv(year, tmp_path / "dispatch.csv")
    write_dispatch_summary(year, tmp_path / "dispatch_summary.json")
    back = read_dispatch_outputs(
        tmp_path / "dispatch.csv", tmp_path / "dispatch_summary.json", model
    )
    for column in ("outputs_mw", "curtailed_mw", "snsp", "feasible"):
        computed, read = getattr(year, column), getattr(back, column)
        assert read.dtype == computed.dtype and read.shape == computed.shape, column
        assert read.tobytes() == computed.tobytes(), column
    assert (back.generator_ids, back.snsp_cap, back.scenario) == (
        year.generator_ids, year.snsp_cap, year.scenario
    )
    assert back.infeasible_hours == year.infeasible_hours
    assert (
        injection_matrix(model, back, profile).tobytes()
        == injection_matrix(model, year, profile).tobytes()
    )
    if make_year is _one_infeasible_hour_year:
        assert year.infeasible_hours == (4000,)
    if make_year is _curtailing_year:
        assert (year.curtailed_mw > 0).sum() > HOURS_PER_YEAR // 2


def test_demand_and_availability_roundtrip(tmp_path):
    case = cases.mesh6_case()
    paths = cases.write_study_inputs(case, tmp_path)
    profile = load_demand_profile(paths["demand"], paths["bus_shares"], case.model.bus_by_id)
    assert np.array_equal(profile.demand_mw, case.profile.demand_mw)
    assert profile.bus_shares == case.profile.bus_shares
    availability = load_res_availability(paths["res_availability"])
    assert set(availability.factors) == set(case.availability.factors)
    for gid in availability.factors:
        assert np.array_equal(
            availability.factors[gid], case.availability.factors[gid]
        )


def test_demand_file_must_cover_every_hour(tmp_path):
    (tmp_path / "demand.csv").write_text("hour,demand_mw\n0,100\n1,100\n")
    (tmp_path / "shares.csv").write_text("bus,share\nB1,1.0\n")
    with pytest.raises(DispatchInputError, match="missing"):
        load_demand_profile(tmp_path / "demand.csv", tmp_path / "shares.csv", {"B1"})


def test_bad_shares_rejected():
    with pytest.raises(DispatchInputError, match=r"sum to 1, got 1\.1$"):
        DemandProfile(
            demand_mw=np.zeros(HOURS_PER_YEAR), bus_shares={"B1": 0.5, "B2": 0.6}
        )


def test_availability_outside_unit_interval_rejected():
    with pytest.raises(DispatchInputError):
        ResAvailability(factors={"W1": np.full(HOURS_PER_YEAR, 1.2)})
