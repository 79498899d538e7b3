"""Acceptance gate: one test per primary criterion, each printing a PASS/FAIL
line (visible under ``pytest tests/test_acceptance.py -v -s``).

Oracles are independent of the code paths they check: dense linear algebra
for the sparse solver, exact outage re-solves for the LODF shortcut,
union-find bridges for islanding marks, and a stdlib-only aggregation over
the raw CSVs for the report tie-out.
"""

import csv
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pfcplan import cases
from pfcplan.cli import main
from pfcplan.dcflow import build_system, solve_flows, solve_with_outage
from pfcplan.dispatch import (
    injection_matrix,
    merit_order_dispatch,
    run_year,
)
from pfcplan.network import (
    HOURS_PER_YEAR,
    Bus,
    Generator,
    Line,
    NetworkModel,
)
from pfcplan.screening import stage1_scan, stage2_scan
from pfcplan.shift_factors import compute_lodf, compute_ptdf
from pfcplan.siting import (
    FULLY_RESOLVED,
    NO_CHANGE,
    PARTIALLY_RESOLVED,
    PfcCandidate,
    assess_target,
    pair_table,
)

from conftest import (
    balanced_injection,
    dense_dc_flows,
    graph_bridges,
    min_reactance_increase,
    post_contingency_flows,
)
from test_cli import _normalized_tree, _study


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def _pipeline(case):
    model = case.model
    year = run_year(model, case.profile, case.availability, case.snsp_cap)
    system = build_system(model)
    _, base = stage1_scan(year, model, system, case.profile, case.calendar)
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    records = stage2_scan(base, lodf, model, case.calendar)
    injections = injection_matrix(model, year, case.profile)
    return model, year, base, records, injections, ptdf, lodf


def test_lodf_oracle_equivalence():
    """Shift-factor contingency flows match exact outage re-solves."""
    with criterion("LODF oracle equivalence (triangle, mesh6, grid30; <10s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        for model in (cases.triangle(), cases.mesh6(), cases.grid30()):
            system = build_system(model)
            ptdf = compute_ptdf(system, model)
            lodf = compute_lodf(ptdf, model)
            outages = lodf.non_islanding_outages()
            injections = [
                balanced_injection(rng, len(model.buses), scale=60.0)
                for _ in range(20)
            ]
            exact_by_outage = {}
            for outage in outages:
                for k, inj in enumerate(injections):
                    exact_by_outage[(outage, k)] = solve_with_outage(
                        model, inj, outage
                    ).flows_mw
            for k, inj in enumerate(injections):
                base = solve_flows(system, inj)
                for outage in outages:
                    approx = post_contingency_flows(base, lodf, outage)
                    exact = exact_by_outage[(outage, k)]
                    rel = np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))
                    assert rel.max() < 1e-6, (model.slack_bus, outage, rel.max())
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_dc_solver_oracle():
    """Sparse solution equals an independent dense solve on small fixtures."""
    with criterion("DC solver oracle (dense agreement 1e-9; triangle 60/30/30)"):
        tri_system = build_system(cases.triangle())
        sol = solve_flows(tri_system, np.array([90.0, 0.0, -90.0]))
        assert sol.flow_of("L13") == pytest.approx(60.0, abs=1e-9)
        assert sol.flow_of("L12") == pytest.approx(30.0, abs=1e-9)
        assert sol.flow_of("L23") == pytest.approx(30.0, abs=1e-9)

        rng = np.random.default_rng(77)
        small = [
            cases.triangle(),
            cases.radial_pair(),
            cases.mesh6(),
            cases.parallel_paths_case().model,
            cases.side_effect_case().model,
            cases.radial_feed_case().model,
            cases.capped_relief_case().model,
        ]
        for model in small:
            assert len(model.buses) <= 10
            system = build_system(model)
            for _ in range(10):
                inj = balanced_injection(rng, len(model.buses))
                got = solve_flows(system, inj)
                expect = dense_dc_flows(model, inj)
                for lid, value in expect.items():
                    err = abs(got.flow_of(lid) - value)
                    assert err <= 1e-9 * max(1.0, abs(value))


def test_taxonomy_reproduction():
    """The three bundled outcome fixtures hit their three classes."""
    with criterion("Taxonomy reproduction (fully / partially / no-change)"):
        model, _, _, records, injections, ptdf, lodf = _pipeline(
            cases.parallel_paths_case()
        )
        fully = assess_target(
            "LB", pair_table(records, model, injections, cases.flat_calendar(), lodf)
        )
        assert fully.classification == FULLY_RESOLVED
        assert fully.side_effect_lines == ()

        model, _, _, records, injections, ptdf, lodf = _pipeline(
            cases.side_effect_case()
        )
        partial = assess_target(
            "T", pair_table(records, model, injections, cases.flat_calendar(), lodf)
        )
        assert partial.classification == PARTIALLY_RESOLVED
        assert "B" in partial.side_effect_lines  # the interaction line, listed

        model, _, _, records, injections, ptdf, lodf = _pipeline(
            cases.radial_feed_case()
        )
        unresolvable = assess_target(
            "T", pair_table(records, model, injections, cases.flat_calendar(), lodf)
        )
        assert unresolvable.classification == NO_CHANGE


def _tree_with_loop_model():
    # loop A-B-C plus a two-bridge tail C-D-E
    return NetworkModel(
        buses=tuple(Bus(b, b, 110.0, "W") for b in "ABCDE"),
        lines=(
            Line("AB", "A", "B", 0.2, 100, 100),
            Line("BC", "B", "C", 0.2, 100, 100),
            Line("CA", "C", "A", 0.2, 100, 100),
            Line("CD", "C", "D", 0.3, 100, 100),
            Line("DE", "D", "E", 0.3, 100, 100),
        ),
        generators=(Generator("G1", "A", "thermal", 100, 0, 10, True),),
        slack_bus="A",
    )


def test_radial_invariance():
    """Reactance increases on bridge lines cannot move any flow."""
    with criterion("Radial invariance on every bridge line (delta 0..40%)"):
        rng = np.random.default_rng(55)
        for model in (
            cases.radial_pair(),
            _tree_with_loop_model(),
            cases.radial_feed_case().model,
        ):
            bridges = graph_bridges(model)
            base_system = build_system(model)
            inj = balanced_injection(rng, len(model.buses), scale=30.0)
            base = solve_flows(base_system, inj)
            for bridge in bridges:
                for delta in (0.0, 10.0, 20.0, 30.0, 40.0):
                    scaled = build_system(
                        model, reactance_scale={bridge: 1 + delta / 100}
                    )
                    sol = solve_flows(scaled, inj)
                    assert np.abs(sol.flows_mw - base.flows_mw).max() <= 1e-9
        # sanity: the fixture set actually contains bridges
        assert graph_bridges(cases.radial_pair()) == {"L1"}
        assert graph_bridges(_tree_with_loop_model()) == {"CD", "DE"}


def test_bisection_sizing():
    """Minimal increase on the triangle matches the closed-form divider."""
    with criterion("Bisection sizing (triangle, 55 MW: delta = 27.3 +/- 0.1pp)"):
        model = cases.triangle()
        inj = np.array([90.0, 0.0, -90.0])
        cand = PfcCandidate(target_line="L13", pfc_line="L13", score=1.0)
        delta = min_reactance_increase(model, inj, None, cand, rating_mw=55.0)
        closed_form = 300.0 / 11.0  # flow(d) = 90 / (1 + (1 + d/100)/2) = 55
        assert delta is not None
        assert abs(delta - closed_form) <= 0.1
        at_delta = build_system(model, reactance_scale={"L13": 1 + delta / 100})
        assert abs(solve_flows(at_delta, inj).flow_of("L13")) <= 55.0
        below = build_system(
            model, reactance_scale={"L13": 1 + (delta - 0.1) / 100}
        )
        assert abs(solve_flows(below, inj).flow_of("L13")) > 55.0


def _boundary_scan(demand_value, rating, x=0.125):
    model = NetworkModel(
        buses=(Bus("B1", "B1", 110, "W"), Bus("B2", "B2", 110, "E")),
        lines=(Line("L1", "B1", "B2", x, rating, rating),),
        generators=(Generator("G1", "B1", "thermal", 500, 0, 10, True),),
        slack_bus="B1",
    )
    demand = np.full(HOURS_PER_YEAR, 1.0)
    demand[0] = demand_value
    case_profile = cases.DemandProfile(demand_mw=demand, bus_shares={"B2": 1.0})
    year = run_year(model, case_profile, cases.ResAvailability(factors={}), 1.0)
    system = build_system(model)
    records, _ = stage1_scan(
        year, model, system, case_profile, cases.flat_calendar()
    )
    return [r for r in records if r.hour == 0]


def test_threshold_partition():
    """Records exactly for loadings > 90%, split near/overload at 100%."""
    with criterion("Threshold partition (90% strict, 100% class boundary)"):
        assert _boundary_scan(90.0, 100.0) == []  # exactly 90%: nothing
        near = _boundary_scan(95.0, 100.0)
        assert [r.category for r in near] == ["near"]
        assert near[0].excess_mw == 0.0
        at_100 = _boundary_scan(90.0, 90.0)  # loading exactly 100.0%
        assert [r.category for r in at_100] == ["near"]
        over = _boundary_scan(104.0, 100.0)
        assert [r.category for r in over] == ["overload"]
        assert over[0].excess_mw == pytest.approx(4.0)
        assert over[0].loading_pct == pytest.approx(104.0)


def test_year_scale_performance():
    """A year of Stage 1 + Stage 2 on the 30-bus grid in under 60 s."""
    with criterion("Year-scale performance (8760h stage 1+2 on grid30 < 60s)"):
        case = cases.grid30_case()
        model = case.model
        assert len(model.buses) == 30 and len(model.in_service_lines) == 41
        year = run_year(model, case.profile, case.availability, case.snsp_cap)
        start = time.perf_counter()
        system = build_system(model)
        rec1, base = stage1_scan(
            year, model, system, case.profile, case.calendar
        )
        ptdf = compute_ptdf(system, model)
        lodf = compute_lodf(ptdf, model)
        rec2 = stage2_scan(base, lodf, model, case.calendar)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        assert base.flows_mw.shape == (len(year.feasible_hours), 41)
        assert rec2, "the grid fixture is tuned to produce N-1 findings"
        print(
            f"  (stage 1+2 in {elapsed:.2f}s, {len(rec1)} + {len(rec2)} records)"
        )


def test_dispatch_properties():
    """Balance, merit order, SNSP cap, and curtailment monotonicity."""
    with criterion("Dispatch properties (balance, merit order, SNSP, monotone)"):
        rng = np.random.default_rng(808)
        buses = (Bus("B1", "B1", 110, "W"), Bus("B2", "B2", 110, "E"))
        lines = (Line("L1", "B1", "B2", 0.1, 5000, 5000),)
        for _ in range(100):
            gens = [
                Generator(f"T{i}", "B1", "thermal", rng.uniform(50, 200), 0.0,
                          round(rng.uniform(10, 80), 2), True)
                for i in range(4)
            ] + [
                Generator(f"W{i}", "B2", "wind", rng.uniform(20, 150), 0.0,
                          0.0, False)
                for i in range(2)
            ]
            model = NetworkModel(
                buses=buses, lines=lines, generators=tuple(gens), slack_bus="B1"
            )
            demand = float(rng.uniform(0, 600))
            cap = float(rng.uniform(0.2, 1.0))
            factors = {g.id: float(rng.uniform(0, 1)) for g in gens if not g.synchronous}
            hour = merit_order_dispatch(model, demand, factors, snsp_cap=cap)
            if not hour.feasible:
                continue
            assert abs(hour.outputs_mw.sum() - demand) <= 1e-6
            assert hour.snsp <= cap + 1e-9
            order = sorted(
                range(len(gens)), key=lambda i: (gens[i].srmc, gens[i].id)
            )
            thermal = [i for i in order if gens[i].synchronous]
            for a_pos in range(len(thermal)):
                for b_pos in range(a_pos + 1, len(thermal)):
                    i, j = thermal[a_pos], thermal[b_pos]
                    if gens[i].srmc < gens[j].srmc and hour.outputs_mw[j] > 1e-9:
                        assert hour.outputs_mw[i] == pytest.approx(
                            gens[i].p_max_mw
                        ), "merit-order inversion"

        # year-total curtailment over a 10-point cap sweep, monotone
        case = cases.mesh6_case()
        totals = []
        for cap in np.linspace(0.1, 1.0, 10):
            year = run_year(
                case.model, case.profile, case.availability, float(cap)
            )
            totals.append(sum(year.curtailed_mw.tolist()))
        assert all(a >= b - 1e-6 for a, b in zip(totals, totals[1:]))
        assert totals[0] > totals[-1]  # the sweep actually exercises the cap


# -- determinism & tie-out --------------------------------------------------------


def _independent_aggregation(out_dir: Path):
    """Recompute the report's counts from the raw CSVs with the stdlib only."""
    region_of_bus = {}
    with open(out_dir / ".." / "inputs" / "buses.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            region_of_bus[row["id"]] = row["region"]
    region_of_line = {}
    with open(out_dir / ".." / "inputs" / "lines.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            region_of_line[row["id"]] = region_of_bus[row["from_bus"]]

    per_line = {}
    with open(out_dir / "overloads.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            entry = per_line.setdefault(
                row["line"],
                {"over": set(), "near": set(), "max": 0.0, "worst": {}, "ctg": set()},
            )
            pct = float(row["loading_pct"])
            entry["max"] = max(entry["max"], pct)
            hour = int(row["hour"])
            if row["class"] == "overload":
                entry["over"].add(hour)
                entry["worst"][hour] = max(
                    entry["worst"].get(hour, 0.0), float(row["excess_mw"])
                )
                if row["contingency"]:
                    entry["ctg"].add(row["contingency"])
            else:
                entry["near"].add(hour)

    regional = {}
    for line, entry in per_line.items():
        if entry["over"]:
            region = region_of_line[line]
            regional[region] = regional.get(region, 0) + 1
    return per_line, regional


def test_determinism_and_tieout(tmp_path):
    """Re-runs are byte-identical modulo the timestamp; counts re-derivable."""
    with criterion("Determinism & tie-out (byte-identical; counts reproduced)"):
        case = cases.side_effect_case()
        config_a, out_a = _study(tmp_path, case, name="runA")
        config_b, out_b = _study(tmp_path, case, name="runB")
        assert main(["run-all", "--config", str(config_a)]) == 0
        assert main(["run-all", "--config", str(config_b)]) == 0
        assert _normalized_tree(out_a) == _normalized_tree(out_b)

        per_line, regional = _independent_aggregation(out_a)
        summary = json.loads((out_a / "report" / "summary.json").read_text())
        assert summary["regional_overloaded_lines"] == regional
        duration_by_line = {
            d["line"]: d for d in summary["line_durations"]
        }
        assert set(duration_by_line) == set(per_line)
        for line, entry in per_line.items():
            reported = duration_by_line[line]
            assert reported["overload_hours"] == len(entry["over"])
            assert reported["near_hours"] == len(entry["near"])
            assert reported["max_loading_pct"] == pytest.approx(entry["max"])
            assert reported["overload_energy_mwh"] == pytest.approx(
                sum(entry["worst"].values())
            )
            assert reported["contingency_count"] == len(entry["ctg"])
        # the summary's screening totals tie out as well
        assert summary["screening"]["overloaded_lines"] == sum(regional.values())
        with open(out_a / "overloads.csv", newline="") as fh:
            n_over = sum(1 for row in csv.DictReader(fh) if row["class"] == "overload")
        assert summary["screening"]["overload_records"] == n_over

        # and the outcome breakdown percentages from pfc_outcomes.csv
        with open(out_a / "pfc_outcomes.csv", newline="") as fh:
            outcome_rows = list(csv.DictReader(fh))
        counts = {"FullyResolved": 0, "PartiallyResolved": 0, "NoChange": 0}
        for row in outcome_rows:
            counts[row["classification"]] += 1
        expected_pct = {
            k: 100.0 * v / len(outcome_rows) if outcome_rows else 0.0
            for k, v in counts.items()
        }
        assert summary["pfc_breakdown_pct"] == pytest.approx(expected_pct)
