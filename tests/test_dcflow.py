import importlib.util
import re
import sys
import types

import numpy as np
import pytest
import scipy
from scipy.sparse.linalg._dsolve import linsolve

from pfcplan import cases, dcflow
from pfcplan.dcflow import (
    ImbalanceError,
    IslandingError,
    build_system,
    solve_flows,
    solve_with_outage,
    susceptance_matrix,
)

from conftest import balanced_injection, dense_dc_flows, reduced_matrix, two_bus_model


def test_two_bus_reduced_system():
    reduced = reduced_matrix(build_system(two_bus_model(x=0.1)))
    assert reduced.shape == (1, 1)
    assert reduced.toarray()[0, 0] == pytest.approx(10.0)


def test_factorization_calls_the_superlu_entry_point_splu_calls():
    # dcflow skips splu's wrapper and calls the private C function splu ends
    # in; a scipy whose splu calls something else must fail here
    assert getattr(linsolve._superlu, "gstrf", None) is dcflow._gstrf, (
        f"scipy {scipy.__version__}: splu no longer factorizes through "
        "scipy.sparse.linalg._dsolve._superlu.gstrf"
    )


def test_a_moved_superlu_entry_point_fails_the_import_naming_scipy(monkeypatch):
    stub = types.ModuleType("scipy.sparse.linalg._dsolve._superlu")  # no gstrf
    monkeypatch.setitem(sys.modules, stub.__name__, stub)
    spec = importlib.util.spec_from_file_location("pfcplan._dcflow_probe", dcflow.__file__)
    with pytest.raises(ImportError, match=re.escape(f"scipy {scipy.__version__} ")):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_triangle_full_matrix_entries(triangle):
    B = susceptance_matrix(triangle).toarray()
    assert np.allclose(np.diag(B), [2.0, 2.0, 2.0])
    off = B[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -1.0)
    assert np.allclose(B, B.T)  # symmetric


def test_out_of_service_line_excluded_from_matrix(triangle):
    import dataclasses

    lines = tuple(
        dataclasses.replace(ln, in_service=(ln.id != "L23")) for ln in triangle.lines
    )
    model = dataclasses.replace(triangle, lines=lines)
    B = susceptance_matrix(model).toarray()
    assert B[1, 2] == 0.0  # no coupling left between B2 and B3


def test_two_bus_single_path_flow():
    system = build_system(two_bus_model(x=0.1))
    sol = solve_flows(system, np.array([100.0, -100.0]))
    assert sol.flow_of("L1") == pytest.approx(100.0)
    assert sol.angles[0] == 0.0  # slack angle pinned


def test_triangle_transfer_splits_60_30_30(triangle):
    system = build_system(triangle)
    sol = solve_flows(system, np.array([90.0, 0.0, -90.0]))
    assert sol.flow_of("L13") == pytest.approx(60.0)
    assert sol.flow_of("L12") == pytest.approx(30.0)
    assert sol.flow_of("L23") == pytest.approx(30.0)


def test_zero_injection_zero_flow(triangle):
    system = build_system(triangle)
    sol = solve_flows(system, np.zeros(3))
    assert np.all(sol.flows_mw == 0.0)
    assert np.all(sol.angles == 0.0)


def test_unbalanced_injections_rejected(triangle):
    system = build_system(triangle)
    with pytest.raises(ImbalanceError, match="do not balance: residual 1.000e[+]01 MW"):
        solve_flows(system, np.array([90.0, 0.0, -80.0]))


def test_sub_tolerance_residual_lands_on_slack(triangle):
    system = build_system(triangle)
    sol = solve_flows(system, np.array([90.0, 0.0, -90.0 + 5e-7]))
    assert sol.flow_of("L13") == pytest.approx(60.0, abs=1e-5)


def test_sparse_matches_dense_oracle_on_small_fixtures():
    rng = np.random.default_rng(7)
    models = [
        two_bus_model(),
        cases.triangle(),
        cases.mesh6(),
        cases.radial_pair(),
        cases.parallel_paths_case().model,
        cases.side_effect_case().model,
        cases.radial_feed_case().model,
        cases.capped_relief_case().model,
    ]
    for model in models:
        assert len(model.buses) <= 10
        system = build_system(model)
        for _ in range(5):
            inj = balanced_injection(rng, len(model.buses))
            sol = solve_flows(system, inj)
            oracle = dense_dc_flows(model, inj)
            for lid, expect in oracle.items():
                got = sol.flow_of(lid)
                assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


def test_nodal_balance_at_every_bus(mesh6):
    rng = np.random.default_rng(11)
    system = build_system(mesh6)
    pos = mesh6.bus_index
    for _ in range(10):
        inj = balanced_injection(rng, len(mesh6.buses))
        sol = solve_flows(system, inj)
        net = np.array(inj, float)
        for ln, flow in zip(mesh6.in_service_lines, sol.flows_mw):
            net[pos[ln.from_bus]] -= flow
            net[pos[ln.to_bus]] += flow
        assert np.abs(net).max() < 1e-6


def test_linearity(mesh6):
    rng = np.random.default_rng(13)
    system = build_system(mesh6)
    inj = balanced_injection(rng, len(mesh6.buses))
    one = solve_flows(system, inj)
    scaled = solve_flows(system, 3.5 * inj)
    assert np.allclose(scaled.flows_mw, 3.5 * one.flows_mw, rtol=1e-12, atol=1e-9)


def test_reversed_line_orientation_negates_only_that_flow(triangle):
    import dataclasses

    inj = np.array([90.0, 0.0, -90.0])
    fwd = solve_flows(build_system(triangle), inj)
    lines = tuple(
        dataclasses.replace(ln, from_bus=ln.to_bus, to_bus=ln.from_bus)
        if ln.id == "L13"
        else ln
        for ln in triangle.lines
    )
    flipped_model = dataclasses.replace(triangle, lines=lines)
    rev = solve_flows(build_system(flipped_model), inj)
    assert rev.flow_of("L13") == pytest.approx(-fwd.flow_of("L13"))
    assert rev.flow_of("L12") == pytest.approx(fwd.flow_of("L12"))
    assert rev.flow_of("L23") == pytest.approx(fwd.flow_of("L23"))


# -- outage solves ------------------------------------------------------------


def test_triangle_outage_series_path(triangle):
    sol = solve_with_outage(triangle, np.array([90.0, 0.0, -90.0]), "L13")
    assert sol.flow_of("L12") == pytest.approx(90.0)
    assert sol.flow_of("L23") == pytest.approx(90.0)
    assert sol.flow_of("L13") == 0.0


def test_bridge_outage_raises_islanding(radial_pair):
    with pytest.raises(IslandingError) as err:
        solve_with_outage(radial_pair, np.array([50.0, -50.0]), "L1")
    assert err.value.separated == {"R2"}


def test_outage_of_zero_flow_line_changes_nothing():
    # symmetric diamond: the cross line carries nothing for this transfer
    from pfcplan.network import Bus, Generator, Line, NetworkModel

    model = NetworkModel(
        buses=(
            Bus("B1", "A", 110, "W"),
            Bus("B2", "B", 110, "W"),
            Bus("B3", "C", 110, "W"),
            Bus("B4", "D", 110, "W"),
        ),
        lines=(
            Line("LU1", "B1", "B2", 0.1, 100, 100),
            Line("LU2", "B2", "B4", 0.1, 100, 100),
            Line("LL1", "B1", "B3", 0.1, 100, 100),
            Line("LL2", "B3", "B4", 0.1, 100, 100),
            Line("LX", "B2", "B3", 0.2, 100, 100),
        ),
        generators=(Generator("G1", "B1", "thermal", 200, 0, 10, True),),
        slack_bus="B1",
    )
    inj = np.array([80.0, 0.0, 0.0, -80.0])
    base = solve_flows(build_system(model), inj)
    assert base.flow_of("LX") == pytest.approx(0.0, abs=1e-9)
    out = solve_with_outage(model, inj, "LX")
    for lid in ("LU1", "LU2", "LL1", "LL2"):
        assert out.flow_of(lid) == pytest.approx(base.flow_of(lid), abs=1e-9)


def test_outage_solution_matches_dense_oracle(mesh6):
    import dataclasses

    rng = np.random.default_rng(17)
    inj = balanced_injection(rng, len(mesh6.buses))
    sol = solve_with_outage(mesh6, inj, "L7")
    reduced = dataclasses.replace(
        mesh6, lines=tuple(ln for ln in mesh6.lines if ln.id != "L7")
    )
    oracle = dense_dc_flows(reduced, inj)
    for lid, expect in oracle.items():
        assert sol.flow_of(lid) == pytest.approx(expect, abs=1e-9)


def test_concurrent_solves_share_one_factorization(mesh6):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(31)
    system = build_system(mesh6)
    injections = [balanced_injection(rng, len(mesh6.buses)) for _ in range(64)]
    serial = [solve_flows(system, inj).flows_mw for inj in injections]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda inj: solve_flows(system, inj).flows_mw, injections))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)
