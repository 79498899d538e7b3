import numpy as np
import pytest

from pfcplan import cases
from pfcplan.dcflow import IslandingError, build_system, solve_flows, solve_with_outage
from pfcplan.shift_factors import compute_lodf, compute_ptdf

from conftest import balanced_injection, graph_bridges, post_contingency_flows, two_bus_model


def _factors(model):
    system = build_system(model)
    ptdf = compute_ptdf(system, model)
    return system, ptdf, compute_lodf(ptdf, model)


def test_two_bus_single_path_carries_everything():
    import dataclasses

    model = two_bus_model()
    _, ptdf, _ = _factors(model)
    assert ptdf.entry("L1", "B2") == pytest.approx(-1.0)  # inject at B2, to slack B1
    assert ptdf.entry("L1", "B1") == 0.0  # slack column
    # with the slack at B2, a B1 injection rides the line forward in full
    flipped = dataclasses.replace(model, slack_bus="B2")
    _, ptdf2, _ = _factors(flipped)
    assert ptdf2.entry("L1", "B1") == pytest.approx(1.0)
    assert ptdf2.entry("L1", "B2") == 0.0


def test_triangle_current_divider(triangle):
    _, ptdf, _ = _factors(triangle)
    assert ptdf.entry("L13", "B1") == pytest.approx(2.0 / 3.0)
    assert ptdf.entry("L12", "B1") == pytest.approx(1.0 / 3.0)
    assert ptdf.entry("L23", "B1") == pytest.approx(1.0 / 3.0)


def test_slack_column_is_exactly_zero(grid30):
    _, ptdf, _ = _factors(grid30)
    slack_col = ptdf.bus_ids.index(grid30.slack_bus)
    assert np.all(ptdf.matrix[:, slack_col] == 0.0)


def test_ptdf_matches_dense_solve(triangle):
    # the divider values above, re-derived through the solver path
    system, ptdf, _ = _factors(triangle)
    sol = solve_flows(system, np.array([1.0 * 100, 0.0, -1.0 * 100]))
    assert ptdf.entry("L13", "B1") * 100 == pytest.approx(sol.flow_of("L13"))


def test_lodf_triangle_value(triangle):
    _, _, lodf = _factors(triangle)
    assert lodf.entry("L12", "L13") == pytest.approx(1.0)
    assert lodf.entry("L23", "L13") == pytest.approx(1.0)


def test_lodf_diagonal_is_minus_one(mesh6):
    _, _, lodf = _factors(mesh6)
    for lid in lodf.line_ids:
        if not lodf.is_islanding(lid):
            assert lodf.entry(lid, lid) == -1.0


def test_bridge_marked_islanding(radial_pair):
    _, _, lodf = _factors(radial_pair)
    assert lodf.is_islanding("L1")
    with pytest.raises(IslandingError):
        lodf.entry("L1", "L1")


def test_islanding_marks_agree_with_graph_bridges():
    for model in (
        cases.triangle(),
        cases.mesh6(),
        cases.grid30(),
        cases.radial_pair(),
        cases.radial_feed_case().model,
        cases.side_effect_case().model,
    ):
        _, _, lodf = _factors(model)
        marked = {lid for lid in lodf.line_ids if lodf.is_islanding(lid)}
        assert marked == graph_bridges(model)


def test_post_contingency_triangle(triangle):
    system, _, lodf = _factors(triangle)
    base = solve_flows(system, np.array([90.0, 0.0, -90.0]))
    post = post_contingency_flows(base, lodf, "L13")
    flows = dict(zip(base.line_ids, post))
    assert flows["L12"] == pytest.approx(30.0 + 1.0 * 60.0)
    assert flows["L13"] == 0.0
    assert flows["L23"] == pytest.approx(90.0)


def test_outage_of_zero_flow_line_is_identity(mesh6):
    system, _, lodf = _factors(mesh6)
    base = solve_flows(system, np.zeros(len(mesh6.buses)))
    post = post_contingency_flows(base, lodf, "L7")
    assert np.allclose(post, base.flows_mw)


def test_outaged_line_flow_always_zero(mesh6):
    rng = np.random.default_rng(3)
    system, _, lodf = _factors(mesh6)
    base = solve_flows(system, balanced_injection(rng, len(mesh6.buses)))
    for outage in lodf.non_islanding_outages():
        post = post_contingency_flows(base, lodf, outage)
        assert post[base.line_ids.index(outage)] == 0.0


def test_post_contingency_refuses_islanding(radial_pair):
    system, _, lodf = _factors(radial_pair)
    base = solve_flows(system, np.array([10.0, -10.0]))
    with pytest.raises(IslandingError):
        post_contingency_flows(base, lodf, "L1")


def test_islanding_refusals_without_a_model_name_no_empty_bus_set(radial_pair):
    # LODF entries and post-outage flows know no model, so they cannot name
    # the islanded buses; they say so rather than print an empty set
    system, _, lodf = _factors(radial_pair)
    base = solve_flows(system, np.array([10.0, -10.0]))
    message = "outage of line L1 islands part of the network"
    with pytest.raises(IslandingError) as err:
        lodf.entry("L1", "L1")
    assert str(err.value) == message
    with pytest.raises(IslandingError) as err:
        post_contingency_flows(base, lodf, "L1")
    assert str(err.value) == message


def test_topology_invariance_bitwise(mesh6):
    _, ptdf1, lodf1 = _factors(mesh6)
    _, ptdf2, lodf2 = _factors(mesh6)
    assert np.array_equal(ptdf1.matrix, ptdf2.matrix)
    assert np.array_equal(
        lodf1.matrix[:, ~lodf1.islanding], lodf2.matrix[:, ~lodf2.islanding]
    )


@pytest.mark.parametrize(
    "model_factory",
    [
        cases.mesh6,
        lambda: cases.capped_relief_case().model,  # parallel circuits
        lambda: cases.side_effect_case().model,
    ],
)
def test_lodf_equals_exact_outage_solve(model_factory):
    model = model_factory()
    rng = np.random.default_rng(23)
    system, _, lodf = _factors(model)
    for _ in range(20):
        inj = balanced_injection(rng, len(model.buses))
        base = solve_flows(system, inj)
        for outage in lodf.non_islanding_outages():
            approx = post_contingency_flows(base, lodf, outage)
            exact = solve_with_outage(model, inj, outage)
            err = np.abs(approx - exact.flows_mw) / np.maximum(
                1.0, np.abs(exact.flows_mw)
            )
            assert err.max() < 1e-6


def test_ptdf_linearity_reproduces_any_injection(grid30):
    rng = np.random.default_rng(29)
    system, ptdf, _ = _factors(grid30)
    for _ in range(5):
        inj = balanced_injection(rng, len(grid30.buses), scale=80.0)
        direct = solve_flows(system, inj)
        via_ptdf = ptdf.matrix @ inj
        assert np.abs(via_ptdf - direct.flows_mw).max() < 1e-6


def test_out_of_service_line_absent_from_factors(triangle):
    import dataclasses

    lines = triangle.lines + (
        dataclasses.replace(
            triangle.lines[0], id="L12b", in_service=False
        ),
    )
    model = dataclasses.replace(triangle, lines=lines)
    _, ptdf, lodf = _factors(model)
    assert "L12b" not in ptdf.line_ids
    assert "L12b" not in lodf.line_ids
