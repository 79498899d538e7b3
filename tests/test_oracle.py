"""Random meshes: the fast paths against their exact references.

Each example is a small connected mesh with parallel lines, radial spurs
(bridges), a random slack bus, balanced hourly injections and seasonal
ratings drawn so that post-outage loadings straddle 90% and 100%. The
model's one bridge search is checked against union-find reach, bridges and
cut-off buses (with lines out of service too); ``candidate_locations``' skip
against the bridges of the network without each contingency; LODF
superposition against exact re-solves without the line, also with reactances
spread over six decades, where ``compute_lodf`` may refuse an outage that is
no bridge; the bound-pruned ``stage2_scan`` against the dense intact scan and the unpruned
superposition, and its intact records against ``stage1_scan``'s (also
with every line's peak loading a few ulps from 90% or 100%), ``stage1_scan``
on monitored subsets against a dense scalar scan, its base flows against a
whole-year formulation (``reference_base_flows``: on mesh years with the
slack anywhere and all, most, one or no hours feasible, on the bundled
cases and on the 8x9 lattice), ``build_system``'s pattern-cached assembly
and its kept systems against the COO assembly reduced by ``np.ix_``, Stage 3's lockstep sizer against a
bisection of each pair group on its own (and its flow at zero increase
against the group's full unscaled solve), one ``candidate_locations``
ranking over several contingencies against the union of its
single-contingency rankings and against the per-line loop it replaced
(``reference_candidate_locations``, also on every target of the bundled
cases), and ``assess_target`` as a whole against a
Stage 3 on fresh reference solves (also on four targets of the benchmark's
8x9 lattice). Merit-order dispatch, a year
and a single hour, is checked against the scalar per-hour solve on random
fleets, and ``network.effective_ratings`` against the scalar
``effective_rating`` of ``conftest``. The other references are kept here.
"""

import dataclasses
import functools
import gc
import re
import types
import weakref
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from pfcplan import cases, dcflow, screening, siting
from pfcplan.dcflow import (
    IslandingError,
    SingularSystemError,
    SusceptanceSystem,
    build_system,
    solve_flows,
    solve_with_outage,
    susceptance_matrix,
)
from pfcplan.dispatch import (
    BALANCE_TOL_MW, DemandProfile, DispatchYear, ResAvailability, _Fleet, injection_matrix,
    merit_order_dispatch, run_year,
)
from pfcplan.network import (
    HOURS_PER_YEAR, Bus, DisconnectedNetworkError, Generator, Line, NetworkModel,
    SeasonCalendar, effective_ratings,
)
from pfcplan.screening import BaseFlows, stage1_scan, stage2_scan, summarize
from pfcplan.shift_factors import compute_lodf, compute_ptdf, line_transfer_factors

from conftest import (
    assert_producers_keep_record_order,
    balanced_injection,
    cli_screens,
    concat_records,
    connected_components,
    dense_dc_flows,
    effective_rating,
    fleet_model,
    graph_bridges,
    group_pairs,
    in_record_order,
    outage_records,
    pair_group,
    post_contingency_flows,
    records_from_rows,
    reduced_matrix,
    same_records,
    summarize_by_sorting,
)

# hours spread over the year, so both seasons and their ratings appear
HOURS = np.linspace(0, 8759, 12).round().astype(int)
CALENDAR = SeasonCalendar.from_months(derate_factor=0.05)


@dataclasses.dataclass(frozen=True)
class Mesh:
    edges: tuple  # (from bus, to bus) per line
    names: tuple  # line ids, not in index order
    reactances: tuple
    slack: int
    seed: int  # draws the injections
    rating_factors: tuple  # per line: summer rating / peak post-outage flow
    winter_factor: float


# per-unit reactances drawn log-uniform over [1e-4, 1e2]: spreads up to 1e6 and
# outage margins 1 - phi(k,k) down to ~1e-7, past where compute_lodf refuses
WIDE_REACTANCES = st.floats(-4.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def meshes(draw, reactances=st.floats(0.05, 0.5)):
    n = draw(st.integers(3, 6))
    # a random spanning tree, then cycle-closing lines; a repeated pair
    # becomes a parallel line
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges += draw(st.lists(pair, min_size=1, max_size=n))
    spurs = draw(st.integers(0, 2))
    for spur in range(spurs):  # radial buses: their lines are bridges
        edges.append((draw(st.integers(0, n + spur - 1)), n + spur))
    m = len(edges)
    return Mesh(
        edges=tuple(edges),
        names=tuple(draw(st.lists(st.integers(0, 99), min_size=m, max_size=m, unique=True))),
        reactances=tuple(draw(st.lists(reactances, min_size=m, max_size=m))),
        slack=draw(st.integers(0, n + spurs - 1)),
        seed=draw(st.integers(0, 2**16)),
        rating_factors=tuple(draw(st.lists(st.floats(0.8, 1.25), min_size=m, max_size=m))),
        winter_factor=draw(st.floats(1.0, 1.2)),
    )


def _model(mesh: Mesh, ratings=None) -> NetworkModel:
    n_buses = max(max(e) for e in mesh.edges) + 1
    ratings = ratings if ratings is not None else [1.0] * len(mesh.edges)
    lines = tuple(
        Line(f"L{name}", f"B{f}", f"B{t}", x, r, r * mesh.winter_factor)
        for name, (f, t), x, r in zip(mesh.names, mesh.edges, mesh.reactances, ratings)
    )
    buses = tuple(Bus(f"B{i}", f"B{i}", 110.0, f"R{i % 2}") for i in range(n_buses))
    return NetworkModel(buses=buses, lines=lines, generators=(), slack_bus=f"B{mesh.slack}")


def effective_rating_matrix(model, line_ids, hours, calendar):
    """Effective MW ratings, shape (n_hours, n_lines)."""
    summer, winter = effective_ratings(model, line_ids, calendar)
    return np.where(calendar.summer_mask[hours][:, None], summer, winter)


def reference_stage2(base, lodf, model, calendar, near_pct=90.0, overload_pct=100.0):
    """The unpruned N-1 scan: every outage's dense hours x lines superposition."""
    ratings = effective_rating_matrix(model, base.line_ids, base.hours, calendar)
    rows = []
    for k, outage in enumerate(base.line_ids):
        if lodf.islanding[k]:
            continue
        post = base.flows_mw + np.outer(base.flows_mw[:, k], lodf.matrix[:, k])
        post[:, k] = 0.0
        loading = 100.0 * np.abs(post) / ratings
        for hi, li in zip(*np.nonzero(loading > near_pct)):
            pct = float(loading[hi, li])
            over = pct > overload_pct
            excess = float(abs(post[hi, li]) - ratings[hi, li]) if over else 0.0
            rows.append((base.line_ids[li], int(base.hours[hi]), outage, pct, excess,
                         "overload" if over else "near"))
    rows.sort(key=lambda r: (r[1], r[2], r[0]))
    return rows


def _study(mesh: Mesh):
    """Model with drawn ratings, its base flows and its LODF matrix."""
    model = _model(mesh)
    rng = np.random.default_rng(mesh.seed)
    injections = np.array([balanced_injection(rng, len(model.buses)) for _ in HOURS])
    system = build_system(model)
    line_ids = system.line_ids
    flows = np.array([[dense_dc_flows(model, inj)[lid] for lid in line_ids]
                      for inj in injections])
    base = BaseFlows(hours=HOURS, flows_mw=flows, line_ids=line_ids)
    lodf = compute_lodf(compute_ptdf(system, model), model)
    # rate each line against its peak flow over the hours and outages, so
    # the loadings straddle both class thresholds
    peak = np.abs(flows).max(axis=0)
    for k in np.flatnonzero(~lodf.islanding):
        peak = np.maximum(peak, np.abs(flows + np.outer(flows[:, k], lodf.matrix[:, k])).max(axis=0))
    by_id = dict(zip(line_ids, peak))
    ratings = [max(by_id[f"L{name}"], 1.0) * factor
               for name, factor in zip(mesh.names, mesh.rating_factors)]
    return _model(mesh, ratings), injections, base, lodf


SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

# two parallel lines plus a spur: the outage of either parallel line doubles
# the other's flow, so a bound without its LODF term would prune real
# overloads; the spur is a bridge
PARALLEL = Mesh(edges=((0, 1), (0, 1), (1, 2)), names=(3, 12, 7),
                reactances=(0.1, 0.2, 0.1), slack=2, seed=1,
                rating_factors=(1.0, 1.2, 0.9), winter_factor=1.1)


def lodf_and_exact_flows(model, injection):
    """(outage, LODF post-outage flows, exact re-solve's flows) per outage
    that is no bridge, after checking that the LODF marks exactly the
    graph's bridges and that the outage solve of each raises."""
    bridges = graph_bridges(model)
    system = build_system(model)
    lodf = compute_lodf(compute_ptdf(system, model), model)
    intact = solve_flows(system, injection)
    for k, outage in enumerate(lodf.line_ids):
        assert bool(lodf.islanding[k]) == (outage in bridges)
        if outage in bridges:
            with pytest.raises(IslandingError):
                solve_with_outage(model, injection, outage)
            continue
        exact = solve_with_outage(model, injection, outage).flows_mw
        yield outage, post_contingency_flows(intact, lodf, outage), exact


@SETTINGS
@given(meshes())
@example(PARALLEL)
def test_lodf_flows_match_exact_resolves_and_bridges_raise(mesh):
    model, injections, _, _ = _study(mesh)
    for _, fast, exact in lodf_and_exact_flows(model, injections[0]):
        assert np.allclose(fast, exact, rtol=1e-9, atol=1e-9 * np.abs(exact).max())


@SETTINGS
@given(meshes(), st.sets(st.integers(0, 12), max_size=2))  # line positions
@example(PARALLEL, set())
@example(PARALLEL, {0})  # one of two parallel lines out: the other becomes a bridge
@example(PARALLEL, {2})  # the slack's one line out: B0 and B1 are cut off
def test_one_search_gives_reach_bridges_and_the_buses_each_bridge_cuts_off(mesh, out):
    # the union-find references: the buses outside the slack's component,
    # the bridges, and per line the buses its outage separates from the slack
    model = _model(mesh)
    lines = tuple(dataclasses.replace(ln, in_service=False) if p in out else ln
                  for p, ln in enumerate(model.lines))
    parts = connected_components(types.SimpleNamespace(buses=model.buses, lines=lines))
    isolated = set().union(*(part for part in parts if model.slack_bus not in part))
    try:
        model = dataclasses.replace(model, lines=lines)
    except DisconnectedNetworkError as err:
        assert isolated and err.isolated == isolated
        return
    assert not isolated
    assert model.bridges == graph_bridges(model)
    for line in model.in_service_line_ids:
        parts = connected_components(model, skip_line=line)
        [cut] = [part for part in parts if model.slack_bus not in part] or [set()]
        assert model.cut_off_by(line) == cut, line


def probe(x: float) -> Mesh:
    """The triangle with one line (L12) at 1e-6 pu and the other two at ``x``:
    L12's outage margin 1 - phi(k,k) is about 5e-7 / x."""
    return Mesh(edges=((0, 1), (0, 2), (1, 2)), names=(12, 13, 23),
                reactances=(1e-6, x, x), slack=2, seed=1,
                rating_factors=(1.0,) * 3, winter_factor=1.0)


@settings(SETTINGS, max_examples=200)
@given(meshes(WIDE_REACTANCES))
@example(probe(1e4))  # the computed margin is negative, as if L12 were a bridge
@example(probe(1e2))  # margin 5e-9, computed as 2.5e-9: its column would be 49% off
@example(probe(1e-2))  # margin 5e-5: screened
def test_lodf_flows_match_exact_resolves_and_bridges_raise_over_wide_reactances(mesh):
    # compute_lodf either refuses an outage that is no bridge, or every
    # column it gives holds within 1e-6 of the larger of max |exact| and 1 MW
    model = _model(mesh)
    injection = balanced_injection(np.random.default_rng(mesh.seed), len(model.buses))
    try:
        for outage, fast, exact in lodf_and_exact_flows(model, injection):
            assert np.abs(fast - exact).max() <= 1e-6 * max(np.abs(exact).max(), 1.0), outage
    except SingularSystemError as err:
        [refused] = re.findall(r"^outage of line (\S+) leaves a system too close", str(err))
        assert refused not in graph_bridges(model)


@SETTINGS
@given(meshes())
@example(PARALLEL)
def test_pruned_stage2_equals_the_unpruned_scan(mesh):
    model, _, base, lodf = _study(mesh)
    got = [tuple(r) for r in stage2_scan(base, lodf, model, CALENDAR)]
    assert got == reference_screen(base, lodf, model, CALENDAR)  # bit for bit

    # every post-outage record of the unpruned scan lies on a kept pair
    ratings = effective_rating_matrix(model, base.line_ids, base.hours, CALENDAR)
    kept = screening.screened_pairs(base, lodf, ratings, 90.0)
    index = {lid: i for i, lid in enumerate(base.line_ids)}
    for line, _, outage, *_ in reference_stage2(base, lodf, model, CALENDAR):
        assert kept[index[line], index[outage]], (line, outage)


BUNDLED_CASES = ("triangle_case", "mesh6_case", "grid30_case", "parallel_paths_case",
                 "side_effect_case", "radial_feed_case", "capped_relief_case")


def _assert_effective_ratings_are_the_scalar_rule(model, calendar):
    """``effective_ratings`` of every in-service line, in both seasons,
    equals ``effective_rating`` in a summer and a winter hour, bit for bit."""
    summer_hour = int(np.flatnonzero(calendar.summer_mask)[0])
    winter_hour = int(np.flatnonzero(~calendar.summer_mask)[0])
    summer, winter = effective_ratings(model, model.in_service_line_ids, calendar)
    for line, s, w in zip(model.in_service_lines, summer.tolist(), winter.tolist()):
        assert float.hex(s) == float.hex(effective_rating(line, summer_hour, calendar))
        assert float.hex(w) == float.hex(effective_rating(line, winter_hour, calendar))


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_effective_ratings_are_the_scalar_rule_on_the_bundled_cases(name):
    _assert_effective_ratings_are_the_scalar_rule(getattr(cases, name)().model, CALENDAR)


@SETTINGS
@given(meshes())
@example(PARALLEL)
def test_effective_ratings_are_the_scalar_rule_on_meshes(mesh):
    # distinct seasonal ratings: winter is 1.3-1.5 times the drawn summer rating
    mesh = dataclasses.replace(mesh, winter_factor=mesh.winter_factor + 0.3)
    _assert_effective_ratings_are_the_scalar_rule(_model(mesh, mesh.rating_factors), CALENDAR)


def reference_stage1(model, base, monitored, calendar, near_pct=90.0, overload_pct=100.0):
    """The dense intact scan: 100 |f| / r per hour and monitored line, one
    scalar at a time, against ``effective_rating``."""
    rows = []
    for li, lid in enumerate(base.line_ids):
        if monitored is not None and lid not in monitored:
            continue
        line = model.line_by_id[lid]
        for hi, hour in enumerate(base.hours.tolist()):
            a = abs(float(base.flows_mw[hi, li]))
            r = effective_rating(line, hour, calendar)
            pct = 100.0 * a / r
            if pct > near_pct:
                over = pct > overload_pct
                rows.append((lid, hour, None, pct, a - r if over else 0.0,
                             "overload" if over else "near"))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def reference_screen(base, lodf, model, calendar, near_pct=90.0, overload_pct=100.0):
    """The dense screen: the intact scan's rows and the unpruned N-1 scan's,
    by hour, then contingency (the intact network first), then line id."""
    rows = (reference_stage1(model, base, None, calendar, near_pct, overload_pct)
            + reference_stage2(base, lodf, model, calendar, near_pct, overload_pct))
    return sorted(rows, key=lambda r: (r[1], r[2] or "", r[0]))


def _dispatched(model, injections):
    """``model`` with one generator per bus, a dispatch year whose feasible
    hours are ``HOURS`` and inject the rows of ``injections``, and a zero
    demand profile: what ``stage1_scan`` takes."""
    gens = tuple(Generator(f"G{b.id}", b.id, "thermal", 1e6, 0.0, 10.0, True)
                 for b in model.buses)
    outputs = np.zeros((HOURS_PER_YEAR, len(gens)))
    outputs[HOURS] = injections
    feasible = np.zeros(HOURS_PER_YEAR, dtype=bool)
    feasible[HOURS] = True
    zeros = np.zeros(HOURS_PER_YEAR)
    year = DispatchYear(outputs, zeros, zeros, feasible, tuple(g.id for g in gens), 1.0)
    return (dataclasses.replace(model, generators=gens), year,
            DemandProfile(zeros, {model.buses[0].id: 1.0}))


def _stage1(model, injections, monitored=None):
    model, year, profile = _dispatched(model, injections)
    return stage1_scan(year, model, build_system(model), profile, CALENDAR, monitored)


def _edge_model(mesh, line_ids, flows, near, offsets):
    """``mesh`` rated so that each line's peak loading over ``flows`` (a list
    of hours x lines arrays, columns in ``line_ids`` order) lies a few ulps
    from ``near``: the summer rating that puts it at ``near``, stepped by the
    line's entry of ``offsets`` ulps."""
    season = np.where(CALENDAR.summer_mask[HOURS], 1.0, mesh.winter_factor)[:, None]
    peak = dict(zip(line_ids, np.max([np.abs(f) / season for f in flows], axis=(0, 1))))
    exact = np.array([max(peak[f"L{name}"], 1.0) for name in mesh.names])
    exact *= 100.0 / near / (1.0 - CALENDAR.derate_factor)
    return _model(mesh, (exact + np.array(offsets) * np.spacing(exact)).tolist())


def _stage1_edge(mesh, near, offsets, monitored=None):
    """A Stage 1 case whose intact peak loadings lie a few ulps from ``near``."""
    model, injections, _, _ = _study(mesh)
    _, base = _stage1(model, injections)
    return _edge_model(mesh, base.line_ids, [base.flows_mw], near, offsets), injections, monitored


def _stage2_edge(mesh, near, offsets):
    """A Stage 2 case whose post-outage peak loadings lie a few ulps from ``near``."""
    _, _, base, lodf = _study(mesh)
    posts = [np.zeros_like(base.flows_mw)]
    for k in np.flatnonzero(~lodf.islanding):
        posts.append(base.flows_mw + np.outer(base.flows_mw[:, k], lodf.matrix[:, k]))
        posts[-1][:, k] = 0.0  # the outaged line carries nothing
    return _edge_model(mesh, base.line_ids, posts, near, offsets), base, lodf


def _offsets(mesh):
    return st.lists(st.integers(-4, 4), min_size=len(mesh.edges), max_size=len(mesh.edges))


@st.composite
def stage1_studies(draw):
    """A mesh study, its ratings drawn or put a few ulps from 90% or 100%,
    and a monitored subset of its lines (None: every line)."""
    mesh = draw(meshes())
    near = draw(st.sampled_from((None, 90.0, 100.0)))
    if near is None:
        model, injections, _, _ = _study(mesh)
    else:
        model, injections, _ = _stage1_edge(mesh, near, draw(_offsets(mesh)))
    ids = sorted(model.line_by_id)
    return model, injections, draw(st.none() | st.sets(st.sampled_from(ids)))


@st.composite
def stage2_edges(draw):
    mesh = draw(meshes())
    return _stage2_edge(mesh, draw(st.sampled_from((90.0, 100.0))), draw(_offsets(mesh)))


@SETTINGS
@given(stage1_studies())
@example(_stage1_edge(dataclasses.replace(PARALLEL, seed=4), 90.0, (-1, -1, -1)))
@example(_stage1_edge(dataclasses.replace(PARALLEL, seed=2), 100.0, (0, 1, -1), {"L3", "L12"}))
def test_stage1_records_are_the_dense_scan(case):
    model, injections, monitored = case
    records, base = _stage1(model, injections, monitored)
    expected = reference_stage1(model, base, monitored, CALENDAR)
    assert [tuple(r) for r in records] == expected  # bit for bit


@SETTINGS
@given(stage2_edges())
@example(_stage2_edge(dataclasses.replace(PARALLEL, seed=0), 90.0, (0, 0, 0)))
@example(_stage2_edge(dataclasses.replace(PARALLEL, seed=2), 100.0, (1, -1, 0)))
def test_stage2_records_at_the_class_edges_are_the_unpruned_scan(case):
    model, base, lodf = case
    expected = reference_screen(base, lodf, model, CALENDAR)
    assert [tuple(r) for r in stage2_scan(base, lodf, model, CALENDAR)] == expected


@SETTINGS
@given(stage1_studies())
@example(_stage1_edge(dataclasses.replace(PARALLEL, seed=4), 90.0, (-1, -1, -1)))
@example(_stage1_edge(dataclasses.replace(PARALLEL, seed=2), 100.0, (0, 1, -1), {"L3", "L12"}))
def test_stage2_with_intact_records_is_the_sorted_concatenation_on_meshes(case):
    # the screen's intact records are Stage 1's over the same lines, bit for
    # bit, in every way the CLI monitors lines and over the drawn subset
    model, injections, monitored = case
    model, year, profile = _dispatched(model, injections)
    system = build_system(model)
    lodf = compute_lodf(compute_ptdf(system, model), model)
    for rec1, records in cli_screens(year, model, system, profile, CALENDAR, lodf):
        same_records(records, concat_records(rec1, outage_records(records)))
    rec1, base = stage1_scan(year, model, system, profile, CALENDAR, monitored)
    records = stage2_scan(base, lodf, model, CALENDAR, monitored)
    same_records(records, concat_records(rec1, outage_records(records)))


@SETTINGS
@given(stage1_studies())
@example(_stage1_edge(dataclasses.replace(PARALLEL, seed=4), 90.0, (-1, -1, -1)))
@example(_stage1_edge(dataclasses.replace(PARALLEL, seed=2), 100.0, (0, 1, -1), {"L3", "L12"}))
def test_every_producer_hands_its_records_in_record_order_on_meshes(tmp_path_factory, case):
    model, injections, monitored = case
    rec1, base = _stage1(model, injections)
    lodf = compute_lodf(compute_ptdf(build_system(model), model), model)
    assert_producers_keep_record_order(rec1, base, lodf, model, CALENDAR,
                                       tmp_path_factory.mktemp("records"), monitored)


def _hex(summary):
    return tuple(float.hex(v) if isinstance(v, float) else v
                 for v in dataclasses.astuple(summary))


@SETTINGS
@given(stage1_studies(), st.sampled_from((1, 2, 5)))
@example(_stage1_edge(dataclasses.replace(PARALLEL, seed=4), 90.0, (-1, -1, -1)), 1)
@example(_stage1_edge(dataclasses.replace(PARALLEL, seed=2), 100.0, (0, 1, -1), {"L3", "L12"}), 2)
def test_stage2_and_summarize_in_hour_blocks_are_the_one_pass_references_on_meshes(
    case, cells
):
    # BLOCK_CELLS of 1, 2 or 5 cuts the 12 feasible hours (the others are
    # infeasible) into blocks of one hour up, and summarize's reads into
    # slices of a few records: over every line, a monitored subset and
    # Stage 1's lines (screen_from_stage1), the records are the reference
    # order of the one-block scan's, and the summaries the sorting
    # reference's, bit for bit
    model, injections, monitored = case
    rec1, base = _stage1(model, injections)
    lodf = compute_lodf(compute_ptdf(build_system(model), model), model)
    for lines in (None, monitored, set(rec1.lines())):
        expected = in_record_order(stage2_scan(base, lodf, model, CALENDAR, lines))
        expected_summary = [_hex(s) for s in summarize_by_sorting(expected, model)]
        with mock.patch.object(dcflow, "BLOCK_CELLS", cells):
            records = stage2_scan(base, lodf, model, CALENDAR, lines)
            summaries = summarize(records, model)
        same_records(records, expected)
        assert [_hex(s) for s in summaries] == expected_summary


# CALENDAR's first summer hour (1 April) and first winter hour (1 October)
SEASON_CHANGES = (2160, 6552)
# hours of both seasons away from the changes: each season run holds 4 or more
ANCHOR_HOURS = (0, 1, 2, 3, 4000, 4001, 4002, 4003, 8756, 8757, 8758, 8759)


def _season_edge(mesh, feasible, width):
    """``mesh`` rated as in ``_study``, its base flows over ``ANCHOR_HOURS``
    and ``feasible`` (hours near the season changes; the others are
    infeasible), its LODF, and the ``BLOCK_CELLS`` that cuts Stage 2's hours
    into blocks ``width`` hours wide."""
    model, _, study, lodf = _study(mesh)
    hours = np.array(sorted({*ANCHOR_HOURS, *feasible}))
    flows = study.flows_mw[np.arange(len(hours)) % len(HOURS)]  # reused, so the ratings hold
    base = BaseFlows(hours=hours, flows_mw=flows, line_ids=study.line_ids)
    # the screen's rows and entries: the intact network over every line and
    # the pairs the year's bound keeps, by outage
    ratings = np.array(effective_ratings(model, base.line_ids, CALENDAR))
    kept = screening.screened_pairs(base, lodf, ratings, 90.0)[:, ~lodf.islanding]
    n_rows = len(base.line_ids) + int(kept.sum())
    n_entries = 1 + int(kept.any(axis=0).sum())
    return model, base, lodf, -(-width * n_rows // min(n_entries, 4)), width


@st.composite
def season_edges(draw):
    """A mesh whose winter ratings are far from its summer ones (0.4 to 2.5
    times), over hours at and around both season changes with some of them
    infeasible, and blocks 2 or 3 hours wide, so each season run splits."""
    mesh = draw(meshes())
    mesh = dataclasses.replace(mesh, winter_factor=draw(st.sampled_from((0.4, 0.6, 1.7, 2.5))))
    near = st.sets(st.sampled_from([h for c in SEASON_CHANGES for h in range(c - 5, c + 5)]))
    return _season_edge(mesh, draw(near), draw(st.integers(2, 3)))


@SETTINGS
@given(season_edges())
@example(_season_edge(dataclasses.replace(PARALLEL, winter_factor=2.5), range(2158, 2162), 3))
@example(_season_edge(dataclasses.replace(PARALLEL, winter_factor=0.4), (2159, 6551, 6553), 2))
def test_stage2_across_season_changes_is_the_unpruned_scan(case):
    # Stage 2 cuts its hours where the season changes and each season run
    # into blocks, and prunes each block's rows by their season's floor: the
    # records are the dense scan's, bit for bit
    model, base, lodf, cells, width = case
    screen, blocks = screening._screen, []

    def logged_screen(*args):
        result = screen(*args)
        blocks.append(result[1:3])
        return result

    with mock.patch.object(dcflow, "BLOCK_CELLS", cells), \
            mock.patch.object(screening, "_screen", logged_screen):
        records = stage2_scan(base, lodf, model, CALENDAR)
    [(n_blocks, got_width)] = blocks
    assert got_width == width and n_blocks >= 6  # each of the 3 season runs splits
    assert [tuple(r) for r in records] == reference_screen(base, lodf, model, CALENDAR)


def reference_base_flows(model, system, year, profile):
    """The year's base flows, hours x lines, each step over the whole year:
    generation by bus less the outer product of demand and bus shares, the
    feasible rows, their per-unit transpose's non-slack rows solved in one
    ``lu.solve``, the angles padded with the slack's zero row and
    (s * diff) * base."""
    n_bus = len(model.buses)
    gen_to_bus = np.zeros((len(model.generators), n_bus))
    for i, g in enumerate(model.generators):
        gen_to_bus[i, model.bus_index[g.bus]] = 1.0
    shares = np.zeros(n_bus)
    for bus_id, share in profile.bus_shares.items():
        shares[model.bus_index[bus_id]] = share
    inj = (year.outputs_mw @ gen_to_bus - np.outer(profile.demand_mw, shares))[year.feasible_hours]
    base = model.system_base_mva
    p = inj.T / base
    theta = np.zeros_like(p)
    theta[system.non_slack] = system.lu.solve(p[system.non_slack])
    diff = theta[system.from_idx] - theta[system.to_idx]
    return (system.susceptance[:, None] * diff * base).T


def reference_stage1_year(model, base, calendar, near_pct=90.0, overload_pct=100.0):
    """``reference_stage1`` of every line over whole arrays, for a year of
    hours: 100 |f| / r against the hour's effective rating."""
    ratings = effective_rating_matrix(model, base.line_ids, base.hours, calendar)
    magnitude = np.abs(base.flows_mw)
    loading = 100.0 * magnitude / ratings
    rows = []
    for hi, li in zip(*np.nonzero(loading > near_pct)):
        pct = float(loading[hi, li])
        over = pct > overload_pct
        excess = float(magnitude[hi, li] - ratings[hi, li]) if over else 0.0
        rows.append((base.line_ids[li], int(base.hours[hi]), None, pct, excess,
                     "overload" if over else "near"))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def _stage1_year(mesh, slack, feasible):
    """``mesh`` with its slack at bus ``slack`` and one generator per bus, a
    year whose feasible hours are ``feasible`` ("all", "most", "one" or
    "none") and net random balanced injections, and a demand profile that
    spreads a random demand over every bus. Each line is rated at its
    ``rating_factors`` entry times its peak base flow."""
    mesh = dataclasses.replace(mesh, slack=slack)
    model = _model(mesh)
    n = len(model.buses)
    rng = np.random.default_rng(mesh.seed)
    net = rng.normal(0.0, 50.0, (HOURS_PER_YEAR, n))
    net -= net.mean(axis=1, keepdims=True)
    demand = rng.uniform(50.0, 150.0, HOURS_PER_YEAR)
    shares = rng.dirichlet(np.ones(n))
    mask = {
        "all": np.ones(HOURS_PER_YEAR, dtype=bool),
        "most": rng.random(HOURS_PER_YEAR) < 0.9,
        "one": np.arange(HOURS_PER_YEAR) == rng.integers(HOURS_PER_YEAR),
        "none": np.zeros(HOURS_PER_YEAR, dtype=bool),
    }[feasible]
    outputs = np.where(mask[:, None], net + np.outer(demand, shares), 0.0)
    gens = tuple(Generator(f"G{b.id}", b.id, "thermal", 1e6, 0.0, 10.0, True)
                 for b in model.buses)
    zeros = np.zeros(HOURS_PER_YEAR)
    year = DispatchYear(outputs, zeros, zeros, mask, tuple(g.id for g in gens), 1.0)
    profile = DemandProfile(demand, {b.id: float(x) for b, x in zip(model.buses, shares)})
    model = dataclasses.replace(model, generators=gens)
    system = build_system(model)
    peak = np.abs(reference_base_flows(model, system, year, profile)).max(axis=0, initial=0.0)
    by_id = dict(zip(system.line_ids, peak))
    ratings = [max(by_id[f"L{name}"], 1.0) * factor
               for name, factor in zip(mesh.names, mesh.rating_factors)]
    return dataclasses.replace(_model(mesh, ratings), generators=gens), year, profile


@st.composite
def stage1_years(draw):
    mesh = draw(meshes())
    n_buses = max(max(e) for e in mesh.edges) + 1
    slack = draw(st.sampled_from((0, n_buses // 2, n_buses - 1)))
    return _stage1_year(mesh, slack, draw(st.sampled_from(("all", "most", "one", "none"))))


def _assert_base_flows_are_the_reference(year, model, system, profile, calendar):
    records, base = stage1_scan(year, model, system, profile, calendar)
    expected = reference_base_flows(model, system, year, profile)
    assert base.hours.tobytes() == year.feasible_hours.tobytes()
    assert base.flows_mw.shape == expected.shape
    assert base.flows_mw.tobytes() == expected.tobytes()  # bit for bit
    return records, base


# nine lines, more than one block of monitored rows over a year of hours
WHEEL = Mesh(edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (2, 4), (3, 0)),
             names=(4, 11, 2, 9, 0, 7, 13, 5, 8),
             reactances=(0.1, 0.2, 0.15, 0.1, 0.3, 0.25, 0.1, 0.2, 0.12), slack=0, seed=3,
             rating_factors=(0.8, 0.85, 0.9, 0.8, 1.0, 0.8, 0.95, 0.8, 0.9), winter_factor=1.1)


@SETTINGS
@given(stage1_years())
@example(_stage1_year(WHEEL, 0, "all"))
@example(_stage1_year(WHEEL, 2, "most"))
@example(_stage1_year(WHEEL, 4, "most"))
@example(_stage1_year(PARALLEL, 1, "one"))
@example(_stage1_year(PARALLEL, 2, "none"))
def test_stage1_base_flows_and_records_are_the_references_on_mesh_years(case):
    model, year, profile = case
    records, base = _assert_base_flows_are_the_reference(
        year, model, build_system(model), profile, CALENDAR)
    hypothesis.event(f"{len(base.hours)} feasible hours")
    assert [tuple(r) for r in records] == reference_stage1_year(model, base, CALENDAR)


@pytest.mark.parametrize("name", BUNDLED_CASES + ("lattice",))
def test_stage1_base_flows_are_the_reference_on_the_bundled_cases_and_lattice(request, name):
    if name == "lattice":
        study = request.getfixturevalue("lattice_year")
    else:
        case = getattr(cases, name)()
        model = case.model
        year = run_year(model, case.profile, case.availability, case.snsp_cap)
        study = (year, model, build_system(model), case.profile, case.calendar)
    _assert_base_flows_are_the_reference(*study)


def test_summarize_keys_do_not_wrap_past_46341_lines():
    # line indices past 46,341, where a (line, contingency) key of
    # line * n_ids + contingency would pass 2**31, summarize as the 3-line table
    rows = [("L12", 5, "L13", 110.0, 8.5, "overload"), ("L12", 9, "L23", 102.0, 1.7, "overload"),
            ("L13", 5, None, 95.0, 0.0, "near")]
    small = records_from_rows(rows)
    pad = tuple(f"X{i:05d}" for i in range(50_000))
    big = screening.OverloadRecords(
        pad + small.line_ids, small.line + len(pad), small.hour,
        np.where(small.contingency < 0, -1, small.contingency + len(pad)),
        small.loading_pct, small.excess_mw, small.overload,
    )
    assert list(big) == list(small)
    model = cases.triangle()
    assert screening.summarize(big, model) == screening.summarize(small, model)


def reference_system(model, exclude_line=None, reactance_scale=None) -> SusceptanceSystem:
    """The COO assembly, reduced by ``np.ix_`` and factorized by ``splu``."""
    n = len(model.buses)
    slack = model.bus_index[model.slack_bus]
    keep = np.array([i for i in range(n) if i != slack], dtype=int)
    full = susceptance_matrix(model, exclude_line, reactance_scale)
    reduced = full[np.ix_(keep, keep)].tocsc()
    lu = splu(reduced)  # makes ``reduced`` canonical in place first
    lines = [ln for ln in model.in_service_lines if ln.id != exclude_line]
    scale = reactance_scale or {}
    return SusceptanceSystem(
        model=model,
        lu=lu,
        data=reduced.data,
        indices=reduced.indices,
        indptr=reduced.indptr,
        slack_index=slack,
        non_slack=keep,
        line_ids=tuple(ln.id for ln in lines),
        from_idx=np.array([model.bus_index[ln.from_bus] for ln in lines], dtype=int),
        to_idx=np.array([model.bus_index[ln.to_bus] for ln in lines], dtype=int),
        susceptance=np.array(
            [1.0 / (ln.reactance_pu * scale.get(ln.id, 1.0)) for ln in lines]
        ),
    )


@st.composite
def perturbed_meshes(draw):
    """A mesh model, perhaps with one non-bridge line out of service, plus a
    non-bridge line to exclude (or None) and a reactance scale on 1-2 lines
    with an increase in (0, 40%]."""
    model = _model(draw(meshes()))
    ids = [ln.id for ln in model.lines]
    off = draw(st.none() | st.sampled_from(sorted(set(ids) - graph_bridges(model))))
    if off is not None:
        model = dataclasses.replace(model, lines=tuple(
            dataclasses.replace(ln, in_service=ln.id != off) for ln in model.lines
        ))
    in_service = [ln.id for ln in model.in_service_lines]
    non_bridges = sorted(set(in_service) - graph_bridges(model))
    exclude = draw(st.none() | st.sampled_from(non_bridges)) if non_bridges else None
    scaled = draw(st.lists(st.sampled_from(in_service), min_size=1, max_size=2, unique=True))
    deltas = st.floats(0.0, 40.0, exclude_min=True)
    return model, exclude, {lid: 1.0 + draw(deltas) / 100.0 for lid in scaled}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_reference_factors(got: SusceptanceSystem, ref: SusceptanceSystem) -> None:
    """The matrix, read-only, and its LU are the reference ``splu``'s bits:
    the same permutations and the same L and U factors."""
    reduced, expected = reduced_matrix(got), reduced_matrix(ref)
    assert reduced.shape == expected.shape
    for attr in ("data", "indices", "indptr"):
        assert _same_bits(getattr(reduced, attr), getattr(expected, attr)), attr
        assert not getattr(reduced, attr).flags.writeable, attr
    assert _same_bits(got.lu.perm_r, ref.lu.perm_r)
    assert _same_bits(got.lu.perm_c, ref.lu.perm_c)
    for factor in ("L", "U"):
        mine, theirs = getattr(got.lu, factor), getattr(ref.lu, factor)
        for attr in ("data", "indices", "indptr"):
            assert _same_bits(getattr(mine, attr), getattr(theirs, attr)), (factor, attr)


# eleven lines at bus B0: its column holds 22 entries, more than scipy sorts
# stably, so its diagonal is not summed in line order
STAR = Mesh(edges=((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)) * 2 + ((0, 1), (1, 2)),
            names=tuple(range(12)),
            reactances=(0.3, 0.07, 0.11, 0.45, 0.013, 0.29, 0.17, 0.5, 0.061, 0.23,
                        0.37, 0.19),
            slack=1, seed=3, rating_factors=(1.0,) * 12, winter_factor=1.0)


@SETTINGS
@given(perturbed_meshes())
@example((_model(STAR), None, {"L0": 1.3}))
@example((_model(STAR), "L7", {"L4": 1.171875, "L9": 1.4}))
def test_build_system_is_the_reference_assembly_bit_for_bit(case):
    model, exclude, scale = case
    rng = np.random.default_rng(len(model.lines))
    injection = balanced_injection(rng, len(model.buses))
    for reactance_scale in (None, scale):
        got = build_system(model, exclude, reactance_scale)
        ref = reference_system(model, exclude, reactance_scale)
        assert_reference_factors(got, ref)
        assert _same_bits(got.susceptance, ref.susceptance)
        assert got.line_ids == ref.line_ids
        assert np.array_equal(got.from_idx, ref.from_idx)
        assert np.array_equal(got.to_idx, ref.to_idx)
        assert np.array_equal(got.non_slack, ref.non_slack)
        assert got.slack_index == ref.slack_index
        flows = solve_flows(got, injection).flows_mw
        assert np.array_equal(flows, solve_flows(ref, injection).flows_mw)
    for bridge in sorted(graph_bridges(model)):
        try:
            build_system(model, exclude_line=bridge)
        except SingularSystemError:
            continue
        raise AssertionError(f"bridge {bridge} factorized")



@st.composite
def build_sequences(draw):
    """A mesh model and an interleaved sequence of ``build_system`` calls:
    1-2 excluded lines (bridges and the intact network among them), each
    with 1-3 reactance scales (None, or 1-2 scaled lines that may include the
    excluded one), called in a drawn order with repeats."""
    model = _model(draw(meshes()))
    ids = [ln.id for ln in model.in_service_lines]
    scale = st.none() | st.dictionaries(
        st.sampled_from(ids), st.sampled_from((1.1, 1.25, 1.4)), min_size=1, max_size=2
    )
    topologies = [
        (exclude, draw(scale))
        for exclude in draw(st.lists(st.none() | st.sampled_from(ids), min_size=1,
                                     max_size=2, unique=True))
        for _ in range(draw(st.integers(1, 3)))
    ]
    calls = draw(st.lists(st.sampled_from(topologies), min_size=4, max_size=16))
    return model, calls


@SETTINGS
@given(build_sequences())
@example((_model(PARALLEL), [("L3", None), ("L3", {"L12": 1.4}), ("L3", None),
                             ("L3", {"L12": 1.1}), ("L3", {"L12": 1.4}), ("L7", None)]))
# the memo key: a scale only on the excluded line, one on a kept line, and
# two scales, given in both orders
@example((_model(PARALLEL), [("L3", {"L3": 1.4}), ("L3", {"L12": 1.25}), ("L3", {"L3": 1.4})]))
@example((_model(PARALLEL), [("L3", {"L12": 1.1, "L7": 1.4}), (None, {"L7": 1.4, "L12": 1.1}),
                             ("L3", {"L7": 1.4, "L12": 1.1}), (None, {"L3": 1.25})]))
def test_build_system_memo_serves_the_reference_system(case):
    model, calls = case
    bridges = graph_bridges(model)
    injection = balanced_injection(np.random.default_rng(len(calls)), len(model.buses))
    for exclude, scale in calls:
        if exclude in bridges:
            try:
                build_system(model, exclude, scale)
            except SingularSystemError:
                continue
            raise AssertionError(f"bridge {exclude} factorized")
        got = build_system(model, exclude, scale)
        ref = reference_system(model, exclude, scale)
        assert_reference_factors(got, ref)
        assert _same_bits(got.susceptance, ref.susceptance)
        flows = solve_flows(got, injection).flows_mw
        assert _same_bits(flows, solve_flows(ref, injection).flows_mw)
        for array in (got.data, got.indices, got.indptr,
                      got.susceptance, got.from_idx, got.to_idx, got.non_slack):
            assert not array.flags.writeable
        assert len(model.scaled_system) <= 1  # one scaled slot
        # the system an order-free key serves: the unscaled one when no
        # scale applies to a kept line, else the same one in either order
        factorizations = dcflow.factorizations
        if not set(scale or ()) & set(got.line_ids):
            assert got is build_system(model, exclude)
        else:
            assert got is build_system(model, exclude, dict(reversed(scale.items())))
        assert dcflow.factorizations == factorizations


def _bits(x):
    return None if x is None else float(x).hex()


def reference_size(model, injection, contingency, host, target, rating,
                   cap_pct=40.0, tol_pp=0.1):
    """One group's bisection over fresh reference solves:
    (minimal increase or None, |flow| at zero, |flow| at the cap)."""
    def flow(delta):
        scale = {host: 1.0 + delta / 100.0} if delta != 0.0 else None
        system = reference_system(model, contingency, scale)
        return abs(solve_flows(system, injection).flow_of(target))

    f_zero, f_cap = flow(0.0), flow(cap_pct)
    if f_zero <= rating:
        return 0.0, f_zero, f_cap
    if f_cap > rating:
        return None, f_zero, f_cap
    lo, hi = 0.0, cap_pct
    while hi - lo > tol_pp and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if flow(mid) <= rating:
            hi = mid
        else:
            lo = mid
    return hi, f_zero, f_cap


@st.composite
def sizings(draw):
    """A mesh, its hourly injections, a target and a host line, and pair
    groups in contingency order: (contingency, hour row, outcome, fraction).
    Each contingency is a non-bridge line other than the target and the host
    (or None) and holds 2-4 hours, so groups share topologies."""
    mesh = draw(meshes())
    model = _model(mesh)
    rng = np.random.default_rng(mesh.seed)
    injections = np.array([balanced_injection(rng, len(model.buses)) for _ in HOURS])
    ids = [ln.id for ln in model.in_service_lines]
    bridges = graph_bridges(model)
    target = draw(st.sampled_from(sorted(set(ids) - bridges)))
    host = draw(st.just(target) | st.sampled_from(ids))  # the target sheds its own flow
    outages = sorted(set(ids) - bridges - {target, host})
    contingency = st.none() | st.sampled_from(outages) if outages else st.none()
    groups = []
    for c in sorted(draw(st.lists(contingency, min_size=1, max_size=3, unique=True)),
                    key=lambda c: c or ""):
        for row in draw(st.lists(st.integers(0, len(HOURS) - 1), min_size=2, max_size=4,
                                 unique=True)):
            groups.append((c, row, draw(st.sampled_from(("zero", "none", "bisect"))),
                           draw(st.floats(0.05, 0.95))))
    return model, injections, target, host, groups


def _rating(outcome, fraction, f_zero, f_cap):
    """A target rating that gives ``outcome`` whenever f_zero > f_cap."""
    if outcome == "zero":
        return f_zero * (1.0 + fraction)
    if outcome == "none":
        return min(f_zero, f_cap) * (1.0 - fraction)
    return f_cap + fraction * (f_zero - f_cap)


# two parallel lines host the target itself: one group of each outcome
PARALLEL_SIZING = (
    _model(PARALLEL),
    np.array([[60.0, 0.0, -60.0]] * len(HOURS)),
    "L3", "L3",
    [(None, 0, "zero", 0.5), (None, 1, "none", 0.5), (None, 2, "bisect", 0.5)],
)


@SETTINGS
@given(sizings())
@example(PARALLEL_SIZING)
def test_lockstep_sizer_matches_per_group_bisection(case):
    model, injections, target, host, groups = case
    cases, expected = [], []
    for contingency, row, outcome, fraction in groups:
        _, f_zero, f_cap = reference_size(model, injections[row], contingency, host,
                                          target, float("inf"))
        rating = _rating(outcome, fraction, f_zero, f_cap)
        cases.append((pair_group(model, injections[row], contingency), rating))
        expected.append(reference_size(model, injections[row], contingency, host,
                                       target, rating))
    candidate = siting.PfcCandidate(target_line=target, pfc_line=host, score=1.0)
    got = siting._size_increases(model, cases, candidate, siting.CAP_PCT_DEFAULT,
                                 siting.BISECTION_TOL_PP)
    assert [tuple(map(_bits, g)) for g in got] == [tuple(map(_bits, e)) for e in expected]


def _reference_flows(model, injection, contingency, host=None, delta=0.0):
    """Line id -> MW flow of one fresh reference solve; an outaged line is
    left out."""
    scale = {host: 1.0 + delta / 100.0} if host is not None and delta != 0.0 else None
    system = reference_system(model, contingency, scale)
    return dict(zip(system.line_ids, solve_flows(system, injection).flows_mw))


def reference_assess_target(target, records, model, injections, calendar, ptdf, lodf,
                            cap_pct=40.0, tol_pp=0.1, overload_pct=100.0,
                            max_candidates=8):
    """``assess_target`` from fresh reference solves: each candidate bisects
    each pair group on its own, and evaluates each group again at its δ*; no
    memo, no lockstep and nothing shared between candidates or groups."""
    rows = [r for r in records if r.line_id == target and r.category == "overload"]
    if not rows:
        raise ValueError(f"no overload records for target {target}")
    hours = {r.hour for r in rows}
    groups = {}  # (contingency, season, injections) -> hours, in contingency order
    for hour, contingency in sorted({(r.hour, r.contingency) for r in rows},
                                    key=lambda p: (p[1] or "", p[0])):
        key = (contingency, bool(calendar.summer_mask[hour]), injections[hour].tobytes())
        groups.setdefault(key, []).append(hour)

    scores, phi = {}, line_transfer_factors(ptdf, model)
    for contingency in sorted({key[0] for key in groups}, key=lambda c: c or ""):
        for cand in siting.candidate_locations(target, lodf, phi, model, [contingency]):
            scores[cand.pfc_line] = max(scores.get(cand.pfc_line, cand.score), cand.score)
    hosts = sorted(scores, key=lambda h: (-scores[h], h != target, h))
    if max_candidates:
        hosts = hosts[:max_candidates]

    def rating(lid, hour):
        return effective_rating(model.line_by_id[lid], hour, calendar)

    best, sensitive = None, False
    for order, host in enumerate(hosts):
        sized = {  # a device cannot sit on its group's contingency line
            key: reference_size(model, injections[group[0]], key[0], host, target,
                                rating(target, group[0]), cap_pct, tol_pp)
            for key, group in groups.items() if key[0] != host
        }
        sensitive = sensitive or any(
            abs(f_zero - f_cap) > siting.INSENSITIVE_MW for _, f_zero, f_cap in sized.values()
        )
        clearable = [delta for delta, _, _ in sized.values() if delta is not None]
        if not clearable:
            continue
        delta_star = max(clearable)
        dirty, uncleared, effects, residual = set(), set(), set(), 0.0
        for key, group in groups.items():
            injection, hour = injections[group[0]], group[0]
            pre = _reference_flows(model, injection, key[0])
            post = _reference_flows(model, injection, key[0], host, delta_star)
            loading = {lid: 100.0 * abs(f) / rating(lid, hour) for lid, f in post.items()}
            before = {lid: 100.0 * abs(f) / rating(lid, hour) for lid, f in pre.items()}
            residual = max(residual, *loading.values())
            target_ok = sized.get(key, (None,))[0] is not None and sized[key][0] <= delta_star
            if not target_ok or max(loading.values()) > overload_pct:
                dirty.update(group)
            if not target_ok:
                uncleared.update(group)
            effects |= {lid for lid in post
                        if loading[lid] > overload_pct and loading[lid] > before[lid] + 1e-9}
        entry = (len(hours - dirty), len(hours - uncleared), -order,
                 host, delta_star, tuple(sorted(effects)), residual)
        if best is None or entry[:3] > best[:3]:
            best = entry
        if entry[0] == len(hours):
            break

    if best is None:
        return siting.PfcOutcome(
            target, siting.PARTIALLY_RESOLVED if sensitive else siting.NO_CHANGE,
            None, None, len(hours), 0, max(r.loading_pct for r in rows), (),
        )
    clean, _, _, host, delta_star, effects, residual = best
    return siting.PfcOutcome(
        target, siting.FULLY_RESOLVED if clean == len(hours) else siting.PARTIALLY_RESOLVED,
        host, delta_star, len(hours), clean, residual, effects,
    )


def _outcome_bits(outcome):
    return tuple(_bits(v) if isinstance(v, float) else v
                 for v in dataclasses.astuple(outcome))


def _siting_study(mesh, hours, overload_pct):
    """A mesh's study year as ``assess_target`` takes it after the target:
    the records of ``hours``, intact and post-outage, classed at
    ``overload_pct`` of the effective ratings, then the model, the injections
    (rows at ``HOURS``), the calendar and the shift factors."""
    model, rows, base, lodf = _study(mesh)
    injections = np.zeros((8760, len(model.buses)))
    injections[HOURS] = rows
    ratings = effective_rating_matrix(model, base.line_ids, HOURS, CALENDAR)
    loading = 100.0 * np.abs(base.flows_mw) / ratings
    intact = [(base.line_ids[li], int(HOURS[hi]), None, loading[hi, li], 0.0, "overload")
              for hi, li in zip(*np.nonzero(loading > overload_pct))]
    post = outage_records(stage2_scan(base, lodf, model, CALENDAR, overload_pct=overload_pct))
    records = records_from_rows(
        [r for r in list(post) + intact if r[1] in hours and r[5] == "overload"]
    )
    return records, model, injections, CALENDAR, compute_ptdf(build_system(model), model), lodf


@st.composite
def siting_studies(draw):
    """A mesh study on 1-6 of its hours, a target among its overloaded lines
    and ``assess_target``'s settings. Records are classed at ``overload_pct``
    (100 or 95), while sizing compares with the rating itself, so at 95 a
    pair may need no increase."""
    overload_pct = draw(st.sampled_from((100.0, 95.0)))
    hours = set(draw(st.lists(st.sampled_from(HOURS.tolist()), min_size=1, max_size=6)))
    study = _siting_study(draw(meshes()), hours, overload_pct)
    targets = sorted({r.line_id for r in study[0]})
    hypothesis.assume(targets)
    settings_ = dict(
        cap_pct=draw(st.sampled_from((40.0, 25.0))),
        tol_pp=draw(st.sampled_from((0.1, 0.5))),
        overload_pct=overload_pct,
        max_candidates=draw(st.sampled_from((0, 8))),
    )
    return (*study, draw(st.sampled_from(targets)), settings_)


@functools.cache
def _fixture_study(name):
    """A bundled case's year: its records, intact and post-outage, with the
    inputs ``reference_assess_target`` takes after the target."""
    case = getattr(cases, name)()
    model = case.model
    year = run_year(model, case.profile, case.availability, case.snsp_cap)
    system = build_system(model)
    _, base = stage1_scan(year, model, system, case.profile, case.calendar)
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    records = stage2_scan(base, lodf, model, case.calendar)
    injections = injection_matrix(model, year, case.profile)
    return records, model, injections, case.calendar, ptdf, lodf


def _pair_table(records, model, injections, calendar, ptdf, lodf):
    """``siting.pair_table`` of a study: the reference's inputs without the
    PTDF, whose transfer factors the LODF keeps."""
    return siting.pair_table(records, model, injections, calendar, lodf)


# records at 95%: some pairs of L0 need no increase, and a device on L4 must
# not be sized for the group whose contingency takes L4 out
HOST_OUTAGE = Mesh(edges=((0, 1), (0, 2), (0, 3), (0, 2), (1, 2)), names=(0, 1, 2, 3, 4),
                   reactances=(0.25, 0.5, 0.5, 0.5, 0.5), slack=0, seed=0,
                   rating_factors=(0.80078125, 1.0, 1.0, 1.0, 1.0), winter_factor=1.0)

FIXTURE_TARGETS = {"parallel_paths_case": "LB", "side_effect_case": "T",
                   "radial_feed_case": "T", "capped_relief_case": "L13a"}


@SETTINGS
@given(siting_studies())
@example((*_siting_study(HOST_OUTAGE, set(HOURS.tolist()), 95.0), "L0",
          {"overload_pct": 95.0, "max_candidates": 0}))
@example(("parallel_paths_case", 8))
@example(("parallel_paths_case", 0))
@example(("side_effect_case", 8))
@example(("radial_feed_case", 8))
@example(("capped_relief_case", 8))
@example(("capped_relief_case", 0))
def test_assess_target_is_the_reference_field_for_field(case):
    if isinstance(case[0], str):  # a bundled fixture: (name, max_candidates)
        study, target = _fixture_study(case[0]), FIXTURE_TARGETS[case[0]]
        kwargs = {"max_candidates": case[1]}
    else:
        *study, target, kwargs = case
    got = siting.assess_target(target, _pair_table(*study), **kwargs)
    hypothesis.event(got.classification)
    expected = reference_assess_target(target, *study, **kwargs)
    assert _outcome_bits(got) == _outcome_bits(expected)


@pytest.fixture(scope="module")
def lattice_study(lattice_year):
    """The 8x9 lattice of ``lattice_year`` screened in process as ``run-all``
    would: its records, intact and post-outage, with the inputs
    ``reference_assess_target`` takes after the target."""
    year, model, system, profile, calendar = lattice_year
    _, base = stage1_scan(year, model, system, profile, calendar)
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    records = stage2_scan(base, lodf, model, calendar)
    return records, model, injection_matrix(model, year, profile), calendar, ptdf, lodf


# the lattice's targets whose reference takes under a second; B0007-B0107 and
# B0307-B0407 are left out, their references take tens of seconds
@pytest.mark.parametrize("target", ["B0000-B0100", "B0008-B0108", "B0100-B0101",
                                    "B0407-B0507"])
def test_assess_target_is_the_reference_on_the_lattice(lattice_study, target):
    got = siting.assess_target(target, _pair_table(*lattice_study))
    assert _outcome_bits(got) == _outcome_bits(reference_assess_target(target, *lattice_study))


def _group_fields(group):
    """A pair group's fields, its arrays as bytes and float.hex strings."""
    return (group.hours, group.contingency, group.outage, group.rhs.tobytes(),
            [float.hex(v) for v in group.rhs.tolist()], group.ratings.tobytes(),
            [float.hex(v) for v in group.ratings.tolist()],
            group.rhs.flags.writeable, group.ratings.flags.writeable)


def assert_pair_groups_are_the_reference(records, model, injections, calendar, ptdf, lodf):
    """Each target's groups from one ``pair_table`` are ``group_pairs``' groups
    of its overload pairs, field for field and in the same order, and each
    group's rhs has the bits of every one of its hours' own rhs."""
    table = siting.pair_table(records, model, injections, calendar, lodf)
    contingencies = records.line_ids + (None,)  # index -1 is the intact network
    rhs = {}  # hour -> the bytes of dcflow.reduced_injections of its injections
    targets = sorted(records.line_ids[i] for i in set(records.line[records.overload].tolist()))
    assert sorted(table.spans) == targets
    for target in targets:
        hit = records.overload & (records.line == records.line_ids.index(target))
        pairs = set(zip(records.hour[hit].tolist(),
                        [contingencies[k] for k in records.contingency[hit].tolist()]))
        got = table.groups(target)
        assert [_group_fields(g) for g in got] == [
            _group_fields(g) for g in group_pairs(model, pairs, injections, calendar)
        ], target
        for g in got:
            for hour in g.hours:
                if hour not in rhs:
                    rhs[hour] = dcflow.reduced_injections(model, injections[hour]).tobytes()
                assert g.rhs.tobytes() == rhs[hour], (target, hour)


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_pair_groups_are_the_reference_on_the_bundled_cases(name):
    assert_pair_groups_are_the_reference(*_fixture_study(name))


def test_pair_groups_are_the_reference_on_the_lattice(lattice_study):
    assert_pair_groups_are_the_reference(*lattice_study)


@SETTINGS
@given(meshes(), st.sampled_from((100.0, 95.0)))
@example(PARALLEL, 95.0)
def test_pair_groups_are_the_reference_on_meshes(mesh, overload_pct):
    """The screen's own records, whose line ids are in model order and not
    in id order when the mesh's names are not, and hours that share their
    injections in pairs, across the seasons too."""
    model, rows, base, lodf = _study(mesh)
    injections = np.zeros((HOURS_PER_YEAR, len(model.buses)))
    injections[HOURS] = rows
    injections[HOURS[1::2]] = rows[::2]
    records = stage2_scan(base, lodf, model, CALENDAR, overload_pct=overload_pct)
    ptdf = compute_ptdf(build_system(model), model)
    assert_pair_groups_are_the_reference(records, model, injections, CALENDAR, ptdf, lodf)


def union_of_single_contingency_candidates(target, lodf, ptdf, model, contingencies):
    """The candidate ranking as one list per contingency, merged: each host
    keeps the best of its scores, then the strongest come first and the
    target wins ties. (host, float.hex(score)) pairs."""
    scores, phi = {}, line_transfer_factors(ptdf, model)
    for contingency in contingencies:
        for cand in siting.candidate_locations(target, lodf, phi, model, [contingency]):
            if cand.pfc_line not in scores or cand.score > scores[cand.pfc_line]:
                scores[cand.pfc_line] = cand.score
    ranked = sorted(scores, key=lambda host: (-scores[host], host != target, host))
    return [(host, float.hex(scores[host])) for host in ranked]


def _without(model, line_id):
    """``model`` with ``line_id`` out of service."""
    return dataclasses.replace(model, lines=tuple(
        dataclasses.replace(ln, in_service=False) if ln.id == line_id else ln
        for ln in model.lines
    ))


@st.composite
def candidate_rankings(draw):
    """A mesh, a target line and 1-3 distinct contingencies, drawn from the
    intact network and the outages that island no bus; when some outage
    leaves the target a bridge, one such outage is among them."""
    model = _model(draw(meshes()))
    target = draw(st.sampled_from(model.in_service_line_ids))
    outages = sorted(set(model.in_service_line_ids) - graph_bridges(model) - {target})
    bridging = [c for c in outages if target in graph_bridges(_without(model, c))]
    forced = [draw(st.sampled_from(bridging))] if bridging else []
    others = st.sampled_from([None] + sorted(set(outages) - set(forced)))
    contingencies = draw(st.lists(others, min_size=1 - len(forced), max_size=3 - len(forced),
                                  unique=True))
    contingencies[draw(st.integers(0, len(contingencies))):0] = forced
    return model, target, contingencies


@SETTINGS
@given(candidate_rankings())
# L3 and L12 are parallel: with L12 out, L3 is a bridge and offers nothing
@example((_model(PARALLEL), "L3", [None, "L12"]))
@example((_model(PARALLEL), "L3", ["L12", None]))
def test_one_candidate_ranking_is_the_union_of_single_contingency_rankings(case):
    model, target, contingencies = case
    ptdf = compute_ptdf(build_system(model), model)
    lodf = compute_lodf(ptdf, model)
    got = siting.candidate_locations(target, lodf, line_transfer_factors(ptdf, model), model,
                                     contingencies)
    assert {c.target_line for c in got} <= {target}
    assert [(c.pfc_line, float.hex(c.score)) for c in got] == (
        union_of_single_contingency_candidates(target, lodf, ptdf, model, contingencies)
    )


def reference_candidate_locations(target, lodf, ptdf, model, contingencies):
    """``candidate_locations`` one line at a time: per contingency, every
    other line's |phi(t, c)| raises its best score when above
    ``SENSITIVITY_TOL``, and the target keeps its largest 1 - phi(t, t).
    (host, float.hex(score)) pairs, strongest first, the target winning ties."""
    line_ids = ptdf.line_ids
    t = line_ids.index(target)
    phi = line_transfer_factors(ptdf, model)
    best = {}
    for contingency in contingencies:
        if contingency is None:
            phi_t = phi[t, :]
        else:
            k = line_ids.index(contingency)
            phi_t = phi[t, :] + lodf.matrix[t, k] * phi[k, :]
        self_factor = float(phi_t[t])
        if self_factor >= 1.0 - siting.SENSITIVITY_TOL:
            continue
        best[target] = max(best.get(target, 0.0), 1.0 - self_factor)
        for c, lid in enumerate(line_ids):
            coupling = abs(float(phi_t[c]))
            if lid not in (target, contingency) and coupling > max(
                siting.SENSITIVITY_TOL, best.get(lid, 0.0)
            ):
                best[lid] = coupling
    ranked = sorted(best, key=lambda host: (-best[host], host != target, host))
    return [(host, float.hex(best[host])) for host in ranked]


def assert_candidates_are_the_reference(target, lodf, ptdf, model, contingencies):
    got = siting.candidate_locations(target, lodf, line_transfer_factors(ptdf, model), model,
                                     contingencies)
    assert [(c.pfc_line, float.hex(c.score)) for c in got] == (
        reference_candidate_locations(target, lodf, ptdf, model, contingencies)
    ), (target, contingencies)


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_candidate_ranking_is_the_per_line_reference_on_the_bundled_cases(name):
    """Every target, under the intact network and every outage that islands
    nothing: each alone, all at once, and every third of them."""
    model = getattr(cases, name)().model
    ptdf = compute_ptdf(build_system(model), model)
    lodf = compute_lodf(ptdf, model)
    outages = sorted(set(model.in_service_line_ids) - model.bridges)
    for target in model.in_service_line_ids:
        others = [None] + [k for k in outages if k != target]
        for contingencies in ([[k] for k in others] + [others, others[::3], others[1::3]]):
            assert_candidates_are_the_reference(target, lodf, ptdf, model, contingencies)


@SETTINGS
@given(candidate_rankings())
@example((_model(PARALLEL), "L3", [None, "L12"]))
def test_candidate_ranking_is_the_per_line_reference_on_meshes(case):
    model, target, contingencies = case
    ptdf = compute_ptdf(build_system(model), model)
    assert_candidates_are_the_reference(
        target, compute_lodf(ptdf, model), ptdf, model, contingencies
    )


def test_a_bridge_contingency_names_the_buses_it_islands():
    model = _model(PARALLEL)  # L7 is the one line to the slack, B2
    ptdf = compute_ptdf(build_system(model), model)
    lodf = compute_lodf(ptdf, model)
    with pytest.raises(IslandingError) as exact:
        dcflow.check_outage(model, "L7")
    with pytest.raises(IslandingError) as err:
        siting.candidate_locations("L3", lodf, line_transfer_factors(ptdf, model), model,
                                   [None, "L7"])
    assert err.value.separated == {"B0", "B1"}
    assert str(err.value) == str(exact.value) == "outage of line L7 islands buses {B0, B1}"


def assert_skips_are_bridges(model, contingencies):
    """``candidate_locations`` offers no candidate for a target under one
    of ``contingencies`` exactly when the target is a bridge (union-find) of
    the network without it: its SENSITIVITY_TOL skip agrees with topology."""
    ptdf = compute_ptdf(build_system(model), model)
    lodf, phi = compute_lodf(ptdf, model), line_transfer_factors(ptdf, model)
    for contingency in contingencies:
        bridges = graph_bridges(model if contingency is None else _without(model, contingency))
        for target in set(model.in_service_line_ids) - {contingency}:
            got = siting.candidate_locations(target, lodf, phi, model, [contingency])
            assert (got == []) == (target in bridges), (target, contingency)


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_the_sensitivity_skip_fires_exactly_where_the_target_is_a_bridge(name):
    model = getattr(cases, name)().model
    assert_skips_are_bridges(model, [None, *sorted(set(model.in_service_line_ids) - model.bridges)])


def test_the_sensitivity_skip_fires_exactly_where_the_target_is_a_bridge_on_the_lattice(
    lattice_year,
):
    # every contingency that leaves a new bridge, and every eighth other one:
    # all of them take ~10 s (ratings do not enter, so this stands for 1.3x too)
    model = lattice_year[1]
    outages = sorted(set(model.in_service_line_ids) - model.bridges)
    new = [c for c in outages if _without(model, c).bridges != model.bridges]
    assert new  # corner buses: the two lines of each are a cut pair
    assert_skips_are_bridges(model, [None, *new, *sorted(set(outages) - set(new))[::8]])


@st.composite
def lean_solves(draw):
    """A mesh model and one Stage-3 solve on it: balanced injections, a
    non-bridge target, a host line, a contingency (None or a non-bridge line
    other than the two) and an increase in (0, 40%]."""
    model = _model(draw(meshes()))
    ids = [ln.id for ln in model.in_service_lines]
    bridges = graph_bridges(model)
    target = draw(st.sampled_from(sorted(set(ids) - bridges)))
    host = draw(st.just(target) | st.sampled_from(ids))
    outages = sorted(set(ids) - bridges - {target, host})
    contingency = draw(st.none() | st.sampled_from(outages)) if outages else None
    injection = balanced_injection(np.random.default_rng(draw(st.integers(0, 99))),
                                   len(model.buses))
    return model, injection, target, host, contingency, draw(st.floats(0.0, 40.0,
                                                                      exclude_min=True))


# a triangle with the slack at bus 1: L0 ends at the slack, L1 starts there
SLACK_ENDS = Mesh(edges=((0, 1), (1, 2), (0, 2)), names=(0, 1, 2),
                  reactances=(0.1, 0.2, 0.3), slack=1, seed=5,
                  rating_factors=(1.0,) * 3, winter_factor=1.0)


@SETTINGS
@given(lean_solves())
@example((_model(SLACK_ENDS), np.array([40.0, -10.0, -30.0]), "L0", "L2", None, 25.0))
@example((_model(SLACK_ENDS), np.array([40.0, -10.0, -30.0]), "L1", "L1", "L2", 12.5))
@example((_model(SLACK_ENDS), np.array([40.0, -10.0, -30.0]), "L0", "L1", "L2", 40.0))
def test_lean_solves_give_the_full_solution_bits(case):
    model, injection, target, host, contingency, delta = case
    exact = _exact_flows(model, injection, contingency, host, delta)
    group = pair_group(model, injection, contingency)
    candidate = siting.PfcCandidate(target_line=target, pfc_line=host, score=1.0)
    # an infinite rating needs no bisection: the cap is read once, at delta
    [(_, _, f_cap)] = siting._size_increases(model, [(group, float("inf"))], candidate,
                                             delta, siting.BISECTION_TOL_PP)
    assert _bits(f_cap) == _bits(abs(exact[model.in_service_line_ids.index(target)]))
    assert _same_bits(siting._flows(model, group, host, delta)[0], exact)


def _exact_flows(model, injection, contingency, host=None, delta=0.0):
    """Every in-service line's MW flow from a new exact solve, the
    contingency's line at 0, with ``host``'s reactance raised by ``delta``%."""
    scale = None if host is None else {host: 1.0 + delta / 100.0}
    if contingency is None:
        return solve_flows(build_system(model, reactance_scale=scale), injection).flows_mw
    return solve_with_outage(model, injection, contingency, reactance_scale=scale).flows_mw


@SETTINGS
@given(lean_solves())
@example((_model(SLACK_ENDS), np.array([40.0, -10.0, -30.0]), "L0", "L2", None, 25.0))
@example((_model(SLACK_ENDS), np.array([40.0, -10.0, -30.0]), "L1", "L1", "L2", 12.5))
def test_a_group_serves_only_the_solve_it_was_asked_for(case):
    """A group's kept solves answer each request with a new exact solve's bits,
    so a memo keyed on the contingency or on the host alone fails; and a
    replaced scaled system is not kept alive by the group."""
    model, injection, target, host, contingency, delta = case
    group = pair_group(model, injection, contingency)
    for pfc_line, d in ((host, delta), (host, delta / 2), (host, delta), (None, 0.0),
                        (target, delta), (host, delta)):
        flows, loading = siting._flows(model, group, pfc_line, d)
        exact = _exact_flows(model, injection, contingency, pfc_line, d)
        assert _same_bits(flows, exact)
        assert _same_bits(loading, 100.0 * np.abs(exact) / group.ratings)
    kept = weakref.ref(build_system(model, contingency, {host: 1.0 + delta / 100.0}))
    build_system(model, contingency, {host: 2.0})  # replaces the scaled slot
    gc.collect()
    assert kept() is None


@SETTINGS
@given(lean_solves())
def test_side_effects_never_name_a_line_the_device_cannot_move(case):
    model, injection, _, host, contingency, delta = case
    # at 0% every loaded line is above its rating, so only the 1e-9 band
    # keeps a bridge, whose flow no increase moves, from being flagged when
    # its flow from the scaled solve rounds a few ulps higher
    flagged = siting.check_side_effects(model, pair_group(model, injection, contingency),
                                        host, delta, overload_pct=0.0)
    assert not set(flagged) & graph_bridges(model)


def _assert_f_zero_is_the_pre_state(model, groups, injections, target, host):
    """The sizer's |flow| at zero of each pair group, whose injections are the
    matching row of ``injections``, is the target's entry of a new exact
    unscaled solve, bit for bit: the pre-state each group keeps for sizing
    and side effects alike."""
    candidate = siting.PfcCandidate(target_line=target, pfc_line=host, score=1.0)
    t = model.in_service_line_ids.index(target)
    # an infinite rating needs no bisection
    sized = siting._size_increases(model, [(g, float("inf")) for g in groups], candidate,
                                   siting.CAP_PCT_DEFAULT, siting.BISECTION_TOL_PP)
    assert [_bits(f_zero) for _, f_zero, _ in sized] == [
        _bits(abs(_exact_flows(model, injection, g.contingency)[t]))
        for g, injection in zip(groups, injections)
    ]


@SETTINGS
@given(sizings())
@example(PARALLEL_SIZING)
@example((*PARALLEL_SIZING[:4], [(None, 0, "zero", 0.5), ("L12", 1, "zero", 0.5)]))
def test_sizer_f_zero_is_the_pre_state_flow_on_meshes(case):
    model, injections, target, host, groups = case
    # every drawn (contingency, hour) and each hour intact, in contingency order
    settings_ = {(c, row) for c, row, *_ in groups} | {(None, row) for _, row, *_ in groups}
    settings_ = sorted(settings_, key=lambda s: (s[0] or "", s[1]))
    _assert_f_zero_is_the_pre_state(
        model, [pair_group(model, injections[row], c) for c, row in settings_],
        [injections[row] for _, row in settings_], target, host,
    )


@pytest.mark.parametrize("name", [*FIXTURE_TARGETS, "grid30_case"])
def test_sizer_f_zero_is_the_pre_state_flow_on_the_bundled_cases(name):
    records, model, injections, calendar, _, _ = _fixture_study(name)
    for target in sorted({r.line_id for r in records if r.category == "overload"}):
        overloaded = {(r.hour, r.contingency) for r in records
                      if r.line_id == target and r.category == "overload"}
        pairs = overloaded | {(hour, None) for hour, _ in overloaded}
        groups = group_pairs(model, pairs, injections, calendar)
        assert any(g.contingency is None for g in groups)
        _assert_f_zero_is_the_pre_state(model, groups, [injections[g.hours[0]] for g in groups],
                                        target, target)


@SETTINGS
@given(meshes(), st.floats(1.0, 1.4))
@example(PARALLEL, 1.25)
def test_bridge_exclusions_raise_before_any_factorization(mesh, scale):
    model = _model(mesh)
    for bridge in sorted(graph_bridges(model)):
        others = [lid for lid in model.in_service_line_ids if lid != bridge]
        for reactance_scale in (None, {bridge: scale}, {others[0]: scale}):
            before = dcflow.factorizations
            try:
                build_system(model, bridge, reactance_scale)
            except SingularSystemError:
                assert dcflow.factorizations == before
                continue
            raise AssertionError(f"bridge {bridge} factorized")


# -- merit-order dispatch -------------------------------------------------------


def reference_dispatch_hour(fleet, demand, factors, snsp_cap):
    """One hour's merit-order solve, scalar: the outputs (model generator
    order), curtailed MW, SNSP, whether the hour is feasible and its deficit
    (negative for over-generation)."""
    n = len(fleet.gen_ids)
    outputs = np.zeros(n)

    available = np.where(fleet.nonsync, factors * fleet.p_max, 0.0)
    total_available = float(available.sum())
    res_target = min(total_available, snsp_cap * demand, demand)
    residual = demand - res_target

    if fleet.thermal_cap < residual - BALANCE_TOL_MW:
        return outputs, 0.0, 0.0, False, residual - fleet.thermal_cap

    if total_available > 0.0:
        outputs[fleet.nonsync] = available[fleet.nonsync] * (res_target / total_available)

    remaining = residual
    marginal = -1
    for i in fleet.merit_order:
        if remaining <= 0.0:
            break
        take = min(fleet.p_max[i], remaining)
        outputs[i] = take
        remaining -= take
        marginal = i

    if marginal >= 0 and 0.0 < outputs[marginal] < fleet.p_min[marginal]:
        surplus = fleet.p_min[marginal] - outputs[marginal]
        outputs[marginal] = fleet.p_min[marginal]
        for i in reversed(fleet.merit_order):
            if surplus <= 0.0:
                break
            if i == marginal or outputs[i] <= 0.0:
                continue
            room = outputs[i] - fleet.p_min[i]
            cut = min(room, surplus)
            outputs[i] -= cut
            surplus -= cut
        if surplus > BALANCE_TOL_MW and res_target > 0.0:
            cut = min(res_target, surplus)
            scale = (res_target - cut) / res_target
            outputs[fleet.nonsync] *= scale
            res_target -= cut
            surplus -= cut
        if surplus > BALANCE_TOL_MW:
            return np.zeros(n), 0.0, 0.0, False, -surplus

    curtailed = total_available - float(outputs[fleet.nonsync].sum())
    snsp = float(outputs[fleet.nonsync].sum()) / demand if demand > 0 else 0.0
    return outputs, max(curtailed, 0.0), snsp, True, 0.0


@st.composite
def dispatch_hours(draw):
    """A fleet of 1-16 units in random model order (thermal units with p_min
    floors and srmc ties, ids whose text order is not their index order, plus
    wind and solar), an SNSP cap in (0, 1] and 1-8 hours of demand and
    availability: zero, signed zero, low enough that the floors over-generate,
    the exact end of a merit-order unit, or anything up to a capacity
    shortfall."""
    n_thermal = draw(st.integers(0, 12))
    n_res = draw(st.integers(0 if n_thermal else 1, 4))
    ids = draw(st.lists(st.integers(0, 99), min_size=n_thermal + n_res,
                        max_size=n_thermal + n_res, unique=True))
    size = st.sampled_from((50.0, 100.0)) | st.floats(1.0, 300.0)
    gens = []
    for k in range(n_thermal):
        p_max = draw(size)
        floor = draw(st.sampled_from((0.0, 0.0, 0.3, 0.9, 1.0)) | st.floats(0.0, 1.0))
        srmc = draw(st.sampled_from((10.0, 20.0, 35.5)))
        gens.append(Generator(f"G{ids[k]}", "B1", "thermal", p_max, p_max * floor,
                              srmc, True))
    for k in range(n_thermal, n_thermal + n_res):
        kind = draw(st.sampled_from(("wind", "solar")))
        gens.append(Generator(f"R{ids[k]}", "B2", kind, draw(size), 0.0, 0.0, False))
    model = fleet_model(draw(st.permutations(gens)))

    fleet = _Fleet(model)
    capacity = fleet.p_max.sum()
    ends = np.cumsum(fleet.p_max[fleet.merit_order]).tolist() or [0.0]
    demand = (
        st.sampled_from((0.0, -0.0))
        | st.sampled_from(ends)
        | st.floats(0.0, 0.2).map(lambda s: s * capacity)
        | st.floats(0.0, 1.5).map(lambda s: s * capacity)
    )
    factor = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
    res_ids = [g.id for g in model.generators if not g.synchronous]
    hours = draw(st.lists(
        st.tuples(demand, st.fixed_dictionaries({gid: factor for gid in res_ids})),
        min_size=1, max_size=8,
    ))
    cap = draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True))
    return model, hours, cap


def _hour_bits(outputs, curtailed, snsp, feasible, deficit):
    return (np.asarray(outputs, dtype=float).tobytes(), float.hex(curtailed),
            float.hex(snsp), bool(feasible), float.hex(deficit))


@SETTINGS
@given(dispatch_hours())
# the marginal unit's floor is taken back from the cheaper unit
@example((fleet_model([Generator("G1", "B1", "thermal", 100.0, 0.0, 10.0, True),
                        Generator("G2", "B1", "thermal", 50.0, 20.0, 20.0, True)]),
          [(110.0, {})], 0.65))
# the floor spills into wind curtailment, or over-generates past it
@example((fleet_model([Generator("G1", "B1", "thermal", 100.0, 50.0, 10.0, True),
                        Generator("W1", "B2", "wind", 100.0, 0.0, 0.0, False)]),
          [(100.0, {"W1": 0.8}), (30.0, {"W1": 0.1}), (500.0, {"W1": 0.5})], 1.0))
def test_dispatch_is_the_scalar_reference_bit_for_bit(case):
    model, hours, cap = case
    fleet = _Fleet(model)
    expected = []
    for demand, res_factors in hours:
        factors = np.array([res_factors.get(gid, 1.0) for gid in fleet.gen_ids])
        expected.append(reference_dispatch_hour(fleet, demand, factors, cap))
        got = merit_order_dispatch(model, demand, res_factors, cap)
        assert _hour_bits(got.outputs_mw, got.curtailed_mw, got.snsp, got.feasible,
                          got.deficit_mw) == _hour_bits(*expected[-1])
    kinds = {"over-generation" if e[4] < 0 else "shortfall" if e[4] > 0 else "feasible"
             for e in expected}
    hypothesis.event(", ".join(sorted(kinds)))

    # the drawn hours repeated over a year
    cycle = np.arange(HOURS_PER_YEAR) % len(hours)
    demand = np.array([d for d, _ in hours])[cycle]
    factors = {gid: np.array([f[gid] for _, f in hours])[cycle] for gid in hours[0][1]}
    year = run_year(model, DemandProfile(demand_mw=demand, bus_shares={"B1": 1.0}),
                    ResAvailability(factors=factors), cap)
    outputs, curtailed, snsp, feasible, _ = zip(*expected)
    assert year.outputs_mw.tobytes() == np.array(outputs)[cycle].tobytes()
    assert year.curtailed_mw.tobytes() == np.array(curtailed)[cycle].tobytes()
    assert year.snsp.tobytes() == np.array(snsp)[cycle].tobytes()
    assert year.feasible.tolist() == np.array(feasible)[cycle].tolist()
