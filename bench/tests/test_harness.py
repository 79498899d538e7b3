"""Tests of the benchmark harness itself (not of pfcplan).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import lattice  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


def test_generator_is_deterministic_per_seed():
    first = lattice.lattice_inputs(3, 4, seed=7, rating_scale=1.0)
    assert first == lattice.lattice_inputs(3, 4, seed=7, rating_scale=1.0)
    assert sorted(first) == sorted(lattice.INPUT_NAMES)
    other = lattice.lattice_inputs(3, 4, seed=8, rating_scale=1.0)
    assert other["demand"] != first["demand"]
    assert other["lines"].splitlines()[0] == first["lines"].splitlines()[0]


def test_generator_writes_identical_bytes(tmp_path):
    a = lattice.write_lattice_inputs(tmp_path / "a", 3, 4, 5, 1.2)
    b = lattice.write_lattice_inputs(tmp_path / "b", 3, 4, 5, 1.2)
    for name in lattice.INPUT_NAMES:
        assert Path(a[name]).read_bytes() == Path(b[name]).read_bytes()


def test_generator_has_a_radial_spur():
    lines = lattice.lattice_inputs(3, 4, seed=1, rating_scale=1.0)["lines"].splitlines()[1:]
    spur = [row for row in lines if "S0" in row]
    assert [row.split(",")[0] for row in spur] == ["B0003-S01", "S01-S02"]


@pytest.fixture(scope="module")
def screened(tmp_path_factory):
    """A small lattice run through pfcplan's dispatch and screen commands."""
    from pfcplan.cli import main

    root = tmp_path_factory.mktemp("lattice")
    lattice.write_lattice_inputs(root / "inputs", 3, 4, seed=2, rating_scale=0.9)
    study = root / "study.json"
    study.write_text(json.dumps({
        "inputs": {n: f"inputs/{n}.csv" for n in lattice.INPUT_NAMES},
        "slack_bus": lattice.slack_bus(3, 4),
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main([cmd, "--config", str(study), "--out", str(root / "out")])
                 for cmd in ("dispatch", "screen")]
    return root, codes


def _lattice_checks(root, codes, pins=None):
    return checks.check_lattice(root / "inputs", root / "out", lattice.slack_bus(3, 4),
                                codes, [0, 0], pins or {}, seed=2, n_sampled=19)


def test_check_passes_on_untouched_outputs(screened):
    root, codes = screened
    found = _lattice_checks(root, codes)
    assert found and all(ok for _, ok, _ in found), [c for c in found if not c[1]]
    assert any(name.startswith("stage2_bridge_") for name, _, _ in found)


def test_check_catches_tampered_overloads(screened, tmp_path):
    root, codes = screened
    overloads = root / "out" / "overloads.csv"
    original = overloads.read_text()
    rows = original.splitlines(keepends=True)
    stage2 = next(i for i, row in enumerate(rows[1:], 1) if row.split(",")[2])
    try:
        overloads.write_text("".join(rows[:stage2] + rows[stage2 + 1:]))
        failed = [name for name, ok, _ in _lattice_checks(root, codes) if not ok]
        assert failed
    finally:
        overloads.write_text(original)


def test_check_catches_tampered_bytes_against_pin(screened):
    root, codes = screened
    overloads = root / "out" / "overloads.csv"
    totals = checks.class_totals(checks.record_counts(overloads))
    pins = {"2": {"records": totals, "overloads.csv": checks.sha256(overloads)}}
    assert all(ok for _, ok, _ in _lattice_checks(root, codes, pins))
    original = overloads.read_bytes()
    try:
        overloads.write_bytes(original.replace(b"near", b"near ", 1))
        failed = [name for name, ok, _ in _lattice_checks(root, codes, pins) if not ok]
        assert "sha256_overloads.csv" in failed
    finally:
        overloads.write_bytes(original)


def test_check_reports_bad_exit_codes(screened):
    root, _ = screened
    found = _lattice_checks(root, [0, 2])
    assert [(name, ok) for name, ok, _ in found] == [("exit_codes", False)]


def test_self_time_on_synthetic_tree():
    s = 1_000_000_000
    spans = [
        ["root", 0, 10 * s, -1, {}],
        ["a", 1 * s, 4 * s, 0, {}],
        ["a.child", 2 * s, 3 * s, 1, {}],
        ["b", 5 * s, 9 * s, 0, {}],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_nest_and_count():
    class Owner:
        @staticmethod
        def outer(n):
            return sum(Owner.inner(i) for i in range(n))

        @staticmethod
        def inner(i):
            return i

    tracer = Tracer()
    tracer.wrap(Owner, "inner", "dcflow.solve_flows")
    tracer.wrap(Owner, "outer", "screening.summarize")
    assert Owner.outer(3) == 3
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("screening.summarize", -1)] + [("dcflow.solve_flows", 0)] * 3
    metrics = layer_metrics(tracer.spans)
    assert metrics["dcflow.solve_flows.calls"] == 3
    assert metrics["screening.summarize.calls"] == 1
    assert metrics["screening.summarize.wall_s"] >= metrics["dcflow.solve_flows.wall_s"]


def test_annotation_time_is_charged_to_no_span():
    class Owner:
        @staticmethod
        def outer():
            return Owner.inner()

        @staticmethod
        def inner():
            return 1

    def slow_annotate(args, kwargs, result):
        time.sleep(0.05)
        return {"seen": result}

    tracer = Tracer()
    tracer.wrap(Owner, "inner", "dcflow.solve_flows", annotate=slow_annotate)
    tracer.wrap(Owner, "outer", "screening.summarize")
    assert Owner.outer() == 1
    outer, inner = tracer.spans
    assert inner[4] == {"seen": 1}
    assert outer[2] - outer[1] < 0.02e9


def test_scaling_by_probe_speed():
    # half the window at the reference speed, half 1.8x slower: the study ran
    # 1.4x slower than it would have at the reference speed throughout
    ref = speed.REFERENCE_S
    assert speed.scaled(14.0, [ref] * 5 + [1.8 * ref] * 5) == pytest.approx(10.0)


def test_probe_samples_its_window():
    with speed.SpeedProbe(period_s=0.001) as probe:
        time.sleep(0.1)
    assert len(probe.samples) > 5
    (first, _), (last, nearest) = probe.samples[0], probe.samples[-1]
    assert probe.window(first, (last - first) / 1e9) == [d for _, d in probe.samples]
    assert probe.window(last + 10**9, 0.0) == [nearest]
