"""The Stage-3 work on grid30 stays at the values the benchmark pins.

``bench/pins.json`` pins, for a ``run-all`` of the bundled grid30 study, the
``build_system`` calls each target's ``assess_target`` makes, the calls made
outside Stage 3, the ``check_side_effects`` calls and the distinct topologies
built. This test counts them in process, wrapping the module attributes the
way ``bench/tracer.py`` does, and compares with the pinned values read from
that file, so a change of Stage-3 work fails here and not only in a traced
benchmark run.
"""

import json
from pathlib import Path

from pfcplan import cases, dcflow, siting
from pfcplan.cli import main

from test_cli import _study

PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"


def test_grid30_stage3_work_matches_the_benchmark_pins(tmp_path, monkeypatch):
    pinned = json.loads(PINS.read_text())["grid30-study"]["counters"]
    builds: dict[str | None, int] = {}  # target (None outside Stage 3) -> calls
    topologies = set()
    side_effects = [0]
    target = [None]

    build_system = dcflow.build_system

    def counted_build(model, exclude_line=None, reactance_scale=None):
        builds[target[0]] = builds.get(target[0], 0) + 1
        topologies.add((exclude_line, tuple(sorted((reactance_scale or {}).items()))))
        return build_system(model, exclude_line, reactance_scale)

    assess_target = siting.assess_target

    def attributed_assess(name, *args, **kwargs):
        target[0] = name
        try:
            return assess_target(name, *args, **kwargs)
        finally:
            target[0] = None

    check_side_effects = siting.check_side_effects

    def counted_side_effects(*args, **kwargs):
        side_effects[0] += 1
        return check_side_effects(*args, **kwargs)

    monkeypatch.setattr(dcflow, "build_system", counted_build)
    monkeypatch.setattr(siting, "assess_target", attributed_assess)
    monkeypatch.setattr(siting, "check_side_effects", counted_side_effects)

    config, _ = _study(tmp_path, cases.grid30_case())
    assert main(["run-all", "--config", str(config)]) == 0

    prefix = "siting.assess_target."
    for key, value in pinned.items():
        if key.startswith(prefix) and key.endswith(".build_system_calls"):
            name = key[len(prefix):-len(".build_system_calls")]
            assert builds.get(name, 0) == value, key
    assert builds.get(None, 0) == pinned["dcflow.build_system.calls_outside_stage3"]
    assert side_effects[0] == pinned["siting.check_side_effects.calls"]
    assert len(topologies) == pinned["dcflow.build_system.distinct_topologies"]
