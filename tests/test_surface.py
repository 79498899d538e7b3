"""The surface other code relies on: the README's library quick start, and
the functions ``bench/tracer.py`` wraps by name."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from pfcplan import cases

from test_cli import _study

ROOT = Path(__file__).resolve().parents[1]


def _python(args, cwd):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_readme_quick_start_prints_what_its_comments_say(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.MULTILINE)
    assert len(expected) == 2
    done = _python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == expected


def test_tracer_installs_on_the_package_and_traces_run_all(tmp_path):
    # bench/worker.py calls tracer.install(Tracer(), out_dir), which looks up
    # every function it wraps by name, then runs run-all through the wrappers
    config, out = _study(tmp_path, cases.side_effect_case())
    result = tmp_path / "result.json"
    done = _python([
        str(ROOT / "bench" / "worker.py"), "--study", str(config), "--out", str(out),
        "--commands", "run-all", "--spawned-at", str(time.monotonic_ns()),
        "--result", str(result), "--spans", str(tmp_path / "spans.jsonl"),
    ], tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads(result.read_text(encoding="utf-8"))
    assert report["exit_codes"] == [0]
    layers = report["layers"]
    for name in ("network.load_network", "dispatch.injection_matrix",
                 "shift_factors.compute_lodf", "siting.check_side_effects"):
        assert layers[f"{name}.calls"] > 0, name
    assert layers["report.emit.wall_s"] > 0


def test_the_cli_imports_without_orjson(tmp_path):
    # orjson's import pulls in uuid, zoneinfo and datetime; tables.float_cells
    # loads it when a float column is first written, not at every start-up
    done = _python(["-c", "import sys, pfcplan.cli; print('orjson' in sys.modules)"],
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
