"""Drive the command line pipeline end to end on generated input files.

Writes the six input CSVs and a config for the side-effect case into a
temporary study folder, runs the staged pipeline exactly as a user would,
and shows what lands in the output directory. A second run-all at the end
demonstrates the stage cache: every stage is reused after its outputs verify,
and only the report is written again.
"""

import json
import tempfile
import time
from pathlib import Path

from pfcplan import cases
from pfcplan.cli import main

root = Path(tempfile.mkdtemp(prefix="pfcplan_demo_"))
case = cases.side_effect_case()
inputs = cases.write_study_inputs(case, root / "inputs")

config = {
    "inputs": inputs,
    "scenario": "side-effect-demo",
    "slack_bus": case.model.slack_bus,
    "derate": 0.0,              # the case sets effective ratings directly
    "summer_months": list(range(1, 13)),
    "out_dir": str(root / "out"),
}
config_path = root / "config.json"
config_path.write_text(json.dumps(config, indent=2))
print(f"study folder: {root}")

for command in ("dispatch", "screen", "site-pfc"):
    print(f"\n$ pfcplan {command} --config config.json")
    code = main([command, "--config", str(config_path)])
    print(f"  -> exit {code}")

print("\noutput files:")
out = root / "out"
for path in sorted(out.rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(out)}  ({path.stat().st_size:,} bytes)")

summary = json.loads((out / "report" / "summary.json").read_text())
print("\nreport highlights:")
print(f"  overloaded lines by region: {summary['regional_overloaded_lines']}")
print(f"  outcome breakdown (%):      {summary['pfc_breakdown_pct']}")
for row in summary["pfc_outcomes"]:
    print(f"  {row['target_line']}: {row['classification']}, "
          f"side effects {row['side_effect_lines']}")

print("\n$ pfcplan run-all --config config.json   (second run, cache warm)")
start = time.perf_counter()
code = main(["run-all", "--config", str(config_path)])
print(f"  -> exit {code} in {time.perf_counter() - start:.2f}s "
      f"(every stage reused from cache, report re-emitted)")
