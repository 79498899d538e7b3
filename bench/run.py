"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload grid30-study --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout that holds ``src/pfcplan``. Each
iteration is a fresh ``bench/worker.py`` subprocess that drives
``pfcplan.cli.main`` on generated input CSVs; iterations repeat while half
of one more still fits in ``--seconds`` (at least one runs).

The run and its workers share one CPU. ``--trace 0`` reports the end-to-end
metrics: study_s and setup_s, the medians over the run's samples of each
wall time scaled by the CPU speed a probe measured while it ran (see
speed.py), and peak_rss_mb, the minimum over the iterations. ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of BENCHMARK.json as medians over the traced iterations, checks the pinned
work counters and keeps the last span file under ``.bench_work/spans/``.

Every iteration's outputs are checked (see checks.py); the last stdout line
is the JSON result with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import lattice  # noqa: E402
import speed  # noqa: E402

# name -> (lattice (rows, cols, rating_scale) or None for grid30, CLI commands)
WORKLOADS = {
    "grid30-study": (None, ("run-all",)),
    "lattice-records": ((8, 9, 0.95), ("dispatch", "screen")),
}
MIN_SETUPS = 12  # set-up samples per run: iterations' own plus set-up-only workers
ITERATION_TIMEOUT_S = 170


def _write_inputs(workload: str, seed: int, inputs_dir: Path) -> str:
    """Write the six input CSVs; returns the slack bus."""
    shape, _ = WORKLOADS[workload]
    if shape is None:
        sys.path.insert(0, str(SRC))
        from pfcplan import cases

        case = cases.grid30_case()  # fixed data: the seed does not change it
        cases.write_study_inputs(case, inputs_dir)
        return case.model.slack_bus
    rows, cols, scale = shape
    lattice.write_lattice_inputs(inputs_dir, rows, cols, seed, scale)
    return lattice.slack_bus(rows, cols)


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
        self.checks: list[tuple[str, bool, str]] = []
        self.count = 0
        self.first_digest = None  # overloads.csv of the first oracle-checked iteration

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        workload, seed = self.workload, self.seed
        self.slack = _write_inputs(workload, seed, self.dir / "inputs")
        self.study = self.dir / "study.json"
        self.study.write_text(json.dumps({
            "inputs": {name: f"inputs/{name}.csv" for name in lattice.INPUT_NAMES},
            "slack_bus": self.slack,
            "scenario": "bench",
        }))
        # the benchmark, its speed probe and every worker share one CPU, so
        # each probe measures the CPU the study is running on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.env = dict(os.environ, TMPDIR=str(self.dir), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.pins = json.loads((HERE / "pins.json").read_text())[workload]

    def worker(self, commands=(), spans: Path | None = None) -> dict | None:
        """One fresh-process iteration; checks its outputs, returns its result."""
        self.count += 1
        out = self.dir / f"out{self.count}"
        result = self.dir / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--study", str(self.study),
               "--out", str(out), "--commands", ",".join(commands), "--result", str(result)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        spawned_at = time.monotonic_ns()
        proc = subprocess.run(cmd + ["--spawned-at", str(spawned_at)], env=self.env,
                              stdout=subprocess.DEVNULL, timeout=ITERATION_TIMEOUT_S)
        if proc.returncode != 0 or not result.exists():
            self.checks.append(("worker_exit", False, f"worker exited {proc.returncode}"))
            return None
        res = json.loads(result.read_text())
        res["spawned_at_ns"] = spawned_at
        if commands:
            self.checks += self._check(out, res)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def _check(self, out: Path, res: dict):
        _, commands = WORKLOADS[self.workload]
        codes, expected = res["exit_codes"], [0] * len(commands)
        if self.workload == "grid30-study":
            found = checks.check_grid30(out, codes, self.pins)
        elif self.first_digest is None:
            # the oracle runs once per run; later iterations must match its bytes
            found = checks.check_lattice(self.dir / "inputs", out, self.slack, codes, expected,
                                         self.pins["seeds"], self.seed)
            if all(ok for _, ok, _ in found):
                self.first_digest = checks.sha256(out / "overloads.csv")
        else:
            digest = checks.sha256(out / "overloads.csv") if codes == expected else None
            found = [("exit_codes", codes == expected, f"{codes} vs {expected}"),
                     ("same_overloads.csv", digest == self.first_digest, str(digest))]
        if "layers" in res:
            found += checks.check_counters(res["layers"], self.pins["counters"])
        return found

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(run: Run, seconds: float, trace: bool) -> dict:
    _, commands = WORKLOADS[run.workload]
    with speed.SpeedProbe() as probe:
        plain, traced, setups, spans = _iterate(run, commands, seconds, trace)
    if not plain or (trace and not traced):
        return {}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

    def study(r):  # each time is scaled by the CPU speed the probe saw while it ran
        return speed.scaled(r["study_s"], probe.window(r["study_start_ns"], r["study_s"]))

    studies = [study(r) for r in plain]
    if not trace:
        setups = [speed.scaled(r["setup_s"], probe.window(r["spawned_at_ns"], r["setup_s"]))
                  for r in setups]
        print("scaled study_s: " + " ".join(f"{v:.3f}" for v in studies)
              + f" ({len(probe.samples)} probes)", flush=True)
        # huge pages only ever add RSS, so that is the minimum
        values = {"study_s": statistics.median(studies), "setup_s": statistics.median(setups),
                  "peak_rss_mb": min(r["peak_rss_mb"] for r in plain)}
    else:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(study(r) for r in traced)
                                      - statistics.median(studies))
        print(f"spans: {spans}", flush=True)
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _iterate(run: Run, commands, seconds: float, trace: bool):
    run.worker()  # warm-up: bytecode caches and the page cache
    setups, plain, traced, lengths = [], [], [], []
    spans = WORK / "spans" / f"{run.workload}-seed{run.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + seconds
    # start another iteration while at least half of one of median length
    # still fits, so a run may pass the deadline by about half an iteration
    while not plain or time.monotonic() + statistics.median(lengths) / 2 < deadline:
        started = time.monotonic()
        res = run.worker(commands)
        if res is None:
            break
        plain.append(res)
        setups.append(res)
        if trace:
            res = run.worker(commands, spans=spans)
            if res is None:
                break
            traced.append(res)
        bare = run.worker()  # set-up samples spread over the whole run
        if bare:
            setups.append(bare)
        lengths.append(time.monotonic() - started)
        print(f"iteration {len(plain)}: study_s {plain[-1]['study_s']:.3f}"
              + (f" traced {traced[-1]['study_s']:.3f}" if trace else ""), flush=True)
    while plain and len(setups) < MIN_SETUPS and (bare := run.worker()):
        setups.append(bare)
    return plain, traced, setups, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pfcplan" / "cli.py").is_file():
        print(f"error: no pfcplan sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        run.prepare()
        metrics = measure(run, args.seconds, bool(args.trace))
    finally:
        run.close()
    failed = [c for c in run.checks if not c[1]]
    for name, _, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    if not metrics:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failed, "attempted": len(run.checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
