"""Run the benchmark over several seeds and print every metric per workload.

    python3 bench/summary.py                       # all workloads, seeds 1-5
    python3 bench/summary.py --seeds 1-10 --workloads grid30-study
    python3 bench/summary.py --trace               # per-layer table + span files

Each (workload, seed) is one ``bench/run.py`` process with the run length of
BENCHMARK.json. The table gives, per metric, the median
over the runs, the quartiles, the spread (quartile distance over the median)
and the sample count, plus failed_frac = failed checks / checks attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "1" if args.trace else "0"],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if n in bounds),
                file=sys.stderr)
        print(f"\n== {workload}")
        print(f"{'metric':58s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s} {'n':>3s}")
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"{name:58s} {units[name]:6s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {rel:7.3f} {bound:>6s} {len(vals):3d}")
        frac = failed / attempted if attempted else float("nan")
        print(f"{'failed_frac':58s} {'ratio':6s} {frac:12.6g}"
              f"   ({failed} of {attempted} checks failed)")
        if args.trace:
            print(f"span files: {ROOT / '.bench_work' / 'spans'}/{workload}-seed*.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
