"""One benchmark iteration in a fresh interpreter: set up, run the CLI, report.

    python3 bench/worker.py --study STUDY.json --out DIR --commands run-all \
        --spawned-at NS --result RESULT.json [--spans SPANS.jsonl]

``--spawned-at`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so ``setup_s`` covers interpreter start, ``import
pfcplan.cli`` and one ``load_config``. The commands then run in-process
through ``pfcplan.cli.main``; with ``--spans`` every public pfcplan function
is traced and the spans are written at exit. An empty ``--commands`` only
measures set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--study", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--commands", default="")
    parser.add_argument("--spawned-at", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import pfcplan.cli
    from pfcplan.config import load_config

    load_config(args.study)
    setup_s = (time.monotonic_ns() - args.spawned_at) / 1e9

    tracer = None
    if args.spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, args.out)

    codes = []
    log = io.StringIO()
    start_ns = time.monotonic_ns()
    start = time.perf_counter()
    with contextlib.redirect_stdout(log):
        for command in filter(None, args.commands.split(",")):
            codes.append(pfcplan.cli.main([command, "--config", args.study, "--out", args.out]))
    study_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "study_s": study_s,
        "study_start_ns": start_ns,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.dump(args.spans)
        result["layers"] = layer_metrics(tracer.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
