"""In-memory spans around pfcplan's public functions, wrapped from outside.

Each wrapped function records one span (name, start, end, parent, attrs).
A function is wrapped under the name its caller looks it up by: modules that
import a function by name (``screening.injection_matrix``,
``siting.line_transfer_factors``, ``report.summarize``) hold their own
binding, so that binding is wrapped too. Nothing under ``src/`` changes.

``layer_metrics`` turns a span list into the per-layer metrics the benchmark
reports; ``self_times`` gives each span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index or -1, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused_ns = [0]  # time spent in annotate calls so far

    def clock_ns(self) -> int:
        """perf_counter_ns() minus the time spent annotating spans."""
        return time.perf_counter_ns() - self._paused_ns[0]

    def wrap(self, owner, attr: str, name: str, annotate=None, rss: bool = False):
        """Replace ``owner.attr`` with a recording wrapper.

        ``annotate(args, kwargs, result)`` returns extra span attributes. Span
        times run on ``clock_ns``, which stops while it runs, so its cost is
        charged to no span.
        """
        fn = getattr(owner, attr)
        spans, stack, paused, clock = self.spans, self._stack, self._paused_ns, self.clock_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, {}])
            stack.append(idx)
            rss_before = _maxrss_mb() if rss else 0.0
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if rss:
                spans[idx][4]["rss_delta_mb"] = _maxrss_mb() - rss_before
            if annotate is not None:
                start = time.perf_counter_ns()
                spans[idx][4].update(annotate(args, kwargs, result))
                paused[0] += time.perf_counter_ns() - start
            return result

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _topology(args, kwargs, _result) -> dict:
    scale = _arg(args, kwargs, 2, "reactance_scale") or {}
    return {"topology": [_arg(args, kwargs, 1, "exclude_line"), sorted(scale.items())]}


def _stage2(args, kwargs, records) -> dict:
    base, lodf = args[0], args[1]
    monitored = _arg(args, kwargs, 4, "monitored")
    n_mon = len(base.line_ids) if monitored is None else len(set(monitored) & set(base.line_ids))
    n_bridge = int(lodf.islanding.sum())
    near = sum(1 for r in records if r.category == "near")
    return {
        "hours": int(len(base.hours)), "lines": len(base.line_ids), "monitored": n_mon,
        "outages_screened": len(base.line_ids) - n_bridge, "bridges": n_bridge,
        "near": near, "overload": len(records) - near,
    }


def install(tracer: Tracer, out_dir: str) -> None:
    """Wrap every traced pfcplan function. Import pfcplan before calling."""
    from pfcplan import cli, dcflow, dispatch, report, screening, shift_factors, siting

    out = Path(out_dir)
    w = tracer.wrap
    for cmd in ("cmd_dispatch", "cmd_screen", "cmd_site_pfc"):
        w(cli, cmd, f"cli.{cmd}")
    w(cli, "load_config", "config.load_config")
    w(cli, "load_network", "network.load_network")

    w(dispatch, "load_demand_profile", "dispatch.load_inputs")
    w(dispatch, "load_res_availability", "dispatch.load_inputs")
    w(dispatch, "run_year", "dispatch.run_year",
      annotate=lambda a, k, year: {"infeasible_hours": len(year.infeasible_hours)})
    for fn in ("write_dispatch_csv", "write_dispatch_summary"):
        w(dispatch, fn, "dispatch.write",
          annotate=lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))})
    w(dispatch, "injection_matrix", "dispatch.injection_matrix")
    w(screening, "injection_matrix", "dispatch.injection_matrix")

    w(dcflow, "build_system", "dcflow.build_system", annotate=_topology)
    w(dcflow, "solve_flows", "dcflow.solve_flows")
    w(dcflow, "solve_with_outage", "dcflow.solve_with_outage")
    w(dcflow, "solve_angles_batch", "dcflow.solve_angles_batch")

    w(shift_factors, "compute_ptdf", "shift_factors.compute_ptdf")
    w(shift_factors, "compute_lodf", "shift_factors.compute_lodf",
      annotate=lambda a, k, lodf: {"bridges": int(lodf.islanding.sum())})
    w(shift_factors, "line_transfer_factors", "shift_factors.line_transfer_factors")
    w(siting, "line_transfer_factors", "shift_factors.line_transfer_factors")

    w(screening, "stage1_scan", "screening.stage1_scan",
      annotate=lambda a, k, res: {"records": len(res[0])})
    w(screening, "stage2_scan", "screening.stage2_scan", annotate=_stage2, rss=True)
    w(screening, "summarize", "screening.summarize")
    w(report, "summarize", "screening.summarize")
    w(screening, "write_workbook", "screening.write_workbook",
      annotate=lambda a, k, paths: {"bytes": sum(_size(p) for p in paths)})
    w(screening, "read_overloads_csv", "screening.read_overloads_csv")

    w(siting, "assess_target", "siting.assess_target",
      annotate=lambda a, k, r: {"target": _arg(a, k, 0, "target")})
    w(siting, "check_side_effects", "siting.check_side_effects")
    w(siting, "candidate_locations", "siting.candidate_locations")
    w(siting, "rank_targets", "siting.rank_targets")
    for fn in ("write_outcomes", "write_ranking", "write_outcomes_json"):
        w(siting, fn, "siting.write")

    w(report, "build_report", "report.build_report")
    w(report, "emit", "report.emit", annotate=lambda a, k, r: {
        "bytes": sum(p.stat().st_size for p in (out / "report").rglob("*") if p.is_file())})


# -- analysis -----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span, seconds of its duration not covered by its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [(s[2] - s[1] - c) / 1e9 for s, c in zip(spans, child_ns)]


def _ancestor(spans, idx: int, name: str) -> int:
    parent = spans[idx][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


TARGETS = ("N01-N02", "N10-N16", "N17-N23")  # grid30's overloaded lines


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one traced run (names as in BENCHMARK.json)."""
    selfs = self_times(spans)
    wall: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        wall[name] = wall.get(name, 0.0) + (end - start) / 1e9
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    def attrs(name):
        return [s[4] for s in spans if s[0] == name]

    m: dict[str, float] = {}
    for cmd in ("cmd_dispatch", "cmd_screen", "cmd_site_pfc"):
        m[f"cli.{cmd}.wall_s"] = wall.get(f"cli.{cmd}", 0.0)
        m[f"cli.{cmd}.self_s"] = self_s.get(f"cli.{cmd}", 0.0)
    for name in ("config.load_config", "network.load_network", "dispatch.load_inputs",
                 "dispatch.run_year", "dispatch.write", "dispatch.injection_matrix",
                 "dcflow.build_system", "dcflow.solve_flows", "dcflow.solve_angles_batch",
                 "shift_factors.compute_ptdf", "shift_factors.compute_lodf",
                 "screening.stage1_scan", "screening.stage2_scan", "screening.summarize",
                 "screening.write_workbook", "screening.read_overloads_csv",
                 "siting.assess_target", "siting.check_side_effects", "siting.rank_targets",
                 "siting.write", "report.build_report", "report.emit"):
        m[f"{name}.wall_s"] = wall.get(name, 0.0)
    for name in ("network.load_network", "dispatch.injection_matrix", "dcflow.build_system",
                 "dcflow.solve_flows", "dcflow.solve_with_outage",
                 "shift_factors.compute_ptdf", "shift_factors.compute_lodf",
                 "shift_factors.line_transfer_factors", "screening.summarize",
                 "siting.check_side_effects", "siting.candidate_locations"):
        m[f"{name}.calls"] = calls.get(name, 0)

    m["dispatch.infeasible_hours"] = sum(a["infeasible_hours"] for a in attrs("dispatch.run_year"))
    m["dispatch.write.bytes"] = sum(a["bytes"] for a in attrs("dispatch.write"))
    topologies = {json.dumps(a["topology"]) for a in attrs("dcflow.build_system")}
    m["dcflow.build_system.distinct_topologies"] = len(topologies)
    n_build = calls.get("dcflow.build_system", 0)
    m["dcflow.build_system.useful_ratio"] = len(topologies) / n_build if n_build else 0.0
    lodfs = attrs("shift_factors.compute_lodf")
    m["shift_factors.bridges"] = lodfs[-1]["bridges"] if lodfs else 0

    m["screening.stage1.records"] = sum(a["records"] for a in attrs("screening.stage1_scan"))
    s2 = attrs("screening.stage2_scan")
    screened = sum(a["outages_screened"] for a in s2)
    pair_hours = sum(a["hours"] * a["monitored"] * a["outages_screened"] for a in s2)
    # per screened outage the kernel reads the base flows and writes the
    # post-outage matrix (hours x lines), then gathers the monitored columns
    # and forms |flow|, the rating ratio and the loading (hours x monitored
    # float64 each) plus a boolean mask: computed from array sizes, not measured
    computed = sum(a["outages_screened"] * a["hours"] * (16 * a["lines"] + 33 * a["monitored"])
                   for a in s2)
    s2_wall = wall.get("screening.stage2_scan", 0.0)
    near = sum(a["near"] for a in s2)
    overload = sum(a["overload"] for a in s2)
    m.update({
        "screening.stage2.outages_screened": screened,
        "screening.stage2.outages_bridge_skipped": sum(a["bridges"] for a in s2),
        "screening.stage2.pair_hours": pair_hours,
        "screening.stage2.records_near": near,
        "screening.stage2.records_overload": overload,
        "screening.stage2.hit_ratio": (near + overload) / pair_hours if pair_hours else 0.0,
        "screening.stage2.bytes_computed": computed,
        "screening.stage2.computed_gb_per_s": computed / s2_wall / 1e9 if s2_wall else 0.0,
        "screening.stage2_scan.rss_delta_mb": sum(a["rss_delta_mb"] for a in s2),
        "screening.write_workbook.bytes": sum(a["bytes"] for a in attrs("screening.write_workbook")),
        "report.emit.bytes": sum(a["bytes"] for a in attrs("report.emit")),
    })

    per_target = {t: [0.0, 0] for t in TARGETS}
    assess = {i: s[4]["target"] for i, s in enumerate(spans) if s[0] == "siting.assess_target"}
    for i, s in enumerate(spans):
        if s[0] == "siting.assess_target" and s[4]["target"] in per_target:
            per_target[s[4]["target"]][0] += (s[2] - s[1]) / 1e9
        elif s[0] == "dcflow.build_system":
            owner = _ancestor(spans, i, "siting.assess_target")
            if owner >= 0 and assess[owner] in per_target:
                per_target[assess[owner]][1] += 1
    for target, (seconds, builds) in per_target.items():
        m[f"siting.assess_target.{target}.wall_s"] = seconds
        m[f"siting.assess_target.{target}.build_system_calls"] = builds
    m["dcflow.build_system.calls_outside_stage3"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "dcflow.build_system" and _ancestor(spans, i, "siting.assess_target") < 0)
    return m
