"""Command line pipeline: dispatch -> screen -> site-pfc -> report.

Exit codes: 0 success, 2 validation or I/O error, 3 dispatch finished with
infeasible hours (outputs still written), 4 solver failure.

Every subcommand goes through one runner over the stage table ``STAGES``.
A stage's meta file records the config hash of its scope and the sha256 of
each output it lists. The runner skips a stage only when both match, and
refuses to run a stage whose upstream does not verify. A computed stage writes
its outputs under temporary names, moves each into the output directory with
``os.replace`` and writes its meta last, so an interrupted stage leaves no
meta that verifies. The report is not cached: it is re-emitted from the stage
outputs after siting and by ``pfcplan report``.

Within one command a stage that computes the dispatch year or the overload
records hands them to the later stages, so each of ``dispatch.csv`` and
``overloads.csv`` is parsed at most once per command, and not at all by a
``run-all`` that computes both. The demand profile is handed on too, so it is
loaded at most once per command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import dcflow, dispatch, report, screening, shift_factors, siting
from .config import ConfigError, StudyConfig, apply_overrides, load_config
from .network import (
    HOURS_PER_YEAR,
    NetworkDataError,
    NetworkModel,
    filter_monitored_lines,
    load_network,
)
from .tables import left_sum, number

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _parse_levels(text: str) -> tuple[float, ...]:
    try:
        return tuple(number(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad voltage level list: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfcplan",
        description="Locate and size series-reactance power flow controllers "
        "from a year of hourly DC load flows and N-1 screening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("dispatch", "produce the 8,760-hour merit-order dispatch"),
        ("screen", "run Stage 1 (intact) and Stage 2 (N-1) overload scans"),
        ("site-pfc", "run Stage 3 PFC siting, ranking, and the report"),
        ("report", "re-emit the report from existing stage outputs"),
        ("run-all", "run every stage in sequence"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="study config JSON")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument(
            "--voltage-levels", type=_parse_levels,
            help="comma separated kV levels to monitor, e.g. 110 or 110,220",
        )
        p.add_argument("--pfc-cap", type=float, help="max reactance increase, percent")
        p.add_argument(
            "--screen-from-stage1", action="store_true", default=None,
            help="Stage 2 monitors only lines flagged in Stage 1",
        )
    return parser


@dataclass
class Study:
    """What the stages read, each loaded on first use: the network, demand
    profile and availability inputs, and the dispatch year and screen records
    read back from the output directory. ``cmd_dispatch`` and ``cmd_screen``
    set the year and the records they compute, which have the bits of a
    read-back (every float is written as its repr). A computed stage gets a
    fresh Study holding the demand profile, year and records of the one
    before, so a command loads the profile at most once, and loads the
    network again; the report reuses the last Study, and takes the dispatch
    figures it and the exit code need from the year that Study holds,
    reading ``dispatch_summary.json`` only when it holds none. One load of
    the network per command (ROADMAP item 4) waits for a re-pin of
    ``network.load_network.calls`` in bench/pins.json. Loaders are looked up
    on their module at call time, so a wrapper on the module attribute (as
    bench/tracer.py sets) sees every load."""

    cfg: StudyConfig

    @cached_property
    def model(self) -> NetworkModel:
        cfg = self.cfg
        return load_network(
            cfg.inputs["buses"], cfg.inputs["lines"], cfg.inputs["generators"],
            slack_bus=cfg.slack_bus, system_base_mva=cfg.system_base_mva,
        )

    @cached_property
    def profile(self) -> dispatch.DemandProfile:
        inputs = self.cfg.inputs
        return dispatch.load_demand_profile(
            inputs["demand"], inputs["bus_shares"], self.model.bus_by_id
        )

    @cached_property
    def availability(self) -> dispatch.ResAvailability:
        return dispatch.load_res_availability(self.cfg.inputs["res_availability"])

    @cached_property
    def year(self) -> dispatch.DispatchYear:
        out = Path(self.cfg.out_dir)
        return dispatch.read_dispatch_outputs(
            out / "dispatch.csv", out / "dispatch_summary.json", self.model
        )

    @cached_property
    def records(self) -> screening.OverloadRecords:
        return screening.read_overloads_csv(Path(self.cfg.out_dir) / "overloads.csv")

    @cached_property
    def dispatch_stats(self) -> dict:
        """The year's infeasible hour count and total curtailment, as the
        summary JSON stores them: from the year when the command holds it,
        else from ``dispatch_summary.json``, parsed once."""
        if "year" in vars(self):
            year = self.year
            infeasible = len(year.infeasible_hours)
            total = left_sum(year.curtailed_mw.tolist())  # the writer's sum
        else:
            path = Path(self.cfg.out_dir) / "dispatch_summary.json"
            summary = json.loads(path.read_text())
            infeasible = len(summary["infeasible_hours"])
            total = summary["total_curtailment_mwh"]
        return {"infeasible_hours": infeasible, "total_curtailment_mwh": total}


# -- stage bodies: each writes its listed outputs into ``dest`` -----------------


def cmd_dispatch(cfg: StudyConfig, study: Study, dest: Path) -> None:
    year = dispatch.run_year(
        study.model, study.profile, study.availability, cfg.snsp_cap,
        scenario=cfg.scenario,
    )
    dispatch.write_dispatch_csv(year, dest / "dispatch.csv")
    dispatch.write_dispatch_summary(
        year, dest / "dispatch_summary.json", config_hash=cfg.content_hash("dispatch")
    )
    study.year = year
    n_bad = len(year.infeasible_hours)
    print(f"dispatch: {HOURS_PER_YEAR - n_bad} feasible hours, {n_bad} infeasible")


def cmd_screen(cfg: StudyConfig, study: Study, dest: Path) -> None:
    model, profile, year = study.model, study.profile, study.year
    calendar = cfg.calendar()
    monitored = filter_monitored_lines(model, cfg.voltage_levels)

    system = dcflow.build_system(model)
    rec1, base = screening.stage1_scan(
        year, model, system, profile, calendar,
        monitored=monitored, near_pct=cfg.near_pct, overload_pct=cfg.overload_pct,
    )
    ptdf = shift_factors.compute_ptdf(system, model)
    lodf = shift_factors.compute_lodf(ptdf, model)
    if cfg.screen_from_stage1:
        monitored = set(rec1.lines())
    del rec1
    records = study.records = screening.stage2_scan(
        base, lodf, model, calendar,
        monitored=monitored, near_pct=cfg.near_pct, overload_pct=cfg.overload_pct,
    )
    del base
    summaries = screening.summarize(records, model)
    screening.write_workbook(records, summaries, dest)
    print(f"screen: {len(records)} records on {len(summaries)} lines")
    for count in screening.region_counts(summaries):
        print(f"  {count.region}: {count.overloaded_lines} overloaded lines")


def cmd_site_pfc(cfg: StudyConfig, study: Study, dest: Path) -> None:
    model = study.model
    ptdf = shift_factors.compute_ptdf(dcflow.build_system(model), model)
    lodf = shift_factors.compute_lodf(ptdf, model)
    injections = dispatch.injection_matrix(model, study.year, study.profile)
    table = siting.pair_table(study.records, model, injections, cfg.calendar(), ptdf, lodf)
    outcomes = [
        siting.assess_target(target, table, cap_pct=cfg.pfc_cap_pct,
                             tol_pp=cfg.bisection_tol_pp, overload_pct=cfg.overload_pct)
        for target in sorted(table.spans)
    ]
    ranking = siting.rank_targets(outcomes)
    siting.write_outcomes(outcomes, dest / "pfc_outcomes.csv")
    siting.write_ranking(ranking, dest / "pfc_ranking.csv")
    siting.write_outcomes_json(outcomes, dest / "pfc_outcomes_detail.json")
    for o in outcomes:
        print(f"site-pfc: {o.target_line} -> {o.classification}")
    if not outcomes:
        print("site-pfc: no overloaded lines to assess")


# -- the stage runner -------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    name: str  # the subcommand that computes it
    scope: str  # config-hash scope; also names the meta file
    outputs: tuple[str, ...]
    # looked up in this module when the stage runs, so a wrapper set on the
    # module attribute (as bench/tracer.py does) takes effect
    body: str


STAGES = (
    Stage("dispatch", "dispatch", ("dispatch.csv", "dispatch_summary.json"), "cmd_dispatch"),
    Stage(
        "screen",
        "screen",
        (
            "overloads.csv",
            "line_summary.csv",
            "region_summary.csv",
            "duration_histogram.csv",
            "severity.csv",
        ),
        "cmd_screen",
    ),
    Stage(
        "site-pfc",
        "siting",
        ("pfc_outcomes.csv", "pfc_ranking.csv", "pfc_outcomes_detail.json"),
        "cmd_site_pfc",
    ),
)

# subcommand -> (how many stages it walks, the stages it may compute); every
# other walked stage must verify, and a walk over all stages ends with the report
COMMANDS = {
    "dispatch": (1, {"dispatch"}),
    "screen": (2, {"screen"}),
    "site-pfc": (3, {"site-pfc"}),
    "report": (3, set()),
    "run-all": (3, {"dispatch", "screen", "site-pfc"}),
}


def _verified(out: Path, stage: Stage, content_hash: str) -> dict[str, str]:
    """Each output's sha256 if the meta holds ``content_hash`` (read first) and them, else {}."""
    try:
        meta = json.loads((out / f"{stage.scope}_meta.json").read_text())
        checksums = {name: meta["sha256"][name] for name in stage.outputs}
        fresh = meta["config_hash"] == content_hash and all(
            report._sha256(out / name) == checksums[name] for name in stage.outputs
        )
        return checksums if fresh else {}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def _compute(cfg: StudyConfig, stage: Stage, study: Study, content_hash: str) -> dict[str, str]:
    out = Path(cfg.out_dir)
    meta = out / f"{stage.scope}_meta.json"
    with tempfile.TemporaryDirectory(dir=out, prefix=f".{stage.scope}-") as tmp:
        tmp = Path(tmp)
        globals()[stage.body](cfg, study, tmp)
        checksums = {name: report._sha256(tmp / name) for name in stage.outputs}
        for name in stage.outputs:
            os.replace(tmp / name, out / name)
        payload = {"config_hash": content_hash, "sha256": checksums}
        (tmp / meta.name).write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp / meta.name, meta)
    return checksums


def _emit_report(cfg: StudyConfig, study: Study, checksums: dict[str, str]) -> None:
    out = Path(cfg.out_dir)
    # build_report checks the screen stage's summaries against the records
    summaries = screening.read_line_summary_csv(out / "line_summary.csv")
    outcomes = siting.read_outcomes_json(out / "pfc_outcomes_detail.json")
    study = report.build_report(
        summaries,
        outcomes,
        study.model,
        parameters=cfg.parameter_echo(),
        records=study.records,
        dispatch_stats=study.dispatch_stats,
        scenario=cfg.scenario,
        config_hash=cfg.content_hash("siting"),
    )
    report.emit(study, out, checksums)


def _run(cfg: StudyConfig, walk: int, computes: set[str]) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    study, checksums = Study(cfg), {}  # every stage output's sha256, by name
    for stage in STAGES[:walk]:
        content_hash = cfg.content_hash(stage.scope)
        if verified := _verified(out, stage, content_hash):
            checksums.update(verified)
            if stage.name in computes:
                print(f"{stage.name}: cached, outputs verified")
            continue
        if stage.name not in computes:
            raise ConfigError(
                f"{stage.name} output missing or stale for this config; "
                f"run the {stage.name} stage first"
            )
        # a computed stage keeps the demand profile, year and records the
        # command holds and loads the network afresh, which waits for ROADMAP
        # item 4's re-pin of its load count; the report reuses the last Study
        held = {k: v for k, v in vars(study).items() if k in ("profile", "year", "records")}
        study = Study(cfg)
        vars(study).update(held)
        checksums.update(_compute(cfg, stage, study, content_hash))
    if walk == len(STAGES):
        _emit_report(cfg, study, checksums)
        print(f"report: written to {out / 'report'}")
    if "dispatch" in computes and study.dispatch_stats["infeasible_hours"]:
        return EXIT_INFEASIBLE
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(
            cfg,
            out_dir=args.out,
            voltage_levels=args.voltage_levels,
            pfc_cap_pct=args.pfc_cap,
            screen_from_stage1=args.screen_from_stage1,
        )
        return _run(cfg, *COMMANDS[args.command])
    except (
        ConfigError, NetworkDataError, dispatch.DispatchInputError,
        dcflow.ImbalanceError, OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (dcflow.SingularSystemError, dcflow.IslandingError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except report.ReportConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
