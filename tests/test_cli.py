import json
import os
from pathlib import Path

import numpy as np
import pytest

from pfcplan import cases
from pfcplan.cli import main
from pfcplan.network import HOURS_PER_YEAR


def _study(tmp_path, case, name="study", **config_overrides):
    """Write a case's inputs plus a config file; returns (config_path, out_dir)."""
    root = Path(tmp_path) / name
    paths = cases.write_study_inputs(case, root / "inputs")
    out_dir = root / "out"
    config = {
        "inputs": {k: str(Path(v)) for k, v in paths.items()},
        "scenario": case.name,
        "slack_bus": case.model.slack_bus,
        "snsp_cap": case.snsp_cap,
        "derate": float(case.calendar.derate_factor),
        "out_dir": str(out_dir),
    }
    if bool(case.calendar.summer_mask.all()):
        config["summer_months"] = list(range(1, 13))
    config.update(config_overrides)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path, out_dir


def _read_csv_rows(path):
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -- dispatch ------------------------------------------------------------------


def test_dispatch_exit_zero_and_full_csv(tmp_path):
    config, out = _study(tmp_path, cases.triangle_case())
    assert main(["dispatch", "--config", str(config)]) == 0
    rows = _read_csv_rows(out / "dispatch.csv")
    assert len(rows) == HOURS_PER_YEAR * 1  # one generator
    summary = json.loads((out / "dispatch_summary.json").read_text())
    assert summary["infeasible_hours"] == []


def test_missing_demand_file_exits_2_naming_path(tmp_path, capsys):
    config, _ = _study(tmp_path, cases.triangle_case())
    cfg = json.loads(config.read_text())
    cfg["inputs"]["demand"] = str(Path(tmp_path) / "does_not_exist.csv")
    config.write_text(json.dumps(cfg))
    assert main(["dispatch", "--config", str(config)]) == 2
    assert "does_not_exist.csv" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config, _ = _study(tmp_path, cases.triangle_case())
    cfg = json.loads(config.read_text())
    cfg["derrate"] = 0.2
    config.write_text(json.dumps(cfg))
    assert main(["dispatch", "--config", str(config)]) == 2
    assert "derrate" in capsys.readouterr().err


def test_capacity_short_year_exits_3_with_hours_listed(tmp_path):
    case = cases.triangle_case()
    demand = np.array(case.profile.demand_mw)
    demand[123] = 400.0  # above the 300 MW fleet
    short = cases.StudyCase(
        name="short",
        model=case.model,
        profile=cases.DemandProfile(demand_mw=demand, bus_shares={"B3": 1.0}),
        availability=case.availability,
        calendar=case.calendar,
    )
    config, out = _study(tmp_path, short)
    assert main(["dispatch", "--config", str(config)]) == 3
    summary = json.loads((out / "dispatch_summary.json").read_text())
    assert summary["infeasible_hours"] == [123]
    assert (out / "dispatch.csv").exists()  # files still written


# -- screen ---------------------------------------------------------------------


def test_screen_requires_dispatch_first(tmp_path, capsys):
    config, _ = _study(tmp_path, cases.triangle_case())
    assert main(["screen", "--config", str(config)]) == 2
    assert "dispatch" in capsys.readouterr().err


def test_screen_triangle_emits_stage2_record(tmp_path):
    case = cases.triangle_case(ratings={"L12": 85.0})
    config, out = _study(tmp_path, case)
    assert main(["dispatch", "--config", str(config)]) == 0
    assert main(["screen", "--config", str(config)]) == 0
    rows = _read_csv_rows(out / "overloads.csv")
    hit = [
        r for r in rows
        if r["line"] == "L12" and r["contingency"] == "L13" and r["hour"] == "0"
    ]
    assert len(hit) == 1
    assert hit[0]["class"] == "overload"
    assert float(hit[0]["excess_mw"]) == pytest.approx(5.0)


def test_screen_clean_fixture_empty_workbook(tmp_path):
    config, out = _study(tmp_path, cases.triangle_case())  # generous ratings
    main(["dispatch", "--config", str(config)])
    assert main(["screen", "--config", str(config)]) == 0
    assert _read_csv_rows(out / "overloads.csv") == []


def test_screen_from_stage1_is_subset(tmp_path):
    case = cases.capped_relief_case()
    config, out = _study(tmp_path, case)
    main(["dispatch", "--config", str(config)])
    main(["screen", "--config", str(config)])
    full = {
        (r["line"], r["hour"], r["contingency"])
        for r in _read_csv_rows(out / "overloads.csv")
    }
    config2, out2 = _study(tmp_path, case, name="narrow", screen_from_stage1=True)
    main(["dispatch", "--config", str(config2)])
    main(["screen", "--config", str(config2)])
    narrow = {
        (r["line"], r["hour"], r["contingency"])
        for r in _read_csv_rows(out2 / "overloads.csv")
    }
    assert narrow <= full


# -- site-pfc ---------------------------------------------------------------------


def _run_all(tmp_path, case, name=None, **overrides):
    config, out = _study(tmp_path, case, name=name or case.name, **overrides)
    code = main(["run-all", "--config", str(config)])
    return config, out, code


def _outcome_by_target(out_dir):
    rows = _read_csv_rows(Path(out_dir) / "pfc_outcomes.csv")
    return {r["target_line"]: r for r in rows}


def test_taxonomy_fixture_suite(tmp_path):
    _, out_f, code_f = _run_all(tmp_path, cases.parallel_paths_case())
    assert code_f == 0
    assert _outcome_by_target(out_f)["LB"]["classification"] == "FullyResolved"

    _, out_p, code_p = _run_all(tmp_path, cases.side_effect_case())
    assert code_p == 0
    assert _outcome_by_target(out_p)["T"]["classification"] == "PartiallyResolved"
    detail = json.loads((out_p / "pfc_outcomes_detail.json").read_text())
    assert detail[0]["side_effect_lines"] == ["B"]

    _, out_n, code_n = _run_all(tmp_path, cases.radial_feed_case())
    assert code_n == 0
    assert _outcome_by_target(out_n)["T"]["classification"] == "NoChange"


def test_no_overloads_empty_outcomes(tmp_path):
    _, out, code = _run_all(tmp_path, cases.triangle_case())
    assert code == 0
    assert _outcome_by_target(out) == {}
    assert _read_csv_rows(out / "pfc_ranking.csv") == []


def test_pfc_cap_override_turns_partial_into_fully(tmp_path):
    case = cases.capped_relief_case(
        target_rating=50.0, demand_levels=(90.0, 90.0, 90.0)
    )
    _, out_default, _ = _run_all(tmp_path, case, name="cap40")
    assert (
        _outcome_by_target(out_default)["L13a"]["classification"]
        == "PartiallyResolved"
    )

    config, out_wide = _study(tmp_path, case, name="cap100")
    assert main(["run-all", "--config", str(config), "--pfc-cap", "100"]) == 0
    row = _outcome_by_target(out_wide)["L13a"]
    assert row["classification"] == "FullyResolved"
    assert float(row["delta_pct"]) == pytest.approx(60.0, abs=0.1)


# -- run-all ----------------------------------------------------------------------


def test_run_all_writes_manifest_of_all_outputs(tmp_path):
    _, out, code = _run_all(tmp_path, cases.parallel_paths_case())
    assert code == 0
    manifest = json.loads((out / "report" / "manifest.json").read_text())
    files = {entry["file"] for entry in manifest}
    for expected in (
        "dispatch.csv",
        "dispatch_summary.json",
        "overloads.csv",
        "line_summary.csv",
        "region_summary.csv",
        "pfc_outcomes.csv",
        "pfc_ranking.csv",
        "report/summary.json",
        "report/charts/duration_per_line.svg",
    ):
        assert expected in files


def test_run_all_resumes_from_cached_dispatch(tmp_path):
    config, out, _ = _run_all(tmp_path, cases.parallel_paths_case())
    stamp = os.stat(out / "dispatch.csv").st_mtime_ns
    assert main(["run-all", "--config", str(config)]) == 0
    assert os.stat(out / "dispatch.csv").st_mtime_ns == stamp  # not recomputed


def test_config_change_invalidates_dispatch_cache(tmp_path):
    config, out, _ = _run_all(tmp_path, cases.parallel_paths_case())
    stamp = os.stat(out / "dispatch.csv").st_mtime_ns
    cfg = json.loads(config.read_text())
    cfg["snsp_cap"] = 0.8
    config.write_text(json.dumps(cfg))
    assert main(["run-all", "--config", str(config)]) == 0
    assert os.stat(out / "dispatch.csv").st_mtime_ns != stamp


def test_run_all_propagates_infeasible_exit(tmp_path):
    case = cases.triangle_case()
    demand = np.array(case.profile.demand_mw)
    demand[7] = 400.0
    short = cases.StudyCase(
        name="short", model=case.model,
        profile=cases.DemandProfile(demand_mw=demand, bus_shares={"B3": 1.0}),
        availability=case.availability, calendar=case.calendar,
    )
    _, out, code = _run_all(tmp_path, short)
    assert code == 3
    assert (out / "report" / "summary.json").exists()  # later stages still ran


def _normalized_tree(out_dir):
    """All output bytes with the volatile timestamp and its checksum zeroed."""
    out_dir = Path(out_dir)
    tree = {}
    for p in sorted(out_dir.rglob("*")):
        if not p.is_file():
            continue
        rel = str(p.relative_to(out_dir))
        data = p.read_bytes()
        if rel == "report/summary.json":
            payload = json.loads(data)
            payload["generated_at"] = "X"
            data = json.dumps(payload, sort_keys=True).encode()
        if rel == "report/manifest.json":
            payload = json.loads(data)
            for entry in payload:
                if entry["file"] == "report/summary.json":
                    entry["sha256"] = "X"
                    entry["bytes"] = 0
            data = json.dumps(payload, sort_keys=True).encode()
        tree[rel] = data
    return tree


def test_run_all_equals_staged_execution(tmp_path):
    case = cases.side_effect_case()
    _, out_all, _ = _run_all(tmp_path, case, name="allinone")
    config, out_staged = _study(tmp_path, case, name="staged")
    assert main(["dispatch", "--config", str(config)]) == 0
    assert main(["screen", "--config", str(config)]) == 0
    assert main(["site-pfc", "--config", str(config)]) == 0
    assert _normalized_tree(out_all) == _normalized_tree(out_staged)


def test_report_subcommand_reemits(tmp_path):
    config, out, _ = _run_all(tmp_path, cases.side_effect_case())
    summary_before = json.loads((out / "report" / "summary.json").read_text())
    (out / "report" / "summary.json").unlink()
    assert main(["report", "--config", str(config)]) == 0
    summary_after = json.loads((out / "report" / "summary.json").read_text())
    summary_before.pop("generated_at")
    summary_after.pop("generated_at")
    assert summary_before == summary_after


def test_defaults_echoed_in_summary(tmp_path):
    _, out, _ = _run_all(tmp_path, cases.parallel_paths_case())
    summary = json.loads((out / "report" / "summary.json").read_text())
    params = summary["parameters"]
    assert params["voltage_levels"] == [110.0]
    assert params["near_pct"] == 90.0
    assert params["overload_pct"] == 100.0
    assert params["pfc_cap_pct"] == 40.0
    assert params["bisection_tol_pp"] == 0.1


def test_voltage_filter_flag_restricts_monitoring(tmp_path):
    case = cases.capped_relief_case()
    config, out = _study(tmp_path, case, name="filtered")
    main(["dispatch", "--config", str(config)])
    code = main(["screen", "--config", str(config), "--voltage-levels", "220"])
    assert code == 0
    assert _read_csv_rows(out / "overloads.csv") == []


def test_solver_failure_exits_4(tmp_path, monkeypatch, capsys):
    from pfcplan import cli
    from pfcplan.dcflow import SingularSystemError

    config, _ = _study(tmp_path, cases.triangle_case())
    assert main(["dispatch", "--config", str(config)]) == 0

    def boom(*args, **kwargs):
        raise SingularSystemError("synthetic pivot failure")

    monkeypatch.setattr(cli.dcflow, "build_system", boom)
    assert main(["screen", "--config", str(config)]) == 4
    assert "solver error" in capsys.readouterr().err


# -- stage cache ------------------------------------------------------------------


def test_truncated_dispatch_csv_is_stale_and_recomputed(tmp_path, capsys):
    case = cases.parallel_paths_case()
    _, clean, _ = _run_all(tmp_path, case, name="clean")
    config, out = _study(tmp_path, case, name="cut")
    assert main(["dispatch", "--config", str(config)]) == 0
    rows = (out / "dispatch.csv").read_bytes().splitlines(keepends=True)
    (out / "dispatch.csv").write_bytes(b"".join(rows[: len(rows) // 2]))
    capsys.readouterr()
    assert main(["screen", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "stale" in err
    assert len(err.strip().splitlines()) == 1
    assert main(["run-all", "--config", str(config)]) == 0
    assert _normalized_tree(out) == _normalized_tree(clean)


def test_second_run_all_reuses_every_stage(tmp_path):
    config, out, code = _run_all(tmp_path, cases.side_effect_case())
    names = ("dispatch.csv", "overloads.csv", "pfc_outcomes.csv")
    stamps = {name: os.stat(out / name).st_mtime_ns for name in names}
    assert main(["run-all", "--config", str(config)]) == code
    assert {name: os.stat(out / name).st_mtime_ns for name in names} == stamps


def test_writer_crash_leaves_outputs_untouched_and_stage_recomputes(
    tmp_path, monkeypatch, capsys
):
    import dataclasses

    from pfcplan import dispatch

    case = cases.parallel_paths_case()
    lighter = dataclasses.replace(
        case,
        profile=cases.DemandProfile(
            demand_mw=case.profile.demand_mw * 0.9, bus_shares=case.profile.bus_shares
        ),
    )
    config, out = _study(tmp_path, case)
    assert main(["dispatch", "--config", str(config)]) == 0
    before = _normalized_tree(out)
    cases.write_study_inputs(lighter, config.parent / "inputs")

    def crash(*args, **kwargs):
        raise OSError("synthetic write failure")

    with monkeypatch.context() as patch:
        patch.setattr(dispatch, "write_dispatch_summary", crash)
        with pytest.raises(OSError):
            main(["dispatch", "--config", str(config)])
    # the new dispatch.csv was written before the crash, but only under a
    # temporary name that is gone now
    assert _normalized_tree(out) == before

    capsys.readouterr()
    assert main(["dispatch", "--config", str(config)]) == 0
    assert "cached" not in capsys.readouterr().out
    config_clean, out_clean = _study(tmp_path, lighter, name="clean")
    assert main(["dispatch", "--config", str(config_clean)]) == 0
    assert _normalized_tree(out) == _normalized_tree(out_clean)


def test_default_out_dir_sits_next_to_config(tmp_path, monkeypatch):
    config, _ = _study(tmp_path, cases.triangle_case())
    cfg = json.loads(config.read_text())
    del cfg["out_dir"]
    config.write_text(json.dumps(cfg))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["dispatch", "--config", str(config)]) == 0
    assert (config.parent / "out" / "dispatch.csv").exists()
    assert not any(elsewhere.iterdir())
    assert main(["dispatch", "--config", str(config), "--out", "here"]) == 0
    assert (elsewhere / "here" / "dispatch.csv").exists()
