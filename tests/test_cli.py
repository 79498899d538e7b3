import dataclasses
import hashlib
import json
import logging
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pfcplan import cases, cli, dcflow, dispatch, report, screening, shift_factors
from pfcplan.cli import main
from pfcplan.network import HOURS_PER_YEAR
from pfcplan.report import ReportConsistencyError

from conftest import LOWERED_NEAR_PCT, post_contingency_flows, same_records, select_records


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


def _one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(word in err for word in words), err


def test_empty_voltage_levels_in_config_exits_2(tmp_path, capsys):
    config, _ = _study(tmp_path, cases.triangle_case(), voltage_levels=[])
    assert main(["run-all", "--config", str(config)]) == 2
    _one_line_error(capsys, "voltage_levels")


def test_empty_voltage_levels_flag_exits_2(tmp_path, capsys):
    config, _ = _study(tmp_path, cases.triangle_case())
    assert main(["run-all", "--config", str(config), "--voltage-levels", ","]) == 2
    _one_line_error(capsys, "voltage_levels")


@pytest.mark.parametrize(
    "key, value",
    [
        ("voltage_levels", 110),
        ("voltage_levels", ["110"]),
        ("near_pct", "90"),
        ("system_base_mva", "100"),
        ("snsp_cap", None),
        ("screen_from_stage1", "yes"),
        ("summer_months", [4.5]),
        ("scenario", 3),
        ("inputs", 5),
        # Python's json reads NaN and Infinity
        ("system_base_mva", float("nan")),
        ("system_base_mva", float("inf")),
        ("bisection_tol_pp", float("nan")),
        ("voltage_levels", [float("nan")]),
        # an entry the study never reads, next to the one it does
        ("inputs", {"demand_peak": "demand.csv"}),
    ],
)
def test_wrong_typed_config_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    config, _ = _study(tmp_path, cases.triangle_case())
    cfg = json.loads(config.read_text())
    if key == "inputs":
        cfg["inputs"].update(value if isinstance(value, dict) else {"demand": value})
    else:
        cfg[key] = value
    config.write_text(json.dumps(cfg))
    assert main(["run-all", "--config", str(config)]) == 2
    _one_line_error(capsys, key)


def test_non_finite_voltage_levels_flag_exits_2(tmp_path, capsys):
    config, _ = _study(tmp_path, cases.triangle_case())
    with pytest.raises(SystemExit) as exit_:
        main(["run-all", "--config", str(config), "--voltage-levels", "110,nan"])
    assert exit_.value.code == 2
    assert "--voltage-levels" in capsys.readouterr().err.splitlines()[-1]


def test_availability_series_of_no_renewable_generator_exits_2(tmp_path, capsys):
    config, _ = _study(tmp_path, cases.mesh6_case())
    path = Path(json.loads(config.read_text())["inputs"]["res_availability"])
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text(
        "\n".join([header + ",W9"] + [row + ",0.5" for row in rows]) + "\n",
        encoding="utf-8",
    )
    assert main(["dispatch", "--config", str(config)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "W9" in line


def test_bus_shares_that_unbalance_the_peak_hour_exit_2(tmp_path, capsys):
    # 9e-10 off 1 passes the 1e-9 sum rule, but puts 5,000 MW x 9e-10 =
    # 4.5e-6 MW of imbalance into every hour, which screening would refuse
    case = cases.triangle_case()
    g1 = dataclasses.replace(case.model.generators[0], p_max_mw=9000.0)
    heavy = dataclasses.replace(
        case,
        model=dataclasses.replace(case.model, generators=(g1,)),
        profile=cases.DemandProfile(cases.constant_demand(5000.0), {"B2": 0.5, "B3": 0.5}),
    )
    config, _ = _study(tmp_path, heavy)
    path = Path(json.loads(config.read_text())["inputs"]["bus_shares"])
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("B2,0.5\n", f"B2,{0.5 + 9e-10!r}\n"), encoding="utf-8")
    assert main(["dispatch", "--config", str(config)]) == 2
    _one_line_error(capsys, "bus shares must sum to 1", repr(0.5 + 9e-10 + 0.5))


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


def test_mw_values_too_large_to_balance_exit_2_naming_the_hour(tmp_path, capsys):
    # at 1e9 times grid30's MW the rounding of an hour's injection sum alone
    # exceeds the 1e-6 MW balance tolerance, which Stage 1 refuses
    config, _ = _study(tmp_path, cases.grid30_case())
    inputs = json.loads(config.read_text())["inputs"]
    scaled = {"demand": ("demand_mw",), "generators": ("p_max_mw", "p_min_mw"),
              "lines": ("rating_summer_mw", "rating_winter_mw")}
    for key, columns in scaled.items():
        rows = _read_csv_rows(inputs[key])
        for row in rows:
            row.update({c: repr(float(row[c]) * 1e9) for c in columns})
        header = list(rows[0])
        Path(inputs[key]).write_text(
            "\n".join([",".join(header)] + [",".join(r[c] for c in header) for r in rows])
            + "\n",
            encoding="utf-8",
        )
    assert main(["run-all", "--config", str(config)]) == 2
    _one_line_error(capsys, "hour 3984", "do not balance", "residual 9.155e-05 MW")


def _set_first_line(config, column, value):
    """Set one cell of the first line in a study's lines.csv; returns its cells."""
    path = Path(json.loads(config.read_text())["inputs"]["lines"])
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), first.split(",")))
    cells[column] = value
    path.write_text("\n".join([header, ",".join(cells.values()), *rest]) + "\n",
                    encoding="utf-8")
    return cells


def test_a_rating_below_the_floor_exits_2_naming_the_line(tmp_path, capsys):
    # a subnormal rating passes "> 0" but 100 |f| / r overflows to inf
    config, out = _study(tmp_path, cases.side_effect_case())
    cells = _set_first_line(config, "rating_summer_mw", "1e-320")
    assert main(["run-all", "--config", str(config)]) == 2
    _one_line_error(capsys, "lines.csv row 2", f"line {cells['id']}",
                    "ratings must be >= 1e-06 MW")
    assert not (out / "line_summary.csv").exists()


def test_a_reactance_below_the_floor_exits_2_naming_the_line(tmp_path, capsys):
    # a subnormal reactance passes "> 0" but its susceptance 1 / x overflows
    config, out = _study(tmp_path, cases.side_effect_case())
    cells = _set_first_line(config, "reactance_pu", "1e-320")
    assert main(["run-all", "--config", str(config)]) == 2
    _one_line_error(capsys, "lines.csv row 2", f"line {cells['id']}",
                    "reactance_pu must be >= 1e-06")
    assert not (out / "overloads.csv").exists()


def test_a_system_base_below_the_floor_exits_2(tmp_path, capsys):
    # a subnormal base passes "> 0" but MW / base overflows: the loadings
    # were inf and the report's read-back of line_summary.csv raised
    config, out = _study(tmp_path, cases.side_effect_case(), system_base_mva=1e-320)
    assert main(["run-all", "--config", str(config)]) == 2
    _one_line_error(capsys, "system_base_mva must be >= 1e-06 MVA")
    assert not (out / "line_summary.csv").exists()


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


def test_screen_from_stage1_is_the_full_screen_on_stage1_lines(lattice_screen):
    # screen_from_stage1 has Stage 2 monitor the lines Stage 1 flagged: its
    # records are the full screen's on those lines, field for field (the
    # lattice at near 55% has 852 Stage 1 records on 8 of its 129 lines)
    rec1, base, lodf, model, calendar = lattice_screen
    lines = set(rec1.lines())
    assert len(rec1) == 852 and len(lines) == 8
    full = screening.stage2_scan(base, lodf, model, calendar, near_pct=LOWERED_NEAR_PCT)
    narrow = screening.stage2_scan(base, lodf, model, calendar, lines,
                                   near_pct=LOWERED_NEAR_PCT)
    on_lines = np.isin(full.line, [base.line_ids.index(lid) for lid in lines])
    same_records(narrow, select_records(full, on_lines))
    assert 0 < len(narrow) < len(full)


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


def test_each_manifest_file_is_hashed_once_per_command(tmp_path, monkeypatch):
    # run-all hashes each stage output as it writes it and report as it
    # verifies it; the manifest takes those checksums and hashes only the
    # report's own files
    config, out = _study(tmp_path, cases.parallel_paths_case())
    hashed, sha256 = Counter(), report._sha256
    monkeypatch.setattr(report, "_sha256", lambda path: hashed.update([path.name]) or sha256(path))
    for command in ("run-all", "report"):
        hashed.clear()
        assert main([command, "--config", str(config)]) == 0
        manifest = json.loads((out / "report" / "manifest.json").read_text())
        assert hashed == Counter(Path(entry["file"]).name for entry in manifest)
        for entry in manifest:
            assert entry["sha256"] == sha256(out / entry["file"])


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


def test_report_checks_line_summary_against_records(tmp_path):
    config, out, _ = _run_all(tmp_path, cases.side_effect_case())
    path = out / "line_summary.csv"
    header, first, *rest = path.read_bytes().split(b"\r\n")
    cells = first.split(b",")
    cells[1] = str(int(cells[1]) + 1).encode()  # overload_hours
    path.write_bytes(b"\r\n".join([header, b",".join(cells), *rest]))
    meta_path = out / "screen_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["sha256"]["line_summary.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ReportConsistencyError, match="line summaries"):
        main(["report", "--config", str(config)])


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


PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"


def _count_calls(monkeypatch, owner, name):
    """Record each call of ``owner.name``, wrapping the module attribute the
    stages look up, as bench/tracer.py does."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def test_each_stage_loads_only_the_inputs_it_reads(tmp_path, monkeypatch):
    pinned = json.loads(PINS.read_text())["grid30-study"]["counters"]
    networks = _count_calls(monkeypatch, cli, "load_network")
    availabilities = _count_calls(monkeypatch, dispatch, "load_res_availability")
    profiles = _count_calls(monkeypatch, dispatch, "load_demand_profile")

    def loads(command, config):
        for calls in (networks, availabilities, profiles):
            calls.clear()
        assert main([command, "--config", str(config)]) == 0
        return len(networks), len(availabilities), len(profiles)

    # the first stage to read the demand profile hands it to the later ones
    config, _ = _study(tmp_path, cases.grid30_case())
    assert loads("run-all", config) == (pinned["network.load_network.calls"], 1, 1)
    config, _ = _study(tmp_path, cases.grid30_case(), name="cached")
    loads("dispatch", config)
    assert loads("run-all", config) == (2, 0, 1)  # on a verified dispatch

    config, _ = _study(tmp_path, cases.triangle_case(), name="screen")
    loads("dispatch", config)
    assert loads("screen", config) == (1, 0, 1)  # on a verified dispatch


def test_each_command_parses_dispatch_csv_and_overloads_csv_at_most_once(
    tmp_path, monkeypatch
):
    years = _count_calls(monkeypatch, dispatch, "read_dispatch_outputs")
    records = _count_calls(monkeypatch, screening, "read_overloads_csv")
    case = cases.side_effect_case()

    def parses(command, config):
        years.clear()
        records.clear()
        assert main([command, "--config", str(config)]) == 0
        return len(years), len(records)

    # what run-all computes it hands on: it parses neither file
    config, _ = _study(tmp_path, case, name="computed")
    assert parses("run-all", config) == (0, 0)
    # a cached dispatch is read once, by screen, and handed to site-pfc
    config, _ = _study(tmp_path, case, name="cached")
    assert parses("dispatch", config) == (0, 0)
    assert parses("run-all", config) == (1, 0)
    # one stage on verified upstream reads each of its files once
    config, _ = _study(tmp_path, case, name="staged")
    assert parses("dispatch", config) == (0, 0)
    assert parses("screen", config) == (1, 0)
    assert parses("site-pfc", config) == (1, 1)
    assert parses("report", config) == (0, 1)


def test_run_all_takes_the_dispatch_figures_from_the_year_it_holds(
    tmp_path, monkeypatch
):
    summaries = []
    loads = json.loads

    def counted(text, *args, **kwargs):  # json.load parses through it too
        value = loads(text, *args, **kwargs)
        if isinstance(value, dict) and "curtailment_mwh" in value:
            summaries.append(value)
        return value

    monkeypatch.setattr(json, "loads", counted)
    config, out = _study(tmp_path, cases.side_effect_case())
    assert main(["run-all", "--config", str(config)]) == 0
    assert len(summaries) == 0
    report = loads((out / "report" / "summary.json").read_text())["dispatch"]
    assert main(["report", "--config", str(config)]) == 0
    assert len(summaries) == 1
    stored = summaries[0]
    assert report == {
        "infeasible_hours": len(stored["infeasible_hours"]),
        "total_curtailment_mwh": stored["total_curtailment_mwh"],
    }


def _bits(value):
    """A value with its float bits spelled out: arrays by dtype, shape and
    bytes, floats by ``float.hex``."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    return value


def test_run_all_hands_on_the_bits_a_read_back_of_its_files_gives(tmp_path, monkeypatch):
    handed = []
    site_pfc = cli.cmd_site_pfc

    def record_then_site(cfg, study, dest):
        handed.append((study, dict(vars(study))))  # before site-pfc loads anything
        site_pfc(cfg, study, dest)

    monkeypatch.setattr(cli, "cmd_site_pfc", record_then_site)
    config, out = _study(tmp_path, cases.grid30_case())
    assert main(["run-all", "--config", str(config)]) == 0
    [(study, held)] = handed
    assert sorted(held) == ["cfg", "profile", "records", "year"]

    inputs = held["cfg"].inputs
    profile = dispatch.load_demand_profile(
        inputs["demand"], inputs["bus_shares"], study.model.bus_by_id
    )
    assert _bits(held["profile"].demand_mw) == _bits(profile.demand_mw)
    assert list(held["profile"].bus_shares.items()) == list(profile.bus_shares.items())

    year = dispatch.read_dispatch_outputs(
        out / "dispatch.csv", out / "dispatch_summary.json", study.model
    )
    for field in dataclasses.fields(year):
        name = field.name
        assert _bits(getattr(held["year"], name)) == _bits(getattr(year, name)), name
    records = screening.read_overloads_csv(out / "overloads.csv")
    assert len(records) == len(held["records"]) > 0
    assert [tuple(map(_bits, r)) for r in held["records"]] == [
        tuple(map(_bits, r)) for r in records
    ]


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


def _triangle_probe(x):
    """The triangle study with L12 at 1e-6 pu and L13 = L23 = ``x`` pu: L12
    is no bridge, but its outage margin 1 - phi(k,k) is about 5e-7 / x."""
    case = cases.triangle_case()
    lines = tuple(dataclasses.replace(ln, reactance_pu=1e-6 if ln.id == "L12" else x)
                  for ln in case.model.lines)
    return dataclasses.replace(case, model=dataclasses.replace(case.model, lines=lines))


@pytest.mark.parametrize("x", [1e2, 1e4])
def test_an_outage_too_close_to_singular_exits_4_naming_the_line(tmp_path, capsys, x):
    config, _ = _study(tmp_path, _triangle_probe(x))
    assert main(["run-all", "--config", str(config)]) == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line]
    assert len(errors) == 1 and errors[0].startswith("solver error: outage of line L12 "), errors


def test_an_outage_with_a_small_safe_margin_is_screened(tmp_path, caplog):
    case = _triangle_probe(1e-2)
    config, _ = _study(tmp_path, case)
    with caplog.at_level(logging.INFO, logger="pfcplan.screening"):
        assert main(["run-all", "--config", str(config)]) == 0
    assert "stage 2: 3 outages screened, 0 bridge outages skipped" in caplog.text
    model = case.model
    system = dcflow.build_system(model)
    lodf = shift_factors.compute_lodf(shift_factors.compute_ptdf(system, model), model)
    injection = np.array([90.0, 0.0, -90.0])
    exact = dcflow.solve_with_outage(model, injection, "L12").flows_mw
    fast = post_contingency_flows(dcflow.solve_flows(system, injection), lodf, "L12")
    assert np.abs(fast - exact).max() <= 1e-6 * max(np.abs(exact).max(), 1.0)


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

    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(dispatch, "write_dispatch_summary", crash)
        assert main(["dispatch", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "synthetic write failure" in err
    assert len(err.strip().splitlines()) == 1
    # the new dispatch.csv was written before the crash, but only under a
    # temporary name that is gone now
    assert _normalized_tree(out) == before

    capsys.readouterr()
    assert main(["dispatch", "--config", str(config)]) == 0
    assert "cached" not in capsys.readouterr().out
    config_clean, out_clean = _study(tmp_path, lighter, name="clean")
    assert main(["dispatch", "--config", str(config_clean)]) == 0
    assert _normalized_tree(out) == _normalized_tree(out_clean)


def test_out_dir_under_a_file_exits_2(tmp_path, capsys):
    config, _ = _study(tmp_path, cases.triangle_case())
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    argv = ["dispatch", "--config", str(config), "--out", str(blocker / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "blocker" in err
    assert len(err.strip().splitlines()) == 1


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


# -- pinned output bytes ----------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "golden_sha256.json").read_text())


@pytest.mark.parametrize("case_name", sorted(GOLDEN))
def test_run_all_output_bytes_are_pinned(tmp_path, case_name):
    """Every output file of run-all keeps its bytes (timestamp zeroed).

    The digests in golden_sha256.json are of ``_normalized_tree``; a change
    meant to alter an output must update them and say so.
    """
    _, out, code = _run_all(tmp_path, getattr(cases, case_name)())
    assert code == 0
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in _normalized_tree(out).items()
    }
    expected = GOLDEN[case_name]
    changed = sorted(
        name for name in digests.keys() | expected.keys()
        if digests.get(name) != expected.get(name)
    )
    assert not changed, f"{case_name}: output bytes differ in {changed}"


# grid30 is in no golden case, so its dispatch files are pinned here
GRID30_DISPATCH = {
    "dispatch.csv": "036e3e3b478d0b4141401670299f30da44772db57c764b12cda58df48103fe1c",
    "dispatch_summary.json": "c911898bb49ffcb55c10517487c0d431e11ea3a31f06415af1e019eecc389a76",
}


def test_grid30_dispatch_bytes_are_pinned(tmp_path):
    config, out = _study(tmp_path, cases.grid30_case())
    assert main(["dispatch", "--config", str(config)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GRID30_DISPATCH
    }
    assert digests == GRID30_DISPATCH


# its overloads.csv digest is also the benchmark's pin for the grid30 workload
GRID30_WORKBOOK = {
    "overloads.csv": "ee2165ab4c71b4296fa3da7d9b3696259faea3182c5ca13848d614b56d3613e5",
    "line_summary.csv": "44b7cbdd7331e8c7e84bf47ae018c3b0c3f0c260755f54cd582aa642d65375c6",
    "region_summary.csv": "513a2498b271014fa9842d197d4c6d0c205035e4b58635d5cd4ea00e7caa975c",
    "duration_histogram.csv": "38399760a3b5294fa5e1f6e80ea808806cc4d1aa6b3b582fc29762a8e46bae10",
    "severity.csv": "4d31f17df1ef20c821f17e02c22b438277c976a7f20c7d2c38246c0867f92fb5",
}


def test_grid30_screen_workbook_bytes_are_pinned(tmp_path):
    config, out = _study(tmp_path, cases.grid30_case())
    assert main(["dispatch", "--config", str(config)]) == 0
    assert main(["screen", "--config", str(config)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GRID30_WORKBOOK
    }
    assert digests == GRID30_WORKBOOK


# the Stage 3 outputs of grid30 (the benchmark pins the same digests), and per
# target the solve requests (the build_system calls the benchmark pins), the
# exact solves made for them, the rest served from the pair groups' kept
# solves, and the factorizations: each perturbed topology once. N01-N02 has no
# candidate host line
GRID30_SITING = {
    "pfc_outcomes.csv": "08f64f866c7f3a52f46211f0dfb2fc27a632a7c40b85ac511491fba9fc49a3b0",
    "pfc_outcomes_detail.json": "1fd474cc61b7b4bdced5709c78a6decbf067177bc54a3070ad64a9fff167165e",
}
GRID30_STAGE3_WORK = {"N01-N02": (0, 0, 0), "N10-N16": (2716, 2328, 322),
                      "N17-N23": (12636, 8352, 1341)}


def test_grid30_run_all_parses_no_records_and_logs_stage3_work(
    tmp_path, monkeypatch, caplog
):
    reads = []
    read = screening.read_overloads_csv
    monkeypatch.setattr(
        screening, "read_overloads_csv", lambda path: reads.append(path) or read(path)
    )
    config, out = _study(tmp_path, cases.grid30_case())
    with caplog.at_level(logging.INFO, logger="pfcplan.siting"):
        assert main(["run-all", "--config", str(config)]) == 0
    assert len(reads) == 0  # screen hands its records to site-pfc and the report
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GRID30_SITING
    }
    assert digests == GRID30_SITING
    work = [
        re.fullmatch(
            r"stage 3 (\S+): \d+ pair groups, \d+ candidates sized, (\d+) exact solves, "
            r"(\d+) repeats served, (\d+) factorizations",
            r.getMessage(),
        ).groups()
        for r in caplog.records if r.name == "pfcplan.siting"
    ]
    assert len(work) == len(GRID30_STAGE3_WORK)
    assert {target: (int(n) + int(s), int(n), int(f))
            for target, n, s, f in work} == GRID30_STAGE3_WORK
