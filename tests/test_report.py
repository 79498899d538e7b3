import dataclasses
import json
import xml.etree.ElementTree as ET

import pytest

from pfcplan import cases
from pfcplan.network import Bus, Generator, Line, NetworkModel
from pfcplan.report import ReportConsistencyError, build_report, emit
from pfcplan.screening import LineSummary, OverloadRecord
from pfcplan.siting import (
    FULLY_RESOLVED,
    NO_CHANGE,
    PARTIALLY_RESOLVED,
    PfcOutcome,
)

from conftest import records_from_rows

SVG = "{http://www.w3.org/2000/svg}"
PARAMS = {"derate": 0.1, "near_pct": 90.0, "overload_pct": 100.0}


def _outcome(target, classification):
    resolved = 10 if classification == FULLY_RESOLVED else 0
    return PfcOutcome(
        target_line=target,
        classification=classification,
        pfc_line=target if classification != NO_CHANGE else None,
        delta_pct=20.0 if classification != NO_CHANGE else None,
        overload_hours=10,
        resolved_hours=resolved,
        residual_max_loading_pct=99.0,
        side_effect_lines=(),
    )


def _summary(line_id, region, overload_hours=5):
    return LineSummary(
        line_id=line_id,
        overload_hours=overload_hours,
        near_hours=2,
        max_loading_pct=112.0,
        overload_energy_mwh=34.5,
        contingency_count=1,
        region=region,
    )


def _regional_model():
    buses = tuple(
        Bus(f"B{i}", f"B{i}", 110.0, region)
        for i, region in enumerate(
            ("West", "West", "West", "West", "East", "East"), start=1
        )
    )
    lines = (
        Line("L1", "B1", "B2", 0.1, 100, 100),
        Line("L2", "B2", "B3", 0.1, 100, 100),
        Line("L3", "B3", "B4", 0.1, 100, 100),
        Line("L4", "B4", "B5", 0.1, 100, 100),
        Line("L5", "B5", "B6", 0.1, 100, 100),
        Line("L6", "B6", "B1", 0.1, 100, 100),
    )
    gens = (Generator("G1", "B1", "thermal", 100, 0, 10, True),)
    return NetworkModel(buses=buses, lines=lines, generators=gens, slack_bus="B1")


def test_empty_study_zero_counts():
    report = build_report([], [], cases.triangle(), PARAMS)
    assert report.regional == {}
    assert report.screening_stats["overloaded_lines"] == 0
    assert report.breakdown_pct == {
        "FullyResolved": 0.0, "NoChange": 0.0, "PartiallyResolved": 0.0
    }
    assert report.line_durations == [] and report.pfc_rows == []


def test_regional_counts():
    model = _regional_model()
    summaries = [
        _summary("L1", "West"),
        _summary("L2", "West"),
        _summary("L3", "West"),
        _summary("L4", "East"),
    ]
    report = build_report(summaries, [], model, PARAMS)
    assert report.regional == {"East": 1, "West": 3}


def test_breakdown_percentages():
    outcomes = (
        [_outcome(f"LF{i}", FULLY_RESOLVED) for i in range(5)]
        + [_outcome(f"LP{i}", PARTIALLY_RESOLVED) for i in range(3)]
        + [_outcome(f"LN{i}", NO_CHANGE) for i in range(2)]
    )
    report = build_report([], outcomes, cases.triangle(), PARAMS)
    assert report.breakdown_pct == {
        "FullyResolved": 50.0,
        "PartiallyResolved": 30.0,
        "NoChange": 20.0,
    }


def test_summary_mismatch_is_hard_error():
    model = cases.triangle()
    records = records_from_rows(
        [OverloadRecord("L12", 5, "L13", 110.0, 8.5, "overload")]
    )
    wrong = [_summary("L12", model.bus_by_id["B1"].region, overload_hours=99)]
    with pytest.raises(ReportConsistencyError):
        build_report(wrong, [], model, PARAMS, records=records)


def test_unknown_line_in_summary_is_hard_error():
    with pytest.raises(ReportConsistencyError):
        build_report([_summary("L99", "West")], [], cases.triangle(), PARAMS)


def test_emit_with_charts_single_bar(tmp_path):
    model = cases.triangle()
    summaries = [_summary("L12", model.bus_by_id["B1"].region)]
    report = build_report(summaries, [], model, PARAMS)
    emit(report, tmp_path)
    svg = (tmp_path / "report" / "charts" / "duration_per_line.svg").read_text()
    assert svg.count("<rect") == 2  # background plus exactly one bar
    assert "L12" in svg


def test_charts_stay_well_formed_for_a_line_id_with_markup(tmp_path):
    model = _regional_model()
    odd = "L<B&"
    lines = tuple(
        dataclasses.replace(ln, id=odd) if ln.id == "L1" else ln for ln in model.lines
    )
    model = dataclasses.replace(model, lines=lines)
    report = build_report(
        [_summary(odd, "West")], [_outcome(odd, FULLY_RESOLVED)], model, PARAMS
    )
    emit(report, tmp_path)
    charts = tmp_path / "report" / "charts"
    texts = {
        name: [t.text for t in ET.parse(charts / name).iter(f"{SVG}text")]
        for name in ("duration_per_line.svg", "resolution_breakdown.svg")
    }
    assert odd in texts["duration_per_line.svg"]
    assert "PFC outcome breakdown" in texts["resolution_breakdown.svg"]


def test_emit_deterministic_with_pinned_timestamp(tmp_path):
    model = cases.triangle()
    summaries = [_summary("L12", model.bus_by_id["B1"].region)]
    report = build_report(summaries, [_outcome("L12", FULLY_RESOLVED)], model, PARAMS)
    emit(report, tmp_path / "a", timestamp="T0")
    emit(report, tmp_path / "b", timestamp="T0")
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert [p.relative_to(tmp_path / "a") for p in files_a] == [
        p.relative_to(tmp_path / "b") for p in files_b
    ]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_emit_differs_only_in_timestamp(tmp_path):
    report = build_report([], [], cases.triangle(), PARAMS)
    emit(report, tmp_path / "a", timestamp="T0")
    emit(report, tmp_path / "b", timestamp="T1")
    sa = json.loads((tmp_path / "a" / "report" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "report" / "summary.json").read_text())
    assert sa.pop("generated_at") != sb.pop("generated_at")
    assert sa == sb
    for name in ("region_summary.csv", "line_durations.csv", "pfc_performance.csv"):
        assert (tmp_path / "a" / "report" / name).read_bytes() == (
            tmp_path / "b" / "report" / name
        ).read_bytes()


def test_manifest_checksums_verify(tmp_path):
    import hashlib

    report = build_report([], [], cases.triangle(), PARAMS, scenario="t")
    manifest = emit(report, tmp_path, timestamp="T0")
    for entry in manifest:
        data = (tmp_path / entry["file"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]
