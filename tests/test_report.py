import dataclasses
import json
import xml.etree.ElementTree as ET

import pytest

from pfcplan import cases
from pfcplan.network import Bus, Generator, Line, NetworkModel
from pfcplan.report import ReportConsistencyError, build_report, emit
from pfcplan.screening import LineSummary, OverloadRecord, region_counts, summarize
from pfcplan.siting import (
    FULLY_RESOLVED,
    NO_CHANGE,
    PARTIALLY_RESOLVED,
    PfcOutcome,
    rank_targets,
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


def _overloads(*line_ids):
    """One overload record on each of ``line_ids``, in hour 5 of the intact network."""
    return [OverloadRecord(lid, 5, None, 110.0, 8.5, "overload") for lid in line_ids]


def _report(model, rows=(), outcomes=(), summaries=None):
    """The report of ``rows`` (OverloadRecord rows) and ``outcomes``; the
    summaries are the records' own unless given."""
    records = records_from_rows(rows)
    if summaries is None:
        summaries = summarize(records, model)
    return build_report(summaries, list(outcomes), model, PARAMS, records, {}, "t", "0" * 64)


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
    report = _report(cases.triangle())
    assert region_counts(report.line_durations) == []
    assert report.screening_stats["overloaded_lines"] == 0
    assert report.breakdown_pct == {
        "FullyResolved": 0.0, "NoChange": 0.0, "PartiallyResolved": 0.0
    }
    assert report.line_durations == [] and report.pfc_rows == []
    assert report.ranking_rows == ()


def test_regional_counts(tmp_path):
    # L1-L3 leave West buses and L5 an East one; the near-only L6 counts nowhere
    rows = _overloads("L1", "L2", "L3", "L5")
    rows.append(OverloadRecord("L6", 5, None, 95.0, 0.0, "near"))
    emit(_report(_regional_model(), rows), tmp_path, {}, timestamp="T0")
    summary = json.loads((tmp_path / "report" / "summary.json").read_text())
    assert summary["regional_overloaded_lines"] == {"East": 1, "West": 3}
    assert summary["screening"]["overloaded_lines"] == 4
    csv = (tmp_path / "report" / "region_summary.csv").read_text()
    assert csv.splitlines() == ["region,overloaded_lines", "East,1", "West,3"]


def test_breakdown_percentages():
    outcomes = (
        [_outcome(f"LF{i}", FULLY_RESOLVED) for i in range(5)]
        + [_outcome(f"LP{i}", PARTIALLY_RESOLVED) for i in range(3)]
        + [_outcome(f"LN{i}", NO_CHANGE) for i in range(2)]
    )
    report = _report(cases.triangle(), outcomes=outcomes)
    assert report.breakdown_pct == {
        "FullyResolved": 50.0,
        "PartiallyResolved": 30.0,
        "NoChange": 20.0,
    }
    assert report.ranking_rows == rank_targets(outcomes)


def test_summary_mismatch_is_hard_error():
    model = cases.triangle()
    rows = [OverloadRecord("L12", 5, "L13", 110.0, 8.5, "overload")]
    wrong = [_summary("L12", model.bus_by_id["B1"].region, overload_hours=99)]
    with pytest.raises(ReportConsistencyError, match="do not match the raw overload records"):
        _report(model, rows, summaries=wrong)
    # summaries without the records they roll up are just as wrong
    with pytest.raises(ReportConsistencyError, match="do not match the raw overload records"):
        _report(model, summaries=wrong)


def test_unknown_line_in_summary_is_hard_error():
    with pytest.raises(ReportConsistencyError, match="unknown line L99"):
        _report(cases.triangle(), summaries=[_summary("L99", "West")])


def test_emit_with_charts_single_bar(tmp_path):
    report = _report(cases.triangle(), _overloads("L12"))
    emit(report, tmp_path, {})
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
    report = _report(model, _overloads(odd), [_outcome(odd, FULLY_RESOLVED)])
    emit(report, tmp_path, {})
    charts = tmp_path / "report" / "charts"
    texts = {
        name: [t.text for t in ET.parse(charts / name).iter(f"{SVG}text")]
        for name in ("duration_per_line.svg", "resolution_breakdown.svg")
    }
    assert odd in texts["duration_per_line.svg"]
    assert "PFC outcome breakdown" in texts["resolution_breakdown.svg"]


def test_emit_deterministic_with_pinned_timestamp(tmp_path):
    report = _report(cases.triangle(), _overloads("L12"), [_outcome("L12", FULLY_RESOLVED)])
    emit(report, tmp_path / "a", {}, timestamp="T0")
    emit(report, tmp_path / "b", {}, timestamp="T0")
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert [p.relative_to(tmp_path / "a") for p in files_a] == [
        p.relative_to(tmp_path / "b") for p in files_b
    ]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_emit_differs_only_in_timestamp(tmp_path):
    report = _report(cases.triangle())
    emit(report, tmp_path / "a", {}, timestamp="T0")
    emit(report, tmp_path / "b", {}, timestamp="T1")
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

    manifest = emit(_report(cases.triangle()), tmp_path, {}, timestamp="T0")
    for entry in manifest:
        data = (tmp_path / entry["file"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]
