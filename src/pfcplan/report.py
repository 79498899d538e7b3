"""Study report assembly: workbook aggregates, JSON summary, SVG charts.

Every number in the report is a pure function of the screening records and
siting outcomes, so an independent aggregation over the raw CSVs must
reproduce it exactly. ``build_report`` checks on every call that the line
summaries equal ``screening.summarize`` of the records; a mismatch is a
pipeline bug and raised, not papered over. The region counts are
``screening.region_counts`` of the summaries, as in the screen's workbook.
Output is deterministic except for the single generated_at timestamp in
summary.json.

Charts are emitted as self-contained SVG (no plotting dependency), and every
figure also exists as CSV so any external tool can re-plot it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from html import escape
from pathlib import Path

from . import siting
from .network import NetworkModel
from .screening import (
    LINE_SUMMARY_COLUMNS,
    REGION_COLUMNS,
    LineSummary,
    OverloadRecords,
    region_counts,
    summarize,
)
from .siting import PFC_OUTCOME_COLUMNS, RANK_COLUMNS, PfcOutcome, RankEntry
from .tables import rows, select, write_csv

SCHEMA_VERSION = 1

# report/line_durations.csv and the line_durations rows of summary.json
LINE_DURATION_COLUMNS = select(
    LINE_SUMMARY_COLUMNS, "line", "region", "overload_hours", "near_hours",
    "max_loading_pct", "overload_energy_mwh", "contingency_count",
)
# report/pfc_performance.csv: the outcome rows with side effects in one cell
PERFORMANCE_COLUMNS = {**PFC_OUTCOME_COLUMNS, "side_effect_lines": "side_effect_cell"}


class ReportConsistencyError(RuntimeError):
    """Raw records and rolled-up summaries disagree: a pipeline bug."""


@dataclass(frozen=True)
class StudyReport:
    scenario: str
    config_hash: str
    parameters: dict
    dispatch_stats: dict
    screening_stats: dict
    line_durations: list[LineSummary]
    pfc_rows: list[PfcOutcome]  # sorted by target line
    breakdown_pct: dict[str, float]
    ranking_rows: tuple[RankEntry, ...]


def build_report(
    summaries: list[LineSummary],
    outcomes: list[PfcOutcome],
    model: NetworkModel,
    parameters: dict,
    records: OverloadRecords,
    dispatch_stats: dict,
    scenario: str,
    config_hash: str,
) -> StudyReport:
    """Aggregate stage outputs into one report structure.

    The summaries must name known lines and equal those recomputed from the
    raw records; any discrepancy is a hard error.
    """
    for s in summaries:
        if s.line_id not in model.line_by_id:
            raise ReportConsistencyError(f"summary for unknown line {s.line_id}")
    if summarize(records, model) != summaries:
        raise ReportConsistencyError("line summaries do not match the raw overload records")

    n = len(outcomes)
    counts = {"FullyResolved": 0, "PartiallyResolved": 0, "NoChange": 0}
    for o in outcomes:
        counts[o.classification] += 1
    breakdown = {
        k: (100.0 * v / n if n else 0.0) for k, v in sorted(counts.items())
    }

    n_overload = int(records.overload.sum())
    screening_stats = {
        "overloaded_lines": sum(1 for s in summaries if s.overload_hours),
        "lines_with_records": len(summaries),
        "total_overload_hours": sum(s.overload_hours for s in summaries),
        "total_near_hours": sum(s.near_hours for s in summaries),
        "overload_records": n_overload,
        "near_records": len(records) - n_overload,
    }

    return StudyReport(
        scenario=scenario,
        config_hash=config_hash,
        parameters=dict(parameters),
        dispatch_stats=dict(dispatch_stats),
        screening_stats=screening_stats,
        line_durations=list(summaries),
        pfc_rows=sorted(outcomes, key=lambda o: o.target_line),
        breakdown_pct=breakdown,
        # through the module, so a wrapper set on siting.rank_targets takes effect
        ranking_rows=siting.rank_targets(outcomes),
    )


# -- emission ----------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _bar_chart_svg(title: str, labels: list[str], values: list[float], unit: str) -> str:
    width, height = 720, 400
    margin_left, margin_bottom, margin_top = 60, 70, 40
    plot_w = width - margin_left - 20
    plot_h = height - margin_top - margin_bottom
    vmax = max(values) if values and max(values) > 0 else 1.0
    n = max(len(values), 1)
    slot = plot_w / n
    bar_w = slot * 0.7

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>',
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top}" '
        f'x2="{margin_left}" y2="{margin_top + plot_h}" stroke="black"/>',
        f'<text x="16" y="{margin_top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_top + plot_h / 2:.1f})">{unit}</text>',
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        h = plot_h * value / vmax
        x = margin_left + i * slot + (slot - bar_w) / 2
        y = margin_top + plot_h - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            f'fill="#4682b4"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{y - 4:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{value:.6g}</text>'
        )
        lx = x + bar_w / 2
        ly = margin_top + plot_h + 12
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" '
            f'transform="rotate(-45 {lx:.2f} {ly:.2f})">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(
    report: StudyReport,
    out_dir,
    stage_sha256: dict[str, str],
    timestamp: str | None = None,
) -> list[dict]:
    """Write the report directory; returns the manifest (also written as JSON).

    Layout: report/summary.json, report/*.csv, report/charts/*.svg and
    report/manifest.json with a checksum for every emitted file plus the files
    under ``out_dir`` that ``stage_sha256`` names with their sha256 (the stage
    outputs, hashed once when written or verified). The generated_at timestamp
    in summary.json is the only non-reproducible byte.
    """
    out_dir = Path(out_dir)
    report_dir = out_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    regional = region_counts(report.line_durations)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": timestamp
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scenario": report.scenario,
        "config_hash": report.config_hash,
        "parameters": report.parameters,
        "dispatch": report.dispatch_stats,
        "screening": report.screening_stats,
        "regional_overloaded_lines": {c.region: c.overloaded_lines for c in regional},
        "line_durations": rows(LINE_DURATION_COLUMNS, report.line_durations),
        "pfc_outcomes": rows(PFC_OUTCOME_COLUMNS, report.pfc_rows),
        "pfc_breakdown_pct": report.breakdown_pct,
        "pfc_ranking": rows(RANK_COLUMNS, report.ranking_rows),
    }
    path = report_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)

    written.append(report_dir / "region_summary.csv")
    write_csv(written[-1], REGION_COLUMNS, regional)
    written.append(report_dir / "line_durations.csv")
    write_csv(written[-1], LINE_DURATION_COLUMNS, report.line_durations)
    written.append(report_dir / "pfc_performance.csv")
    write_csv(written[-1], PERFORMANCE_COLUMNS, report.pfc_rows)

    overloaded = [s for s in report.line_durations if s.overload_hours]
    breakdown = report.breakdown_pct
    charts = {
        "duration_per_line.svg": _bar_chart_svg(
            "Overload duration by line",
            [s.line_id for s in overloaded],
            [float(s.overload_hours) for s in overloaded],
            "hours",
        ),
        "resolution_breakdown.svg": _bar_chart_svg(
            "PFC outcome breakdown",
            list(breakdown),
            list(breakdown.values()),
            "percent of targets",
        ),
    }
    (report_dir / "charts").mkdir(exist_ok=True)
    for name, svg in charts.items():
        written.append(report_dir / "charts" / name)
        written[-1].write_text(svg, encoding="utf-8")

    checksums = {str(p.relative_to(out_dir)): _sha256(p) for p in written} | stage_sha256
    manifest = [{"file": name, "sha256": sha, "bytes": (out_dir / name).stat().st_size}
                for name, sha in sorted(checksums.items())]
    with open(report_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
