"""Per-iteration correctness checks; each check is one (name, passed, detail).

grid30 outputs are compared with values pinned in ``pins.json``. Lattice
outputs are compared with an independent oracle: plain-numpy DC solves of the
intact network and of sampled single-line outages, on the injections that
``dispatch.csv`` and the input CSVs define. An oracle loading within
``AMBIGUOUS_PCT`` of a class threshold may land in either class, so the
oracle gives each class count as a (low, high) range.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

import lattice

NEAR_PCT, OVERLOAD_PCT = 90.0, 100.0
DERATE = 0.10  # the study configs keep pfcplan's default derate and summer
SUMMER_MONTHS = (4, 5, 6, 7, 8, 9)
AMBIGUOUS_PCT = 1e-6
HASHED_FILES = ("overloads.csv", "pfc_outcomes.csv", "pfc_outcomes_detail.json")


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def record_counts(overloads_csv) -> Counter:
    """Records per (contingency, class); contingency '' is Stage 1."""
    counts: Counter = Counter()
    with open(overloads_csv, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            fields = line.rstrip("\n").split(",")
            counts[(fields[2], fields[5]) if len(fields) == 6 else ("?", "malformed")] += 1
    return counts


def class_totals(counts: Counter) -> dict[str, int]:
    """Record counts as stage1_near, stage1_overload, stage2_near, stage2_overload."""
    totals = dict.fromkeys(("stage1_near", "stage1_overload", "stage2_near", "stage2_overload"), 0)
    for (contingency, cls), n in counts.items():
        key = f"{'stage2' if contingency else 'stage1'}_{cls}"
        totals[key] = totals.get(key, 0) + n
    return totals


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _summer_mask() -> np.ndarray:
    days = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    return np.concatenate([np.full(24 * d, m in SUMMER_MONTHS) for m, d in enumerate(days, 1)])


class ScreenOracle:
    """Independent DC screening of a study from its inputs and dispatch.csv."""

    def __init__(self, inputs_dir, out_dir, slack_bus: str):
        inputs, out = Path(inputs_dir), Path(out_dir)
        self.bus_ids = [r["id"] for r in _rows(inputs / "buses.csv")]
        index = {b: i for i, b in enumerate(self.bus_ids)}
        lines = _rows(inputs / "lines.csv")
        self.line_ids = [r["id"] for r in lines]
        self.frm = np.array([index[r["from_bus"]] for r in lines])
        self.to = np.array([index[r["to_bus"]] for r in lines])
        self.x = np.array([float(r["reactance_pu"]) for r in lines])
        summer = np.array([float(r["rating_summer_mw"]) for r in lines])
        winter = np.array([float(r["rating_winter_mw"]) for r in lines])
        self.slack = index[slack_bus]

        gen_bus = {r["id"]: index[r["bus"]] for r in _rows(inputs / "generators.csv")}
        infeasible = set(json.loads((out / "dispatch_summary.json").read_text())["infeasible_hours"])
        self.hours = np.array([h for h in range(8760) if h not in infeasible])
        inj = np.zeros((8760, len(self.bus_ids)))
        for r in _rows(out / "dispatch.csv"):
            inj[int(r["hour"]), gen_bus[r["generator"]]] += float(r["output_mw"])
        demand = np.array([float(r["demand_mw"]) for r in _rows(inputs / "demand.csv")])
        for r in _rows(inputs / "bus_shares.csv"):
            inj[:, index[r["bus"]]] -= float(r["share"]) * demand
        self.inj = inj[self.hours]
        self.ratings = np.where(_summer_mask()[self.hours, None], summer, winter) * (1 - DERATE)

    def class_ranges(self, without: int | None) -> dict[str, tuple[int, int]] | None:
        """(low, high) record counts per class, or None for a bridge outage."""
        flows = lattice.dc_flows(len(self.bus_ids), self.slack, self.frm, self.to,
                                 self.x, self.inj, without)
        if flows is None:
            return None
        loading = 100.0 * np.abs(flows) / self.ratings
        if without is not None:
            loading[:, without] = 0.0
        eps = AMBIGUOUS_PCT
        sure_over = int((loading > OVERLOAD_PCT + eps).sum())
        at_100 = int((np.abs(loading - OVERLOAD_PCT) <= eps).sum())
        at_90 = int((np.abs(loading - NEAR_PCT) <= eps).sum())
        sure_near = int(((loading > NEAR_PCT + eps) & (loading < OVERLOAD_PCT - eps)).sum())
        return {"near": (sure_near, sure_near + at_90 + at_100),
                "overload": (sure_over, sure_over + at_100)}


def _in_range(value: int, bounds: tuple[int, int]) -> bool:
    return bounds[0] <= value <= bounds[1]


def check_lattice(inputs_dir, out_dir, slack_bus, codes, expected_codes, pins, seed, n_sampled=6):
    """Exit codes, oracle record counts (Stage 1 and sampled outages), pins."""
    checks = [("exit_codes", codes == expected_codes, f"{codes} vs {expected_codes}")]
    if codes != expected_codes:
        return checks
    counts = record_counts(Path(out_dir) / "overloads.csv")
    oracle = ScreenOracle(inputs_dir, out_dir, slack_bus)
    intact = oracle.class_ranges(None)
    for cls in ("near", "overload"):
        checks.append((f"stage1_{cls}", _in_range(counts[("", cls)], intact[cls]),
                       f"{counts[('', cls)]} vs oracle {intact[cls]}"))
    rng = np.random.default_rng(seed)
    sampled = sorted(rng.choice(len(oracle.line_ids), n_sampled, replace=False).tolist())
    # the spur's bridge lines are the last two; always check one of them
    for k in sorted(set(sampled) | {len(oracle.line_ids) - 1}):
        lid = oracle.line_ids[k]
        ranges = oracle.class_ranges(k)
        if ranges is None:
            n = counts[(lid, "near")] + counts[(lid, "overload")]
            checks.append((f"stage2_bridge_{lid}", n == 0, f"{n} records for a bridge outage"))
            continue
        for cls in ("near", "overload"):
            checks.append((f"stage2_{lid}_{cls}", _in_range(counts[(lid, cls)], ranges[cls]),
                           f"{counts[(lid, cls)]} vs oracle {ranges[cls]}"))
    pinned = pins.get(str(seed))
    if pinned:
        totals = class_totals(counts)
        for key, value in pinned["records"].items():
            checks.append((f"pinned_{key}", totals[key] == value, f"{totals[key]} vs pin {value}"))
        digest = sha256(Path(out_dir) / "overloads.csv")
        checks.append(("sha256_overloads.csv", digest == pinned["overloads.csv"], digest))
    return checks


def check_grid30(out_dir, codes, pins):
    """Exit codes, pinned record counts, outcomes and output digests."""
    out = Path(out_dir)
    checks = [("exit_codes", codes == pins["exit_codes"], f"{codes} vs {pins['exit_codes']}")]
    if codes != pins["exit_codes"]:
        return checks
    totals = class_totals(record_counts(out / "overloads.csv"))
    for key, value in pins["records"].items():
        checks.append((f"records_{key}", totals[key] == value, f"{totals[key]} vs pin {value}"))
    outcomes = {r["target_line"]: r for r in _rows(out / "pfc_outcomes.csv")}
    for target, (cls, host, delta) in pins["outcomes"].items():
        row = outcomes.get(target, {})
        got = (row.get("classification"), row.get("pfc_line") or None,
               float(row["delta_pct"]) if row.get("delta_pct") else None)
        checks.append((f"outcome_{target}", got == (cls, host, delta), f"{got}"))
    for name in HASHED_FILES:
        digest = sha256(out / name)
        checks.append((f"sha256_{name}", digest == pins["sha256"][name], digest))
    return checks


def check_counters(layers: dict, pinned: dict):
    """Traced work counters that must repeat exactly."""
    return [(f"counter_{k}", layers.get(k) == v, f"{layers.get(k)} vs pin {v}")
            for k, v in pinned.items()]
