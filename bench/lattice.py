"""Deterministic lattice study generator for the benchmark.

``lattice_inputs(rows, cols, seed, rating_scale)`` returns the six input CSVs
of a pfcplan study as text: a rows x cols meshed 110 kV lattice with a
two-line radial spur, thermal plant on the east edge, wind on the west edge
and a seeded year of demand and wind. Line ratings come from the generator's
own merit-order dispatch and dense DC solve of that year (plain numpy, no
pfcplan code): each line is rated at ``rating_scale`` times its peak
intact-network flow plus the median line's peak, so a smaller scale means
more screening records. The grid (reactances, plant, demand split) depends
only on its size; the seed draws the hourly demand and wind noise.

The same arguments always give the same bytes.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

HOURS = 8760
SNSP_CAP = 0.65
BASE_MVA = 100.0
INPUT_NAMES = ("buses", "lines", "generators", "demand", "bus_shares", "res_availability")


def _bus_id(r: int, c: int) -> str:
    return f"B{r:02d}{c:02d}"


def slack_bus(rows: int, cols: int) -> str:
    """The slack: the thermal bus midway down the east edge."""
    return _bus_id(rows // 2, cols - 1)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _merit_order(demand, wind_avail, wind_cap, thermal_cap):
    """Hourly outputs: wind first up to the SNSP cap, thermal in list order."""
    avail = wind_avail * wind_cap[None, :]
    total = avail.sum(axis=1)
    res = np.minimum(total, SNSP_CAP * demand)
    wind = avail * np.where(total > 0, res / np.where(total > 0, total, 1.0), 0.0)[:, None]
    remaining = demand - res
    thermal = np.zeros((HOURS, thermal_cap.size))
    for j, cap in enumerate(thermal_cap):
        take = np.minimum(cap, remaining)
        thermal[:, j] = take
        remaining = remaining - take
    return wind, thermal


def dc_flows(n_bus, slack, frm, to, x, injections, without=None):
    """Dense DC solve of every row of ``injections`` (MW per bus).

    Returns (rows, n_lines) MW flows, with line ``without`` (an index) taken
    out of service and its flow 0, or None if that outage islands a bus.
    """
    in_service = np.arange(len(x)) != (-1 if without is None else without)
    f, t, b = frm[in_service], to[in_service], 1.0 / x[in_service]
    bmat = np.zeros((n_bus, n_bus))
    np.add.at(bmat, (f, f), b)
    np.add.at(bmat, (t, t), b)
    np.add.at(bmat, (f, t), -b)
    np.add.at(bmat, (t, f), -b)
    keep = np.arange(n_bus) != slack
    reduced = bmat[np.ix_(keep, keep)]
    if np.linalg.matrix_rank(reduced) < n_bus - 1:
        return None
    theta = np.zeros((injections.shape[0], n_bus))
    theta[:, keep] = np.linalg.solve(reduced, injections[:, keep].T / BASE_MVA).T
    flows = np.zeros((injections.shape[0], len(x)))
    flows[:, in_service] = b * (theta[:, f] - theta[:, t]) * BASE_MVA
    return flows


def lattice_inputs(rows: int, cols: int, seed: int, rating_scale: float) -> dict[str, str]:
    """The six study input files as {name: csv text}."""
    if rows < 2 or cols < 3:
        raise ValueError("lattice needs at least 2 rows and 3 columns")
    shape_rng = np.random.default_rng([rows, cols])
    rng = np.random.default_rng(seed)

    bus_ids = [_bus_id(r, c) for r in range(rows) for c in range(cols)]
    regions = ["West" if c < cols // 3 else "East" if c >= cols - cols // 3 else "Midlands"
               for r in range(rows) for c in range(cols)]
    # radial spur off the north-east corner: two bridge lines
    bus_ids += ["S01", "S02"]
    regions += ["East", "East"]
    index = {bid: i for i, bid in enumerate(bus_ids)}

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((_bus_id(r, c), _bus_id(r, c + 1)))
            if r + 1 < rows:
                edges.append((_bus_id(r, c), _bus_id(r + 1, c)))
    edges += [(_bus_id(0, cols - 1), "S01"), ("S01", "S02")]
    reactance = np.round(shape_rng.uniform(0.04, 0.09, len(edges)), 4)

    # plant: cheap thermal on the east edge (slack in the middle of it),
    # wind on the west edge; thermal alone covers peak demand
    thermal_buses = [_bus_id(r, cols - 1) for r in range(rows)]
    slack = slack_bus(rows, cols)
    thermal_buses.remove(slack)
    thermal_buses.insert(0, slack)
    wind_buses = [_bus_id(r, 0) for r in range(0, rows, 2)]

    n_load = len(bus_ids) - len(thermal_buses)
    peak_demand = 12.0 * n_load
    hours = np.arange(HOURS)
    demand = peak_demand * (
        0.72
        + 0.10 * np.sin(2 * np.pi * hours / HOURS + shape_rng.uniform(0, 2 * np.pi))
        + 0.12 * np.sin(2 * np.pi * hours / 24.0 - 1.2)
        + rng.normal(0.0, 0.015, HOURS)
    )
    demand = np.round(demand, 3)
    wind_cap = np.full(len(wind_buses), round(0.5 * peak_demand / len(wind_buses), 1))
    phase = shape_rng.uniform(0, 2 * np.pi, len(wind_buses))
    wind_avail = np.clip(
        0.5
        + 0.35 * np.sin(2 * np.pi * hours[:, None] / 24.0 + phase[None, :])
        + rng.normal(0.0, 0.08, (HOURS, len(wind_buses))),
        0.0,
        1.0,
    )
    wind_avail = np.round(wind_avail, 4)
    thermal_cap = np.full(len(thermal_buses), round(1.3 * peak_demand / len(thermal_buses), 1))
    thermal_cap[0] *= 2.0

    load_buses = [b for b in bus_ids if b not in thermal_buses]
    weights = shape_rng.integers(1, 6, len(load_buses))
    shares = weights / weights.sum()

    # ratings from our own year: dispatch, injections, intact DC flows
    wind_out, thermal_out = _merit_order(demand, wind_avail, wind_cap, thermal_cap)
    inj = np.zeros((HOURS, len(bus_ids)))
    for j, bid in enumerate(wind_buses):
        inj[:, index[bid]] += wind_out[:, j]
    for j, bid in enumerate(thermal_buses):
        inj[:, index[bid]] += thermal_out[:, j]
    for bid, share in zip(load_buses, shares):
        inj[:, index[bid]] -= share * demand
    frm = np.array([index[f] for f, _ in edges])
    to = np.array([index[t] for _, t in edges])
    flows = dc_flows(len(bus_ids), index[slack], frm, to, reactance, inj)
    # a line's peak is its 99.5th-percentile flow; headroom of one median
    # line peak keeps lightly loaded lines from dominating the
    # post-contingency excursions
    peak = np.quantile(np.abs(flows), 0.995, axis=0)
    summer = np.round(rating_scale * (peak + np.median(peak)), 1)

    files = {
        "buses": _csv_text(
            ("id", "name", "voltage_kv", "region"),
            [(b, f"Station {b}", "110.0", reg) for b, reg in zip(bus_ids, regions)],
        ),
        "lines": _csv_text(
            ("id", "from_bus", "to_bus", "reactance_pu", "rating_summer_mw",
             "rating_winter_mw", "in_service"),
            [
                (f"{f}-{t}", f, t, repr(float(xv)), repr(float(s)),
                 repr(float(np.ceil(s * 1.1))), "true")
                for (f, t), xv, s in zip(edges, reactance, summer)
            ],
        ),
        "generators": _csv_text(
            ("id", "bus", "kind", "p_max_mw", "p_min_mw", "srmc", "synchronous"),
            [(f"T{j + 1}", b, "thermal", repr(float(cap)), "0.0", repr(10.0 + 5.0 * j), "true")
             for j, (b, cap) in enumerate(zip(thermal_buses, thermal_cap))]
            + [(f"W{j + 1}", b, "wind", repr(float(cap)), "0.0", "0.0", "false")
               for j, (b, cap) in enumerate(zip(wind_buses, wind_cap))],
        ),
        "demand": _csv_text(
            ("hour", "demand_mw"), [(h, repr(float(d))) for h, d in enumerate(demand)]
        ),
        "bus_shares": _csv_text(
            ("bus", "share"), [(b, repr(float(s))) for b, s in zip(load_buses, shares)]
        ),
        "res_availability": _csv_text(
            ("hour",) + tuple(f"W{j + 1}" for j in range(len(wind_buses))),
            [(h, *(repr(float(v)) for v in row)) for h, row in enumerate(wind_avail)],
        ),
    }
    return files


def write_lattice_inputs(directory, rows, cols, seed, rating_scale) -> dict[str, str]:
    """Write the six CSVs into ``directory``; returns {name: path}."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in lattice_inputs(rows, cols, seed, rating_scale).items():
        path = directory / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths
