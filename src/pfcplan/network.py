"""Static grid model: buses, series-reactance lines with seasonal ratings, generators.

The model is loaded once from CSV files, validated (unique ids, resolved
references, connected in-service graph), and is immutable afterwards so it can
be shared freely between analysis stages.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

HOURS_PER_YEAR = 8760

GENERATOR_KINDS = ("thermal", "wind", "solar")


class NetworkDataError(ValueError):
    """Bad input data: parse failures, duplicate ids, dangling references."""


class DisconnectedNetworkError(NetworkDataError):
    """The in-service line graph does not connect all buses."""

    def __init__(self, isolated: set[str]):
        self.isolated = set(isolated)
        super().__init__(
            "network is disconnected; buses unreachable from the slack: "
            + "{" + ", ".join(sorted(self.isolated)) + "}"
        )


@dataclass(frozen=True)
class Bus:
    id: str
    name: str
    voltage_kv: float
    region: str

    def __post_init__(self):
        if self.voltage_kv <= 0:
            raise NetworkDataError(f"bus {self.id}: voltage_kv must be > 0")


@dataclass(frozen=True)
class Line:
    """Series branch with per-unit reactance and seasonal continuous ratings."""

    id: str
    from_bus: str
    to_bus: str
    reactance_pu: float
    rating_summer_mw: float
    rating_winter_mw: float
    in_service: bool = True

    def __post_init__(self):
        if self.reactance_pu <= 0:
            raise NetworkDataError(f"line {self.id}: reactance_pu must be > 0")
        if self.rating_summer_mw <= 0 or self.rating_winter_mw <= 0:
            raise NetworkDataError(f"line {self.id}: ratings must be > 0")
        if self.from_bus == self.to_bus:
            raise NetworkDataError(f"line {self.id}: from_bus equals to_bus")


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    kind: str
    p_max_mw: float
    p_min_mw: float
    srmc: float
    synchronous: bool

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise NetworkDataError(
                f"generator {self.id}: kind must be one of {GENERATOR_KINDS}"
            )
        if not (0 <= self.p_min_mw <= self.p_max_mw):
            raise NetworkDataError(
                f"generator {self.id}: need 0 <= p_min <= p_max"
            )
        if self.srmc < 0:
            raise NetworkDataError(f"generator {self.id}: srmc must be >= 0")


@dataclass(frozen=True)
class NetworkModel:
    """Validated, immutable grid description.

    The graph over in-service lines must be connected; the slack bus and all
    generator buses must exist. Derived index arrays are cached so repeated
    matrix construction stays cheap.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    slack_bus: str
    system_base_mva: float = 100.0

    def __post_init__(self):
        bus_ids = [b.id for b in self.buses]
        _check_unique(bus_ids, "bus")
        _check_unique([ln.id for ln in self.lines], "line")
        _check_unique([g.id for g in self.generators], "generator")
        known = set(bus_ids)
        for ln in self.lines:
            for end in (ln.from_bus, ln.to_bus):
                if end not in known:
                    raise NetworkDataError(
                        f"line {ln.id} references unknown bus {end}"
                    )
        for g in self.generators:
            if g.bus not in known:
                raise NetworkDataError(
                    f"generator {g.id} references unknown bus {g.bus}"
                )
        if self.slack_bus not in known:
            raise NetworkDataError(f"slack bus {self.slack_bus} does not exist")
        if self.system_base_mva <= 0:
            raise NetworkDataError("system_base_mva must be > 0")
        unreachable = islanded_buses(self)
        if unreachable:
            raise DisconnectedNetworkError(unreachable)

    # -- cached lookups ----------------------------------------------------

    @cached_property
    def bus_index(self) -> dict[str, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def bus_by_id(self) -> dict[str, Bus]:
        return {b.id: b for b in self.buses}

    @cached_property
    def line_by_id(self) -> dict[str, Line]:
        return {ln.id: ln for ln in self.lines}

    @cached_property
    def in_service_lines(self) -> tuple[Line, ...]:
        return tuple(ln for ln in self.lines if ln.in_service)

    @cached_property
    def in_service_line_ids(self) -> tuple[str, ...]:
        return tuple(ln.id for ln in self.in_service_lines)

    @cached_property
    def generator_ids(self) -> tuple[str, ...]:
        return tuple(g.id for g in self.generators)

    @cached_property
    def generator_by_id(self) -> dict[str, Generator]:
        return {g.id: g for g in self.generators}

    def with_line_reactance(self, line_id: str, scale: float) -> "NetworkModel":
        """New model with one line's reactance multiplied by ``scale``."""
        if line_id not in self.line_by_id:
            raise NetworkDataError(f"unknown line {line_id}")
        lines = tuple(
            replace(ln, reactance_pu=ln.reactance_pu * scale) if ln.id == line_id else ln
            for ln in self.lines
        )
        return replace(self, lines=lines)


def islanded_buses(model: NetworkModel, without_line: str | None = None) -> set[str]:
    """Buses cut off from the slack over the in-service lines, optionally with
    one line removed (breadth-first traversal rooted at the slack)."""
    adjacency: dict[str, list[str]] = {b.id: [] for b in model.buses}
    for ln in model.lines:
        if ln.in_service and ln.id != without_line:
            adjacency[ln.from_bus].append(ln.to_bus)
            adjacency[ln.to_bus].append(ln.from_bus)
    seen = {model.slack_bus}
    frontier = [model.slack_bus]
    while frontier:
        nxt = []
        for node in frontier:
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return {b.id for b in model.buses} - seen


@dataclass(frozen=True)
class SeasonCalendar:
    """Season label per hour of the study year plus the DC derate factor.

    The derate stands in for reactive flows that a DC analysis does not see;
    effective ratings are the seasonal rating times (1 - derate_factor).
    """

    summer_mask: np.ndarray  # bool per hour 0..8759, True = summer
    derate_factor: float = 0.10

    def __post_init__(self):
        mask = np.asarray(self.summer_mask, dtype=bool)
        if mask.shape != (HOURS_PER_YEAR,):
            raise ValueError(f"summer_mask must cover all {HOURS_PER_YEAR} hours")
        object.__setattr__(self, "summer_mask", mask)
        if not (0 <= self.derate_factor < 0.5):
            raise ValueError("derate_factor must lie in [0, 0.5)")

    @classmethod
    def from_months(
        cls,
        summer_months: tuple[int, ...] = (4, 5, 6, 7, 8, 9),
        derate_factor: float = 0.10,
    ) -> "SeasonCalendar":
        """Calendar for a non-leap year; default summer is April..September."""
        days_in_month = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
        mask = np.zeros(HOURS_PER_YEAR, dtype=bool)
        hour = 0
        for month, days in enumerate(days_in_month, start=1):
            n = days * 24
            if month in summer_months:
                mask[hour : hour + n] = True
            hour += n
        return cls(summer_mask=mask, derate_factor=derate_factor)

    def season(self, hour: int) -> str:
        if not 0 <= hour < HOURS_PER_YEAR:
            raise ValueError(f"hour {hour} outside [0, {HOURS_PER_YEAR})")
        return "summer" if self.summer_mask[hour] else "winter"


def seasonal_rating(line: Line, hour: int, calendar: SeasonCalendar) -> float:
    """Raw seasonal MW rating of a line for the given hour of year."""
    if calendar.season(hour) == "summer":
        return line.rating_summer_mw
    return line.rating_winter_mw


def effective_rating(line: Line, hour: int, calendar: SeasonCalendar) -> float:
    """Derated MW rating used for all loading checks: seasonal * (1 - derate)."""
    return seasonal_rating(line, hour, calendar) * (1.0 - calendar.derate_factor)


def filter_monitored_lines(model: NetworkModel, voltage_levels) -> set[str]:
    """In-service lines whose both endpoint buses sit at a listed voltage level.

    An empty result is allowed but logged, since a study that monitors nothing
    is usually a configuration mistake.
    """
    levels = set(voltage_levels)
    if not levels:
        raise ValueError("voltage_levels must not be empty")
    monitored = {
        ln.id
        for ln in model.in_service_lines
        if model.bus_by_id[ln.from_bus].voltage_kv in levels
        and model.bus_by_id[ln.to_bus].voltage_kv in levels
    }
    if not monitored:
        log.warning(
            "voltage filter %s matches no in-service lines", sorted(levels)
        )
    return monitored


# -- CSV loading -----------------------------------------------------------

BUS_COLUMNS = ("id", "name", "voltage_kv", "region")
LINE_COLUMNS = (
    "id",
    "from_bus",
    "to_bus",
    "reactance_pu",
    "rating_summer_mw",
    "rating_winter_mw",
    "in_service",
)
GENERATOR_COLUMNS = (
    "id",
    "bus",
    "kind",
    "p_max_mw",
    "p_min_mw",
    "srmc",
    "synchronous",
)


def _check_unique(ids, what: str):
    seen = set()
    for i in ids:
        if i in seen:
            raise NetworkDataError(f"duplicate {what} id {i}")
        seen.add(i)


def _read_rows(path, columns):
    path = Path(path)
    if not path.exists():
        raise NetworkDataError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in columns if c not in header]
        if missing:
            raise NetworkDataError(f"{path}: missing columns {missing}")
        # row numbers are 1-based including the header, so data starts at 2
        for row_no, row in enumerate(reader, start=2):
            yield path, row_no, row


# the parsers leave the file and row to the per-row handler in load_network,
# which also prefixes the errors the Bus/Line/Generator checks raise


def _parse_float(row, column) -> float:
    raw = (row.get(column) or "").strip()
    try:
        return float(raw)
    except ValueError:
        raise NetworkDataError(f"cannot parse {column}={raw!r} as a number") from None


def _parse_bool(row, column) -> bool:
    raw = (row.get(column) or "").strip().lower()
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise NetworkDataError(f"{column} must be true or false, got {raw!r}")


def _parse_str(row, column) -> str:
    raw = (row.get(column) or "").strip()
    if not raw:
        raise NetworkDataError(f"empty {column}")
    return raw


def load_network(
    bus_file,
    line_file,
    generator_file,
    slack_bus: str | None = None,
    system_base_mva: float = 100.0,
) -> NetworkModel:
    """Load and validate a network model from the three CSV schema files.

    When ``slack_bus`` is not given, the bus of the largest-capacity generator
    is used (ties broken by generator id), falling back to the first bus.
    """
    buses = []
    for path, row_no, row in _read_rows(bus_file, BUS_COLUMNS):
        try:
            buses.append(
                Bus(
                    id=_parse_str(row, "id"),
                    name=_parse_str(row, "name"),
                    voltage_kv=_parse_float(row, "voltage_kv"),
                    region=_parse_str(row, "region"),
                )
            )
        except NetworkDataError as exc:
            raise NetworkDataError(f"{path} row {row_no}: {exc}") from None

    lines = []
    for path, row_no, row in _read_rows(line_file, LINE_COLUMNS):
        try:
            lines.append(
                Line(
                    id=_parse_str(row, "id"),
                    from_bus=_parse_str(row, "from_bus"),
                    to_bus=_parse_str(row, "to_bus"),
                    reactance_pu=_parse_float(row, "reactance_pu"),
                    rating_summer_mw=_parse_float(row, "rating_summer_mw"),
                    rating_winter_mw=_parse_float(row, "rating_winter_mw"),
                    in_service=_parse_bool(row, "in_service"),
                )
            )
        except NetworkDataError as exc:
            raise NetworkDataError(f"{path} row {row_no}: {exc}") from None

    generators = []
    for path, row_no, row in _read_rows(generator_file, GENERATOR_COLUMNS):
        try:
            generators.append(
                Generator(
                    id=_parse_str(row, "id"),
                    bus=_parse_str(row, "bus"),
                    kind=_parse_str(row, "kind"),
                    p_max_mw=_parse_float(row, "p_max_mw"),
                    p_min_mw=_parse_float(row, "p_min_mw"),
                    srmc=_parse_float(row, "srmc"),
                    synchronous=_parse_bool(row, "synchronous"),
                )
            )
        except NetworkDataError as exc:
            raise NetworkDataError(f"{path} row {row_no}: {exc}") from None

    if slack_bus is None:
        if generators:
            biggest = max(generators, key=lambda g: (g.p_max_mw, g.id))
            slack_bus = biggest.bus
        elif buses:
            slack_bus = buses[0].id
        else:
            raise NetworkDataError(f"{bus_file}: no buses defined")

    return NetworkModel(
        buses=tuple(buses),
        lines=tuple(lines),
        generators=tuple(generators),
        slack_bus=slack_bus,
        system_base_mva=system_base_mva,
    )


def save_network(model: NetworkModel, bus_file, line_file, generator_file) -> None:
    """Write the model back out in the same CSV schemas (round-trip safe)."""
    with open(bus_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BUS_COLUMNS)
        for b in model.buses:
            writer.writerow([b.id, b.name, repr(b.voltage_kv), b.region])
    with open(line_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LINE_COLUMNS)
        for ln in model.lines:
            writer.writerow(
                [
                    ln.id,
                    ln.from_bus,
                    ln.to_bus,
                    repr(ln.reactance_pu),
                    repr(ln.rating_summer_mw),
                    repr(ln.rating_winter_mw),
                    "true" if ln.in_service else "false",
                ]
            )
    with open(generator_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(GENERATOR_COLUMNS)
        for g in model.generators:
            writer.writerow(
                [
                    g.id,
                    g.bus,
                    g.kind,
                    repr(g.p_max_mw),
                    repr(g.p_min_mw),
                    repr(g.srmc),
                    "true" if g.synchronous else "false",
                ]
            )
