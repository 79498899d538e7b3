"""Static grid model: buses, series-reactance lines with seasonal ratings, generators.

The model is loaded once from CSV files, validated (unique ids, resolved
references, connected in-service graph), and is immutable afterwards so it can
be shared freely between analysis stages.

Every loading check compares with the derated seasonal rating, rating *
(1 - derate) for the hour's season: ``effective_ratings`` is the one source of
those ratings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from .tables import boolean, number, read_columns, text, write_rows

log = logging.getLogger(__name__)

HOURS_PER_YEAR = 8760

GENERATOR_KINDS = ("thermal", "wind", "solar")
# the smallest line rating accepted: 100 |f| / r stays finite for any MW flow
MIN_RATING_MW = 1e-6
# the smallest reactance accepted: the susceptance 1 / x stays finite
MIN_REACTANCE_PU = 1e-6
# the smallest system base accepted: the per-unit injections MW / base stay finite
MIN_BASE_MVA = 1e-6
# bus injections must balance to within this: dispatch's surplus and shortfall
# tests, its bus-share check and the flow solvers' balance check all read it
BALANCE_TOL_MW = 1e-6


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


# buses.csv: header (also the Bus attribute) -> parser, in field order
BUS_COLUMNS = {"id": text, "name": text, "voltage_kv": number, "region": text}


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
        if self.reactance_pu < MIN_REACTANCE_PU:
            raise NetworkDataError(f"line {self.id}: reactance_pu must be >= {MIN_REACTANCE_PU:g}")
        if min(self.rating_summer_mw, self.rating_winter_mw) < MIN_RATING_MW:
            raise NetworkDataError(f"line {self.id}: ratings must be >= {MIN_RATING_MW:g} MW")
        if self.from_bus == self.to_bus:
            raise NetworkDataError(f"line {self.id}: from_bus equals to_bus")


# lines.csv: header (also the Line attribute) -> parser, in field order
LINE_COLUMNS = {
    "id": text, "from_bus": text, "to_bus": text, "reactance_pu": number,
    "rating_summer_mw": number, "rating_winter_mw": number, "in_service": boolean,
}


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


# generators.csv: header (also the Generator attribute) -> parser, in field order
GENERATOR_COLUMNS = {
    "id": text, "bus": text, "kind": text, "p_max_mw": number, "p_min_mw": number,
    "srmc": number, "synchronous": boolean,
}


@dataclass(frozen=True)
class NetworkModel:
    """Validated, immutable grid description.

    The graph over in-service lines must be connected; the slack bus and all
    generator buses must exist. Lookups derived from the model (indices, in-service
    lines, one search for reach, bridges and the buses each bridge cuts off) are cached
    on first use, as are the slack-reduced susceptance pattern and the unscaled
    factorized system of each topology that ``dcflow.build_system`` assembles (one per
    excluded line, plus the intact network) and its last scaled system.
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
        if self.system_base_mva < MIN_BASE_MVA:
            raise NetworkDataError(f"system_base_mva must be >= {MIN_BASE_MVA:g} MVA")
        unreachable = set(bus_ids) - set(self._search[0])
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

    @cached_property
    def bus_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buses)

    @cached_property
    def susceptance_patterns(self) -> dict:
        """Slack-reduced susceptance structure per excluded line (None for
        the intact network), filled by ``dcflow.build_system`` on first use."""
        return {}

    @cached_property
    def susceptance_systems(self) -> dict:
        """Unscaled factorized system per excluded line (None for the intact
        network), filled by ``dcflow.build_system`` on first use."""
        return {}

    @cached_property
    def scaled_system(self) -> dict:
        """The last factorized system ``dcflow.build_system`` built with a
        reactance scale, keyed by (excluded line, (line, scale) pairs): at
        most one entry."""
        return {}

    @cached_property
    def _search(self) -> tuple[tuple[str, ...], dict[str, slice]]:
        """Tarjan's bridge search, one iterative DFS from the slack over in-service lines:
        the buses reached in visit order and, per bridge, the slice of it below the bridge.
        Only the line a bus was entered by is skipped, so parallel lines are no bridges."""
        adjacency: dict[str, list[tuple[str, str]]] = {b.id: [] for b in self.buses}
        for ln in self.in_service_lines:
            adjacency[ln.from_bus].append((ln.to_bus, ln.id))
            adjacency[ln.to_bus].append((ln.from_bus, ln.id))
        order, first, low, below = [self.slack_bus], {self.slack_bus: 0}, {self.slack_bus: 0}, {}
        stack = [(self.slack_bus, None, iter(adjacency[self.slack_bus]))]
        while stack:
            bus, entered_by, edges = stack[-1]
            for other, line in edges:
                if other not in first:
                    first[other] = low[other] = len(order)
                    order.append(other)
                    stack.append((other, line, iter(adjacency[other])))
                    break
                if line != entered_by:
                    low[bus] = min(low[bus], first[other])
            else:  # every line of bus followed: its subtree is order[first[bus]:]
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[bus])
                    if low[bus] == first[bus]:  # no line from below bus reaches above it
                        below[entered_by] = slice(first[bus], len(order))
        return tuple(order), below

    @cached_property
    def bridges(self) -> frozenset[str]:
        """In-service lines whose outage cuts buses off from the slack."""
        return frozenset(self._search[1])

    def cut_off_by(self, line_id: str) -> set[str]:
        """The buses the outage of ``line_id`` cuts off from the slack: none unless a bridge."""
        order, below = self._search
        return set(order[below.get(line_id, slice(0))])


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


def effective_ratings(
    model: NetworkModel, line_ids: tuple[str, ...], calendar: SeasonCalendar
) -> np.ndarray:
    """Effective MW ratings of ``line_ids``, one row per season (summer, then
    winter): each line's seasonal rating * (1 - derate)."""
    lines = [model.line_by_id[lid] for lid in line_ids]
    seasonal = [[ln.rating_summer_mw for ln in lines], [ln.rating_winter_mw for ln in lines]]
    return np.array(seasonal, dtype=float) * (1.0 - calendar.derate_factor)


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


def _check_unique(ids, what: str):
    seen = set()
    for i in ids:
        if i in seen:
            raise NetworkDataError(f"duplicate {what} id {i}")
        seen.add(i)


def _read_rows(path, columns: dict, row, bus_ids, *ends: str) -> dict:
    """Each data row of a network file as a ``row``, by id. A row its type refuses,
    a repeated id or a bus in ``ends`` not in ``bus_ids`` is rejected at its row."""
    what, items = row.__name__.lower(), {}
    table = read_columns(path, columns, NetworkDataError)
    for row_no, values in enumerate(zip(*(c.tolist() for c in table.values())), start=2):
        try:
            item = row(*values)
        except ValueError as exc:
            problem = exc
        else:
            unknown = [b for b in (getattr(item, end) for end in ends) if b not in bus_ids]
            if item.id in items:
                problem = f"duplicate {what} id {item.id}"
            elif unknown:
                problem = f"{what} {item.id} references unknown bus {unknown[0]}"
            else:
                items[item.id] = item
                continue
        raise NetworkDataError(f"{Path(path)} row {row_no}: {problem}")
    return items


def load_network(
    bus_file,
    line_file,
    generator_file,
    slack_bus: str | None = None,
    system_base_mva: float = 100.0,
) -> NetworkModel:
    """Load and validate a network model from the three CSV schema files.

    A repeated id, or a line or generator on a bus that ``bus_file`` lacks, is
    rejected naming the file and the row.

    When ``slack_bus`` is not given, the bus of the largest-capacity generator
    is used (ties broken by generator id), falling back to the first bus.
    """
    buses = _read_rows(bus_file, BUS_COLUMNS, Bus, ())
    lines = _read_rows(line_file, LINE_COLUMNS, Line, buses, "from_bus", "to_bus")
    generators = _read_rows(generator_file, GENERATOR_COLUMNS, Generator, buses, "bus")

    if slack_bus is None:
        if generators:
            biggest = max(generators.values(), key=lambda g: (g.p_max_mw, g.id))
            slack_bus = biggest.bus
        elif buses:
            slack_bus = next(iter(buses))
        else:
            raise NetworkDataError(f"{bus_file}: no buses defined")

    return NetworkModel(
        buses=tuple(buses.values()),
        lines=tuple(lines.values()),
        generators=tuple(generators.values()),
        slack_bus=slack_bus,
        system_base_mva=system_base_mva,
    )


def save_network(model: NetworkModel, bus_file, line_file, generator_file) -> None:
    """Write the model back out in the same CSV schemas (round-trip safe)."""
    for path, columns, items in (
        (bus_file, BUS_COLUMNS, model.buses),
        (line_file, LINE_COLUMNS, model.lines),
        (generator_file, GENERATOR_COLUMNS, model.generators),
    ):
        write_rows(path, columns, map(attrgetter(*columns), items))
