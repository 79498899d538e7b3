"""Bundled study cases: small analytic networks and a 30-bus screening grid.

Every case is deterministic and self-contained: a network model plus the
demand profile and renewable availability needed to drive a full study year.
The small cases are sized so their flows, overloads, and PFC outcomes are
reproducible by hand (current-divider arithmetic); the grid case exists for
scale and oracle testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import INPUT_KEYS
from .dispatch import (
    AVAILABILITY_COLUMNS,
    BUS_SHARE_COLUMNS,
    DEMAND_COLUMNS,
    DemandProfile,
    ResAvailability,
)
from .network import (
    HOURS_PER_YEAR,
    Bus,
    Generator,
    Line,
    NetworkModel,
    SeasonCalendar,
    save_network,
)
from .tables import number, write_rows


@dataclass(frozen=True)
class StudyCase:
    """A network with the inputs needed to run it through the pipeline."""

    name: str
    model: NetworkModel
    profile: DemandProfile
    availability: ResAvailability
    calendar: SeasonCalendar
    snsp_cap: float = 0.65


def constant_demand(mw: float) -> np.ndarray:
    return np.full(HOURS_PER_YEAR, float(mw))


def flat_calendar() -> SeasonCalendar:
    """All-summer calendar; handy when a case sets effective ratings directly."""
    return SeasonCalendar(
        summer_mask=np.ones(HOURS_PER_YEAR, dtype=bool), derate_factor=0.0
    )


def _bus(bid: str, region: str = "Core") -> Bus:
    return Bus(id=bid, name=bid, voltage_kv=110.0, region=region)


def _line(lid, f, t, x, rating, rating_winter=None) -> Line:
    return Line(
        id=lid,
        from_bus=f,
        to_bus=t,
        reactance_pu=x,
        rating_summer_mw=rating,
        rating_winter_mw=rating_winter if rating_winter is not None else rating,
    )


def triangle(ratings: dict[str, float] | None = None) -> NetworkModel:
    """Three buses in a loop, all reactances 1 pu: the hand-solvable mesh.

    A 90 MW transfer from B1 to B3 splits 60 MW on the direct line and 30 MW
    on the two-line path.
    """
    ratings = ratings or {}
    return NetworkModel(
        buses=(_bus("B1"), _bus("B2"), _bus("B3")),
        lines=(
            _line("L12", "B1", "B2", 1.0, ratings.get("L12", 200.0)),
            _line("L13", "B1", "B3", 1.0, ratings.get("L13", 200.0)),
            _line("L23", "B2", "B3", 1.0, ratings.get("L23", 200.0)),
        ),
        generators=(
            Generator(
                id="G1", bus="B1", kind="thermal", p_max_mw=300.0, p_min_mw=0.0,
                srmc=25.0, synchronous=True,
            ),
        ),
        slack_bus="B3",
    )


def triangle_case(ratings=None) -> StudyCase:
    model = triangle(ratings=ratings)
    return StudyCase(
        name="triangle",
        model=model,
        profile=DemandProfile(
            demand_mw=constant_demand(90.0),
            bus_shares={"B3": 1.0},
        ),
        availability=ResAvailability(factors={}),
        calendar=flat_calendar(),
    )


def radial_pair() -> NetworkModel:
    """Two buses joined by a single bridge line: no parallel path exists."""
    return NetworkModel(
        buses=(_bus("R1"), _bus("R2")),
        lines=(_line("L1", "R1", "R2", 0.5, 100.0),),
        generators=(
            Generator(
                id="G1", bus="R1", kind="thermal", p_max_mw=200.0, p_min_mw=0.0,
                srmc=30.0, synchronous=True,
            ),
        ),
        slack_bus="R1",
    )


def mesh6() -> NetworkModel:
    """Six-bus ring with two chords: meshed, no bridges, mixed reactances."""
    return NetworkModel(
        buses=(
            _bus("M1", "West"), _bus("M2", "West"), _bus("M3", "North"),
            _bus("M4", "North"), _bus("M5", "East"), _bus("M6", "East"),
        ),
        lines=(
            _line("L1", "M1", "M2", 0.20, 150.0, 165.0),
            _line("L2", "M2", "M3", 0.25, 150.0, 165.0),
            _line("L3", "M3", "M4", 0.20, 150.0, 165.0),
            _line("L4", "M4", "M5", 0.25, 150.0, 165.0),
            _line("L5", "M5", "M6", 0.20, 150.0, 165.0),
            _line("L6", "M6", "M1", 0.25, 150.0, 165.0),
            _line("L7", "M1", "M4", 0.30, 120.0, 130.0),
            _line("L8", "M2", "M5", 0.35, 120.0, 130.0),
        ),
        generators=(
            Generator(
                id="G1", bus="M1", kind="thermal", p_max_mw=400.0, p_min_mw=0.0,
                srmc=20.0, synchronous=True,
            ),
            Generator(
                id="G2", bus="M3", kind="thermal", p_max_mw=300.0, p_min_mw=0.0,
                srmc=35.0, synchronous=True,
            ),
            Generator(
                id="W1", bus="M5", kind="wind", p_max_mw=150.0, p_min_mw=0.0,
                srmc=0.0, synchronous=False,
            ),
        ),
        slack_bus="M1",
    )


def mesh6_case(demand_mw: float = 250.0) -> StudyCase:
    model = mesh6()
    wind = 0.5 + 0.4 * np.sin(2 * np.pi * np.arange(HOURS_PER_YEAR) / 24.0)
    return StudyCase(
        name="mesh6",
        model=model,
        profile=DemandProfile(
            demand_mw=constant_demand(demand_mw),
            bus_shares={"M2": 0.2, "M4": 0.3, "M5": 0.2, "M6": 0.3},
        ),
        availability=ResAvailability(factors={"W1": np.clip(wind, 0.0, 1.0)}),
        calendar=SeasonCalendar.from_months(),
    )


# grid30: 5 x 6 lattice with eight interior edges removed (41 lines, still
# two-edge-connected, so every single outage is non-islanding)
_GRID_ROWS = 5
_GRID_COLS = 6
_GRID_DROPPED = {
    ((1, 1), (1, 2)),
    ((2, 3), (2, 4)),
    ((3, 1), (3, 2)),
    ((1, 4), (2, 4)),
    ((2, 1), (3, 1)),
    ((0, 2), (1, 2)),
    ((3, 3), (4, 3)),
    ((2, 2), (2, 3)),
}
_GRID_REGIONS = ("West", "West", "Midlands", "Midlands", "East", "East")

# summer ratings sized against the case's own N-1 flow envelope: every line
# keeps a 5% margin over the worst single-outage flow of the reference year
# except three deliberately weak corridors (one per region) rated 10-12%
# below their envelope, so Stage 1 stays clean and only N-1 screening finds
# the weak spots
_GRID_SUMMER_RATINGS = {
    "N01-N02": 191, "N01-N07": 225, "N02-N03": 105, "N02-N08": 127,
    "N03-N04": 61, "N04-N05": 70, "N04-N10": 55, "N05-N06": 68,
    "N05-N11": 33, "N06-N12": 68, "N07-N08": 130, "N07-N13": 98,
    "N08-N14": 92, "N09-N10": 72, "N09-N15": 52, "N10-N11": 94,
    "N10-N16": 58, "N11-N12": 103, "N12-N18": 161, "N13-N14": 88,
    "N13-N19": 117, "N14-N15": 105, "N15-N21": 84, "N16-N22": 89,
    "N17-N18": 60, "N17-N23": 51, "N18-N24": 146, "N19-N20": 84,
    "N19-N25": 69, "N20-N26": 49, "N21-N22": 146, "N21-N27": 96,
    "N22-N23": 237, "N23-N24": 212, "N23-N29": 202, "N24-N30": 357,
    "N25-N26": 69, "N26-N27": 117, "N27-N28": 197, "N28-N29": 197,
    "N29-N30": 357,
}


def _grid_bus_id(r: int, c: int) -> str:
    return f"N{r * _GRID_COLS + c + 1:02d}"


def grid30() -> NetworkModel:
    """Synthetic 30-bus, 41-line meshed 110 kV grid for year-scale screening.

    Built on a lattice so the topology is obvious and deterministic;
    reactances and ratings vary by position. Thermal plant sits on the east
    side and wind on the west, which loads the west-to-east corridors.
    """
    buses = tuple(
        Bus(
            id=_grid_bus_id(r, c),
            name=f"Station {_grid_bus_id(r, c)}",
            voltage_kv=110.0,
            region=_GRID_REGIONS[c],
        )
        for r in range(_GRID_ROWS)
        for c in range(_GRID_COLS)
    )
    lines = []
    for r in range(_GRID_ROWS):
        for c in range(_GRID_COLS):
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr >= _GRID_ROWS or cc >= _GRID_COLS:
                    continue
                if ((r, c), (rr, cc)) in _GRID_DROPPED:
                    continue
                f, t = _grid_bus_id(r, c), _grid_bus_id(rr, cc)
                x = 0.05 + 0.005 * ((7 * r + 3 * c + 5 * dr) % 6)
                rating = float(_GRID_SUMMER_RATINGS[f"{f}-{t}"])
                lines.append(
                    _line(f"{f}-{t}", f, t, x, rating, float(np.ceil(rating * 1.1)))
                )
    generators = (
        Generator(id="T1", bus="N30", kind="thermal", p_max_mw=350.0,
                  p_min_mw=0.0, srmc=18.0, synchronous=True),
        Generator(id="T2", bus="N24", kind="thermal", p_max_mw=300.0,
                  p_min_mw=0.0, srmc=32.0, synchronous=True),
        Generator(id="T3", bus="N06", kind="thermal", p_max_mw=250.0,
                  p_min_mw=0.0, srmc=45.0, synchronous=True),
        Generator(id="T4", bus="N12", kind="thermal", p_max_mw=300.0,
                  p_min_mw=0.0, srmc=55.0, synchronous=True),
        Generator(id="W1", bus="N01", kind="wind", p_max_mw=200.0,
                  p_min_mw=0.0, srmc=0.0, synchronous=False),
        Generator(id="W2", bus="N19", kind="wind", p_max_mw=160.0,
                  p_min_mw=0.0, srmc=0.0, synchronous=False),
    )
    return NetworkModel(
        buses=buses, lines=tuple(lines), generators=generators, slack_bus="N30"
    )


def grid30_case() -> StudyCase:
    """Full study year on the lattice grid: varying demand and wind."""
    model = grid30()
    hours = np.arange(HOURS_PER_YEAR)
    demand = (
        300.0
        + 60.0 * np.sin(2 * np.pi * hours / HOURS_PER_YEAR)
        + 40.0 * np.sin(2 * np.pi * hours / 24.0)
    )
    wind1 = np.clip(0.55 + 0.45 * np.sin(2 * np.pi * hours / 24.0 + 1.0), 0.0, 1.0)
    wind2 = np.clip(0.45 + 0.45 * np.sin(2 * np.pi * hours / 24.0 + 2.5), 0.0, 1.0)
    shares = {
        "N03": 0.10, "N08": 0.10, "N09": 0.08, "N10": 0.07, "N14": 0.10,
        "N15": 0.10, "N16": 0.05, "N20": 0.10, "N21": 0.10, "N22": 0.08,
        "N27": 0.12,
    }
    return StudyCase(
        name="grid30",
        model=model,
        profile=DemandProfile(demand_mw=demand, bus_shares=shares),
        availability=ResAvailability(factors={"W1": wind1, "W2": wind2}),
        calendar=SeasonCalendar.from_months(),
    )


def parallel_paths_case() -> StudyCase:
    """Overload that a capped reactance increase fully resolves.

    Four buses, three parallel corridors from the generation bus P1 to the
    load bus P4. Losing the direct P1-P4 line overloads the P2 corridor; a
    ~28% increase on the overloaded line pushes enough flow to the P3
    corridor, whose lines have headroom, so nothing else overloads.
    """
    model = NetworkModel(
        buses=(_bus("P1"), _bus("P2"), _bus("P3"), _bus("P4")),
        lines=(
            _line("LA", "P1", "P2", 0.05, 100.0),
            _line("LB", "P2", "P4", 0.25, 52.0),
            _line("LC", "P1", "P3", 0.20, 60.0),
            _line("LD", "P3", "P4", 0.20, 60.0),
            _line("LE", "P1", "P4", 0.35, 100.0),
        ),
        generators=(
            Generator(id="G1", bus="P1", kind="thermal", p_max_mw=150.0,
                      p_min_mw=0.0, srmc=20.0, synchronous=True),
        ),
        slack_bus="P1",
    )
    return StudyCase(
        name="parallel_paths",
        model=model,
        profile=DemandProfile(
            demand_mw=constant_demand(100.0), bus_shares={"P4": 1.0}
        ),
        availability=ResAvailability(factors={}),
        calendar=flat_calendar(),
    )


def side_effect_case() -> StudyCase:
    """Overload whose relief overloads a neighbouring line instead.

    Losing either line of the Q4 corridor overloads the direct Q1-Q2 line.
    The only diversion path runs through Q3, and its Q3-Q2 leg is rated so
    tightly (already near its limit) that the diverted flow pushes it over:
    the target can be cleared but never cleanly, so the outcome is partial
    with the Q3-Q2 line reported as the side effect.
    """
    model = NetworkModel(
        buses=(_bus("Q1"), _bus("Q2"), _bus("Q3"), _bus("Q4")),
        lines=(
            _line("T", "Q1", "Q2", 0.20, 70.0),
            _line("A", "Q1", "Q3", 0.30, 60.0),
            _line("B", "Q3", "Q2", 0.30, 26.0),
            _line("K", "Q1", "Q4", 0.10, 90.0),
            _line("M", "Q4", "Q2", 0.10, 90.0),
        ),
        generators=(
            Generator(id="G1", bus="Q1", kind="thermal", p_max_mw=150.0,
                      p_min_mw=0.0, srmc=20.0, synchronous=True),
        ),
        slack_bus="Q1",
    )
    return StudyCase(
        name="side_effect",
        model=model,
        profile=DemandProfile(
            demand_mw=constant_demand(100.0), bus_shares={"Q2": 1.0}
        ),
        availability=ResAvailability(factors={}),
        calendar=flat_calendar(),
    )


def radial_feed_case() -> StudyCase:
    """Overload that no reactance increase can move.

    Losing the direct R1-R3 line forces the whole load over the R2 string,
    overloading R1-R2. With the direct line out there is no parallel path
    left, so the target's flow is insensitive to any reactance change.
    """
    model = NetworkModel(
        buses=(_bus("R1"), _bus("R2"), _bus("R3")),
        lines=(
            _line("T", "R1", "R2", 0.20, 75.0),
            _line("S", "R2", "R3", 0.20, 120.0),
            _line("K", "R1", "R3", 0.20, 135.0),
        ),
        generators=(
            Generator(id="G1", bus="R1", kind="thermal", p_max_mw=150.0,
                      p_min_mw=0.0, srmc=20.0, synchronous=True),
        ),
        slack_bus="R1",
    )
    return StudyCase(
        name="radial_feed",
        model=model,
        profile=DemandProfile(
            demand_mw=constant_demand(90.0), bus_shares={"R3": 1.0}
        ),
        availability=ResAvailability(factors={}),
        calendar=flat_calendar(),
    )


def capped_relief_case(
    target_rating: float = 55.0,
    demand_levels: tuple[float, float, float] = (90.0, 97.5, 70.0),
) -> StudyCase:
    """Overload cleared at the cap for only half of its hours.

    A duplicated C1-C3 corridor keeps the network meshed when one circuit
    trips. At the lower demand level the remaining circuit's overload clears
    within the 40% cap; at the higher level even the cap is not enough, so
    half of the 2,750 overloaded hours resolve and half do not. The rating
    and the three demand levels are parameters so the same topology can also
    exercise cap overrides.
    """
    model = NetworkModel(
        buses=(_bus("C1"), _bus("C2"), _bus("C3")),
        lines=(
            _line("L13a", "C1", "C3", 1.0, target_rating),
            _line("L13b", "C1", "C3", 1.0, 100.0),
            _line("L12", "C1", "C2", 1.0, 60.0),
            _line("L23", "C2", "C3", 1.0, 60.0),
        ),
        generators=(
            Generator(id="G1", bus="C1", kind="thermal", p_max_mw=200.0,
                      p_min_mw=0.0, srmc=20.0, synchronous=True),
        ),
        slack_bus="C1",
    )
    low, high, quiet = demand_levels
    demand = np.full(HOURS_PER_YEAR, quiet)
    demand[:1375] = low
    demand[1375:2750] = high
    return StudyCase(
        name="capped_relief",
        model=model,
        profile=DemandProfile(demand_mw=demand, bus_shares={"C3": 1.0}),
        availability=ResAvailability(factors={}),
        calendar=flat_calendar(),
    )


def write_study_inputs(case: StudyCase, directory) -> dict[str, str]:
    """Write the case's six input CSVs into a directory; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {key: str(directory / f"{key}.csv") for key in INPUT_KEYS}
    save_network(case.model, paths["buses"], paths["lines"], paths["generators"])
    # these three files end lines with "\n", the network files with csv's
    # "\r\n": the config hashes pinned in tests/golden_sha256.json cover the
    # input bytes, so changing either changes every pinned meta and summary
    profile, factors = case.profile, case.availability.factors
    hours = range(HOURS_PER_YEAR)
    write_rows(
        paths["demand"], DEMAND_COLUMNS, zip(hours, profile.demand_mw.tolist()), "\n"
    )
    shares = [(bus, float(share)) for bus, share in profile.bus_shares.items()]
    write_rows(paths["bus_shares"], BUS_SHARE_COLUMNS, shares, "\n")
    gen_ids = sorted(factors)
    columns = {**AVAILABILITY_COLUMNS, **dict.fromkeys(gen_ids, number)}
    series = zip(hours, *(factors[g].tolist() for g in gen_ids))
    write_rows(paths["res_availability"], columns, series, "\n")
    return paths
