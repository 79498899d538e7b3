import numpy as np
import pytest

from pfcplan import cases
from pfcplan.network import (
    Bus,
    DisconnectedNetworkError,
    Generator,
    HOURS_PER_YEAR,
    Line,
    NetworkDataError,
    NetworkModel,
    SeasonCalendar,
    effective_rating,
    filter_monitored_lines,
    load_network,
    save_network,
)

from conftest import connected_components, two_bus_model


def _write(path, text):
    path.write_text(text, encoding="utf-8")


BUSES_2 = "id,name,voltage_kv,region\nB1,Alpha,110,West\nB2,Beta,110,East\n"
LINES_2 = (
    "id,from_bus,to_bus,reactance_pu,rating_summer_mw,rating_winter_mw,in_service\n"
    "L1,B1,B2,0.1,100,120,true\n"
)
GENS_2 = (
    "id,bus,kind,p_max_mw,p_min_mw,srmc,synchronous\n"
    "G1,B1,thermal,200,0,35.5,true\n"
)


def test_load_smallest_valid_model(tmp_path):
    _write(tmp_path / "buses.csv", BUSES_2)
    _write(tmp_path / "lines.csv", LINES_2)
    _write(tmp_path / "generators.csv", GENS_2)
    model = load_network(
        tmp_path / "buses.csv", tmp_path / "lines.csv", tmp_path / "generators.csv"
    )
    assert len(model.buses) == 2
    assert len(model.lines) == 1
    assert len(model.generators) == 1
    assert model.slack_bus == "B1"  # bus of the largest generator
    assert model.lines[0].rating_winter_mw == 120.0


def test_dangling_bus_reference_names_the_bus(tmp_path):
    _write(tmp_path / "buses.csv", BUSES_2)
    _write(
        tmp_path / "lines.csv",
        "id,from_bus,to_bus,reactance_pu,rating_summer_mw,rating_winter_mw,in_service\n"
        "L1,B1,B9,0.1,100,120,true\n",
    )
    _write(tmp_path / "generators.csv", GENS_2)
    with pytest.raises(NetworkDataError, match="B9"):
        load_network(
            tmp_path / "buses.csv", tmp_path / "lines.csv", tmp_path / "generators.csv"
        )


def test_disconnected_graph_lists_isolated_buses(tmp_path):
    _write(
        tmp_path / "buses.csv",
        "id,name,voltage_kv,region\n"
        "B1,A,110,W\nB2,B,110,W\nB3,C,110,W\nB4,D,110,W\n",
    )
    _write(
        tmp_path / "lines.csv",
        "id,from_bus,to_bus,reactance_pu,rating_summer_mw,rating_winter_mw,in_service\n"
        "L1,B1,B2,0.1,100,100,true\n"
        "L2,B2,B3,0.1,100,100,true\n",
    )
    _write(tmp_path / "generators.csv", GENS_2)
    with pytest.raises(DisconnectedNetworkError) as err:
        load_network(
            tmp_path / "buses.csv", tmp_path / "lines.csv", tmp_path / "generators.csv"
        )
    assert err.value.isolated == {"B4"}


def test_parse_error_reports_row_number(tmp_path):
    _write(tmp_path / "buses.csv", BUSES_2)
    _write(
        tmp_path / "lines.csv",
        "id,from_bus,to_bus,reactance_pu,rating_summer_mw,rating_winter_mw,in_service\n"
        "L1,B1,B2,not_a_number,100,120,true\n",
    )
    _write(tmp_path / "generators.csv", GENS_2)
    with pytest.raises(NetworkDataError, match="row 2") as err:
        load_network(
            tmp_path / "buses.csv", tmp_path / "lines.csv", tmp_path / "generators.csv"
        )
    assert str(err.value).count("lines.csv") == 1


def test_duplicate_id_rejected(tmp_path):
    _write(
        tmp_path / "buses.csv",
        "id,name,voltage_kv,region\nB1,A,110,W\nB1,B,110,E\n",
    )
    _write(tmp_path / "lines.csv", LINES_2)
    _write(tmp_path / "generators.csv", GENS_2)
    with pytest.raises(NetworkDataError, match="duplicate bus id B1"):
        load_network(
            tmp_path / "buses.csv", tmp_path / "lines.csv", tmp_path / "generators.csv"
        )


def test_roundtrip_preserves_model(tmp_path):
    model = cases.mesh6()
    save_network(
        model, tmp_path / "b.csv", tmp_path / "l.csv", tmp_path / "g.csv"
    )
    again = load_network(
        tmp_path / "b.csv", tmp_path / "l.csv", tmp_path / "g.csv",
        slack_bus=model.slack_bus,
    )
    assert again == model


def test_connectivity_check_matches_union_find_oracle():
    for model in (cases.triangle(), cases.mesh6(), cases.grid30(), cases.radial_pair()):
        assert len(connected_components(model)) == 1  # constructor accepted it

    with pytest.raises(DisconnectedNetworkError):
        NetworkModel(
            buses=(
                Bus("B1", "A", 110, "W"),
                Bus("B2", "B", 110, "W"),
                Bus("B3", "C", 110, "W"),
            ),
            lines=(Line("L1", "B1", "B2", 0.1, 100, 100),),
            generators=(),
            slack_bus="B1",
        )


def test_out_of_service_line_can_disconnect():
    with pytest.raises(DisconnectedNetworkError):
        NetworkModel(
            buses=(Bus("B1", "A", 110, "W"), Bus("B2", "B", 110, "W")),
            lines=(Line("L1", "B1", "B2", 0.1, 100, 100, in_service=False),),
            generators=(),
            slack_bus="B1",
        )


# -- seasonal ratings ---------------------------------------------------------


def test_effective_rating_summer_10pct_derate():
    line = Line("L1", "B1", "B2", 0.1, 100.0, 120.0)
    calendar = SeasonCalendar.from_months(derate_factor=0.10)
    july_hour = 4500  # mid-year lands in April..September
    assert calendar.season(july_hour) == "summer"
    assert effective_rating(line, july_hour, calendar) == pytest.approx(90.0)


def test_effective_rating_zero_derate_is_identity():
    line = Line("L1", "B1", "B2", 0.1, 100.0, 120.0)
    calendar = SeasonCalendar.from_months(derate_factor=0.0)
    assert effective_rating(line, 4500, calendar) == 100.0
    assert effective_rating(line, 0, calendar) == 120.0


def test_effective_rating_winter():
    line = Line("L1", "B1", "B2", 0.1, 100.0, 120.0)
    calendar = SeasonCalendar.from_months(derate_factor=0.10)
    assert calendar.season(0) == "winter"  # January 1st, 00:00
    assert effective_rating(line, 0, calendar) == pytest.approx(108.0)


def test_effective_rating_hour_out_of_range():
    line = Line("L1", "B1", "B2", 0.1, 100.0, 120.0)
    calendar = SeasonCalendar.from_months()
    with pytest.raises(ValueError):
        effective_rating(line, HOURS_PER_YEAR, calendar)


def test_effective_never_exceeds_seasonal():
    line = Line("L1", "B1", "B2", 0.1, 100.0, 120.0)
    derated = SeasonCalendar.from_months(derate_factor=0.10)
    exact = SeasonCalendar.from_months(derate_factor=0.0)
    for hour in (0, 2160, 4380, 6552, 8759):
        seasonal = 100.0 if derated.season(hour) == "summer" else 120.0
        assert effective_rating(line, hour, derated) < seasonal
        assert effective_rating(line, hour, exact) == seasonal


def test_season_boundaries_default_april_to_september():
    calendar = SeasonCalendar.from_months()
    hours_per_day = 24
    march_31 = (31 + 28 + 31) * hours_per_day - 1
    assert calendar.season(march_31) == "winter"
    assert calendar.season(march_31 + 1) == "summer"  # April 1st
    sep_30 = (31 + 28 + 31 + 30 + 31 + 30 + 31 + 31 + 30) * hours_per_day - 1
    assert calendar.season(sep_30) == "summer"
    assert calendar.season(sep_30 + 1) == "winter"  # October 1st


def test_calendar_rejects_bad_derate():
    with pytest.raises(ValueError):
        SeasonCalendar.from_months(derate_factor=0.5)
    with pytest.raises(ValueError):
        SeasonCalendar(summer_mask=np.ones(100, dtype=bool))


# -- voltage filter -----------------------------------------------------------


def _mixed_voltage_model():
    return NetworkModel(
        buses=(
            Bus("B1", "A", 110, "W"),
            Bus("B2", "B", 110, "W"),
            Bus("B3", "C", 220, "W"),
        ),
        lines=(
            Line("L1", "B1", "B2", 0.1, 100, 100),
            Line("L2", "B2", "B3", 0.1, 100, 100),  # 110/220 boundary
        ),
        generators=(Generator("G1", "B1", "thermal", 100, 0, 20, True),),
        slack_bus="B1",
    )


def test_filter_keeps_only_matching_voltage():
    model = _mixed_voltage_model()
    assert filter_monitored_lines(model, {110}) == {"L1"}


def test_filter_all_levels_returns_all_in_service():
    model = _mixed_voltage_model()
    assert filter_monitored_lines(model, {110, 220}) == {"L1", "L2"}


def test_filter_no_match_is_empty_with_warning(caplog):
    model = _mixed_voltage_model()
    with caplog.at_level("WARNING", logger="pfcplan.network"):
        result = filter_monitored_lines(model, {400})
    assert result == set()
    assert any("matches no in-service lines" in msg for msg in caplog.messages)


def test_filter_rejects_empty_level_set():
    with pytest.raises(ValueError):
        filter_monitored_lines(two_bus_model(), set())


def test_filter_skips_out_of_service_lines():
    model = NetworkModel(
        buses=(Bus("B1", "A", 110, "W"), Bus("B2", "B", 110, "W")),
        lines=(
            Line("L1", "B1", "B2", 0.1, 100, 100),
            Line("L2", "B1", "B2", 0.1, 100, 100, in_service=False),
        ),
        generators=(),
        slack_bus="B1",
    )
    assert filter_monitored_lines(model, {110}) == {"L1"}
