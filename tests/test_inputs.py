"""Malformed input CSVs end the CLI with exit 2 and one line naming the file.

Each case writes the mesh6 study (every input file has at least two data
rows, and res_availability.csv has a generator column), breaks one file and
runs ``pfcplan dispatch``. Row numbers count the header as row 1.
"""

import json
from pathlib import Path

import pytest

from pfcplan import cases
from pfcplan.cli import main


def _set(row, col, value):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)

    return edit


def _drop_column(col):
    def edit(lines):
        for i, line in enumerate(lines):
            cells = line.split(",")
            del cells[col]
            lines[i] = ",".join(cells)

    return edit


def _truncate(row, n_cells):
    def edit(lines):
        lines[row] = ",".join(lines[row].split(",")[:n_cells])

    return edit


def _drop_row(row):
    def edit(lines):
        del lines[row]

    return edit


def _repeat_row(row):
    def edit(lines):
        lines.insert(row + 1, lines[row])

    return edit


# (file, edit, the row the message must name, or None to check no row);
# None as the edit deletes the file
CASES = {
    "buses-bad-number": ("buses", _set(1, 2, "abc"), 2),
    "buses-empty-id": ("buses", _set(2, 0, ""), 3),
    "buses-missing-column": ("buses", _drop_column(3), None),
    "buses-missing-file": ("buses", None, None),
    "buses-short-row": ("buses", _truncate(2, 3), 3),
    "lines-bad-number": ("lines", _set(1, 3, "abc"), 2),
    "lines-bad-boolean": ("lines", _set(1, 6, "maybe"), 2),
    "lines-empty-id": ("lines", _set(1, 0, ""), 2),
    "lines-missing-column": ("lines", _drop_column(6), None),
    "lines-missing-file": ("lines", None, None),
    "lines-zero-reactance": ("lines", _set(1, 3, "0"), 2),
    "generators-bad-number": ("generators", _set(1, 3, "abc"), 2),
    "generators-bad-boolean": ("generators", _set(1, 6, "yes"), 2),
    "generators-empty-id": ("generators", _set(1, 0, " "), 2),
    "generators-missing-column": ("generators", _drop_column(2), None),
    "generators-missing-file": ("generators", None, None),
    "demand-bad-number": ("demand", _set(1, 1, "abc"), 2),
    "demand-empty-hour": ("demand", _set(1, 0, ""), 2),
    "demand-missing-column": ("demand", _drop_column(1), None),
    "demand-missing-file": ("demand", None, None),
    "demand-hour-out-of-range": ("demand", _set(1, 0, "8760"), 2),
    "demand-missing-hour": ("demand", _drop_row(1), None),
    "demand-nan": ("demand", _set(1, 1, "nan"), None),
    "bus_shares-bad-number": ("bus_shares", _set(1, 1, "abc"), 2),
    "bus_shares-missing-column": ("bus_shares", _drop_column(1), None),
    "bus_shares-missing-file": ("bus_shares", None, None),
    "res_availability-bad-number": ("res_availability", _set(1, 1, "abc"), 2),
    "res_availability-empty-hour": ("res_availability", _set(1, 0, ""), 2),
    "res_availability-missing-column": ("res_availability", _drop_column(0), None),
    "res_availability-missing-file": ("res_availability", None, None),
    "res_availability-hour-out-of-range": ("res_availability", _set(1, 0, "-1"), 2),
    "res_availability-missing-hour": ("res_availability", _drop_row(1), None),
    "res_availability-nan": ("res_availability", _set(1, 1, "nan"), None),
}


def _broken_study(tmp_path, name, edit):
    paths = cases.write_study_inputs(cases.mesh6_case(), tmp_path / "inputs")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": paths, "out_dir": str(tmp_path / "out")}))
    path = Path(paths[name])
    if edit is None:
        path.unlink()
    else:
        text = path.read_text(encoding="utf-8")
        newline = "\r\n" if "\r\n" in text else "\n"
        lines = text.split(newline)[:-1]
        edit(lines)
        path.write_text(newline.join(lines) + newline, encoding="utf-8")
    return config, path


def _one_error_line(tmp_path, capsys, name, edit, row):
    config, path = _broken_study(tmp_path, name, edit)
    assert main(["dispatch", "--config", str(config)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].count(str(path)) == 1
    if row is not None:
        assert f"row {row}" in lines[0]
    return lines[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_input_exits_2_naming_the_file_once(tmp_path, capsys, case):
    _one_error_line(tmp_path, capsys, *CASES[case])


# rows that used to load: a repeated hour or bus overwrote the earlier row, an
# empty bus id surfaced later as an unknown bus without the file, and a
# non-finite reactance was taken as a number; a share on a bus the network
# lacks, a repeated network id and a line or generator on an unknown bus were
# rejected without the file or the row
REJECTED_ROWS = {
    "buses-repeated-id": ("buses", _repeat_row(1), 3, "duplicate bus id"),
    "lines-repeated-id": ("lines", _repeat_row(2), 4, "duplicate line id"),
    "lines-unknown-bus": ("lines", _set(2, 2, "Z9"), 3, "references unknown bus Z9"),
    "generators-repeated-id": ("generators", _repeat_row(1), 3, "duplicate generator id"),
    "generators-unknown-bus": (
        "generators", _set(1, 1, "Z9"), 2, "references unknown bus Z9"
    ),
    "demand-repeated-hour": ("demand", _set(2, 0, "0"), 3, "hour 0 repeated"),
    "res_availability-repeated-hour": (
        "res_availability", _set(2, 0, "0"), 3, "hour 0 repeated"
    ),
    "bus_shares-repeated-bus": ("bus_shares", _repeat_row(1), 3, "bus M2 repeated"),
    "bus_shares-empty-id": ("bus_shares", _set(1, 0, ""), 2, "column bus"),
    "bus_shares-unknown-bus": (
        "bus_shares", _set(2, 0, "Z9"), 3, "bus Z9 not in the network"
    ),
    "lines-nan-reactance": ("lines", _set(1, 3, "nan"), 2, "finite"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_ROWS))
def test_row_that_used_to_load_is_rejected(tmp_path, capsys, case):
    *args, words = REJECTED_ROWS[case]
    assert words in _one_error_line(tmp_path, capsys, *args)


CELL_ERRORS = {
    "buses-empty-id": "column id",
    "buses-short-row": "column region",
    "lines-bad-boolean": "column in_service",
    "demand-bad-number": "column demand_mw",
    "res_availability-bad-number": "column W1",
}


@pytest.mark.parametrize("case", sorted(CELL_ERRORS))
def test_cell_error_names_the_column(tmp_path, capsys, case):
    assert CELL_ERRORS[case] in _one_error_line(tmp_path, capsys, *CASES[case])
