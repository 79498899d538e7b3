"""Every input ``run-all`` can be handed ends in a documented exit code.

Each example writes the triangle study, or the side_effect study where
Stage 3 sizes a device, sets one cell (a header cell included) of one input
CSV, or one ``config.json`` value, to an edge value and runs ``main`` in
process. Whatever the value, the run must exit 0, 2, 3 or 4 with at most
one stderr line, and an exit of 2 or 4 must say why in that one ``error:``
or ``solver error:`` line. Whole rows and headers of the triangle study
are checked the same way, each input file reshaped in turn (header
dropped, header only, empty, a row dropped or repeated, a column dropped,
repeated or added, a short row, a blank line, a byte that is not UTF-8),
and there each exit code is pinned. No exception may escape but
``ReportConsistencyError``, which keeps its traceback on purpose. Warnings
are errors in this suite, so an overflow warning fails the property too.
The plain ``ValueError`` guards of the library (``GUARDS``) are shown out
of the CLI's reach: each is on run-all's path and never fires there, the
config values that would trip them exit 2 first, and an edited screen
output is refused as stale before Stage 3 reads it.
"""

import collections
import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfcplan import cases, cli, dcflow, network, screening, siting
from pfcplan.cli import main
from pfcplan.config import INPUT_KEYS, StudyConfig
from pfcplan.report import ReportConsistencyError

from test_cli import _study

# zero, signed zero, subnormals, tiny normals, huge values, empty cells,
# text, booleans, non-finite numbers and a dangling reference
EDGE_CELLS = ("0", "0.0", "-0.0", "-1", "1e-320", "5e-324", "1e-300", "1e308", "-1e308",
              "", "abc", "true", "false", "nan", "inf", "Z9")
EDGE_VALUES = (0, 0.0, -0.0, -1, 1e-320, 1e-300, 1e308, "", "abc", "Z9", True, False,
               None, [], {}, float("nan"))
CONFIG_KEYS = [field.name for field in dataclasses.fields(StudyConfig)]
ROWS = 4  # the header and the first three data rows


@st.composite
def cell_edits(draw):
    """(file, row, column, value): one cell of the first rows of one input
    file, set to an edge value or, for an int, to the same column's cell of
    that row (a repeated id, bus or hour)."""
    key = draw(st.sampled_from(INPUT_KEYS))
    row = draw(st.integers(0, ROWS - 1))
    column = draw(st.integers(0, 6))
    value = draw(st.sampled_from(EDGE_CELLS) | st.integers(1, ROWS - 1))
    return key, row, column, value


def _edit_cell(path: Path, row: int, column: int, value) -> None:
    """Set one cell of ``path``, or copy it from row ``value`` for an int; a
    row or column the file lacks leaves it as it is."""
    lines = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    if isinstance(value, int):
        value = lines[value][column] if value < len(lines) and column < len(lines[value]) else ""
    if row < len(lines) and column < len(lines[row]):
        lines[row][column] = value
        path.write_text("".join(",".join(cells) + "\n" for cells in lines), encoding="utf-8")


def _exits_cleanly(config: Path) -> int | None:
    """Run the study; its exit code, or None for a ``ReportConsistencyError``."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run-all", "--config", str(config)])
    except ReportConsistencyError:
        return None
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), (code, lines)
    assert len(lines) <= 1, lines
    if code in (2, 4):
        assert lines and lines[0].startswith(("error: ", "solver error: ")), lines
    return code


# the triangle, and side_effect, where Stage 3 sizes a device and checks its side effects
FUZZED_CASES = pytest.mark.parametrize("case", ["triangle_case", "side_effect_case"])


@FUZZED_CASES
@settings(derandomize=True, max_examples=40, deadline=None)
@given(cell_edits())
@example(("lines", 1, 4, "1e-320"))  # a subnormal rating
@example(("lines", 1, 3, "1e-320"))  # a subnormal reactance
@example(("lines", 2, 0, 1))  # a repeated line id
@example(("buses", 3, 0, "Z9"))  # a line end and the slack on a missing bus
def test_an_edited_input_cell_exits_with_a_documented_code(tmp_path_factory, case, edit):
    key, row, column, value = edit
    config, _ = _study(tmp_path_factory.mktemp("cell"), getattr(cases, case)())
    inputs = json.loads(config.read_text(encoding="utf-8"))["inputs"]
    _edit_cell(Path(inputs[key]), row, column, value)
    _exits_cleanly(config)


@FUZZED_CASES
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(CONFIG_KEYS), st.sampled_from(EDGE_VALUES))
@example("system_base_mva", 1e-320)
@example("slack_bus", "Z9")
def test_an_edited_config_value_exits_with_a_documented_code(
    tmp_path_factory, case, key, value
):
    config, _ = _study(tmp_path_factory.mktemp("config"), getattr(cases, case)())
    study = json.loads(config.read_text(encoding="utf-8"))
    study[key] = value
    config.write_text(json.dumps(study), encoding="utf-8")
    _exits_cleanly(config)


def _cut(line: str, column: int) -> str:
    cells = line.split(",")
    del cells[column]
    return ",".join(cells)


# whole-file shapes of an input CSV's lines (header first)
SHAPES = {
    "header dropped": lambda lines: lines[1:],
    "header only": lambda lines: lines[:1],
    "empty file": lambda lines: [],
    "row dropped": lambda lines: lines[:1] + lines[2:],
    "row repeated": lambda lines: lines[:2] + lines[1:],
    "header line repeated": lambda lines: lines[:1] + lines,
    "first column dropped": lambda lines: [_cut(line, 0) for line in lines],
    "last column dropped": lambda lines: [_cut(line, -1) for line in lines],
    "column repeated": lambda lines: [f"{line},{line.split(',')[0]}" for line in lines],
    "extra column": lambda lines: [lines[0] + ",extra", *(line + ",1" for line in lines[1:])],
    "short row": lambda lines: [lines[0], _cut(lines[1], -1), *lines[2:]],
    "blank line": lambda lines: [*lines[:2], "", *lines[2:]],
    # the lone byte 0xe9 (written through surrogateescape), which is not UTF-8
    "not UTF-8": lambda lines: [lines[0], lines[1] + "\udce9", *lines[2:]],
}
# every other shape of every file exits 2
SHAPE_EXITS = {
    **{(key, "blank line"): 0 for key in INPUT_KEYS},
    **{(key, "extra column"): 0 for key in INPUT_KEYS if key != "res_availability"},
    ("lines", "row dropped"): 0,  # the triangle less one line is a radial pair
    ("generators", "header only"): 3,  # no generator serves any hour
    ("generators", "row dropped"): 3,
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("key", INPUT_KEYS)
def test_a_reshaped_input_file_exits_with_its_pinned_code(tmp_path, key, shape):
    config, _ = _study(tmp_path, cases.triangle_case())
    path = Path(json.loads(config.read_text(encoding="utf-8"))["inputs"][key])
    lines = SHAPES[shape](path.read_text(encoding="utf-8").splitlines())
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    assert _exits_cleanly(config) == SHAPE_EXITS.get((key, shape), 2)


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path):
    config, _ = _study(tmp_path, cases.triangle_case())
    config.write_bytes(b"\xe9" + config.read_bytes())
    assert _exits_cleanly(config) == 2


# The plain ValueErrors that guard library callers, and why ``main`` cannot
# reach them: each guard is on run-all's path, and the CLI builds its
# arguments so that it cannot fire. A stage's outputs are read back only when
# their bytes verify, so an edited ``overloads.csv`` never reaches Stage 3.
GUARDS = (
    # injection_matrix has one column per model bus
    (dcflow, "reduced_injections"),
    # Stage 3's outages are record contingencies: in-service lines that are
    # no bridge (Stage 2 skips bridge outages)
    (dcflow, "check_outage"),
    # load_config refuses a derate outside [0, 0.5) and summer months
    # outside 1..12, and from_months builds all 8,760 hours
    (network.SeasonCalendar, "__post_init__"),
    # Stage 3's pair table holds the hours of overload records only, and
    # every record hour lies in the year
    (siting, "pair_table"),
    # load_config and --voltage-levels refuse an empty level list
    (cli, "filter_monitored_lines"),
    # the base flows and the LODF come from the screen's one build_system
    (screening, "stage2_scan"),
    # targets are lines with an overload record, in the model, and no record
    # has its own line as its contingency (the LODF diagonal is never screened)
    (siting, "candidate_locations"),
    (siting, "assess_target"),
)


def test_the_guarding_value_errors_are_unreachable_from_main(tmp_path, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in GUARDS:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    config, out = _study(tmp_path, cases.grid30_case())
    assert _exits_cleanly(config) == 0
    assert all(calls[name] for _, name in GUARDS)
    for key, value in (("derate", 0.5), ("summer_months", [13]), ("voltage_levels", [])):
        edited = tmp_path / f"{key}.json"
        edited.write_text(json.dumps({**json.loads(config.read_text()), key: value}))
        assert _exits_cleanly(edited) == 2

    # a record whose contingency is its own line, added to the screen's
    # output, makes the screen stale rather than reaching Stage 3
    overloads = out / "overloads.csv"
    rows = overloads.read_text(encoding="utf-8").splitlines()
    line = next(row for row in rows[1:] if row.endswith(",overload")).split(",")
    line[2] = line[0]
    overloads.write_text("\n".join([*rows, ",".join(line)]) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["site-pfc", "--config", str(config)]) == 2
    assert "screen output missing or stale" in err.getvalue()
