"""Every input ``run-all`` can be handed ends in a documented exit code.

Each example writes the triangle study, sets one cell (a header cell
included) of one input CSV, or one ``config.json`` value, to an edge value
and runs ``main`` in process. Whatever the value, the run must exit 0, 2,
3 or 4 with at most one stderr line, and an exit of 2 or 4 must say why in
that one ``error:`` or ``solver error:`` line. No exception may escape but
``ReportConsistencyError``, which keeps its traceback on purpose. Warnings
are errors in this suite, so an overflow warning fails the property too.
"""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfcplan import cases
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


def _exits_cleanly(config: Path) -> None:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run-all", "--config", str(config)])
    except ReportConsistencyError:
        return
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), (code, lines)
    assert len(lines) <= 1, lines
    if code in (2, 4):
        assert lines and lines[0].startswith(("error: ", "solver error: ")), lines


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cell_edits())
@example(("lines", 1, 4, "1e-320"))  # a subnormal rating
@example(("lines", 1, 3, "1e-320"))  # a subnormal reactance
@example(("lines", 2, 0, 1))  # a repeated line id
@example(("buses", 3, 0, "Z9"))  # a line end and the slack on a missing bus
def test_an_edited_input_cell_exits_with_a_documented_code(tmp_path_factory, edit):
    key, row, column, value = edit
    config, _ = _study(tmp_path_factory.mktemp("cell"), cases.triangle_case())
    inputs = json.loads(config.read_text(encoding="utf-8"))["inputs"]
    _edit_cell(Path(inputs[key]), row, column, value)
    _exits_cleanly(config)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(CONFIG_KEYS), st.sampled_from(EDGE_VALUES))
@example("system_base_mva", 1e-320)
@example("slack_bus", "Z9")
def test_an_edited_config_value_exits_with_a_documented_code(tmp_path_factory, key, value):
    config, _ = _study(tmp_path_factory.mktemp("config"), cases.triangle_case())
    study = json.loads(config.read_text(encoding="utf-8"))
    study[key] = value
    config.write_text(json.dumps(study), encoding="utf-8")
    _exits_cleanly(config)
