"""Fuzzed scenario files: malformed input is a named error, never a traceback.

Each example mutates a valid ``paper-3bus`` scenario file: lines are dropped,
duplicated or inserted, and single fields are replaced by tokens that stress
the parser and the validators (non-numbers, non-finite and out-of-range
values, unknown buses and flags).
"""

from __future__ import annotations

import contextlib
import io

import pytest

from flexhedge.cli import main
from flexhedge.scenario import (
    ScenarioError,
    ScenarioSpec,
    generate_scenario,
    load_scenario_file,
    write_scenario_file,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOKENS = ["x", "", "-", "k", "slack", "slack,k", "k,k", "0", "-1", "1", "2", "3", "4", "25",
          "99999999999999999999", "0.0", "-0.0", "1e-300", "5e-324", "1e400", "-1e400", "inf", "-inf",
          "nan", "1.5", "0x10", "[buses]", "[lines]", "#", "é"]


def preset_text() -> str:
    scenario = generate_scenario(ScenarioSpec(seed=3, line_limit_case="finite"))
    fobj = io.StringIO()
    write_scenario_file(scenario.network, scenario.hours, fobj)
    return fobj.getvalue()


BASE_LINES = preset_text().splitlines()


@st.composite
def mutated_files(draw) -> str:
    lines = list(BASE_LINES)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["field", "field", "drop", "duplicate", "insert"]))
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "field":
            fields = lines[at].split() or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(
                st.one_of(st.sampled_from(TOKENS), st.floats().map(repr)))
            lines[at] = " ".join(fields)
        elif kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        else:
            lines.insert(at, " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=7))))
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


FUZZ = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None,
                           suppress_health_check=list(hypothesis.HealthCheck))


@FUZZ
@hypothesis.given(mutated_files())
def test_load_scenario_file_raises_only_scenario_errors(text):
    try:
        load_scenario_file(io.StringIO(text))
    except ScenarioError:
        pass


@FUZZ
@hypothesis.given(mutated_files())
def test_cli_rejects_mutated_files_with_error_lines(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "scenario.txt"
    path.write_text(text)

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        return rc, out.getvalue(), err.getvalue().splitlines()

    rc, out, err = run(["validate", str(path)])
    assert rc in (0, 1)
    if rc:
        assert any(line.startswith("error: ") for line in err)

    rc, _, err = run(["run", "--input", str(path), "--allow-infeasible",
                      "--out", str(tmp / "out")])
    assert rc in (0, 1, 2)
    if rc:
        assert any(line.startswith("error: ") for line in err)
