"""Fuzzed config files: ``run --config`` and ``sweep --config`` end in exit 0,
or in exit 1 or 2 with an ``error:`` line, never in a traceback.

Each example mutates a valid config with a ``[run]`` and a ``[sweep]``
section: lines are dropped, duplicated or inserted, and single tokens are
replaced by section headers, known and unknown keys, and values that stress
the converters and the validators.  ``--out`` is always given on the command
line, which wins over the config, so nothing is written outside a temporary
directory.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from flexhedge.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASE_LINES = """\
[run]
preset = paper-3bus
case = finite
pi_des = 70
seed = 7
bus = 3
allow_infeasible = yes
[sweep]
preset = paper-3bus
pi = 60,70,80
cases = infinite,finite
seed = 7
bus = 3
""".splitlines()

TOKENS = ["[run]", "[sweep]", "[other]", "[", "=", "#", "", "preset", "input", "case", "pi_des",
          "pi", "cases", "bus", "seed", "out", "formats", "allow_infeasible", "line_limit", "foo",
          "paper-3bus", "nope", "finite", "infinite", "weird", "x", "-", "0", "-1", "1", "2", "4",
          "25", "99999999999999999999", "1e400", "-1e400", "inf", "nan", "70,71", ",", "60,,80",
          ",".join(["70"] * 24), "yes", "no", "csv", "json", "é"]


@st.composite
def mutated_configs(draw) -> str:
    lines = list(BASE_LINES)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["token", "token", "drop", "duplicate", "insert"]))
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "token":
            fields = lines[at].split() or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(
                st.one_of(st.sampled_from(TOKENS), st.floats().map(repr)))
            lines[at] = " ".join(fields)
        elif kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        else:
            lines.insert(at, " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=4))))
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(mutated_configs())
def test_cli_rejects_mutated_configs_with_error_lines(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("config")
    config = tmp / "study.cfg"
    config.write_text(text)
    for command in ("run", "sweep"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(config), "--out", str(tmp / command)])
        assert rc in (0, 1, 2)
        if rc:
            assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
