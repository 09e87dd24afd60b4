"""The exact path never loads numpy, ``dataclasses`` or ``inspect``.

``import torusvar``, the README ``solve`` examples, ``--help``, ``--version``,
the options rejected before any work and a numeric command's bad torus,
coefficient or mode run without numpy, ``torusvar.torus_geometry`` or
``torusvar.energetics``.  Each check runs in a
fresh interpreter, so the imports of other tests do not count; the numeric
commands, run the same way, do load numpy, so the probe is not vacuous.
The same steps add neither ``dataclasses`` nor ``inspect`` to the modules
the interpreter had loaded when the probe started.  numpy loads
``inspect`` itself, so the numeric commands are outside that check.
``import torusvar`` itself loads no submodule at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusvar

from test_cli import _readme_commands

SRC = str(Path(torusvar.__file__).resolve().parent.parent)

# runs ``cli.main`` on each argv of argv[1] (a JSON list) in turn, and prints
# the numeric modules loaded after ``import torusvar`` and after each step,
# and which of ``dataclasses`` and ``inspect`` were loaded since the probe's
# own imports (a .pth file may load either at start-up)
PROBE = """
import contextlib, io, json, sys

BARE = set(sys.modules)

def loaded():
    return [m for m in ("numpy", "torusvar.torus_geometry", "torusvar.energetics") if m in sys.modules]

def added():
    return [m for m in ("dataclasses", "inspect") if m in sys.modules and m not in BARE]

import torusvar
submodules = [m for m in sys.modules if m.startswith("torusvar.")]
report = [{"step": "import torusvar", "loaded": loaded(), "added": added(), "submodules": submodules}]
from torusvar.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    report.append({"step": argv, "code": code, "err": err.getvalue(), "loaded": loaded(), "added": added()})
print(json.dumps(report))
"""


def probe(*steps: list[str]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(steps)], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_import_torusvar_loads_no_numeric_module():
    (first,) = probe()
    assert first["submodules"] == []
    assert first["loaded"] == []
    assert first["added"] == []


def test_the_exact_path_loads_no_numeric_module():
    solves = [argv for argv in _readme_commands() if argv[0] == "solve"]
    assert len(solves) == 3
    rejected = [
        ["solve", "--degree", "3", "--r", "1", "--grid", "64"],
        ["identities", "--a2", "2", "--r", "1", "--grid", "131072"],
        ["solve", "--degree", "512"],
    ]
    report = probe(*solves, *(argv + ["--format", "json"] for argv in solves), ["--version"], ["--help"], *rejected)
    for step in report:
        assert step["loaded"] == [], step["step"]
        assert step["added"] == [], step["step"]
    assert [step["code"] for step in report[1:]] == [0] * 8 + [4] * 3
    # a --grid that solve does not take, and the --grid cap, are rejected
    # with their messages before numpy is needed
    assert report[-3]["err"] == "torusvar: error: unrecognized arguments: --grid 64\n"
    assert report[-2]["err"] == "torusvar: error: --grid must be at most 65536, got 131072\n"


NUMERIC = ("energy", "scan", "second-variation", "verify")
RADIUS_RULE = "need a^2 > r^2 and r > 0, got a^2=1, r=1"
R_SQUARED = "r^2 is about 1e400, outside the float range [2.225e-308, 1.798e+308]"
COEFFICIENT = (
    "the coefficient of H^10 K^0 is about 1e319, outside the float range [2.225e-308, 1.798e+308] "
    "of the numeric commands"
)


def test_bad_input_to_the_numeric_commands_loads_no_numeric_module():
    # every radius, ratio, coefficient and mode check runs before numpy loads
    steps = [
        (["energy", "--degree", "2", "--ratio", "1"], RADIUS_RULE),
        (["scan", "--ratios", "1"], RADIUS_RULE),
        (["second-variation", "--degree", "2", "--ratio", "1"], RADIUS_RULE),
        (["verify", "--degree", "4", "--with-gauss", "--a2", "1"], RADIUS_RULE),
        *(([command, "--degree", "2", "--r", "1e200"], R_SQUARED) for command in NUMERIC),
        *(([command, "--degree", "24", "--r", "1e-20"], COEFFICIENT) for command in NUMERIC),
        (
            ["second-variation", "--degree", "2", "--modes", "cos64=1"],
            "--modes: mode 64 is not below grid/4 = 64, the Nyquist mode of grid/2",
        ),
    ]
    report = probe(*(argv for argv, _ in steps))
    for step, (argv, message) in zip(report[1:], steps, strict=True):
        assert step["step"] == argv
        assert (step["code"], step["err"]) == (4, f"torusvar: error: {message}\n"), argv
        assert step["loaded"] == [], argv
        assert step["added"] == [], argv


@pytest.mark.parametrize(
    "argv",
    [["verify", "--degree", "3", "--r", "1"], ["energy", "--degree", "2", "--ratio", "2", "--r", "1"]],
)
def test_numeric_commands_load_numpy(argv):
    first, step = probe(argv)
    assert first["loaded"] == []
    assert step["code"] == 0
    assert "numpy" in step["loaded"]
