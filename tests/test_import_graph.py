"""The exact path never loads numpy.

``import torusvar``, the README ``solve`` examples, ``--help``, ``--version``
and the options rejected before any work run without numpy,
``torusvar.torus_geometry`` or ``torusvar.energetics``.  Each check runs in a
fresh interpreter, so the imports of other tests do not count; the numeric
commands, run the same way, do load numpy, so the probe is not vacuous.
"""

import importlib
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
# the numeric modules loaded after ``import torusvar`` and after each step
PROBE = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("numpy", "torusvar.torus_geometry", "torusvar.energetics") if m in sys.modules]

import torusvar
report = [{"step": "import torusvar", "loaded": loaded()}]
from torusvar.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    report.append({"step": argv, "code": code, "err": err.getvalue(), "loaded": loaded()})
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
    assert first["loaded"] == []


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
    assert [step["code"] for step in report[1:]] == [0] * 8 + [4] * 3
    # a --grid that solve does not take, and the --grid cap, are rejected
    # with their messages before numpy is needed
    assert report[-3]["err"] == "torusvar: error: unrecognized arguments: --grid 64\n"
    assert report[-2]["err"] == "torusvar: error: --grid must be at most 65536, got 131072\n"


@pytest.mark.parametrize(
    "argv",
    [["verify", "--degree", "3", "--r", "1"], ["energy", "--degree", "2", "--ratio", "2", "--r", "1"]],
)
def test_numeric_commands_load_numpy(argv):
    first, step = probe(argv)
    assert first["loaded"] == []
    assert step["code"] == 0
    assert "numpy" in step["loaded"]


def test_every_root_name_is_its_modules_object():
    assert torusvar.__all__[0] == "__version__"
    for name in torusvar.__all__[1:]:
        value = getattr(torusvar, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("torusvar."), name
        assert value is getattr(home, name), name
    assert set(torusvar.__all__) <= set(dir(torusvar))
    with pytest.raises(AttributeError):
        torusvar.no_such_name
