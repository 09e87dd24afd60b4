"""``torusvar solve`` output stays byte-identical to the recorded files of
``tests/solve_golden/`` (see ``record_solve_golden.py``)."""

import shlex

import pytest

from torusvar.cli import main

from record_solve_golden import CASES, path
from test_cli import _readme_commands


def test_every_readme_solve_example_is_recorded():
    readme = [shlex.join(argv) for argv in _readme_commands() if argv[0] == "solve"]
    assert readme and set(readme) <= set(CASES)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", CASES)
def test_solve_output_matches_the_recorded_bytes(tmp_path, case, fmt):
    out = tmp_path / "out"
    assert main([*case.split(), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == path(case, fmt).read_bytes()
