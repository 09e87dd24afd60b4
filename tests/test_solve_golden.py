"""``torusvar solve`` output stays byte-identical to the recorded files of
``tests/solve_golden/`` (see ``record_solve_golden.py``)."""

import re
import shlex

import pytest

from torusvar.cli import main

import record_solve_golden
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


def test_the_recorder_writes_only_missing_files_and_names_changed_ones(tmp_path, monkeypatch):
    monkeypatch.setattr(record_solve_golden, "GOLDEN", tmp_path)
    monkeypatch.setattr(record_solve_golden, "CASES", CASES[:2])
    record_solve_golden.main()
    files = sorted(tmp_path.iterdir())
    assert len(files) == 4
    recorded = {f: f.read_bytes() for f in files}
    files[0].write_bytes(b"stale")
    files[1].unlink()
    with pytest.raises(SystemExit, match=re.escape(files[0].name)) as info:
        record_solve_golden.main()
    assert info.value.code != 0
    assert files[0].read_bytes() == b"stale"
    assert {f: f.read_bytes() for f in files[1:]} == {f: recorded[f] for f in files[1:]}
