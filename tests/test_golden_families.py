"""Every family the benchmark solves, pinned to its golden snapshot at r = 1.

The snapshots in ``perfbench/golden/exact_families.json`` were recorded from
a trusted commit and are only read here: a change to any free-parameter
choice, bound set, assignment, constraint, radii polynomial or vanished
factor fails this test, not only the benchmark's output check.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from torusvar.critical_solver import default_kterms, solve_pure_h, solve_with_gauss, theorem_kterms

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "exact_families.json").read_text()
)


def _families():
    """(golden key, solver call) of every snapshot: pure-H n = 2..24, the
    theorem K-ladder n = 4..14 at a^2 = 3, the degree-4 default K-family at
    a^2 = 2, 6/5 and 3."""
    out = [(f"pure_h n={n}", lambda n=n: solve_pure_h(n, 1)) for n in range(2, 25)]
    out += [
        (f"gauss n={n} a2/r2=3", lambda n=n: solve_with_gauss(n, 1, theorem_kterms(n), 3))
        for n in range(4, 15)
    ]
    out += [
        (f"kfamily n=4 a2/r2={a2}", lambda a2=a2: solve_with_gauss(4, 1, default_kterms(4), a2))
        for a2 in (Fraction(2), Fraction(6, 5), Fraction(3))
    ]
    return out


def _snapshot(report) -> dict:
    def form(f):
        out = {name: str(c) for name, c in sorted(f.terms.items())}
        if f.constant != 0:
            out["const"] = str(f.constant)
        return out

    return {
        "free": list(report.free_parameters),
        "bound": sorted(set(report.unknowns) - set(report.free_parameters)),
        "assignments": {name: form(f) for name, f in sorted(report.assignments.items())},
        "constraint": None if report.constraint is None else str(report.constraint),
        "delta": None if report.delta is None else str(report.delta),
        "vanished": list(report.degeneracy.vanished) if report.degeneracy else [],
    }


def test_every_snapshot_has_a_family():
    assert sorted(key for key, _ in _families()) == sorted(GOLDEN)


@pytest.mark.parametrize("key, solve", _families(), ids=[key for key, _ in _families()])
def test_family_matches_its_golden_snapshot(key, solve):
    assert _snapshot(solve()) == GOLDEN[key]
