"""The in-process workloads: exact-families and numeric-oracles.

exact-families times the exact solvers, where all the time goes to
exact_algebra, h_calculus, shape_equation and critical_solver and numpy is
never used.  numeric-oracles times the grid oracles (torus_geometry spectral
operators, energetics quadrature, the constant-only residual and the CLI's
identity table) on families solved while each pass is built, untimed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tasks import FAILED, WRONG, Task, Workload, pass_radii, relative_error
from torusvar import cli
from torusvar import critical_solver as cs
from torusvar import energetics as en
from torusvar import torus_geometry as tg
from torusvar.exact_algebra import LinearForm
from torusvar.shape_equation import Lagrangian, el_residual

RSS_WHO = resource.RUSAGE_SELF
GOLDEN = Path(__file__).resolve().parent / "golden" / "exact_families.json"

PURE_H_DEGREES = range(2, 25)
GAUSS_DEGREES = range(4, 15)
# a^2/r^2 for the degree-4 default K-family: both degenerate radii, then the
# pass's generic ratio
KFAMILY_RATIOS = (Fraction(2), Fraction(6, 5), None)
GOLDEN_GENERIC_RATIO = Fraction(3)  # a^2/r^2 of the generic snapshots

VERIFY_PURE_H = range(2, 11)
VERIFY_GAUSS = range(4, 9)
ORACLE_GRIDS = (256, 2048, 16384)
IDENTITY_GRIDS = (256, 2048)
ENERGY_RATIOS = (Fraction(2), Fraction(3, 2), Fraction(3), Fraction(5, 2))
SCAN_RATIOS = tuple(Fraction(num, 20) for num in range(24, 81, 4))  # the CLI default
REFERENCE_GRID = 32768
BENDING = Lagrangian.pure_h({2: 1})
MODE = en.Perturbation({1: 1.0})

NUMERIC_RTOL = 1e-8  # verify's default relative tolerance
IDENTITY_TOL = 1e-9  # identities' default tolerance
CLOSED_FORM_RTOL = 1e-9


def snapshot(report: cs.SolutionReport) -> dict:
    """Everything a golden comparison pins, with exact values as strings."""

    def form(f: LinearForm) -> dict[str, str]:
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


def family_specs(tiny: bool = False) -> list[tuple[str, object]]:
    """(kind, parameter) for every exact-families template."""
    pure = PURE_H_DEGREES if not tiny else range(2, 5)
    gauss = GAUSS_DEGREES if not tiny else range(4, 6)
    return (
        [("pure_h", n) for n in pure]
        + [("gauss", n) for n in gauss]
        + [("kfamily", ratio) for ratio in KFAMILY_RATIOS]
    )


def family_degree_terms(kind: str, param) -> tuple[int, tuple]:
    if kind == "pure_h":
        return param, ()
    if kind == "gauss":
        return param, cs.theorem_kterms(param)
    return 4, cs.default_kterms(4)


def family_solve(kind: str, param, r: Fraction, generic: Fraction) -> tuple[str, Callable[[], cs.SolutionReport]]:
    """Name and solver call of one exact-families template at radius r.

    Templates with a fixed a^2/r^2 (pure-H and the degenerate K-family radii)
    use it; the others use the generic ratio.
    """
    n, terms = family_degree_terms(kind, param)
    if kind == "pure_h":
        return f"pure_h n={n} r={r}", lambda: cs.solve_pure_h(n, r)
    a2 = (param if kind == "kfamily" and param is not None else generic) * r * r
    kterms = terms if kind == "gauss" else None
    return f"{kind} n={n} r={r} a2={a2}", lambda: cs.solve_with_gauss(n, r, kterms, a2)


def golden_key(kind: str, param) -> str:
    """Key of a template's snapshot at r = 1 (generic templates at a^2/r^2 = 3)."""
    n, _ = family_degree_terms(kind, param)
    if kind == "pure_h":
        return f"pure_h n={n}"
    ratio = param if kind == "kfamily" and param is not None else GOLDEN_GENERIC_RATIO
    return f"{kind} n={n} a2/r2={ratio}"


def rescaled(snap: dict, n: int, kterms: tuple, r: Fraction) -> dict:
    """A family's snapshot at r = 1 carried to radius r at the same a^2/r^2.

    Scaling a torus by r maps H to H/r and K to K/r^2, so the coefficient of
    H^k K^m scales as r^(k+2m-2) and the pressure as r^-3; a bound
    coefficient's weight on a free one scales as the ratio of the two.
    """
    lagrangian = cs.family_lagrangian(n, kterms)
    weight = {name: k + 2 * m - 2 for (k, m), name in lagrangian.terms.items()}
    weight[lagrangian.pressure] = -3
    if snap["delta"] not in (None, "0") or any("const" in form for form in snap["assignments"].values()):
        raise ValueError("only homogeneous families with delta 0 or none are rescaled")
    assignments = {
        bound: {free: str(Fraction(c) * r ** (weight[bound] - weight[free])) for free, c in form.items()}
        for bound, form in snap["assignments"].items()
    }
    return {**snap, "assignments": assignments}


def delta_closed_form(n: int, a2: Fraction, r: Fraction) -> Fraction | None:
    """The paper's radii polynomial of the generic degree-4 and -5 K-families."""
    r2 = r * r
    if n == 4:
        return (a2 - 2 * r2) * (a2 - r2) * (5 * a2 - 6 * r2)
    if n == 5:
        return (a2 - r2) ** 2 * (a2 - 2 * r2) * (5 * a2 - 6 * r2)
    return None


class ExactFamilies(Workload):
    """Fixed-ratio families are checked against their golden snapshot at r = 1,
    rescaled to the pass's radius.  Generic-ratio families change with every
    pass, so they are checked by what pins them down: the family's dimension
    from the golden snapshot, the paper's radii polynomial, and a zero exact
    residual at a random member (a linear family of the right dimension all
    of whose members solve the system is the whole solution space).
    """

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.golden = json.loads(GOLDEN.read_text())
        self.templates = [
            (lambda k, kind=kind, param=param: self._task(kind, param, k))
            for kind, param in family_specs(tiny)
        ]

    def _task(self, kind: str, param, k: int) -> Task:
        r, generic = pass_radii(k)
        name, solve = family_solve(kind, param, r, generic)
        n, kterms = family_degree_terms(kind, param)
        golden = self.golden[golden_key(kind, param)]
        fixed_ratio = kind == "pure_h" or (kind == "kfamily" and param is not None)

        def check(report):
            if fixed_ratio:
                if snapshot(report) != rescaled(golden, n, kterms, r):
                    return WRONG, f"{name}: differs from the rescaled golden snapshot"
            else:
                reason = self._generic_check(report, golden, name)
                if reason is not None:
                    return WRONG, f"{name}: {reason}"
            if kind == "pure_h" and report.constraint != Fraction(n * n - n, n * n - n - 1):
                return WRONG, f"{name}: constraint is not (n^2-n)/(n^2-n-1)"
            # the paper's seven-digit coefficient, carried to radius r
            if kind == "pure_h" and n == 6:
                if report.assignments["a5"] != LinearForm({"a1": Fraction(139780065, 448) / r**4}):
                    return WRONG, f"{name}: a5 is not 139780065/448 a1 / r^4"
            return None

        return Task(name, solve, check)

    def _generic_check(self, report: cs.SolutionReport, golden: dict, name: str) -> str | None:
        free, dimension = set(report.free_parameters), len(golden["free"])
        if not report.consistent or report.constraint is not None:
            return "not a consistent fixed-radii family"
        if len(free) != dimension or set(report.assignments) != set(report.unknowns):
            return f"{len(free)} free parameters, the golden family has {dimension}"
        for unknown, form in report.assignments.items():
            if form.constant != 0 or not set(form.terms) <= free:
                return f"{unknown} is not a linear form in the free parameters"
            if unknown in free and form != LinearForm.variable(unknown):
                return f"free parameter {unknown} is not left free"
        if report.delta != delta_closed_form(report.degree, report.a2, report.r):
            return "delta differs from the radii polynomial"
        if snapshot(report)["vanished"] != golden["vanished"]:
            return "a factor of the radii polynomial vanishes at a generic ratio"
        rng = random.Random(name)
        member = {p: Fraction(rng.randint(1, 999), rng.randint(1, 999)) for p in report.free_parameters}
        if not el_residual(report.exact_torus(), report.lagrangian_at(member)).is_zero:
            return "a random member of the family has a nonzero exact residual"
        return None


class NumericOracles(Workload):
    """Each pass solves its own families and builds its own shapes while the
    pass is built, so no timed call ever sees an input twice."""

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        pure = VERIFY_PURE_H if not tiny else range(2, 4)
        gauss = VERIFY_GAUSS if not tiny else range(4, 5)
        grids = ORACLE_GRIDS if not tiny else ORACLE_GRIDS[:1]
        identity_grids = IDENTITY_GRIDS if not tiny else IDENTITY_GRIDS[:1]
        # second variations at r = 1; the value scales as 1/r^2 (H^2 dA is
        # scale invariant and the mode is a displacement)
        self.reference = {
            ratio: en.second_variation(tg.TorusShape.from_ratio(ratio, 1), BENDING, 0.0, MODE, REFERENCE_GRID)
            for ratio in ENERGY_RATIOS
        }
        self.templates = (
            [(lambda k, n=n: self._verify("pure_h", n, k)) for n in pure]
            + [(lambda k, n=n: self._verify("gauss", n, k)) for n in gauss]
            + [(lambda k, g=g: self._energy(g, k)) for g in grids]
            + [(lambda k, g=g: self._second_variation(g, k)) for g in grids]
            + [self._scan]
            + [(lambda k, g=g: self._identities(g, k)) for g in identity_grids]
        )

    def _verify(self, kind: str, n: int, k: int) -> Task:
        r, generic = pass_radii(k)
        if kind == "pure_h":
            report = cs.solve_pure_h(n, r)
        else:
            report = cs.solve_with_gauss(n, r, cs.theorem_kterms(n), generic * r * r)
        values = {name: Fraction(0) for name in report.free_parameters}
        values["a1"] = Fraction(1)
        name = f"verify {kind} n={n} r={report.r} a2={report.a2}"

        def run():
            torus = report.exact_torus()
            grid = tg.suggest_grid(torus.to_shape())
            return grid, cs.verify_solution(torus, report, values, grid)

        def check(out):
            grid, result = out
            if not result.exact:
                return WRONG, f"{name}: exact residual is not zero"
            if not result.numeric_relative < NUMERIC_RTOL:
                return FAILED, (
                    f"verify {kind} n={n}: under-resolved, relative residual "
                    f"{result.numeric_relative:.2e} at grid {grid}"
                )
            return None

        return Task(name, run, check)

    def _energy(self, grid: int, k: int) -> Task:
        ratio, r = ENERGY_RATIOS[k % len(ENERGY_RATIOS)], pass_radii(k)[0]
        shape = tg.TorusShape.from_ratio(ratio, r)
        name = f"curvature_energy ratio={ratio} r={r} grid={grid}"
        expected = willmore_closed_form(ratio)

        def check(report):
            err = relative_error(report.area_term, expected)
            return None if err <= CLOSED_FORM_RTOL else (WRONG, f"{name}: off the closed form by {err:.2e}")

        return Task(name, lambda: en.curvature_energy(shape, BENDING, 0.0, grid), check)

    def _second_variation(self, grid: int, k: int) -> Task:
        ratio, r = ENERGY_RATIOS[k % len(ENERGY_RATIOS)], pass_radii(k)[0]
        shape = tg.TorusShape.from_ratio(ratio, r)
        name = f"second_variation ratio={ratio} r={r} grid={grid}"
        expected = self.reference[ratio] / float(r) ** 2

        def check(value):
            err = relative_error(value, expected)
            return None if err <= CLOSED_FORM_RTOL else (
                WRONG, f"{name}: off the rescaled grid-{REFERENCE_GRID} value by {err:.2e}"
            )

        return Task(name, lambda: en.second_variation(shape, BENDING, 0.0, MODE, grid), check)

    def _scan(self, k: int) -> Task:
        r = pass_radii(k)[0]
        shapes = [tg.TorusShape.from_ratio(rho, r) for rho in SCAN_RATIOS]
        name = f"willmore_scan r={r}"

        def check(rows):
            err = max(relative_error(v, willmore_closed_form(rho)) for rho, (_, v) in zip(SCAN_RATIOS, rows))
            return None if err <= CLOSED_FORM_RTOL else (WRONG, f"{name}: off the closed form by {err:.2e}")

        return Task(name, lambda: en.willmore_scan(shapes), check)

    def _identities(self, grid: int, k: int) -> Task:
        r, generic = pass_radii(k)
        argv = ["identities", "--a2", str(generic * r * r), "--r", str(r), "--grid", str(grid), "--format", "json"]
        name = " ".join(argv[:7])

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(out):
            code, text = out
            if code != 0:
                return WRONG, f"{name}: exit code {code}"
            worst = json.loads(text)["residuals"]["numeric_max"]
            return None if worst < IDENTITY_TOL else (WRONG, f"{name}: worst error {worst:.2e}")

        return Task(name, run, check)


def willmore_closed_form(ratio: Fraction) -> float:
    """Integral of H^2 over a torus with a^2/r^2 = ratio: pi^2 s^2 / sqrt(s^2 - 1)."""
    return math.pi**2 * float(ratio) / math.sqrt(float(ratio) - 1.0)


WORKLOADS = {"exact-families": ExactFamilies, "numeric-oracles": NumericOracles}
