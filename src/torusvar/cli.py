"""Command-line front end.

Subcommands: solve, verify, energy, second-variation, identities, scan.
Exact values print as canonical fractions, floats with 15 significant
digits, so output is reproducible byte for byte for a fixed invocation.

Exit codes: 0 success, 2 inconsistent system, 3 tolerance breach, 4 bad
input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__, critical_solver, h_calculus, torus_geometry
from .critical_solver import (
    SolutionReport,
    default_kterms,
    solve_pure_h,
    solve_with_gauss,
    verify_solution,
)
from .energetics import Perturbation, curvature_energy, second_variation
from .exact_algebra import HPoly, LinearForm, format_fraction, parse_fraction
from .h_calculus import ExactTorus
from .shape_equation import Lagrangian
from .torus_geometry import DEFAULT_GRID, TorusShape, grid_nodes

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_TOLERANCE = 3
EXIT_BAD_INPUT = 4

_TERM_NAMES = {"K": (0, 1)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _fmt_float(x: float) -> str:
    return f"{float(x):.15g}"


def _parse_terms(spec: str) -> tuple[tuple[int, int], ...]:
    """Parse a term list like ``K2,HK,H2K`` into (H power, K power) pairs."""
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        i = 0
        h_pow = 0
        k_pow = 0
        if i < len(token) and token[i] == "H":
            i += 1
            j = i
            while j < len(token) and token[j].isdigit():
                j += 1
            h_pow = int(token[i:j]) if j > i else 1
            i = j
        if i < len(token) and token[i] == "K":
            i += 1
            j = i
            while j < len(token) and token[j].isdigit():
                j += 1
            k_pow = int(token[i:j]) if j > i else 1
            i = j
        if i != len(token) or k_pow < 1:
            raise ValueError(f"bad term {token!r}: expected forms like K2, HK, H2K")
        out.append((h_pow, k_pow))
    if not out:
        raise ValueError("empty term list")
    return tuple(out)


def _form_to_dict(form: LinearForm) -> dict[str, str]:
    out = {name: format_fraction(c) for name, c in sorted(form.terms.items())}
    if form.constant != 0:
        out["const"] = format_fraction(form.constant)
    return out


def _form_to_text(form: LinearForm) -> str:
    bits = [f"{format_fraction(c)}*{name}" for name, c in sorted(form.terms.items())]
    if form.constant != 0 or not bits:
        bits.append(format_fraction(form.constant))
    return " + ".join(bits)


def _report_json(report: SolutionReport) -> dict:
    coefficients = {
        name: _form_to_dict(report.assignments[name]) for name in report.unknowns
    }
    degeneracy = None
    if report.delta is not None or report.degeneracy is not None:
        degeneracy = {
            "delta": format_fraction(report.delta) if report.delta is not None else None,
            "vanished": list(report.degeneracy.vanished) if report.degeneracy else [],
            "note": report.degeneracy.note if report.degeneracy else "",
        }
    return {
        "constraint": format_fraction(report.constraint) if report.constraint is not None else None,
        "coefficients": coefficients,
        "free_parameters": list(report.free_parameters),
        "degeneracy": degeneracy,
        "consistent": report.consistent,
        "degree": report.degree,
        "r": format_fraction(report.r),
        "a2": format_fraction(report.a2) if report.a2 is not None else None,
        "kterms": [list(km) for km in report.kterms],
    }


def _emit(payload: dict, text: str, args) -> None:
    if args.format == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _base_payload(command: str, **inputs) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "constraint": None,
        "coefficients": None,
        "degeneracy": None,
        "energy": None,
        "residuals": None,
        "version": __version__,
    }


def _check_grid(args) -> None:
    """Reject a --grid the spectral oracles cannot use: odd or below 16
    points; second-variation also evaluates at grid/2, so it needs 32."""
    if args.grid is None:
        return
    if args.command == "second-variation":
        minimum, reason = 32, " (second-variation also evaluates at grid/2)"
    else:
        minimum, reason = 16, ""
    if args.grid < minimum or args.grid % 2:
        raise ValueError(f"--grid must be an even integer >= {minimum}{reason}, got {args.grid}")


def _solve_from_args(args) -> SolutionReport:
    r = parse_fraction(args.r)
    if args.with_gauss:
        terms = _parse_terms(args.terms) if args.terms else default_kterms(args.degree)
        a2 = parse_fraction(args.a2) if args.a2 else None
        return solve_with_gauss(args.degree, r, terms, a2)
    for flag, value in (("--a2", args.a2), ("--terms", args.terms)):
        if value:
            raise ValueError(f"{flag} only applies together with --with-gauss")
    return solve_pure_h(args.degree, r)


def cmd_solve(args) -> int:
    report = _solve_from_args(args)
    lines = [f"degree {report.degree} solve (r = {format_fraction(report.r)})"]
    if report.constraint is not None:
        lines.append(f"constraint a^2/r^2 = {format_fraction(report.constraint)}")
    if report.a2 is not None:
        lines.append(f"a^2 = {format_fraction(report.a2)}")
    if report.delta is not None:
        lines.append(f"radii polynomial delta = {format_fraction(report.delta)}")
    if report.degeneracy is not None:
        lines.append(f"degenerate: {report.degeneracy.note}")
    lines.append(f"free parameters: {', '.join(report.free_parameters)}")
    lines.append("coefficients:")
    for name in report.unknowns:
        lines.append(f"  {name} = {_form_to_text(report.assignments[name])}")
    if not report.consistent:
        lines.append(
            "inconsistent system: offending H powers "
            + ", ".join(str(i) for i in report.offending_rows)
        )
    payload = _base_payload(
        "solve",
        degree=args.degree,
        r=args.r,
        a2=args.a2,
        terms=args.terms,
        with_gauss=bool(args.with_gauss),
    )
    rep = _report_json(report)
    payload["constraint"] = rep["constraint"]
    payload["coefficients"] = rep["coefficients"]
    payload["degeneracy"] = rep["degeneracy"]
    payload["report"] = rep
    _emit(payload, "\n".join(lines) + "\n", args)
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def _default_free_values(report: SolutionReport) -> dict[str, Fraction]:
    values = {name: Fraction(0) for name in report.free_parameters}
    if "a1" in values:
        values["a1"] = Fraction(1)
    return values


def cmd_verify(args) -> int:
    report = _solve_from_args(args)
    if not report.consistent:
        print("inconsistent system; nothing to verify", file=sys.stderr)
        return EXIT_INCONSISTENT
    if report.a2 is not None:
        torus = report.exact_torus()
    else:
        torus = ExactTorus(Fraction(3) * report.r**2, report.r)
    values = _default_free_values(report)
    grid = args.grid or torus_geometry.suggest_grid(torus.to_shape())
    result = verify_solution(torus, report, values, grid)
    ok = result.exact and result.numeric_relative < args.tolerance
    text = (
        f"exact residual zero: {result.exact}\n"
        f"numeric max residual: {_fmt_float(result.numeric_max_residual)}\n"
        f"numeric relative residual: {_fmt_float(result.numeric_relative)}\n"
        f"tolerance (relative): {_fmt_float(args.tolerance)}\n"
    )
    payload = _base_payload(
        "verify",
        degree=args.degree,
        r=args.r,
        a2=args.a2,
        terms=args.terms,
        with_gauss=bool(args.with_gauss),
        grid=args.grid,
    )
    rep = _report_json(report)
    payload["constraint"] = rep["constraint"]
    payload["coefficients"] = rep["coefficients"]
    payload["degeneracy"] = rep["degeneracy"]
    payload["residuals"] = {
        "exact": result.exact,
        "numeric_max": float(_fmt_float(result.numeric_max_residual)),
        "numeric_relative": float(_fmt_float(result.numeric_relative)),
    }
    payload["diagnostics"] = {
        "grid": grid,
        "grid_source": "--grid" if args.grid else "suggest_grid",
    }
    _emit(payload, text, args)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _energy_family(degree: int, r: Fraction) -> tuple[Lagrangian, Fraction]:
    """Member of the degree-n critical family normalized to a1 = 1, p = 0."""
    report = solve_pure_h(degree, r)
    values = _default_free_values(report)
    other = [f for f in report.free_parameters if f != "a1"]
    p_form = report.assignments[critical_solver.PRESSURE]
    if other:
        x = other[0]
        alpha = p_form.coefficient("a1")
        beta = p_form.coefficient(x)
        if beta == 0:
            raise ValueError("cannot normalize the pressure to zero in this family")
        values[x] = -alpha / beta
    elif p_form.evaluate(values) != 0:
        raise ValueError("this family has no p = 0 member with a1 = 1")
    return report.lagrangian_at(values), report.constraint


def cmd_energy(args) -> int:
    r = parse_fraction(args.r)
    if args.degree < 2:
        raise ValueError("energy reporting needs degree >= 2")
    lagrangian, constraint = _energy_family(args.degree, r)
    ratio = parse_fraction(args.ratio) if args.ratio else constraint
    a2 = parse_fraction(args.a2) if args.a2 else ratio * r * r
    t = TorusShape.from_squares(a2, r)
    report = curvature_energy(t, lagrangian, 0.0, args.grid)
    text = (
        f"area term: {_fmt_float(report.area_term)}\n"
        f"pressure term: {_fmt_float(report.pressure_term)}\n"
        f"total: {_fmt_float(report.total)}\n"
        f"grid: {report.grid_n}\n"
        f"quadrature error estimate: {_fmt_float(report.quadrature_error)}\n"
    )
    payload = _base_payload(
        "energy",
        degree=args.degree,
        r=args.r,
        a2=format_fraction(a2),
        ratio=format_fraction(ratio),
        grid=args.grid,
    )
    payload["constraint"] = format_fraction(constraint) if constraint else None
    payload["energy"] = {
        "area_term": float(_fmt_float(report.area_term)),
        "pressure_term": float(_fmt_float(report.pressure_term)),
        "total": float(_fmt_float(report.total)),
    }
    _emit(payload, text, args)
    return EXIT_OK


def _identity_checks(torus: ExactTorus, n: int) -> list[tuple[str, float]]:
    shape = torus.to_shape()
    u = grid_nodes(n)
    h, k_vals = torus_geometry.curvatures(shape, u)

    def compare(closed: HPoly, grid_values: np.ndarray) -> float:
        exact = closed.eval_float(h)
        scale = max(float(np.max(np.abs(grid_values))), 1.0)
        return float(np.max(np.abs(exact - grid_values))) / scale

    checks = []
    checks.append(("laplacian(H)", compare(h_calculus.laplacian_h(torus), torus_geometry.lb_numeric(shape, h))))
    df = torus_geometry.spectral_derivative(h)
    checks.append(("|grad H|^2", compare(h_calculus.grad_h_squared(torus), df * df / float(torus.r) ** 2)))
    for k in range(2, 7):
        checks.append(
            (f"laplacian(H^{k})", compare(h_calculus.laplacian_poly(torus, HPoly.monomial(k)), torus_geometry.lb_numeric(shape, h**k)))
        )
    checks.append(("div_bar(H)", compare(h_calculus.divbar_h(torus), torus_geometry.divbar_numeric(shape, h))))
    checks.append(("div_bar(K)", compare(h_calculus.divbar_k(torus), torus_geometry.divbar_numeric(shape, k_vals))))
    checks.append(("bilinear term", compare(h_calculus.divbar_bilinear(torus), k_vals * (1.0 / float(torus.r)) * df * df)))
    for k in range(2, 6):
        checks.append(
            (
                f"div_bar(H^{k})",
                compare(
                    h_calculus.divbar_poly(torus, HPoly.monomial(k)),
                    torus_geometry.divbar_numeric(shape, h**k),
                ),
            )
        )
    return checks


def cmd_identities(args) -> int:
    torus = ExactTorus(parse_fraction(args.a2), parse_fraction(args.r))
    checks = _identity_checks(torus, args.grid)
    lines = []
    worst = 0.0
    for name, err in checks:
        status = "ok" if err < args.tolerance else "FAIL"
        worst = max(worst, err)
        lines.append(f"{name:<18} {_fmt_float(err):<12} {status}")
    payload = _base_payload(
        "identities", a2=args.a2, r=args.r, grid=args.grid
    )
    payload["residuals"] = {
        "exact": False,
        "numeric_max": float(_fmt_float(worst)),
    }
    payload["checks"] = {name: float(_fmt_float(err)) for name, err in checks}
    _emit(payload, "\n".join(lines) + "\n", args)
    return EXIT_OK if worst < args.tolerance else EXIT_TOLERANCE


def cmd_scan(args) -> int:
    r = parse_fraction(args.r)
    if args.ratios:
        ratios = [parse_fraction(tok) for tok in args.ratios.split(",") if tok.strip()]
    else:
        ratios = [Fraction(num, 20) for num in range(24, 81, 4)]
    if args.degree == 2:
        lagrangian = Lagrangian.pure_h({2: 1})
    else:
        lagrangian, _ = _energy_family(args.degree, r)
    rows = []
    for rho in ratios:
        t = TorusShape.from_ratio(rho, r)
        value = curvature_energy(t, lagrangian, 0.0, args.grid).area_term
        rows.append((rho, value))
    lines = [f"{'a^2/r^2':<12} energy/a1"]
    for rho, value in rows:
        lines.append(f"{format_fraction(rho):<12} {_fmt_float(value)}")
    payload = _base_payload(
        "scan", degree=args.degree, r=args.r, grid=args.grid
    )
    payload["scan"] = [
        {"ratio": format_fraction(rho), "energy": float(_fmt_float(v))} for rho, v in rows
    ]
    _emit(payload, "\n".join(lines) + "\n", args)
    return EXIT_OK


def _parse_modes(spec: str) -> Perturbation:
    modes: dict[str, dict[int, float]] = {"cos": {}, "sin": {}}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, value = token.partition("=")
        kind, index = name[:3], name[3:]
        try:
            amplitude = float(value or "1")
            valid = kind in modes and index.isdecimal() and math.isfinite(amplitude)
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(
                f"bad mode {token!r}: expected cosJ=x or sinJ=x, "
                "with an integer J >= 0 and a finite number x"
            )
        modes[kind][int(index)] = amplitude
    return Perturbation(modes["cos"], modes["sin"])


def cmd_second_variation(args) -> int:
    r = parse_fraction(args.r)
    if args.degree >= 2:
        lagrangian, constraint = _energy_family(args.degree, r)
        ratio = parse_fraction(args.ratio) if args.ratio else constraint
    else:
        report = solve_pure_h(1, r)
        lagrangian = report.lagrangian_at(_default_free_values(report))
        ratio = parse_fraction(args.ratio) if args.ratio else Fraction(2)
    t = TorusShape.from_ratio(ratio, r)
    omega = _parse_modes(args.modes)
    value = second_variation(t, lagrangian, 0.0, omega, args.grid)
    coarse = second_variation(t, lagrangian, 0.0, omega, args.grid // 2)
    text = (
        f"second variation: {_fmt_float(value)}\n"
        f"grid refinement change: {_fmt_float(abs(value - coarse))}\n"
    )
    payload = _base_payload(
        "second-variation",
        degree=args.degree,
        r=args.r,
        ratio=format_fraction(ratio),
        modes=args.modes,
        grid=args.grid,
    )
    payload["energy"] = {
        "area_term": float(_fmt_float(value)),
        "pressure_term": 0.0,
        "total": float(_fmt_float(value)),
    }
    _emit(payload, text, args)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="torusvar", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_default=DEFAULT_GRID):
        p.add_argument("--r", default="1", help="small radius r as an exact fraction")
        p.add_argument("--grid", type=int, default=grid_default, help="u-grid size")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("solve", help="solve a critical-point family exactly")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--a2", default=None, help="exact a^2 (with --with-gauss)")
    p.add_argument("--with-gauss", action="store_true", help="include Gaussian curvature terms")
    p.add_argument("--terms", default=None, help="K-term list, e.g. K2,HK,H2K")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="solve, then check the family against both residual routes")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--a2", default=None)
    p.add_argument("--with-gauss", action="store_true")
    p.add_argument("--terms", default=None)
    p.add_argument("--tolerance", type=float, default=1e-8)
    common(p, grid_default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("energy", help="quadrature energy of the a1-normalized p=0 family")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ratio", default=None, help="evaluate on a torus of this a^2/r^2")
    p.add_argument("--a2", default=None)
    common(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("identities", help="closed-form operators vs the spectral oracle")
    p.add_argument("--a2", required=True)
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("scan", help="energy over a grid of aspect ratios")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--ratios", default=None, help="comma-separated list of a^2/r^2 values")
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("second-variation", help="quadratic form at a critical family member")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ratio", default=None)
    p.add_argument("--modes", default="cos1=1", help="perturbation modes, e.g. cos1=1,sin2=0.5")
    common(p)
    p.set_defaults(func=cmd_second_variation)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_grid(args)
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"torusvar: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
