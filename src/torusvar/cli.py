"""Command-line front end.

Subcommands: solve, verify, energy, second-variation, identities, scan.
Exact values print as canonical fractions, floats with 15 significant
digits, so output is reproducible byte for byte for a fixed invocation.
Every numeric command runs on ``--grid`` if given, else on the
``suggest_grid`` grid of its torus (the finest over a scan), and its JSON
``diagnostics`` block says which.

Exit codes: 0 success, 3 tolerance breach or non-finite result, 4 bad
input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

# numpy, torus_geometry and energetics are imported inside the numeric
# commands after their last check, so solve, --help, --version and every bad
# input run without numpy (the module docstring above is also the --help text)
from . import __version__, critical_solver, h_calculus
from .critical_solver import (
    SolutionReport,
    default_kterms,
    solve_pure_h,
    solve_with_gauss,
    verify_solution,
)
from .exact_algebra import HPoly, LinearForm, format_fraction, parse_fraction
from .h_calculus import MAX_GRID, ExactTorus, TorusShape
from .shape_equation import Lagrangian

EXIT_OK = 0
EXIT_TOLERANCE = 3
EXIT_BAD_INPUT = 4

# the largest family residual, rows x columns, a --degree command may solve:
# pure-H degree 360, or degree 78 with the default K terms
MAX_FAMILY_CELLS = 2**17


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # -1/2, -1e200 and -2,3 are values, as argparse reads -12 and -1.5
        return None if re.match(r"-[\d.]", arg_string) else super()._parse_optional(arg_string)

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _fmt_float(x: float) -> str:
    return f"{float(x):.15g}"


def _parse_list(spec: str, option: str, parse, key=lambda item: item) -> list:
    """Parse a comma-separated option value token by token; empty tokens are
    skipped, but a list left empty, or two tokens with the same key, is bad
    input."""
    items = []
    seen: dict[object, str] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        item = parse(token)
        if key(item) in seen:
            raise ValueError(f"{option}: {token!r} repeats {seen[key(item)]!r}")
        seen[key(item)] = token
        items.append(item)
    if not items:
        raise ValueError(f"{option}: empty list {spec!r}")
    return items


def _parse_term(token: str) -> tuple[int, int]:
    """Parse one term like ``K2``, ``HK`` or ``H2K`` into (H power, K power)."""
    match = re.fullmatch(r"(H(\d*))?K(\d*)", token)
    h_pow = int(match[2] or 1) if match and match[1] else 0
    k_pow = int(match[3] or 1) if match else 0
    if k_pow < 1:
        raise ValueError(f"bad term {token!r}: expected forms like K2, HK, H2K")
    return h_pow, k_pow


def _form_to_dict(form: LinearForm) -> dict[str, str]:
    out = {name: format_fraction(c) for name, c in sorted(form.terms.items())}
    if form.constant != 0:
        out["const"] = format_fraction(form.constant)
    return out


def _exact(value: str | None) -> Fraction | None:
    """The one reader of an exact option: None when the option is absent,
    and any given value, the empty string included, must parse."""
    return None if value is None else parse_fraction(value)


def _fraction_or_none(value: Fraction | None) -> str | None:
    return None if value is None else format_fraction(value)


def _non_finite(value, path: str = "") -> list[str]:
    """``key.path = value`` for each float of a payload that is not finite."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{path} = {value}"]
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    return [bad for key, item in items for bad in _non_finite(item, f"{path}.{key}" if path else str(key))]


def _named_tori(r: Fraction, a2s: list[Fraction]) -> list[tuple[ExactTorus, TorusShape]]:
    """The one way a numeric command's torus becomes floats: the torus at r and
    each a^2 in ``a2s``, built and put through :meth:`ExactTorus.to_shape` in
    turn, with its float shape; with none named, r^2 alone is checked."""
    if not a2s:
        h_calculus.check_float_range("r^2", r * r)
    return [(torus, torus.to_shape()) for torus in (ExactTorus(a2, r) for a2 in a2s)]


def _grid(args, shapes: list[TorusShape], member: Lagrangian) -> dict:
    """Every coefficient of the evaluated ``member``, its pressure included,
    checked 0 or a normal float; returns the JSON diagnostics block of the one
    grid rule: --grid if given, else the finest ``suggest_grid`` of ``shapes``."""
    values = [(f"the coefficient of H^{i} K^{j}", c) for (i, j), c in member.terms.items()]
    for name, value in [*values, ("the pressure", member.pressure)]:
        h_calculus.check_float_range(name, value, " of the numeric commands")
    if args.grid is not None:
        return {"grid": args.grid, "grid_source": "--grid"}
    return {"grid": max(map(h_calculus.suggest_grid, shapes)), "grid_source": "suggest_grid"}


def _quiet_floats():
    """numpy's overflow and invalid-value warnings off: ``_emit`` turns a
    non-finite result into exit 3 naming its key."""
    import numpy as np

    return np.errstate(over="ignore", invalid="ignore")


def _emit(payload: dict, text: str, args) -> None:
    """Write the report; a non-finite result is raised instead (exit 3), and
    an ``--out`` that cannot be written is bad input (exit 4)."""
    bad = _non_finite(payload)
    if bad:
        raise FloatingPointError("non-finite result: " + ", ".join(bad))
    if args.format == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = text
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(body)


def _base_payload(command: str, diagnostics: dict | None = None, **inputs) -> dict:
    """The keys every report has, and a numeric command's diagnostics block."""
    payload = {
        "command": command,
        "inputs": inputs,
        "constraint": None,
        "coefficients": None,
        "degeneracy": None,
        "energy": None,
        "residuals": None,
        "version": __version__,
    }
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    return payload


def _family_size(args) -> tuple[int, int]:
    """(rows, columns) bounding the residual of the family a --degree command
    solves, from --degree and --terms alone.  The degree-n pure-H family has
    n + 2 rows and n + 2 columns (a1..a_{n+1} and p); each K term H^i K^j
    adds a column and reaches row i + j + 2 at most.  No default K set is
    larger than the theorem ladder, h (n - h) terms with h = n // 2, or
    reaches above row n + 1, so it is counted without being built."""
    n = max(args.degree, 0)
    rows = columns = n + 2
    if getattr(args, "with_gauss", False):
        if args.terms is None:
            columns += (n // 2) * (n - n // 2)
        else:
            terms = _parse_list(args.terms, "--terms", _parse_term)
            columns += len(terms)
            rows = max(rows, *(i + j + 3 for i, j in terms))
    return rows, columns


def _check_options(args) -> None:
    """Reject, before any work, a --grid the spectral oracles cannot use (odd,
    below 16 points or above ``MAX_GRID``; second-variation also evaluates
    at grid/2, so it needs 32 and a multiple of 4), a --tolerance that is
    not a finite positive number, and a --degree (with its --terms) whose
    family residual would exceed ``MAX_FAMILY_CELLS``."""
    grid = getattr(args, "grid", None)
    if grid is not None:
        if args.command == "second-variation":
            minimum, step = 32, 4
            reason = " and a multiple of 4 (second-variation also evaluates at grid/2, which must be even)"
        else:
            minimum, step, reason = 16, 2, ""
        if grid < minimum or grid % step:
            raise ValueError(f"--grid must be an even integer >= {minimum}{reason}, got {grid}")
        if grid > MAX_GRID:
            raise ValueError(f"--grid must be at most {MAX_GRID}, got {grid}")
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"--tolerance must be a finite number > 0, got {tolerance}")
    if getattr(args, "degree", None) is not None:
        rows, columns = _family_size(args)
        if rows * columns > MAX_FAMILY_CELLS:
            raise ValueError(
                f"--degree {args.degree}: the family's residual has up to {rows} rows x {columns} columns, "
                f"above the limit of {MAX_FAMILY_CELLS} cells"
            )


def _solve_from_args(args) -> SolutionReport:
    r = parse_fraction(args.r)
    if args.with_gauss:
        if args.terms is not None:
            terms = tuple(_parse_list(args.terms, "--terms", _parse_term))
        else:
            terms = default_kterms(args.degree)
        if not terms and args.degree >= 2:
            raise ValueError(
                f"--with-gauss: degree {args.degree} has no default K terms; "
                "name them with --terms (e.g. --terms K2), or leave out --with-gauss"
            )
        return solve_with_gauss(args.degree, r, terms, _exact(args.a2))
    for flag, value in (("--a2", args.a2), ("--terms", args.terms)):
        if value is not None:
            raise ValueError(f"{flag} only applies together with --with-gauss")
    return solve_pure_h(args.degree, r)


def _solve_payload(command: str, args, report: SolutionReport, diagnostics: dict | None = None, **inputs) -> dict:
    """The JSON of solve and verify: the solved family's keys at top level."""
    payload = _base_payload(
        command, diagnostics, degree=args.degree, r=args.r, a2=args.a2, terms=args.terms,
        with_gauss=args.with_gauss, **inputs,
    )
    degeneracy = None
    if report.delta is not None or report.degeneracy is not None:
        degeneracy = {
            "delta": _fraction_or_none(report.delta),
            "vanished": list(report.degeneracy.vanished) if report.degeneracy else [],
            "note": report.degeneracy.note if report.degeneracy else "",
        }
    payload.update(
        constraint=_fraction_or_none(report.constraint),
        coefficients={name: _form_to_dict(report.assignments[name]) for name in report.unknowns},
        free_parameters=list(report.free_parameters),
        degeneracy=degeneracy,
        consistent=report.consistent,
        degree=report.degree,
        r=format_fraction(report.r),
        a2=_fraction_or_none(report.a2),
        kterms=[list(km) for km in report.kterms],
    )
    return payload


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
        lines.append(f"  {name} = {report.assignments[name]}")
    _emit(_solve_payload("solve", args, report), "\n".join(lines) + "\n", args)
    return EXIT_OK


def _default_free_values(report: SolutionReport) -> dict[str, Fraction]:
    return {name: Fraction(int(name == "a1")) for name in report.free_parameters}


def _family_torus(report: SolutionReport) -> tuple[ExactTorus, TorusShape]:
    """The torus a solved family is evaluated at, with its float shape: its
    own, else a^2 = 2 r^2 for a family that is critical at every ratio."""
    return _named_tori(report.r, [2 * report.r**2 if report.a2 is None else report.a2])[0]


def cmd_verify(args) -> int:
    r = parse_fraction(args.r)
    named = _named_tori(r, [parse_fraction(args.a2)] if args.with_gauss and args.a2 is not None else [])
    report = _solve_from_args(args)
    # a family solved at the torus --a2 names is evaluated there
    torus, shape = named[0] if named else _family_torus(report)
    values = _default_free_values(report)
    diagnostics = _grid(args, [shape], report.lagrangian_at(values))
    with _quiet_floats():
        result = verify_solution(torus, report, values, diagnostics["grid"])
    ok = result.exact and result.numeric_relative < args.tolerance
    text = (
        f"exact residual zero: {result.exact}\n"
        f"numeric max residual: {_fmt_float(result.numeric_max_residual)}\n"
        f"numeric relative residual: {_fmt_float(result.numeric_relative)}\n"
        f"tolerance (relative): {_fmt_float(args.tolerance)}\n"
    )
    payload = _solve_payload("verify", args, report, diagnostics, grid=args.grid)
    payload["residuals"] = {
        "exact": result.exact,
        "numeric_max": float(_fmt_float(result.numeric_max_residual)),
        "numeric_relative": float(_fmt_float(result.numeric_relative)),
    }
    _emit(payload, text, args)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _family_member(degree: int, r: Fraction) -> tuple[Lagrangian, SolutionReport]:
    """The degree-n pure-H family's a1 = 1 member, with p = 0 where the
    family has one and else its own pressure, and the family's report."""
    report = solve_pure_h(degree, r)
    values = _default_free_values(report)
    p_form = report.assignments[critical_solver.PRESSURE]
    other = [x for x in report.free_parameters if x != "a1" and p_form.coefficient(x) != 0]
    if other:
        values[other[0]] = -p_form.coefficient("a1") / p_form.coefficient(other[0])
    return report.lagrangian_at(values), report


def cmd_energy(args) -> int:
    r = parse_fraction(args.r)
    a2 = _exact(args.a2) if args.ratio is None else parse_fraction(args.ratio) * r * r
    named = _named_tori(r, [] if a2 is None else [a2])
    lagrangian, family = _family_member(args.degree, r)
    torus, t = named[0] if named else _family_torus(family)
    diagnostics = _grid(args, [t], lagrangian)
    grid = diagnostics["grid"]
    from .energetics import curvature_energy

    with _quiet_floats():
        report = curvature_energy(t, lagrangian, lagrangian.pressure, grid)
        coarse = curvature_energy(t, lagrangian, n=grid // 2).area_term
    text = (
        f"area term: {_fmt_float(report.area_term)}\n"
        f"pressure term: {_fmt_float(report.pressure_term)}\n"
        f"total: {_fmt_float(report.total)}\n"
        f"grid: {grid}\n"
        f"quadrature error estimate: {_fmt_float(abs(report.area_term - coarse))}\n"
    )
    payload = _base_payload(
        "energy",
        diagnostics,
        degree=args.degree,
        r=args.r,
        a2=format_fraction(torus.a2),
        ratio=format_fraction(torus.ratio),
        grid=args.grid,
    )
    payload["constraint"] = _fraction_or_none(family.constraint)
    payload["energy"] = {
        "area_term": float(_fmt_float(report.area_term)),
        "pressure_term": float(_fmt_float(report.pressure_term)),
        "total": float(_fmt_float(report.total)),
    }
    _emit(payload, text, args)
    return EXIT_OK


def _identity_checks(torus: ExactTorus, shape: TorusShape, n: int) -> list[tuple[str, float]]:
    import numpy as np

    from . import torus_geometry

    s = torus_geometry.SampledTorus(shape, n)
    h = s.h
    # K, H, ..., H^6 are differenced once, in one call; H's derivative also
    # serves the two gradient terms, and each operator takes one 6-row stack
    fields = np.stack([s.k] + [s.h_power(k) for k in range(1, 7)])
    derivatives = torus_geometry.spectral_derivative(fields)
    dh = derivatives[1]
    lap = torus_geometry.lb_numeric(s, fields[1:], derivatives[1:])  # H .. H^6
    dbar = torus_geometry.divbar_numeric(s, fields[:6], derivatives[:6])  # K, H .. H^5

    def compare(closed: HPoly, grid_values: np.ndarray) -> float:
        exact = closed.eval_float(h)
        scale = max(float(np.max(np.abs(grid_values))), 1.0)
        return float(np.max(np.abs(exact - grid_values))) / scale

    checks = [
        ("laplacian(H)", compare(h_calculus.laplacian_h(torus), lap[0])),
        ("|grad H|^2", compare(h_calculus.grad_h_squared(torus), dh * dh / float(torus.r) ** 2)),
    ]
    for k in range(2, 7):
        closed = h_calculus.laplacian_power(torus, k)
        checks.append((f"laplacian(H^{k})", compare(closed, lap[k - 1])))
    checks.append(("div_bar(H)", compare(h_calculus.divbar_h(torus), dbar[1])))
    checks.append(("div_bar(K)", compare(h_calculus.divbar_k(torus), dbar[0])))
    checks.append(("bilinear term", compare(h_calculus.divbar_bilinear(torus), s.k * (1.0 / float(torus.r)) * dh * dh)))
    for k in range(2, 6):
        closed = h_calculus.divbar_power(torus, k)
        checks.append((f"div_bar(H^{k})", compare(closed, dbar[k])))
    return checks


def cmd_identities(args) -> int:
    a2 = parse_fraction(args.a2)
    ((torus, shape),) = _named_tori(parse_fraction(args.r), [a2])
    diagnostics = _grid(args, [shape], Lagrangian())
    with _quiet_floats():
        checks = _identity_checks(torus, shape, diagnostics["grid"])
    lines = []
    worst = 0.0
    for name, err in checks:
        status = "ok" if err < args.tolerance else "FAIL"
        worst = max(worst, err)
        lines.append(f"{name:<18} {_fmt_float(err):<12} {status}")
    payload = _base_payload("identities", diagnostics, a2=args.a2, r=args.r, grid=args.grid)
    payload["residuals"] = {"numeric_max": float(_fmt_float(worst))}
    payload["checks"] = {name: float(_fmt_float(err)) for name, err in checks}
    _emit(payload, "\n".join(lines) + "\n", args)
    return EXIT_OK if worst < args.tolerance else EXIT_TOLERANCE


def cmd_scan(args) -> int:
    r = parse_fraction(args.r)
    ratios = [] if args.ratios is None else _parse_list(args.ratios, "--ratios", parse_fraction)
    tori = _named_tori(r, [rho * r * r for rho in ratios])
    lagrangian, _ = _family_member(args.degree, r)
    tori = tori or _named_tori(r, [Fraction(num, 20) * r * r for num in range(24, 81, 4)])
    diagnostics = _grid(args, [t for _, t in tori], lagrangian)
    from .energetics import curvature_energy

    with _quiet_floats():
        rows = [
            (torus.ratio, curvature_energy(t, lagrangian, lagrangian.pressure, diagnostics["grid"]).total)
            for torus, t in tori
        ]
    lines = [f"{'a^2/r^2':<12} energy/a1"]
    for rho, value in rows:
        lines.append(f"{format_fraction(rho):<12} {_fmt_float(value)}")
    payload = _base_payload("scan", diagnostics, degree=args.degree, r=args.r, grid=args.grid)
    payload["scan"] = [
        {"ratio": format_fraction(rho), "energy": float(_fmt_float(v))} for rho, v in rows
    ]
    _emit(payload, "\n".join(lines) + "\n", args)
    return EXIT_OK


def _parse_mode(token: str) -> tuple[str, int, float]:
    """Parse one mode like ``cos1=1`` or ``sin2=0.5`` into (kind, J, amplitude)."""
    name, _, value = token.partition("=")
    kind, index = name[:3], name[3:]
    try:
        amplitude = float(value or "1")
        valid = kind in ("cos", "sin") and index.isdecimal() and math.isfinite(amplitude)
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(
            f"bad mode {token!r}: expected cosJ=x or sinJ=x, "
            "with an integer J >= 0 and a finite number x"
        )
    return kind, int(index), amplitude


def cmd_second_variation(args) -> int:
    modes: dict[str, dict[int, float]] = {"cos": {}, "sin": {}}
    for kind, index, amplitude in _parse_list(args.modes, "--modes", _parse_mode, key=lambda m: m[:2]):
        modes[kind][index] = amplitude
    r = parse_fraction(args.r)
    named = _named_tori(r, [] if args.ratio is None else [parse_fraction(args.ratio) * r * r])
    lagrangian, family = _family_member(args.degree, r)
    torus, t = named[0] if named else _family_torus(family)
    diagnostics = _grid(args, [t], lagrangian)
    grid = diagnostics["grid"]
    top = max((*modes["cos"], *modes["sin"]))
    if top >= grid // 4:
        raise ValueError(f"--modes: mode {top} is not below grid/4 = {grid // 4}, the Nyquist mode of grid/2")
    from .energetics import Perturbation, second_variation

    omega = Perturbation(modes["cos"], modes["sin"])
    with _quiet_floats():
        value = second_variation(t, lagrangian, lagrangian.pressure, omega, grid)
        coarse = second_variation(t, lagrangian, lagrangian.pressure, omega, grid // 2)
    text = (
        f"second variation: {_fmt_float(value)}\n"
        f"grid refinement change: {_fmt_float(abs(value - coarse))}\n"
    )
    payload = _base_payload(
        "second-variation",
        diagnostics,
        degree=args.degree,
        r=args.r,
        ratio=format_fraction(torus.ratio),
        modes=args.modes,
        grid=args.grid,
    )
    payload["energy"] = {"total": float(_fmt_float(value))}
    _emit(payload, text, args)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="torusvar", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=True):
        p.add_argument("--r", default="1", help="small radius r as an exact fraction")
        if grid:
            p.add_argument("--grid", type=int, help="u-grid size (default: suggest_grid of the torus)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("solve", help="solve a critical-point family exactly")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--a2", default=None, help="exact a^2 (with --with-gauss)")
    p.add_argument("--with-gauss", action="store_true", help="include Gaussian curvature terms")
    p.add_argument("--terms", default=None, help="K-term list, e.g. K2,HK,H2K")
    common(p, grid=False)

    p = sub.add_parser("verify", help="solve, then check the family against both residual routes")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--a2", default=None)
    p.add_argument("--with-gauss", action="store_true")
    p.add_argument("--terms", default=None)
    p.add_argument("--tolerance", type=float, default=1e-8)
    common(p)

    p = sub.add_parser("energy", help="quadrature energy of the family's a1 = 1 member")
    p.add_argument("--degree", type=int, required=True)
    torus = p.add_mutually_exclusive_group()
    torus.add_argument("--ratio", default=None, help="evaluate on a torus of this a^2/r^2")
    torus.add_argument("--a2", default=None, help="evaluate on a torus of this exact a^2")
    common(p)

    p = sub.add_parser("identities", help="closed-form operators vs the spectral oracle")
    p.add_argument("--a2", required=True)
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("scan", help="energy over a grid of aspect ratios")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--ratios", default=None, help="comma-separated list of a^2/r^2 values")
    common(p)

    p = sub.add_parser("second-variation", help="quadratic form at a critical family member")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ratio", default=None)
    p.add_argument("--modes", default="cos1=1", help="perturbation modes, e.g. cos1=1,sin2=0.5")
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # --help, --version and input the parser rejects end in its exit code
        return exc.code
    # the command is looked up per call, not bound into the shared parser
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _check_options(args)
        return command(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"torusvar: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FloatingPointError as exc:
        print(f"torusvar: error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
