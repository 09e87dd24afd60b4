"""Exact solving of the critical-point systems for polynomial Lagrangians.

The degree-n pure-H family is E_n = a1 H^n + a2 H^(n-1) + ... + a_{n+1},
with the pressure p one more linear unknown.  Collecting the residual by
powers of H gives n + 2 linear equations, each affine in 1 / (a^2/r^2) with
integer coefficients once the unknowns are normalized by powers of r (see
:class:`torusvar.shape_equation.ResidualRows`); the top row involves only a1,
with entries U = -4(n-1)(n^2-n-1) and V = 4n(n-1)^2, and fixes the aspect ratio

    a^2 / r^2 = -V / U = (n^2 - n) / (n^2 - n - 1),    n >= 2,

after which the rest solves as an exact parametrized family.  Adding Gaussian
curvature terms K^m H^k (m >= 1) contributes extra unknowns that remove the
ratio constraint; those solves run at fixed radii.  A reduced term set whose
top row still involves a1 alone keeps the pure-H ratio.

Nothing in a family's rows depends on r, so each family's rows are built
once per process.  A family at its constraint ratio is reduced there once,
and a solve at a new radius only rescales the reduced integers (see
:class:`torusvar.exact_algebra.ReducedRows`).  A family solved at given radii
is reduced once over Z[rho] (:class:`torusvar.exact_algebra.PencilReduction`),
so each ratio is one integer substitution wherever its pivot polynomial does
not vanish, and is reduced afresh only where it does; nothing is kept per
ratio.

Free parameters are chosen deterministically: pivots are preferred in the
order (p, K-term coefficients from highest index down, the constant
coefficient a_{n+1}, then a2, a3, ...), so a1 is always left free when the
rank allows it and reported families match a fixed convention.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from . import shape_equation
from .exact_algebra import LinearForm, PencilReduction, ReducedRows, reduce_pencil, reduce_rows
from .h_calculus import DEFAULT_GRID, ExactTorus
from .shape_equation import Lagrangian, ResidualRows, el_residual

__all__ = [
    "SolutionReport",
    "DegeneracyInfo",
    "VerificationResult",
    "default_kterms",
    "theorem_kterms",
    "family_lagrangian",
    "solve_pure_h",
    "solve_with_gauss",
    "delta_radii_polynomial",
    "verify_solution",
]

PRESSURE = "p"


def default_kterms(n: int) -> tuple[tuple[int, int], ...]:
    """Gaussian-curvature term sets used by the worked degree-3/4/5 families.

    Entries are (H power, K power) with K power >= 1; the inert standalone K
    term is omitted since it never contributes to the residual.
    """
    known = {
        3: ((0, 2), (1, 1)),
        4: ((0, 2), (1, 1), (2, 1)),
        5: ((1, 2), (0, 2), (3, 1), (2, 1), (1, 1)),
    }
    if n in known:
        return known[n]
    return tuple(
        (k, m) for m in range(1, n // 2 + 1) for k in range(0, n - 2 * m + 1) if (k, m) != (0, 1)
    )


def theorem_kterms(n: int) -> tuple[tuple[int, int], ...]:
    """Full K-term ladder sum_{m=1}^{[n/2]} K^m sum_{k=0}^{n-2m} H^k,
    including the inert standalone K (whose coefficient stays free)."""
    return tuple((k, m) for m in range(1, n // 2 + 1) for k in range(0, n - 2 * m + 1))


def family_lagrangian(
    n: int, kterms: Sequence[tuple[int, int]] = ()
) -> Lagrangian:
    """Degree-n Lagrangian with unknown coefficients a1..a_{n+1} on the pure
    H powers (a1 on H^n), a_{n+2}... on the K terms in the given order, and
    unknown pressure."""
    if n < 1:
        raise ValueError("polynomial degree must be >= 1")
    terms: dict[tuple[int, int], str] = {}
    for i in range(n + 1):
        terms[(n - i, 0)] = f"a{i + 1}"
    for offset, (k, m) in enumerate(kterms):
        if m < 1:
            raise ValueError(f"K terms need K power >= 1, got ({k}, {m})")
        if (k, m) in terms:
            raise ValueError(f"duplicate term ({k}, {m})")
        terms[(k, m)] = f"a{n + 2 + offset}"
    return Lagrangian(terms, pressure=PRESSURE)


def _pivot_order(n: int, n_kterms: int) -> tuple[str, ...]:
    kco = [f"a{n + 1 + i}" for i in range(n_kterms, 0, -1)]
    return (PRESSURE, *kco, f"a{n + 1}", *(f"a{i}" for i in range(2, n + 1)), "a1")


class DegeneracyInfo(NamedTuple):
    """Raised rank structure at special radii: which factors of the radii
    polynomial vanished, and how the generic parametrization changed."""

    vanished: tuple[str, ...]
    note: str


class VerificationResult(NamedTuple):
    """Exact and grid-oracle verdicts for one family member.

    ``numeric_max_residual`` is the raw grid maximum; ``numeric_scale`` is the
    magnitude of the terms that had to cancel, so ``numeric_relative`` is the
    meaningful accuracy measure when coefficients are large.
    """

    exact: bool
    numeric_max_residual: float
    numeric_scale: float = 1.0

    @property
    def numeric_relative(self) -> float:
        return self.numeric_max_residual / self.numeric_scale


class SolutionReport(NamedTuple):
    """Exact parametrized solution of one critical-point system."""

    degree: int
    r: Fraction
    a2: Fraction | None
    constraint: Fraction | None
    kterms: tuple[tuple[int, int], ...]
    unknowns: tuple[str, ...]
    free_parameters: tuple[str, ...]
    assignments: dict[str, LinearForm]
    delta: Fraction | None
    degeneracy: DegeneracyInfo | None
    consistent: bool  # True for every solved family: its rows are homogeneous

    def lagrangian_at(self, free_values: Mapping[str, Fraction]) -> Lagrangian:
        """Instantiate the family at concrete free-parameter values."""
        values = {name: Fraction(v) for name, v in free_values.items()}
        resolved = {name: form.evaluate(values) for name, form in self.assignments.items()}
        # substitute builds a new Lagrangian, so the family's shared one stays as it is
        return _family(self.degree, self.kterms)[0].substitute(resolved)

    def exact_torus(self) -> ExactTorus:
        if self.a2 is None:
            raise ValueError("this family has no fixed radii")
        return ExactTorus(self.a2, self.r)


def delta_radii_polynomial(n: int, a2: Fraction, r2: Fraction) -> tuple[Fraction, tuple[str, ...]] | None:
    """Product of radii factors controlling the generic fourth/fifth order
    K-family parametrization, with the names of any factors that vanish.

    The n = 4 product (a^2-2r^2)(a^2-r^2)(5a^2-6r^2) is where the bound set
    {a2, a3, a4, a8, p} loses rank.  The set this package binds with the
    default K terms, {p, a8, a7, a6, a5}, loses rank only at a^2 = 2r^2.
    """
    a2, r2 = Fraction(a2), Fraction(r2)
    if n == 4:
        factors = [
            ("a^2-2r^2", a2 - 2 * r2),
            ("a^2-r^2", a2 - r2),
            ("5a^2-6r^2", 5 * a2 - 6 * r2),
        ]
    elif n == 5:
        factors = [
            ("(a^2-r^2)^2", (a2 - r2) ** 2),
            ("a^2-2r^2", a2 - 2 * r2),
            ("5a^2-6r^2", 5 * a2 - 6 * r2),
        ]
    else:
        return None
    value = math.prod((v for _, v in factors), start=Fraction(1))
    return value, tuple(name for name, v in factors if v == 0)


# families, their constraint ratios and reductions, and their reductions over
# Z[rho], that are kept; an exact-families pass uses 35 distinct families, 23
# of them at a constraint ratio and 12 at given radii
FAMILY_MEMO_SIZE = 64


@lru_cache(maxsize=FAMILY_MEMO_SIZE)
def _family(n: int, kterms: tuple[tuple[int, int], ...]) -> tuple[Lagrangian, ResidualRows, tuple[str, ...]]:
    """The radius-free parts of a degree-n family with K terms ``kterms``:
    its Lagrangian, residual rows and pivot order."""
    lagrangian = family_lagrangian(n, kterms)
    return lagrangian, ResidualRows.of(lagrangian), _pivot_order(n, len(kterms))


def _reduce_at(rows: ResidualRows, order: tuple[str, ...], ratio: Fraction | None) -> ReducedRows:
    """``rows`` reduced at rho = ``ratio``; None reads U alone.  No coefficient
    is known, so the constant column is zero, and so is every assignment's."""
    return reduce_rows([row + [0] for row in rows.at_ratio(ratio)], rows.coefficients, order)


@lru_cache(maxsize=FAMILY_MEMO_SIZE)
def _constrained(n: int, kterms: tuple[tuple[int, int], ...]) -> tuple[Fraction | None, ReducedRows]:
    """The aspect ratio a^2/r^2 at which the row H^(n+1) of a degree-n
    family vanishes, and the rows reduced there.  For n >= 2 that row must
    involve a1 alone, whose entries U, V fix rho = -V/U > 1 (see above); the
    error names the top row too when a K term H^i K^j with i + j >= n
    reaches above it.  For n = 1 the V part is empty, so the ratio is None
    and the rows are read from U alone (critical at every ratio)."""
    _, rows, order = _family(n, kterms)
    ratio = None
    if n > 1:
        u_row, v_row = rows.u[n + 1], rows.v[n + 1]
        involved = {name for name, x, y in zip(rows.coefficients, u_row, v_row) if x or y}
        extra = involved - {"a1"}
        if extra:
            top = len(rows.u) - 1
            where = "the top residual row" if top == n + 1 else f"row H^{n + 1} (the rows reach H^{top})"
            raise ValueError(f"no pure radius constraint: {where} also involves " + ", ".join(sorted(extra)))
        a1 = rows.coefficients.index("a1")
        ratio = Fraction(-v_row[a1], u_row[a1])
    return ratio, _reduce_at(rows, order, ratio)


@lru_cache(maxsize=FAMILY_MEMO_SIZE)
def _pencil(n: int, kterms: tuple[tuple[int, int], ...]) -> PencilReduction:
    """The family's rows rho U + V reduced over Z[rho]: its generic bound set,
    and its pivot rows at every ratio off the roots of the pivot polynomial."""
    _, rows, order = _family(n, kterms)
    return reduce_pencil(rows.u, rows.v, rows.coefficients, order)


def _solve(n: int, kterms: tuple[tuple[int, int], ...], r, a2) -> SolutionReport:
    """The degree-n family with K terms ``kterms`` at small radius r, solved
    on the integer rows num U + den V of its unknowns normalized by r^-weight
    at rho = num / den: that of ``ExactTorus(a2, r)``, under its radius rule,
    if ``a2`` is given, else the root of the top row (the constraint), where
    r > 0 is the one check.  r enters only as the column weights that return
    the assignments in c = r^weight c_normalized, so a constraint family is
    reduced once and a new radius only rescales it; at given radii the rows
    are read off the family's reduction over Z[rho], and reduced at rho only
    where its pivot polynomial vanishes."""
    _, rows, order = _family(n, kterms)
    if a2 is None:
        r = Fraction(r)
        if r <= 0:
            raise ValueError(f"need r > 0, got r={r}")
        constraint, reduced = _constrained(n, kterms)
        a2 = None if constraint is None else constraint * r * r
    else:
        t = ExactTorus(a2, r)
        constraint, r, a2 = None, t.r, t.a2
        reduced = _pencil(n, kterms).at(t.ratio) or _reduce_at(rows, order, t.ratio)
    solution = reduced.solution(r, rows.weights)

    delta = None
    degeneracy = None
    info = delta_radii_polynomial(n, a2, r * r) if kterms else None
    if info is not None:
        delta, vanished = info
        notes = ["radii polynomial vanishes: " + ", ".join(vanished)] if vanished else []
        # at a constraint ratio the rank drops by design, so only given radii
        # are compared with the pivots over Q(rho)
        if constraint is None:
            generic = {rows.coefficients[c] for c in _pencil(n, kterms).pivot_columns}
            actual = set(solution.pivot_unknowns)
            sides = ((generic - actual, "left free"), (actual - generic, "bound instead"))
            swaps = [f"{', '.join(sorted(names))} {what}" for names, what in sides if names]
            if swaps:
                notes.append("generic parametrization degenerates: " + ", ".join(swaps))
        if notes:
            degeneracy = DegeneracyInfo(vanished=vanished, note="; ".join(notes))

    return SolutionReport(
        degree=n,
        r=r,
        a2=a2,
        constraint=constraint,
        kterms=kterms,
        unknowns=rows.coefficients,
        free_parameters=solution.free,
        assignments=solution.assignments,
        delta=delta,
        degeneracy=degeneracy,
        consistent=solution.consistent,
    )


def solve_pure_h(n: int, r) -> SolutionReport:
    """Critical family of the degree-n pure-H Lagrangian.

    For n >= 2 the aspect ratio is the root of the top residual row, read
    from the family's affine form in 1/rho, and the remaining rows are
    solved at that ratio; for n = 1 the 1/rho part vanishes, so there is no
    restriction on the radii and the family is radius-independent.
    """
    return _solve(n, (), r, None)


def solve_with_gauss(
    n: int,
    r,
    kterms: Sequence[tuple[int, int]] | None = None,
    a2=None,
) -> SolutionReport:
    """Critical family of a degree-n Lagrangian with Gaussian curvature terms.

    With ``a2`` given, solves at those fixed radii (the route that removes the
    ratio constraint).  Without ``a2``, attempts to read a ratio constraint
    off the top residual row, which works for reduced term sets whose top row
    involves only a1 (e.g. degree 4 without the H^2 K term).
    """
    if n < 2:
        raise ValueError("K-augmented families need degree >= 2")
    terms = tuple((k, m) for k, m in kterms) if kterms is not None else default_kterms(n)
    if not terms:
        raise ValueError("term set must be nonempty; use solve_pure_h instead")
    return _solve(n, terms, r, a2)


def verify_solution(
    t: ExactTorus,
    report: SolutionReport,
    free_values: Mapping[str, Fraction],
    n_grid: int = DEFAULT_GRID,
) -> VerificationResult:
    """Check a solved family member both exactly and against the grid oracle.

    ``exact`` is True when the closed-form residual is the zero polynomial on
    the given torus; ``numeric_max_residual`` is the sup of the residual
    evaluated purely through the spectral grid operators.
    """
    if not report.consistent:
        raise ValueError("cannot verify an inconsistent solve")
    lagrangian = report.lagrangian_at(free_values)
    residual = el_residual(t, lagrangian)
    numeric, scale = shape_equation.el_residual_numeric_scaled(
        t.to_shape(), lagrangian, n_grid
    )
    return VerificationResult(
        exact=residual.is_zero,
        # a numpy reduction, so a NaN anywhere on the grid reaches the verdict
        numeric_max_residual=float(abs(numeric).max()),
        numeric_scale=scale,
    )
