"""Assembly of the Euler-Lagrange residual for curvature functionals.

The functional is F = integral of E(H, K) over the surface minus p times the
enclosed volume, with E a polynomial in the mean curvature H and the Gaussian
curvature K, and p the inside-minus-outside pressure (the convention of the
Ou-Yang-Helfrich shape equation).  Its critical points satisfy

    (lap + 4 H^2 - 2 K) dE/dH + 2 (div_bar + 2 K H) dE/dK - 4 H E + 2 p = 0

where both partial derivatives are formal (H and K treated as independent
field variables) and only the final expression is restricted to the torus,
where K = (2 r H - 1) / r^2.  On the torus the whole left-hand side collapses
to a single polynomial in H; it is linear in the Lagrangian coefficients and
in p, so with unknown coefficients each power of H yields one linear equation.

Two independent evaluation routes are provided: the exact route through one
integer column per monomial H^i K^j (:func:`residual_column`, a sum of the
per-power operator tables of :mod:`torusvar.h_calculus`, valid on every
torus), and a fully numeric route through the spectral grid operators of
:mod:`torusvar.torus_geometry` alone, used as a cross-check oracle; it reads
every field from one :class:`~torusvar.torus_geometry.SampledTorus`.  Only
the numeric route needs numpy, and it loads it (with the grid operators)
when it is called, so the exact route runs without numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul
from typing import TYPE_CHECKING, Mapping, NamedTuple, Union

from . import h_calculus
from .exact_algebra import HPoly, LinearForm, _as_fraction
from .h_calculus import DEFAULT_GRID, ExactTorus, TorusShape

if TYPE_CHECKING:
    import numpy as np

    from .torus_geometry import SampledTorus

__all__ = [
    "Coefficient",
    "Lagrangian",
    "helfrich_lagrangian",
    "ResidualRows",
    "residual_column",
    "el_system",
    "el_residual",
    "el_residual_numeric_scaled",
    "sphere_residual",
]

# a coefficient is either a known exact rational or the name of an unknown
Coefficient = Union[Fraction, int, str]

_ZERO = Fraction(0)


def _is_unknown(c: Coefficient) -> bool:
    return isinstance(c, str)


class Lagrangian:
    """Sparse energy density: map (H power, K power) -> coefficient.

    Coefficients and the pressure are either exact rationals or unknown
    names; mixing the two is allowed (known values fold into the constant
    part of the linear system).  A float is rejected, as in
    :class:`~torusvar.exact_algebra.LinearForm`.  ``unknowns`` lists the
    names once each, in term order and the pressure last.
    """

    __slots__ = ("terms", "pressure", "unknowns")

    def __init__(self, terms: Mapping[tuple[int, int], Coefficient] | None = None, pressure: Coefficient = _ZERO):
        self.terms: dict[tuple[int, int], Coefficient] = {}
        for (k, m), c in (terms or {}).items():
            if k < 0 or m < 0:
                raise ValueError(f"curvature exponents must be nonnegative, got ({k}, {m})")
            if _is_unknown(c):
                self.terms[(k, m)] = c
            else:
                c = _as_fraction(c)
                if c != 0:
                    self.terms[(k, m)] = c
        self.pressure = pressure if _is_unknown(pressure) else _as_fraction(pressure)
        names = [c for c in self.terms.values() if _is_unknown(c)]
        if _is_unknown(self.pressure):
            names.append(self.pressure)
        self.unknowns: tuple[str, ...] = tuple(dict.fromkeys(names))

    @staticmethod
    def _of(terms: dict[tuple[int, int], Fraction], pressure: Fraction) -> "Lagrangian":
        """The numeric Lagrangian of nonzero Fraction ``terms`` and a Fraction
        ``pressure``, taken as they are: the constructor's cleaning is skipped."""
        lagrangian = object.__new__(Lagrangian)
        lagrangian.terms, lagrangian.pressure, lagrangian.unknowns = terms, pressure, ()
        return lagrangian

    def __eq__(self, other):
        return type(other) is Lagrangian and (self.terms, self.pressure) == (other.terms, other.pressure)

    @staticmethod
    def pure_h(coeffs: Mapping[int, Coefficient], pressure: Coefficient = 0) -> "Lagrangian":
        return Lagrangian({(k, 0): c for k, c in coeffs.items()}, pressure)

    def substitute(self, values: Mapping[str, Fraction]) -> "Lagrangian":
        """The numeric Lagrangian with each unknown replaced by its value in
        ``values``; a term whose value is zero is dropped."""
        terms = {}
        for km, c in self.terms.items():
            if _is_unknown(c):
                c = _as_fraction(values[c])
            if c:
                terms[km] = c
        pressure = self.pressure
        if _is_unknown(pressure):
            pressure = _as_fraction(values[pressure])
        return Lagrangian._of(terms, pressure)

    def eval_at(self, s: SampledTorus) -> np.ndarray:
        """Pointwise numeric value of E at the nodes of a sampled torus, from
        its tables of H and K powers; an empty Lagrangian gives zeros.

        Each term is c H^i K^j, multiplied left to right; a zeroth power is
        left out, which changes no float since multiplying by 1.0 is exact.
        """
        import numpy as np

        self._require_numeric()
        total = np.zeros_like(s.h)
        for (i, j), c in self.terms.items():
            term = float(c)
            if i:
                term = term * s.h_power(i)
            if j:
                term = term * s.k_power(j)
            total = total + term
        return total

    # distinct terms have distinct partials, so nothing needs collecting, and
    # a nonzero coefficient times a positive power stays nonzero
    def partial_h(self) -> "Lagrangian":
        """dE/dH, with H and K independent, as a Lagrangian of zero pressure."""
        self._require_numeric()
        return Lagrangian._of({(i - 1, j): i * c for (i, j), c in self.terms.items() if i >= 1}, _ZERO)

    def partial_k(self) -> "Lagrangian":
        """dE/dK, with H and K independent, as a Lagrangian of zero pressure."""
        self._require_numeric()
        return Lagrangian._of({(i, j - 1): j * c for (i, j), c in self.terms.items() if j >= 1}, _ZERO)

    def _require_numeric(self):
        if self.unknowns:
            raise ValueError(f"Lagrangian still has unknowns: {self.unknowns}")


def helfrich_lagrangian(k_c: Fraction, c0: Fraction, w: Fraction, p: Fraction = 0) -> Lagrangian:
    """The quadratic membrane model (k_c/2)(2H + c0)^2 + w, with bending
    rigidity k_c, spontaneous curvature c0, surface tension w and pressure
    difference p (inside minus outside, the multiplier of -V).

    The H^2 coefficient of this expansion is 2 k_c; the H coefficient is
    2 k_c c0; the constant is k_c c0^2 / 2 + w.
    """
    k_c, c0, w = _as_fraction(k_c), _as_fraction(c0), _as_fraction(w)
    if k_c == 0:
        raise ValueError("bending rigidity must be nonzero for a quadratic model")
    return Lagrangian.pure_h({2: 2 * k_c, 1: 2 * k_c * c0, 0: Fraction(1, 2) * k_c * c0 * c0 + w}, p)


def residual_column(i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Residual of the single density E = H^i K^j at zero pressure, as an
    integer table (U, V) of :mod:`torusvar.h_calculus` of weight i + 2 j + 1:
    on a torus its coefficient of H^p is r^(p - i - 2 j - 1) (U_p + V_p / rho).
    The table is the same on every torus, and :func:`_rows_tables` keeps it.

    In x = r H at r = 1, with K = 2 x - 1, dE/dH and dE/dK are integer
    polynomials in x, so lap and div_bar of them are sums of the per-power
    tables op(x^k) of :func:`~torusvar.h_calculus.power_table`, weighted by
    their coefficients; only these operators carry a 1/rho part, and each
    enters linearly, which is where the affine form in 1/rho comes from.
    """

    def term(h_power: int, k_power: int, coeff: int) -> list[int]:
        # coeff * x^h_power * (2 x - 1)^k_power
        return [0] * h_power + [coeff * comb(k_power, m) * 2**m * (-1) ** (k_power - m) for m in range(k_power + 1)]

    # (partial of E, its operator, the algebraic factor) for each partial
    # that is present: (lap + 4H^2 - 2K) dE/dH, and 2 (div_bar + 2KH) dE/dK
    # with the 2 folded into dE/dK
    parts = []
    if i >= 1:
        parts.append((term(i - 1, j, i), False, [2, -4, 4]))
    if j >= 1:
        parts.append((term(i, j - 1, 2 * j), True, [0, -2, 4]))
    u_pairs = [(term(i + 1, j, -4), [1])]  # -4HE
    v_pairs = []
    for e, divbar, algebraic in parts:
        u_pairs.append((e, algebraic))
        for k, c in enumerate(e):
            if c:
                u, v = h_calculus.power_table(divbar, k)
                u_pairs.append(([c], u))
                v_pairs.append(([c], v))
    return tuple(h_calculus.products_sum(u_pairs)), tuple(h_calculus.products_sum(v_pairs))


# monomial sets whose residual tables are kept: a family's, and its members'
# sets, which drop the terms of zero coefficient; a numeric-oracles run meets
# 28 sets, and the families and members of an exact-families run 49
ROWS_MEMO_SIZE = 128


@lru_cache(maxsize=ROWS_MEMO_SIZE)
def _rows_tables(monomials: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], tuple, tuple]:
    """The weights and transposed U and V tables of :class:`ResidualRows` for
    the terms ``monomials`` and the pressure, built once per process: the one
    memo of residual tables, which depend on no coefficient and no torus."""
    columns = [residual_column(i, j) for i, j in monomials]
    columns.append(((2,), ()))
    size = max(len(part) for column in columns for part in column)
    u, v = (
        tuple(zip(*(part + (0,) * (size - len(part)) for part in parts)))
        for parts in zip(*columns)
    )
    return (*(i + 2 * j - 2 for i, j in monomials), -3), u, v


class ResidualRows(NamedTuple):
    """A Lagrangian's residual rows, built once for every torus.

    Column k belongs to ``coefficients[k]``, the coefficient of one term
    H^i K^j (the pressure is the last column), normalized as c r^-w with the
    weight w = ``weights[k]`` = i + 2 j - 2 (the pressure's is -3).  Over the
    normalized coefficients the row of H^p is r^(p - 3) times U_p + V_p / rho,
    with the integer vectors U_p, V_p of :func:`residual_column` and
    rho = a^2 / r^2, so the rows at rho = num / den are, up to the factor
    r^(p - 3) / num, the integer rows num U + den V.  The weights and U, V
    depend on the terms alone, and are shared by every Lagrangian with the
    same terms in the same order.
    """

    coefficients: tuple[Coefficient, ...]
    weights: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(lagrangian: Lagrangian) -> "ResidualRows":
        weights, u, v = _rows_tables(tuple(lagrangian.terms))
        return ResidualRows((*lagrangian.terms.values(), lagrangian.pressure), weights, u, v)

    def at_ratio(self, ratio: Fraction | None) -> list[list[int]]:
        """The integer rows num U + den V at rho = num / den; None reads U alone."""
        num, den = (1, 0) if ratio is None else (ratio.numerator, ratio.denominator)
        return [[num * x + den * y for x, y in zip(ur, vr)] for ur, vr in zip(self.u, self.v)]


def el_system(t: ExactTorus, lagrangian: Lagrangian) -> tuple[LinearForm, ...]:
    """Residual rows as linear forms in the unknown coefficients and p, one
    per power of H up to the last nonzero row.

    Each term H^i K^j contributes its coefficient times its column; the
    pressure's column is the constant 2.
    """
    if not lagrangian.unknowns:
        raise ValueError("el_system expects at least one unknown coefficient")
    residual = ResidualRows.of(lagrangian)
    # column k is the table of weight 3 + w_k of its coefficient
    columns = [
        h_calculus.read(t, column, 3 + w)
        for column, w in zip(zip(*residual.at_ratio(t.ratio)), residual.weights)
    ]
    rows = []
    for values in zip(*columns):
        terms: dict[str, Fraction] = {}
        constant = Fraction(0)
        for c, value in zip(residual.coefficients, values):
            if _is_unknown(c):
                terms[c] = terms.get(c, Fraction(0)) + value
            else:
                constant += c * value
        rows.append(LinearForm(terms, constant))
    while rows and rows[-1].is_zero:
        rows.pop()
    return tuple(rows)


def el_residual(t: ExactTorus, lagrangian: Lagrangian) -> HPoly:
    """Exact residual polynomial for a fully numeric Lagrangian.

    The torus is a critical point of the functional iff the result is the
    zero polynomial.
    """
    lagrangian._require_numeric()
    residual = ResidualRows.of(lagrangian)
    # the coefficients normalized as c r^-w, as integer pairs (numerator,
    # denominator) from r's, then as integers over one denominator
    rn, rd = t.r.numerator, t.r.denominator
    pairs = [
        (c.numerator * rd**w, c.denominator * rn**w) if w >= 0 else (c.numerator * rn**-w, c.denominator * rd**-w)
        for c, w in zip(residual.coefficients, residual.weights)
    ]
    denom = lcm(*(d for _, d in pairs))
    ints = [c * (denom // d) for c, d in pairs]
    # row p is the table of weight 3 of num U_p + den V_p dotted with them
    num, den = t.ratio.numerator, t.ratio.denominator
    rows = [num * sum(map(mul, ints, u)) + den * sum(map(mul, ints, v)) for u, v in zip(residual.u, residual.v)]
    return HPoly.of(h_calculus.read(t, rows, 3, denom))


def el_residual_numeric_scaled(
    t: TorusShape, lagrangian: Lagrangian, n: int = DEFAULT_GRID
) -> tuple[np.ndarray, float]:
    """Grid residual plus its cancellation scale.

    The scale is the grid maximum of the summed magnitudes of the residual's
    constituent terms; a residual small against it certifies cancellation
    regardless of how large the family's coefficients are.
    """
    import numpy as np

    from . import torus_geometry

    lagrangian._require_numeric()
    s = torus_geometry.SampledTorus(t, n)
    h, k = s.h, s.k
    eh = lagrangian.partial_h().eval_at(s)
    ek = lagrangian.partial_k().eval_at(s)
    density = lagrangian.eval_at(s)

    # E_H and E_K are differenced together, in one transform pair
    d_eh, d_ek = torus_geometry.spectral_derivative(np.stack((eh, ek)))
    lap_eh = torus_geometry.lb_numeric(s, eh, d_eh)
    dbar_ek = torus_geometry.divbar_numeric(s, ek, d_ek)
    pressure = float(lagrangian.pressure)
    terms = (
        lap_eh,
        (4.0 * s.h_power(2) - 2.0 * k) * eh,
        2.0 * dbar_ek,
        4.0 * k * h * ek,
        -4.0 * h * density,
        2.0 * pressure * np.ones_like(h),
    )
    residual = terms[0] + terms[1] + terms[2] + terms[3] + terms[4] + terms[5]
    scale = float(np.max(sum(np.abs(piece) for piece in terms)))
    return residual, max(scale, 1.0)


def sphere_residual(radius: Fraction, lagrangian: Lagrangian) -> Fraction:
    """Exact residual on a sphere of the given radius.

    With H = 1/R and K = 1/R^2 constant, all derivative terms drop and the
    residual is the algebraic relation between the model parameters and R;
    the sphere is critical exactly when it vanishes.  The Lagrangian's
    pressure is the inside-minus-outside pressure, so the area functional
    (E = 1) is critical at the Laplace pressure 2/R.
    """
    lagrangian._require_numeric()
    radius = _as_fraction(radius)
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    h = 1 / radius
    k = h * h

    def at(partial: Mapping[tuple[int, int], Fraction]) -> Fraction:
        return sum((c * h**i * k**j for (i, j), c in partial.items()), Fraction(0))

    eh = at(lagrangian.partial_h().terms)
    ek = at(lagrangian.partial_k().terms)
    density = at(lagrangian.terms)
    return (4 * h * h - 2 * k) * eh + 2 * (2 * k * h) * ek - 4 * h * density + 2 * lagrangian.pressure
