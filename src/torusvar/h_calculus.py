"""Closed-form reduction of the torus differential operators to H-polynomials.

On the torus every field of interest is a rational function of cos(u), and
the mean curvature H is a Moebius function of cos(u); eliminating the angle
therefore turns each second-order operator applied to a polynomial in H into
another polynomial in H.  With w = a + r cos u and s = 1 - r H (so that
w = a / (2 s)), the eliminations used below are

    laplacian(H)   = -2 s^2 (a^2 (2 r H - 1) + 2 r^2 s) / (a^2 r^3)
    |grad H|^2     =  s^2 (4 r^2 s^2 - a^2 (2 s - 1)^2) / (a^2 r^4)
    div_bar(H)     = -4 s^2 (a^2 (2 s - 1)^2 + r^2 s (1 - 4 s)) / (a^2 r^4)

Every operator is homogeneous in the radii: written in x = r H and
rho = a^2 / r^2, an operator of inverse-length weight d is r^-d times a
polynomial in x whose coefficients are U_p + V_p / rho with integers U_p and
V_p (the affine form in 1/rho is the 1/a^2 of the eliminations above).  The
table below holds those integer pairs once, for every torus.  Every exact
operator goes through one integer chain rule, op(f) = f' op(x) + f'' B(x)
with B the operator's remainder (:func:`chain_rule`; the residual columns of
:mod:`torusvar.shape_equation`, :func:`laplacian_poly`, :func:`divbar_poly`),
and one reader, :func:`read`, which puts r^(p - d) (U_p + V_p / rho) on H^p
from the integers num U_p + den V_p at rho = num / den (the closed forms,
``el_system``, ``el_residual``).  Every closed form is regression-tested
against the independent spectral operators of :mod:`torusvar.torus_geometry`.

Only even powers of the large radius appear, so all of these are exact
rationals whenever a**2 and r are rational, even when a itself is not (the
constrained tori have irrational a).

Every torus built from exact radii goes through :class:`ExactTorus`, the one
check of the rule a^2 > r^2 > 0 on exact values.  The float torus
:class:`TorusShape` and the grid constants ``DEFAULT_GRID`` and ``MAX_GRID``
are defined here too, beside :class:`ExactTorus`, so that the exact path
(solve, the closed forms, the residual columns) never loads numpy;
:mod:`torusvar.torus_geometry` re-exports them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from .exact_algebra import HPoly

__all__ = [
    "ExactTorus",
    "TorusShape",
    "k_as_hpoly",
    "laplacian_h",
    "grad_h_squared",
    "divbar_h",
    "divbar_k",
    "divbar_bilinear",
    "divbar_poly",
    "laplacian_poly",
]

# (U, V): integer coefficient lists in x = r H of U + V / rho at r = 1
IntTable = tuple[Sequence[int], Sequence[int]]

# K r^2 = 2 x - 1 (weight 2, no 1/rho part)
K_HAT = (-1, 2)
# weight 3
LAPLACIAN_H: IntTable = ((2, -8, 10, -4), (-4, 12, -12, 4))
# weight 4
GRAD_H_SQUARED: IntTable = ((-1, 6, -13, 12, -4), (4, -16, 24, -16, 4))
# weight 4
DIVBAR_H: IntTable = ((-4, 24, -52, 48, -16), (12, -52, 84, -60, 16))
# weight 5: r^2 K = 2 x - 1, so div_bar(K) = (2 / r) div_bar(H)
DIVBAR_K: IntTable = ((-8, 48, -104, 96, -32), (24, -104, 168, -120, 32))
# the bilinear remainder r K |grad H|^2 = K_HAT * GRAD_H_SQUARED, weight 5
BILINEAR: IntTable = ((1, -8, 25, -38, 28, -8), (-4, 24, -56, 64, -36, 8))


DEFAULT_GRID = 256

# largest grid suggest_grid returns (512 KiB per float field); aspect ratios
# that need more are rejected rather than left to allocate GB-sized grids
MAX_GRID = 65536


class TorusShape:
    """Torus radii, as floats, optionally backed by exact squared values."""

    __slots__ = ("a", "r", "a2", "r2")

    def __init__(self, a: float, r: float, a2: Fraction | None = None, r2: Fraction | None = None):
        if not (a > r > 0):
            raise ValueError(f"torus radii must satisfy a > r > 0, got a={a}, r={r}")
        self.a, self.r, self.a2, self.r2 = a, r, a2, r2

    @staticmethod
    def from_ratio(ratio, r) -> "TorusShape":
        """Build from the aspect ratio a**2/r**2 and exact r, as an ExactTorus."""
        r = Fraction(r)
        return ExactTorus(Fraction(ratio) * r * r, r).to_shape()

    @property
    def ratio(self) -> float:
        return (self.a / self.r) ** 2


class ExactTorus:
    """Torus carried through exact data: rational a**2 and rational r, checked
    a^2 > r^2 > 0; :meth:`to_shape` also rejects radii that round to a <= r."""

    __slots__ = ("a2", "r")

    def __init__(self, a2: Fraction, r: Fraction):
        self.a2, self.r = Fraction(a2), Fraction(r)
        if self.r <= 0 or self.a2 <= self.r * self.r:
            raise ValueError(f"need a^2 > r^2 and r > 0, got a^2={self.a2}, r={self.r}")

    @property
    def r2(self) -> Fraction:
        return self.r * self.r

    @property
    def ratio(self) -> Fraction:
        return self.a2 / self.r2

    def to_shape(self) -> TorusShape:
        a, r = math.sqrt(self.a2), float(self.r)
        if not a > r > 0:
            raise ValueError(f"a^2/r^2 = {self.ratio} does not give a > r > 0 in floats: the radii round to a={a}, r={r}")
        return TorusShape(a=a, r=r, a2=self.a2, r2=self.r2)


# an integer polynomial x^shift * (c_0 + c_1 x + ...)
Shifted = tuple[int, list[int]]


def _derivative(f: Shifted) -> Shifted:
    shift, coeffs = f
    if shift:
        return shift - 1, [(shift + m) * c for m, c in enumerate(coeffs)]
    return 0, [m * c for m, c in enumerate(coeffs)][1:]


def products_sum(pairs: Iterable[tuple[Shifted, Sequence[int]]]) -> list[int]:
    """Sum of the products f q of shifted and plain integer coefficient
    lists, as one plain list with trailing zeros trimmed."""
    out: list[int] = []
    for (shift, p), q in pairs:
        size = shift + len(p) + len(q) - 1
        if len(out) < size:
            out.extend([0] * (size - len(out)))
        for a, pa in enumerate(p, shift):
            if pa:
                for b, qb in enumerate(q, a):
                    out[b] += pa * qb
    while out and out[-1] == 0:
        out.pop()
    return out


def chain_rule(f: Shifted, op: IntTable, remainder: IntTable) -> tuple[list, list]:
    """The product pairs of op(f) = f' op(x) + f'' B(x), B the operator's
    remainder, whose :func:`products_sum` is the U part and the V part."""
    d1 = _derivative(f)
    d2 = _derivative(d1)
    return [(d1, op[0]), (d2, remainder[0])], [(d1, op[1]), (d2, remainder[1])]


def read(t: ExactTorus, rows: Sequence[int], weight: int, denom: int = 1) -> list[Fraction]:
    """The coefficients r^(p - weight) (U_p + V_p / rho) / denom on H^p of a
    table on t, from its integers rows[p] = num U_p + den V_p at rho = num / den."""
    rn, rd = t.r.numerator, t.r.denominator
    denom *= t.ratio.numerator
    return [
        Fraction(s * rn**e, denom * rd**e) if e >= 0 else Fraction(s * rd**-e, denom * rn**-e)
        for e, s in enumerate(rows, -weight)
    ]


def _on_torus(t: ExactTorus, table: IntTable, weight: int, denom: int = 1) -> HPoly:
    num, den = t.ratio.numerator, t.ratio.denominator
    rows = [num * u + den * v for u, v in zip_longest(*table, fillvalue=0)]
    return HPoly.of(read(t, rows, weight, denom))


def k_as_hpoly(t: ExactTorus) -> HPoly:
    """Gaussian curvature K = (2 r H - 1) / r**2 as a linear H-polynomial."""
    return _on_torus(t, (K_HAT, ()), 2)


def laplacian_h(t: ExactTorus) -> HPoly:
    """Laplace-Beltrami of H, a cubic in H."""
    return _on_torus(t, LAPLACIAN_H, 3)


def grad_h_squared(t: ExactTorus) -> HPoly:
    """Squared surface gradient of H, a quartic in H.

    The constant term is 4 r^2 - a^2: the polynomial must vanish at both
    critical values H(0) and H(pi) of the mean curvature, which pins it.
    """
    return _on_torus(t, GRAD_H_SQUARED, 4)


def divbar_h(t: ExactTorus) -> HPoly:
    """div_bar of H, a quartic in H."""
    return _on_torus(t, DIVBAR_H, 4)


def divbar_k(t: ExactTorus) -> HPoly:
    """div_bar of K; equals (2/r) * div_bar(H) because K is linear in H."""
    return _on_torus(t, DIVBAR_K, 5)


def divbar_bilinear(t: ExactTorus) -> HPoly:
    """The bilinear remainder B = K h^{uu} (dH/du)^2 of div_bar, degree 5.

    Since h^{uu} = r g^{uu} on this torus, B = r K(H) |grad H|^2, and the
    product rule takes the exact form

        div_bar(f(H)) = f'(H) div_bar(H) + f''(H) B(H).
    """
    return _on_torus(t, BILINEAR, 5)


def _poly_chain_rule(t: ExactTorus, f: HPoly, op: IntTable, remainder: IntTable, weight: int) -> HPoly:
    """op(f(H)) on t, for an operator of weight ``weight`` + 1: with r = rn / rd and
    n = deg f, f(H) = g(r H) / (D rn^n) with the integers g_k = f_k D rd^k rn^(n - k),
    D the common denominator of the f_k; each derivative in H brings a factor r."""
    n = max(f.degree, 0)
    rn, rd = t.r.numerator, t.r.denominator
    denom = math.lcm(*(c.denominator for c in f.coeffs))
    g = [c.numerator * (denom // c.denominator) * rd**k * rn ** (n - k) for k, c in enumerate(f.coeffs)]
    u, v = chain_rule((0, g), op, remainder)
    return _on_torus(t, (products_sum(u), products_sum(v)), weight, denom * rn**n)


def divbar_poly(t: ExactTorus, f: HPoly) -> HPoly:
    """div_bar of an arbitrary polynomial f(H), by the chain rule."""
    return _poly_chain_rule(t, f, DIVBAR_H, BILINEAR, 3)


def laplacian_poly(t: ExactTorus, f: HPoly) -> HPoly:
    """Laplace-Beltrami of an arbitrary polynomial f(H), by the chain rule."""
    return _poly_chain_rule(t, f, LAPLACIAN_H, GRAD_H_SQUARED, 2)
