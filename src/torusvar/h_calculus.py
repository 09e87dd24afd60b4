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
table below holds those integer pairs once, for every torus.  The chain rule
is applied in one place, the table of each power op(x^k) = k x^(k-1) op(x)
+ k (k-1) x^(k-2) B(x), with B the operator's remainder (:func:`power_table`,
built once per process); every other exact operator value is a sum of those
tables (:func:`laplacian_poly`, :func:`divbar_poly`, and the residual columns
of :mod:`torusvar.shape_equation`).  One reader, :func:`read`, puts
r^(p - d) (U_p + V_p / rho) on H^p from the integers num U_p + den V_p at
rho = num / den (the closed forms, ``el_system``, ``el_residual``).  Every
closed form is regression-tested against the independent spectral operators
of :mod:`torusvar.torus_geometry`.

Only even powers of the large radius appear, so all of these are exact
rationals whenever a**2 and r are rational, even when a itself is not (the
constrained tori have irrational a).

Every torus built from exact radii goes through :class:`ExactTorus`, the one
check of the rule a^2 > r^2 > 0 on exact values.  The float torus
:class:`TorusShape`, the grid constants ``DEFAULT_GRID`` and ``MAX_GRID``
and the grid rule :func:`suggest_grid` live here too, so that the exact
path and every check of the numeric commands run without numpy;
:mod:`torusvar.torus_geometry` re-exports them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Iterable, Sequence

from .exact_algebra import HPoly, _as_fraction

__all__ = [
    "ExactTorus",
    "TorusShape",
    "check_float_range",
    "k_as_hpoly",
    "laplacian_h",
    "grad_h_squared",
    "divbar_h",
    "divbar_k",
    "divbar_bilinear",
    "divbar_poly",
    "laplacian_poly",
    "divbar_power",
    "laplacian_power",
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
# the bilinear remainder r K |grad H|^2 = K_HAT * GRAD_H_SQUARED, weight 5
BILINEAR: IntTable = ((1, -8, 25, -38, 28, -8), (-4, 24, -56, 64, -36, 8))


DEFAULT_GRID = 256

# largest grid suggest_grid returns (512 KiB per float field); aspect ratios
# that need more are rejected rather than left to allocate GB-sized grids
MAX_GRID = 65536


def suggest_grid(t: TorusShape) -> int:
    """Grid size that resolves this torus's curvature fields spectrally.

    Fields on the torus are analytic with Fourier modes decaying like q**k,
    q = r / (a + sqrt(a^2 - r^2)); aspect ratios close to 1 decay slowly and
    need more than the default grid.  The residual applies two derivatives,
    which multiply mode k by k**2, so this returns the smallest power-of-two
    multiple of ``DEFAULT_GRID`` whose Nyquist mode k = N/2 has k**2 q**k
    below 1e-14.  A torus that needs more than ``MAX_GRID`` points raises
    ValueError before any grid is allocated.
    """
    s = t.a / t.r
    q = 1.0 / (s + math.sqrt(s * s - 1.0))
    n = DEFAULT_GRID
    while (n / 2) ** 2 * q ** (n / 2) >= 1e-14:
        n *= 2
    if n > MAX_GRID:
        ratio = t.a2 / t.r2 if t.a2 is not None else t.ratio
        raise ValueError(f"a^2/r^2 = {ratio} needs a grid of {n} points, above the cap of {MAX_GRID}")
    return n


# the normal float range as exact bounds, so that a check converts no float
_FLOAT_MIN, _FLOAT_MAX = Fraction(sys.float_info.min), Fraction(sys.float_info.max)


def check_float_range(name: str, value: Fraction, where: str = "") -> None:
    """Reject a ``value`` that is neither 0 nor a normal float, which would
    overflow or flush to 0; the message names it and ends with ``where``."""
    if value and not _FLOAT_MIN <= abs(value) <= _FLOAT_MAX:
        exponent = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        raise ValueError(
            f"{name} is about 1e{exponent:.0f}, outside the float range "
            f"[{sys.float_info.min:.4g}, {sys.float_info.max:.4g}]{where}"
        )


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
        r = _as_fraction(r)
        return ExactTorus(_as_fraction(ratio) * r * r, r).to_shape()

    @property
    def ratio(self) -> float:
        return (self.a / self.r) ** 2


class ExactTorus:
    """Torus carried through exact data: rational a**2 and rational r, checked
    a^2 > r^2 > 0, with ``r2`` and the aspect ratio ``ratio = a2 / r2``
    computed once; :meth:`to_shape` also rejects an a^2 or r^2 outside the
    float range, and radii that round to a <= r."""

    __slots__ = ("a2", "r", "r2", "ratio")

    def __init__(self, a2: Fraction, r: Fraction):
        self.a2, self.r = _as_fraction(a2), _as_fraction(r)
        self.r2 = self.r * self.r
        if self.r <= 0 or self.a2 <= self.r2:
            raise ValueError(f"need a^2 > r^2 and r > 0, got a^2={self.a2}, r={self.r}")
        # divided only once the radii are checked
        self.ratio = self.a2 / self.r2

    def __repr__(self) -> str:
        return f"ExactTorus(a2={self.a2}, r={self.r})"

    def to_shape(self) -> TorusShape:
        check_float_range("r^2", self.r2)
        check_float_range("a^2", self.a2)
        a, r = math.sqrt(self.a2), float(self.r)
        if not a > r > 0:
            raise ValueError(f"a^2/r^2 = {self.ratio} does not give a > r > 0 in floats: the radii round to a={a}, r={r}")
        return TorusShape(a=a, r=r, a2=self.a2, r2=self.r2)


def products_sum(pairs: Iterable[tuple[Sequence[int], Sequence[int]]]) -> list[int]:
    """Sum of the products p q of integer coefficient lists, as one list
    with trailing zeros trimmed."""
    out: list[int] = []
    for p, q in pairs:
        size = len(p) + len(q) - 1
        if len(out) < size:
            out.extend([0] * (size - len(out)))
        for a, pa in enumerate(p):
            if pa:
                for b, qb in enumerate(q, a):
                    out[b] += pa * qb
    while out and out[-1] == 0:
        out.pop()
    return out


def read(t: ExactTorus, rows: Sequence[int], weight: int, denom: int = 1) -> list[Fraction]:
    """The coefficients r^(p - weight) (U_p + V_p / rho) / denom on H^p of a
    table on t, from its integers rows[p] = num U_p + den V_p at rho = num / den."""
    rn, rd = t.r.numerator, t.r.denominator
    denom *= t.ratio.numerator
    return [
        Fraction(s * rn**e, denom * rd**e) if e >= 0 else Fraction(s * rd**-e, denom * rn**-e)
        for e, s in enumerate(rows, -weight)
    ]


def _on_torus(t: ExactTorus, table: IntTable, weight: int) -> HPoly:
    num, den = t.ratio.numerator, t.ratio.denominator
    rows = [num * u + den * v for u, v in zip_longest(*table, fillvalue=0)]
    return HPoly.of(read(t, rows, weight))


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
    """div_bar of K; equals (2/r) * div_bar(H) because K is linear in H, so
    its table is 2 DIVBAR_H, of weight 5."""
    return _on_torus(t, tuple([2 * c for c in part] for part in DIVBAR_H), 5)


def divbar_bilinear(t: ExactTorus) -> HPoly:
    """The bilinear remainder B = K h^{uu} (dH/du)^2 of div_bar, degree 5.

    Since h^{uu} = r g^{uu} on this torus, B = r K(H) |grad H|^2, and the
    product rule takes the exact form

        div_bar(f(H)) = f'(H) div_bar(H) + f''(H) B(H).
    """
    return _on_torus(t, BILINEAR, 5)


# (operator, power) tables that are kept; the residual columns of an
# exact-families run read 37, and a numeric-oracles run 17
POWER_MEMO_SIZE = 64


@lru_cache(maxsize=POWER_MEMO_SIZE)
def power_table(divbar: bool, k: int) -> IntTable:
    """The integer table of op(x^k), op div_bar if ``divbar`` else the
    Laplacian, by the chain rule op(x^k) = k x^(k-1) op(x) + k (k-1) x^(k-2) B(x),
    B the operator's remainder; the same on every torus, so it is built once
    per process and shared, as tuples."""
    if k < 0:
        raise ValueError(f"power must be nonnegative, got {k}")
    op, remainder = (DIVBAR_H, BILINEAR) if divbar else (LAPLACIAN_H, GRAD_H_SQUARED)
    # k x^(k-1) and k (k-1) x^(k-2); a list whose power would be negative is [0]
    d1, d2 = [0] * (k - 1) + [k], [0] * (k - 2) + [k * (k - 1)]
    return tuple(tuple(products_sum([(d1, o), (d2, b)])) for o, b in zip(op, remainder))


def laplacian_power(t: ExactTorus, k: int) -> HPoly:
    """Laplace-Beltrami of H^k = x^k / r^k: the table of op(x^k), of weight k + 2."""
    return _on_torus(t, power_table(False, k), k + 2)


def divbar_power(t: ExactTorus, k: int) -> HPoly:
    """div_bar of H^k = x^k / r^k: the table of op(x^k), of weight k + 3."""
    return _on_torus(t, power_table(True, k), k + 3)


def _sum_powers(t: ExactTorus, f: HPoly, power: Callable[[ExactTorus, int], HPoly]) -> HPoly:
    terms = [[c * x for x in power(t, k).coeffs] for k, c in enumerate(f.coeffs) if c]
    return HPoly.of(map(sum, zip_longest(*terms, fillvalue=0)))


def laplacian_poly(t: ExactTorus, f: HPoly) -> HPoly:
    """Laplace-Beltrami of an arbitrary polynomial f(H), the sum of f_k
    ``laplacian_power(t, k)``."""
    return _sum_powers(t, f, laplacian_power)


def divbar_poly(t: ExactTorus, f: HPoly) -> HPoly:
    """div_bar of an arbitrary polynomial f(H), the sum of f_k
    ``divbar_power(t, k)``."""
    return _sum_powers(t, f, divbar_power)
