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
table below holds those integer pairs once, for every torus; the closed forms
on a given torus are read from it by :func:`_on_torus`, which puts the
coefficient r^(p - d) (U_p + V_p / rho) on H^p.  Every closed form is
regression-tested against the independent spectral operators of
:mod:`torusvar.torus_geometry`.

:class:`TorusOperators` builds each closed form of one torus once, so a
caller that applies several chain rules on the same torus (the identities
table) reuses them; it lives only as long as the caller keeps it.

Only even powers of the large radius appear, so all of these are exact
rationals whenever a**2 and r are rational, even when a itself is not (the
constrained tori have irrational a).

The float torus :class:`TorusShape` and the grid constants ``DEFAULT_GRID``
and ``MAX_GRID`` are defined here too, beside :class:`ExactTorus`, so that
the exact path (solve, the closed forms, the residual columns) never loads
numpy; :mod:`torusvar.torus_geometry` re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Sequence

from .exact_algebra import HPoly

__all__ = [
    "ExactTorus",
    "TorusShape",
    "TorusOperators",
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
# the bilinear remainder r K |grad H|^2 = K_HAT * GRAD_H_SQUARED, weight 5
BILINEAR: IntTable = ((1, -8, 25, -38, 28, -8), (-4, 24, -56, 64, -36, 8))


DEFAULT_GRID = 256

# largest grid suggest_grid returns (512 KiB per float field); aspect ratios
# that need more are rejected rather than left to allocate GB-sized grids
MAX_GRID = 65536


@dataclass(frozen=True)
class TorusShape:
    """Torus radii, as floats, optionally backed by exact squared values."""

    a: float
    r: float
    a2: Fraction | None = None
    r2: Fraction | None = None

    def __post_init__(self):
        if not (self.a > self.r > 0):
            raise ValueError(f"torus radii must satisfy a > r > 0, got a={self.a}, r={self.r}")

    @staticmethod
    def from_squares(a2, r) -> "TorusShape":
        """Build from exact a**2 and exact r (a itself may be irrational)."""
        a2 = Fraction(a2)
        r = Fraction(r)
        return TorusShape(a=math.sqrt(a2), r=float(r), a2=a2, r2=r * r)

    @staticmethod
    def from_ratio(ratio, r) -> "TorusShape":
        """Build from the aspect ratio a**2/r**2 and exact r."""
        ratio = Fraction(ratio)
        r = Fraction(r)
        return TorusShape.from_squares(ratio * r * r, r)

    @property
    def ratio(self) -> float:
        return (self.a / self.r) ** 2


@dataclass(frozen=True)
class ExactTorus:
    """Torus carried through exact data: rational a**2 and rational r."""

    a2: Fraction
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a2", Fraction(self.a2))
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r <= 0 or self.a2 <= self.r * self.r:
            raise ValueError(f"need a^2 > r^2 and r > 0, got a^2={self.a2}, r={self.r}")

    @property
    def r2(self) -> Fraction:
        return self.r * self.r

    @property
    def ratio(self) -> Fraction:
        return self.a2 / self.r2

    def to_shape(self) -> TorusShape:
        return TorusShape.from_squares(self.a2, self.r)


def _on_torus(t: ExactTorus, table: IntTable, weight: int) -> HPoly:
    """The H-polynomial of a table entry of inverse-length weight ``weight``
    on the torus t: r^(p - weight) (U_p + V_p / rho) on H^p."""
    inv_ratio = 1 / t.ratio
    scale = t.r ** -weight
    coeffs = []
    for up, vp in zip_longest(*table, fillvalue=0):
        coeffs.append(scale * (up + vp * inv_ratio))
        scale *= t.r
    return HPoly.of(coeffs)


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
    return TorusOperators(t).divbar_k


def divbar_bilinear(t: ExactTorus) -> HPoly:
    """The bilinear remainder B = K h^{uu} (dH/du)^2 of div_bar, degree 5.

    Since h^{uu} = r g^{uu} on this torus, B = r K(H) |grad H|^2, and the
    product rule takes the exact form

        div_bar(f(H)) = f'(H) div_bar(H) + f''(H) B(H).
    """
    return _on_torus(t, BILINEAR, 5)


class TorusOperators:
    """The closed-form operators of one torus: each attribute is the module
    function of the same name on ``torus``, built on first use and kept for
    the object's lifetime."""

    def __init__(self, torus: ExactTorus):
        self.torus = torus

    @cached_property
    def laplacian_h(self) -> HPoly:
        return laplacian_h(self.torus)

    @cached_property
    def grad_h_squared(self) -> HPoly:
        return grad_h_squared(self.torus)

    @cached_property
    def divbar_h(self) -> HPoly:
        return divbar_h(self.torus)

    @cached_property
    def divbar_bilinear(self) -> HPoly:
        return divbar_bilinear(self.torus)

    @property
    def divbar_k(self) -> HPoly:
        return self.divbar_h.scale(Fraction(2) / self.torus.r)


def _operators(t: ExactTorus | TorusOperators) -> TorusOperators:
    return t if isinstance(t, TorusOperators) else TorusOperators(t)


def divbar_poly(t: ExactTorus | TorusOperators, f: HPoly) -> HPoly:
    """div_bar of an arbitrary polynomial f(H), by the chain rule; t is a
    torus or its TorusOperators, whose closed forms are then reused."""
    ops = _operators(t)
    d1 = f.derivative()
    d2 = d1.derivative()
    return d1 * ops.divbar_h + d2 * ops.divbar_bilinear


def laplacian_poly(t: ExactTorus | TorusOperators, f: HPoly) -> HPoly:
    """Laplace-Beltrami of an arbitrary polynomial f(H), by the chain rule;
    t as for :func:`divbar_poly`."""
    ops = _operators(t)
    d1 = f.derivative()
    d2 = d1.derivative()
    return d1 * ops.laplacian_h + d2 * ops.grad_h_squared
