"""Closed-form reduction of the torus differential operators to H-polynomials.

On the torus every field of interest is a rational function of cos(u), and
the mean curvature H is a Moebius function of cos(u); eliminating the angle
therefore turns each second-order operator applied to a polynomial in H into
another polynomial in H.  With w = a + r cos u and s = 1 - r H (so that
w = a / (2 s)), the eliminations used below are

    laplacian(H)   = -2 s^2 (a^2 (2 r H - 1) + 2 r^2 s) / (a^2 r^3)
    |grad H|^2     =  s^2 (4 r^2 s^2 - a^2 (2 s - 1)^2) / (a^2 r^4)
    div_bar(H)     = -4 s^2 (a^2 (2 s - 1)^2 + r^2 s (1 - 4 s)) / (a^2 r^4)

expanded into the explicit coefficient arrays coded here.  Every closed form
is regression-tested against the independent spectral operators of
:mod:`torusvar.torus_geometry`.

Only even powers of the large radius appear, so all of these are exact
rationals whenever a**2 and r are rational, even when a itself is not (the
constrained tori have irrational a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_algebra import HPoly
from .torus_geometry import TorusShape

__all__ = [
    "ExactTorus",
    "k_as_hpoly",
    "laplacian_h",
    "grad_h_squared",
    "laplacian_pow_leading_coeffs",
    "divbar_h",
    "divbar_k",
    "divbar_bilinear",
    "divbar_poly",
    "laplacian_poly",
]


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
        return TorusShape(a=math.sqrt(self.a2), r=float(self.r), a2=self.a2, r2=self.r2)


def k_as_hpoly(t: ExactTorus) -> HPoly:
    """Gaussian curvature K = (2 r H - 1) / r**2 as a linear H-polynomial."""
    return HPoly.of([Fraction(-1, 1) / t.r2, Fraction(2, 1) / t.r])


def laplacian_h(t: ExactTorus) -> HPoly:
    """Laplace-Beltrami of H, a cubic in H."""
    a2, r, r2 = t.a2, t.r, t.r2
    pre = Fraction(1) / (a2 * r**3)
    return HPoly.of(
        [
            2 * (a2 - 2 * r2),
            4 * r * (-2 * a2 + 3 * r2),
            2 * r2 * (5 * a2 - 6 * r2),
            4 * r**3 * (-a2 + r2),
        ]
    ).scale(pre)


def grad_h_squared(t: ExactTorus) -> HPoly:
    """Squared surface gradient of H, a quartic in H.

    The constant term is 4 r^2 - a^2: the polynomial must vanish at both
    critical values H(0) and H(pi) of the mean curvature, which pins it.
    """
    a2, r, r2 = t.a2, t.r, t.r2
    pre = Fraction(1) / (a2 * r**4)
    return HPoly.of(
        [
            4 * r2 - a2,
            2 * r * (3 * a2 - 8 * r2),
            r2 * (-13 * a2 + 24 * r2),
            4 * r**3 * (3 * a2 - 4 * r2),
            4 * r**4 * (-a2 + r2),
        ]
    ).scale(pre)


def laplacian_pow_leading_coeffs(t: ExactTorus, n: int) -> tuple[Fraction, Fraction]:
    """The two leading coefficients of laplacian_poly(t, H**n) in closed form.

    For n >= 2:  [H^(n+2)] = 4 n^2 (r^2 - a^2) / a^2  and
    [H^(n+1)] = 2 ((6 n^2 - n) a^2 - (8 n^2 - 2 n) r^2) / (a^2 r).
    """
    if n < 2:
        raise ValueError("leading-coefficient closed form needs n >= 2")
    a2, r, r2 = t.a2, t.r, t.r2
    top = Fraction(4 * n * n) * (-a2 + r2) / a2
    sub = Fraction(2) * ((6 * n * n - n) * a2 - (8 * n * n - 2 * n) * r2) / (a2 * r)
    return top, sub


def divbar_h(t: ExactTorus) -> HPoly:
    """div_bar of H, a quartic in H."""
    a2, r, r2 = t.a2, t.r, t.r2
    pre = Fraction(1) / (a2 * r**4)
    return HPoly.of(
        [
            4 * (-a2 + 3 * r2),
            4 * r * (6 * a2 - 13 * r2),
            4 * r2 * (-13 * a2 + 21 * r2),
            12 * r**3 * (4 * a2 - 5 * r2),
            16 * r**4 * (-a2 + r2),
        ]
    ).scale(pre)


def divbar_k(t: ExactTorus) -> HPoly:
    """div_bar of K; equals (2/r) * div_bar(H) because K is linear in H."""
    return divbar_h(t).scale(Fraction(2) / t.r)


def divbar_bilinear(t: ExactTorus) -> HPoly:
    """The bilinear remainder B = K h^{uu} (dH/du)^2 of div_bar, degree 5.

    Since h^{uu} = r g^{uu} on this torus, B = r K(H) |grad H|^2, and the
    product rule takes the exact form

        div_bar(f(H)) = f'(H) div_bar(H) + f''(H) B(H).
    """
    return (k_as_hpoly(t) * grad_h_squared(t)).scale(t.r)


def divbar_poly(t: ExactTorus, f: HPoly) -> HPoly:
    """div_bar of an arbitrary polynomial f(H), by the chain rule."""
    d1 = f.derivative()
    d2 = d1.derivative()
    return d1 * divbar_h(t) + d2 * divbar_bilinear(t)


def laplacian_poly(t: ExactTorus, f: HPoly) -> HPoly:
    """Laplace-Beltrami of an arbitrary polynomial f(H), by the chain rule."""
    d1 = f.derivative()
    d2 = d1.derivative()
    return d1 * laplacian_h(t) + d2 * grad_h_squared(t)
