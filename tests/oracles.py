"""Closed forms that the tests compare the package against."""

from fractions import Fraction

from torusvar.h_calculus import ExactTorus


def laplacian_pow_leading_coeffs(t: ExactTorus, n: int) -> tuple[Fraction, Fraction]:
    """The two leading coefficients of laplacian_poly(t, H**n), n >= 2.

    [H^(n+2)] = 4 n^2 (r^2 - a^2) / a^2  and
    [H^(n+1)] = 2 ((6 n^2 - n) a^2 - (8 n^2 - 2 n) r^2) / (a^2 r).
    """
    a2, r, r2 = t.a2, t.r, t.r2
    top = Fraction(4 * n * n) * (-a2 + r2) / a2
    sub = Fraction(2) * ((6 * n * n - n) * a2 - (8 * n * n - 2 * n) * r2) / (a2 * r)
    return top, sub
