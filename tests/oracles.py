"""Closed forms and plain solvers that the tests compare the package against,
and the list of families that the exact-families benchmark solves.

None of them shares code with the integer kernel: the solver below works on
plain Fractions, and the residual is built from the HPoly closed forms of
:mod:`torusvar.h_calculus` by the Euler-Lagrange equation as written.
"""

from fractions import Fraction

from torusvar.critical_solver import default_kterms, theorem_kterms
from torusvar.exact_algebra import HPoly
from torusvar.h_calculus import ExactTorus, divbar_poly, k_as_hpoly, laplacian_poly


def laplacian_pow_leading_coeffs(t: ExactTorus, n: int) -> tuple[Fraction, Fraction]:
    """The two leading coefficients of laplacian_poly(t, H**n), n >= 2.

    [H^(n+2)] = 4 n^2 (r^2 - a^2) / a^2  and
    [H^(n+1)] = 2 ((6 n^2 - n) a^2 - (8 n^2 - 2 n) r^2) / (a^2 r).
    """
    a2, r, r2 = t.a2, t.r, t.r2
    top = Fraction(4 * n * n) * (-a2 + r2) / a2
    sub = Fraction(2) * ((6 * n * n - n) * a2 - (8 * n * n - 2 * n) * r2) / (a2 * r)
    return top, sub


def gauss_jordan(rows, unknowns, pivot_order=None):
    """Solve ``sum_l row[l] * unknowns[l] + row[-1] == 0`` by Gauss-Jordan
    elimination on Fractions.

    Columns are offered in ``pivot_order`` and then in ``unknowns`` order;
    each takes as pivot the first row, in the given order, that is not yet a
    pivot and has a nonzero entry there.  Returns (pivot unknowns, free
    unknowns, {bound unknown: ({free unknown: coefficient}, constant)},
    offending row indices).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    col_of = {u: l for l, u in enumerate(unknowns)}
    pivot_of_row: dict[int, int] = {}
    for u in [*(pivot_order or ()), *unknowns]:
        c = col_of[u]
        if c in pivot_of_row.values():
            continue
        sel = next((i for i, row in enumerate(m) if i not in pivot_of_row and row[c] != 0), None)
        if sel is None:
            continue
        pivot_of_row[sel] = c
        m[sel] = [x / m[sel][c] for x in m[sel]]
        for i, row in enumerate(m):
            if i != sel and row[c] != 0:
                m[i] = [x - row[c] * y for x, y in zip(row, m[sel])]
    pivots = [unknowns[c] for c in pivot_of_row.values()]
    free = [u for u in unknowns if u not in pivots]
    assignments = {
        unknowns[c]: ({f: -m[i][col_of[f]] for f in free if m[i][col_of[f]] != 0}, -m[i][-1])
        for i, c in pivot_of_row.items()
    }
    offending = [i for i, row in enumerate(m) if i not in pivot_of_row and row[-1] != 0]
    return pivots, free, assignments, offending


def monomial_residual(t: ExactTorus, i: int, j: int) -> HPoly:
    """Residual of E = H^i K^j at zero pressure on t,

        (lap + 4 H^2 - 2 K) E_H + 2 (div_bar + 2 K H) E_K - 4 H E,

    with K = k_as_hpoly(t) and the operators laplacian_poly and divbar_poly."""
    h, k = HPoly.monomial(1), k_as_hpoly(t)

    def power(p: HPoly, e: int) -> HPoly:
        out = HPoly.const(1)
        for _ in range(e):
            out = out * p
        return out

    residual = (h * power(h, i) * power(k, j)).scale(-4)
    if i >= 1:
        e_h = (power(h, i - 1) * power(k, j)).scale(i)
        algebraic = h * h * HPoly.const(4) - k.scale(2)
        residual = residual + laplacian_poly(t, e_h) + algebraic * e_h
    if j >= 1:
        e_k = (power(h, i) * power(k, j - 1)).scale(j)
        residual = residual + (divbar_poly(t, e_k) + (k * h).scale(2) * e_k).scale(2)
    return residual


def lagrangian_residual(t: ExactTorus, lagrangian) -> HPoly:
    """Residual of a numeric Lagrangian on t: its terms' monomial residuals
    plus twice the pressure."""
    residual = HPoly.const(2 * lagrangian.pressure)
    for (i, j), c in lagrangian.terms.items():
        residual = residual + monomial_residual(t, i, j).scale(c)
    return residual


def exact_families() -> list[tuple[int, tuple, Fraction]]:
    """(degree, K terms, a^2/r^2) of the 37 exact-families systems: pure-H
    n = 2..24 at (n^2 - n)/(n^2 - n - 1), the theorem K-ladder n = 4..14 at
    a^2/r^2 = 3, and the degree-4 default K-family at 2, 6/5 and 3."""
    out = [(n, (), Fraction(n * n - n, n * n - n - 1)) for n in range(2, 25)]
    out += [(n, theorem_kterms(n), Fraction(3)) for n in range(4, 15)]
    out += [(4, default_kterms(4), rho) for rho in (Fraction(2), Fraction(6, 5), Fraction(3))]
    return out
