"""Closed forms and plain solvers that the tests compare the package against,
and the list of families that the exact-families benchmark solves.

None of them shares code with the integer kernel: the paper's ratio
constraint is written out as a formula, the solver below works on plain
Fractions, and the residual is built by the Euler-Lagrange equation as
written, with its own chain rule on polynomials held as tuples of
Fractions (``coeffs[k]`` multiplies H^k, no trailing zeros, as in
``HPoly.coeffs``) and the small ring helpers below.  It shares with the
package only the operator closed forms of :mod:`torusvar.h_calculus`, which
the identities table and the grid-oracle tests check against the spectral
operators, and reads their ``coeffs``.

The second half is a plain reference for the grid oracles: every call builds
its own nodes, curvatures and fundamental forms, evaluates each term of a
Lagrangian as ``float(c) * h**i * k**j``, and each operator differences its
own input.  The package shares that work within one call; the tests require
it to give the same floats, bit for bit.

The last part is the profile-curve oracle of the first and second variation:
it perturbs the torus's circle along its normal and recomputes the curvatures
from that curve alone.
"""

import math
from fractions import Fraction

import numpy as np

from torusvar.critical_solver import default_kterms, theorem_kterms
from torusvar.exact_algebra import LinearForm
from torusvar.h_calculus import (
    ExactTorus,
    divbar_bilinear,
    divbar_h,
    divbar_k,
    grad_h_squared,
    k_as_hpoly,
    laplacian_h,
)


def constraint_ratio(n: int) -> Fraction:
    """Aspect ratio a^2/r^2 = (n^2 - n)/(n^2 - n - 1) that the paper states
    for the degree-n pure-H family, n >= 2."""
    if n < 2:
        raise ValueError("the ratio constraint exists only for degree >= 2")
    return Fraction(n * n - n, n * n - n - 1)


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


def trimmed(values) -> tuple:
    """A coefficient tuple without trailing zeros."""
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def add(*polys) -> tuple:
    """Sum of coefficient tuples."""
    out = [Fraction(0)] * max(map(len, polys), default=0)
    for p in polys:
        for k, c in enumerate(p):
            out[k] += c
    return trimmed(out)


def multiply(p, q) -> tuple:
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return trimmed(out)


def scale(p, factor) -> tuple:
    return trimmed(c * factor for c in p)


def derivative(p) -> tuple:
    return trimmed(k * c for k, c in enumerate(p))[1:]


def evaluate(p, x) -> Fraction:
    """Exact Horner evaluation (0 for the zero polynomial)."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def power(p, e: int) -> tuple:
    out = (Fraction(1),)
    for _ in range(e):
        out = multiply(out, p)
    return out


def substitute(form: LinearForm, forms) -> LinearForm:
    """``form`` with each unknown named in ``forms`` replaced by its
    LinearForm (to push bound unknowns down to free parameters)."""
    terms: dict[str, Fraction] = {}
    constant = form.constant
    for name, coeff in form.terms.items():
        replacement = forms.get(name, LinearForm.variable(name))
        for other, c in replacement.terms.items():
            terms[other] = terms.get(other, Fraction(0)) + coeff * c
        constant += coeff * replacement.constant
    return LinearForm(terms, constant)


def chain_rule(f, op, remainder) -> tuple:
    """op(f(H)) = f'(H) op(H) + f''(H) B(H), B the operator's remainder."""
    d1 = derivative(f)
    return add(multiply(d1, op), multiply(derivative(d1), remainder))


def ref_laplacian_poly(t: ExactTorus, f) -> tuple:
    return chain_rule(f, laplacian_h(t).coeffs, grad_h_squared(t).coeffs)


def ref_divbar_poly(t: ExactTorus, f) -> tuple:
    return chain_rule(f, divbar_h(t).coeffs, divbar_bilinear(t).coeffs)


def monomial_residual(t: ExactTorus, i: int, j: int) -> tuple:
    """Residual of E = H^i K^j at zero pressure on t,

        (lap + 4 H^2 - 2 K) E_H + 2 (div_bar + 2 K H) E_K - 4 H E,

    with K = k_as_hpoly(t) and the chain rules above."""
    h, k = (0, 1), k_as_hpoly(t).coeffs

    residual = scale(multiply(power(h, i + 1), power(k, j)), -4)
    if i >= 1:
        e_h = scale(multiply(power(h, i - 1), power(k, j)), i)
        algebraic = add((0, 0, 4), scale(k, -2))
        residual = add(residual, ref_laplacian_poly(t, e_h), multiply(algebraic, e_h))
    if j >= 1:
        e_k = scale(multiply(power(h, i), power(k, j - 1)), j)
        residual = add(residual, scale(add(ref_divbar_poly(t, e_k), multiply(scale(multiply(k, h), 2), e_k)), 2))
    return residual


def lagrangian_residual(t: ExactTorus, lagrangian) -> tuple:
    """Residual of a numeric Lagrangian on t: its terms' monomial residuals
    plus twice the pressure."""
    return add(
        (2 * lagrangian.pressure,),
        *(scale(monomial_residual(t, i, j), c) for (i, j), c in lagrangian.terms.items()),
    )


def exact_families() -> list[tuple[int, tuple, Fraction]]:
    """(degree, K terms, a^2/r^2) of the 37 exact-families systems: pure-H
    n = 2..24 at (n^2 - n)/(n^2 - n - 1), the theorem K-ladder n = 4..14 at
    a^2/r^2 = 3, and the degree-4 default K-family at 2, 6/5 and 3."""
    out = [(n, (), Fraction(n * n - n, n * n - n - 1)) for n in range(2, 25)]
    out += [(n, theorem_kterms(n), Fraction(3)) for n in range(4, 15)]
    out += [(4, default_kterms(4), rho) for rho in (Fraction(2), Fraction(6, 5), Fraction(3))]
    return out


def ref_nodes(n):
    return 2.0 * np.pi * np.arange(n) / n


def ref_curvatures(t, u):
    w = t.a + t.r * np.cos(u)
    h = 0.5 * (1.0 / t.r + np.cos(u) / w)
    k = np.cos(u) / (t.r * w)
    return h, k


def ref_fundamental_forms(t, u):
    """Diagonal components (g11, g22, h11, h22) of the fundamental forms."""
    w = t.a + t.r * np.cos(u)
    g11 = t.r**2 * np.ones_like(w)
    h11 = t.r * np.ones_like(w)
    return g11, w**2, h11, w * np.cos(u)


def ref_derivative(values):
    n = values.shape[0]
    spec = np.fft.rfft(values)
    spec = spec * (1j * np.arange(spec.shape[0]))
    spec[-1] = 0.0
    return np.fft.irfft(spec, n)


def _ref_divergence_form(t, values, kernel):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    u = ref_nodes(n)
    w = t.a + t.r * np.cos(u)
    inner = kernel(u, w) * ref_derivative(values)
    return ref_derivative(inner) / (t.r**2 * w)


def ref_lb(t, values):
    return _ref_divergence_form(t, values, lambda u, w: w)


def ref_divbar(t, values):
    return _ref_divergence_form(t, values, lambda u, w: np.cos(u))


def ref_eval(lagrangian, h, k):
    total = np.zeros_like(h, dtype=float)
    for (i, j), c in lagrangian.terms.items():
        total = total + float(c) * h**i * k**j
    return total


def ref_area_integral(t, integrand, n):
    u = ref_nodes(n)
    w = t.a + t.r * np.cos(u)
    du = 2.0 * math.pi / n
    return 2.0 * math.pi * float(np.sum(integrand * t.r * w)) * du


def ref_area_volume(t, n):
    """(area quadrature, volume quadrature)."""
    u = ref_nodes(n)
    w = t.a + t.r * np.cos(u)
    du = 2.0 * np.pi / n
    volume_q = (2.0 * np.pi / 3.0) * float(np.sum((t.a * np.cos(u) + t.r) * t.r * w)) * du
    return ref_area_integral(t, 1.0, n), volume_q


def ref_el_residual_numeric_scaled(t, lagrangian, n):
    u = ref_nodes(n)
    h, k = ref_curvatures(t, u)
    eh = ref_eval(lagrangian.partial_h(), h, k)
    ek = ref_eval(lagrangian.partial_k(), h, k)
    density = ref_eval(lagrangian, h, k)
    terms = (
        ref_lb(t, eh),
        (4.0 * h**2 - 2.0 * k) * eh,
        2.0 * ref_divbar(t, ek),
        4.0 * k * h * ek,
        -4.0 * h * density,
        2.0 * float(lagrangian.pressure) * np.ones_like(h),
    )
    residual = terms[0] + terms[1] + terms[2] + terms[3] + terms[4] + terms[5]
    scale = float(np.max(sum(np.abs(piece) for piece in terms)))
    return residual, max(scale, 1.0)


def ref_max_residual(numeric):
    """The grid maximum as a per-element loop; it drops a NaN unless the NaN comes first."""
    return float(max(abs(float(x)) for x in numeric))


def ref_curvature_energy(t, lagrangian, pressure, n):
    """(area term, pressure term, quadrature error)."""

    def area_term(m):
        h, k = ref_curvatures(t, ref_nodes(m))
        return ref_area_integral(t, ref_eval(lagrangian, h, k), m)

    area = area_term(n)
    coarse = area_term(n // 2)
    volume = 2.0 * math.pi**2 * t.a * t.r**2
    return area, 0.0 - float(pressure) * volume, abs(area - coarse)


def ref_second_variation(t, lagrangian, pressure, omega, n, v_mode=0):
    e_h = lagrangian.partial_h()
    u = ref_nodes(n)
    h, k = ref_curvatures(t, u)
    w = t.a + t.r * np.cos(u)
    g_uu = 1.0 / t.r**2
    g_vv = 1.0 / w**2
    k_h_uu = k / t.r
    k_h_vv = 1.0 / (t.r * w**2)
    e_val = ref_eval(lagrangian, h, k)
    de = ref_eval(e_h, h, k)
    d2e = ref_eval(e_h.partial_h(), h, k)
    p = float(pressure)
    big_e1 = (2.0 * h**2 - k) ** 2 * d2e - 2.0 * h * k * de + 2.0 * k * e_val - 2.0 * h * p
    big_e2 = (2.0 * h**2 - k) * d2e + 2.0 * h * de - e_val
    f = omega.values(u)
    df = ref_derivative(f)
    m2 = float(v_mode * v_mode)
    lap_f = ref_lb(t, f) - m2 * g_vv * f
    div_tilde_f = ref_divbar(t, f) - m2 * k_h_vv * f
    grad_f_tilde_f = k_h_uu * df**2 + m2 * k_h_vv * f**2
    grad_hf_grad_f = g_uu * ref_derivative(h * f) * df + m2 * g_vv * h * f**2
    integrand = (
        big_e1 * f**2
        + big_e2 * f * lap_f
        - 2.0 * de * f * div_tilde_f
        + 0.25 * d2e * lap_f**2
        + de * (grad_hf_grad_f - grad_f_tilde_f)
    )
    value = ref_area_integral(t, integrand, n)
    return 0.5 * value if v_mode >= 1 else value


def ref_identity_checks(torus, n):
    """The identities table: (name, relative error) per closed form."""
    shape = torus.to_shape()
    h, k_vals = ref_curvatures(shape, ref_nodes(n))

    def compare(coeffs, grid_values):
        # Horner in floats, as HPoly.eval_float
        exact = 0.0
        for c in reversed(coeffs):
            exact = exact * h + float(c)
        magnitude = max(float(np.max(np.abs(grid_values))), 1.0)
        return float(np.max(np.abs(exact - grid_values))) / magnitude

    df = ref_derivative(h)
    checks = [("laplacian(H)", compare(laplacian_h(torus).coeffs, ref_lb(shape, h)))]
    checks.append(("|grad H|^2", compare(grad_h_squared(torus).coeffs, df * df / float(torus.r) ** 2)))
    for k in range(2, 7):
        checks.append((f"laplacian(H^{k})", compare(ref_laplacian_poly(torus, (0,) * k + (1,)), ref_lb(shape, h**k))))
    checks.append(("div_bar(H)", compare(divbar_h(torus).coeffs, ref_divbar(shape, h))))
    checks.append(("div_bar(K)", compare(divbar_k(torus).coeffs, ref_divbar(shape, k_vals))))
    checks.append(("bilinear term", compare(divbar_bilinear(torus).coeffs, k_vals * (1.0 / float(torus.r)) * df * df)))
    for k in range(2, 6):
        checks.append((f"div_bar(H^{k})", compare(ref_divbar_poly(torus, (0,) * k + (1,)), ref_divbar(shape, h**k))))
    return checks


def fft_derivatives(f):
    n = f.shape[0]
    wavenumbers = np.fft.fftfreq(n, d=1.0 / n)
    spectrum = np.fft.fft(f)
    first = spectrum * 1j * wavenumbers
    first[n // 2] = 0.0
    return np.fft.ifft(first).real, np.fft.ifft(-spectrum * wavenumbers**2).real


def area_part_and_volume(lagrangian, a, r, eps, mode, n):
    """Integral of E dA and the enclosed volume of the surface of revolution
    generated by the torus's circle pushed out along its normal by
    eps * cos(mode * u)."""
    u = 2.0 * np.pi * np.arange(n) / n
    radius = r + eps * np.cos(mode * u)
    rho = a + radius * np.cos(u)  # distance from the axis
    z = radius * np.sin(u)
    d_rho, dd_rho = fft_derivatives(rho)
    d_z, dd_z = fft_derivatives(z)
    speed = np.hypot(d_rho, d_z)
    meridian = (d_rho * dd_z - d_z * dd_rho) / speed**3
    parallel = d_z / (rho * speed)
    h, k = 0.5 * (meridian + parallel), meridian * parallel
    density = sum(float(c) * h**i * k**j for (i, j), c in lagrangian.terms.items())
    du = 2.0 * np.pi / n
    area_part = 2.0 * np.pi * float(np.sum(density * rho * speed)) * du
    volume = np.pi * float(np.sum(rho**2 * d_z)) * du
    return area_part, volume


def second_difference(lagrangian, pressure, a, r, mode, n=512, step=1e-4):
    """Fourth-order central second difference of integral E dA - p V along
    the normal perturbation eps * cos(mode * u)."""
    weights = {2: -1.0, 1: 16.0, 0: -30.0, -1: 16.0, -2: -1.0}
    second = 0.0
    for s, weight in weights.items():
        area_part, volume = area_part_and_volume(lagrangian, a, r, s * step, mode, n)
        second += weight * (area_part - float(pressure) * volume) / (12.0 * step**2)
    return second
