"""Energies, bending-energy scans, and the second-variation form.

All integrals here are periodic-trapezoid quadratures in u (times the exact
2 pi of the symmetry direction), which converge spectrally for the smooth
periodic integrands on the torus; the default 256-point grid leaves errors
far below the tolerances asserted anywhere in the test suite.  Each call
samples its torus once, on the one grid it is given
(:class:`torusvar.torus_geometry.SampledTorus`), and differences each field
once; a self-convergence check repeats the call at grid/2, as the CLI's
``energy`` and ``second-variation`` commands do.  The reduced volume is
closed-form: ``torus_geometry.area_volume(t).reduced_volume``.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .shape_equation import Lagrangian
from .torus_geometry import (
    DEFAULT_GRID,
    SampledTorus,
    TorusShape,
    divbar_numeric,
    lb_numeric,
    spectral_derivative,
)

__all__ = [
    "EnergyReport",
    "Perturbation",
    "curvature_energy",
    "willmore_scan",
    "second_variation",
]


class EnergyReport(NamedTuple):
    """Split of F = (area term) - p * (volume): both pieces plus the total.

    p is the inside-minus-outside pressure, the multiplier of -V that the
    shape equation and the solved families use; ``pressure_term`` is -p V.
    """

    area_term: float
    pressure_term: float
    total: float


class Perturbation:
    """Normal perturbation amplitude Omega(u) as a finite Fourier sum.

    ``cos_modes[j]`` multiplies cos(j u) and ``sin_modes[j]`` multiplies
    sin(j u); the field is smooth and periodic by construction.
    """

    __slots__ = ("cos_modes", "sin_modes")

    def __init__(self, cos_modes: Mapping[int, float] | None = None, sin_modes: Mapping[int, float] | None = None):
        self.cos_modes = {} if cos_modes is None else cos_modes
        self.sin_modes = {} if sin_modes is None else sin_modes
        if any(j < 0 for modes in (self.cos_modes, self.sin_modes) for j in modes):
            raise ValueError("mode indices must be nonnegative")

    def values(self, u: np.ndarray) -> np.ndarray:
        total = np.zeros_like(u)
        for j, c in self.cos_modes.items():
            total = total + c * np.cos(j * u)
        for j, c in self.sin_modes.items():
            total = total + c * np.sin(j * u)
        return total


def curvature_energy(
    t: TorusShape, lagrangian: Lagrangian, pressure: float = 0.0, n: int = DEFAULT_GRID
) -> EnergyReport:
    """Quadrature of F = integral E(H, K) dA - p V on the given torus.

    p is the inside-minus-outside pressure, so a solved family member's own
    pressure makes ``total`` stationary in the radii.
    """
    s = SampledTorus(t, n)
    area = s.area_integral(lagrangian.eval_at(s))
    volume = 2.0 * math.pi**2 * t.a * t.r**2
    # 0.0 - pV rather than -pV, so that p = 0 gives +0.0 and not -0.0
    pressure_term = 0.0 - float(pressure) * volume
    return EnergyReport(
        area_term=area,
        pressure_term=pressure_term,
        total=area + pressure_term,
    )


def willmore_scan(
    shapes: Sequence[TorusShape], n: int = DEFAULT_GRID
) -> list[tuple[TorusShape, float]]:
    """Integral of H^2 over each torus (the coefficient-normalized bending
    energy); the minimum over aspect ratios sits at a^2/r^2 = 2."""
    bending = Lagrangian.pure_h({2: 1})
    return [(t, curvature_energy(t, bending, 0.0, n).area_term) for t in shapes]


def second_variation(
    t: TorusShape,
    lagrangian: Lagrangian,
    pressure: float,
    omega: Perturbation,
    n: int = DEFAULT_GRID,
    v_mode: int = 0,
) -> float:
    """Quadratic form of the second variation at an H-only Lagrangian.

    The perturbation is omega(u) * cos(v_mode * v); the default v_mode = 0 is
    the axisymmetric case.  The tilde-marked first-order operator in the
    cross terms pairs gradients through K times the inverse second
    fundamental form, as div_bar does.  ``pressure`` is the multiplier of
    -V, as in :func:`curvature_energy`.
    """
    if v_mode < 0:
        raise ValueError("v_mode must be nonnegative")
    if any(j for (_, j) in lagrangian.terms):
        raise ValueError("second variation is implemented for H-only Lagrangians")
    e_h = lagrangian.partial_h()

    s = SampledTorus(t, n)
    h, k, w = s.h, s.k, s.w
    g_uu = 1.0 / t.r**2
    g_vv = 1.0 / w**2
    k_h_uu = k / t.r  # K h^{uu}
    k_h_vv = 1.0 / (t.r * w**2)  # K h^{vv}, finite although h22 vanishes

    e_val = lagrangian.eval_at(s)
    de = e_h.eval_at(s)
    d2e = e_h.partial_h().eval_at(s)
    p = float(pressure)
    h2 = s.h_power(2)

    big_e1 = (2.0 * h2 - k) ** 2 * d2e - 2.0 * h * k * de + 2.0 * k * e_val - 2.0 * h * p
    big_e2 = (2.0 * h2 - k) * d2e + 2.0 * h * de - e_val

    # f is differenced once, for both operators and the gradient terms
    f = omega.values(s.u)
    df = spectral_derivative(f)
    m2 = float(v_mode * v_mode)

    lap_f = lb_numeric(s, f, df) - m2 * g_vv * f
    div_tilde_f = divbar_numeric(s, f, df) - m2 * k_h_vv * f
    grad_f_tilde_f = k_h_uu * df**2 + m2 * k_h_vv * f**2
    grad_hf_grad_f = g_uu * spectral_derivative(h * f) * df + m2 * g_vv * h * f**2

    integrand = (
        big_e1 * f**2
        + big_e2 * f * lap_f
        - 2.0 * de * f * div_tilde_f
        + 0.25 * d2e * lap_f**2
        + de * (grad_hf_grad_f - grad_f_tilde_f)
    )
    value = s.area_integral(integrand)
    # the v average of cos^2(m v) halves every term for a genuine v mode
    return 0.5 * value if v_mode >= 1 else value
