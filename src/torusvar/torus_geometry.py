"""Concrete torus geometry and the discretized differential-operator oracle.

The torus with radii ``a > r > 0`` is parametrized as

    X(u, v) = ((a + r cos u) cos v, (a + r cos u) sin v, r sin u)

with first fundamental form ``g11 = r**2``, ``g22 = (a + r cos u)**2`` and
second fundamental form ``h11 = r``, ``h22 = (a + r cos u) cos u`` (normal
chosen so both curvatures are positive on the outer equator).  This gives

    K = cos u / (r (a + r cos u)),    H = (1/r + cos u/(a + r cos u)) / 2

and the Weingarten relation ``r**2 K - 2 r H + 1 = 0``.

Every scalar field used elsewhere in the package is a function of u alone,
so the two second-order operators reduce to one-dimensional forms evaluated
here by spectral (trigonometric-interpolation) differentiation:

    laplace_beltrami f = (1/(r**2 w)) d/du ( w df/du ),          w = a + r cos u
    div_bar f          = (1/(r**2 w)) d/du ( cos u df/du )

The grid operators in this module are deliberately independent of the
closed-form polynomial identities in :mod:`torusvar.h_calculus`; they are the
oracle those identities are tested against.

A :class:`SampledTorus` is one torus on one grid: the nodes, cos u, w, H and
K, computed once, and the powers H^i and K^j, computed on first use.  Every
numeric oracle builds one per grid for the length of a single call and reads
its fields from it; the operators also accept a u-derivative their caller
has already taken, so a field used twice is differenced once.  Each array is
computed by the same numpy operations as a fresh evaluation would use, so
sharing changes no float.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# the float torus and the grid constants live on the numpy-free side
from .h_calculus import DEFAULT_GRID, MAX_GRID, TorusShape

__all__ = [
    "TorusShape",
    "AreaVolume",
    "SampledTorus",
    "grid_nodes",
    "curvatures",
    "spectral_derivative",
    "lb_numeric",
    "divbar_numeric",
    "area_volume",
]


class AreaVolume(NamedTuple):
    """Closed-form and quadrature area/volume, plus the reduced volume."""

    area: float
    volume: float
    reduced_volume: float
    area_quadrature: float
    volume_quadrature: float


def grid_nodes(n: int = DEFAULT_GRID) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


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


def _curvatures(t: TorusShape, cos_u, w):
    return 0.5 * (1.0 / t.r + cos_u / w), cos_u / (t.r * w)


def curvatures(t: TorusShape, u):
    """Mean and Gaussian curvature at angle u (scalar or array)."""
    cos_u = np.cos(u)
    return _curvatures(t, cos_u, t.a + t.r * cos_u)


def _power(table: dict[int, np.ndarray], base: np.ndarray, e: int) -> np.ndarray:
    if e == 1:
        return base
    if e not in table:
        table[e] = base**e
    return table[e]


class SampledTorus:
    """One torus sampled on the n-point u-grid, for the length of one call.

    ``u``, ``cos_u``, ``w = a + r cos u`` and the curvatures ``h`` and ``k``
    are computed at construction; :meth:`h_power` and :meth:`k_power`
    compute each power on first use and keep it with the object.  Each
    oracle call builds its own and drops it on return, so no table outlives
    the call.
    """

    def __init__(self, shape: TorusShape, n: int):
        self.shape = shape
        self.n = n
        self.u = grid_nodes(n)
        self.cos_u = np.cos(self.u)
        self.w = shape.a + shape.r * self.cos_u
        self.h, self.k = _curvatures(shape, self.cos_u, self.w)
        self._h_powers: dict[int, np.ndarray] = {}
        self._k_powers: dict[int, np.ndarray] = {}

    def h_power(self, i: int) -> np.ndarray:
        """H**i, computed on first use (H itself for i = 1)."""
        return _power(self._h_powers, self.h, i)

    def k_power(self, j: int) -> np.ndarray:
        """K**j, computed on first use (K itself for j = 1)."""
        return _power(self._k_powers, self.k, j)

    def area_integral(self, integrand) -> float:
        """Periodic-trapezoid quadrature of integrand dA, with the exact 2 pi of v."""
        du = 2.0 * math.pi / self.n
        return 2.0 * math.pi * float(np.sum(integrand * self.shape.r * self.w)) * du


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/du by trigonometric interpolation on [0, 2pi); exact for resolved
    trigonometric polynomials up to roundoff."""
    n = values.shape[0]
    spec = np.fft.rfft(values)
    k = np.arange(spec.shape[0])
    spec = spec * (1j * k)
    # the Nyquist mode carries no derivative information for real data
    spec[-1] = 0.0
    return np.fft.irfft(spec, n)


def _divergence_form(
    t: TorusShape | SampledTorus, values: np.ndarray, kernel, derivative: np.ndarray | None
) -> np.ndarray:
    """(1/(r**2 w)) d/du (kernel(s) df/du) for the samples f of a field at
    the grid nodes; t is a TorusShape, or a SampledTorus on the same grid,
    and ``derivative``, when given, is df/du already taken."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 16 or n % 2:
        raise ValueError(f"grid size must be even and >= 16, got {n}")
    s = t if isinstance(t, SampledTorus) else SampledTorus(t, n)
    if s.n != n:
        raise ValueError(f"{n} samples on a torus sampled at {s.n} points")
    if derivative is None:
        derivative = spectral_derivative(values)
    inner = kernel(s) * derivative
    return spectral_derivative(inner) / (s.shape.r**2 * s.w)


def lb_numeric(
    t: TorusShape | SampledTorus, values: np.ndarray, derivative: np.ndarray | None = None
) -> np.ndarray:
    """Laplace-Beltrami of a v-independent field, spectrally differenced.

    t is a TorusShape or a SampledTorus; ``derivative`` is the field's
    u-derivative when the caller has already taken it.
    """
    return _divergence_form(t, values, lambda s: s.w, derivative)


def divbar_numeric(
    t: TorusShape | SampledTorus, values: np.ndarray, derivative: np.ndarray | None = None
) -> np.ndarray:
    """Second-fundamental-form divergence operator on a v-independent field.

    The kernel is sqrt(g) * K * h^{uu} = cos(u) / r, written here with the
    common 1/r factored into the outer division.  Arguments as for
    :func:`lb_numeric`.
    """
    return _divergence_form(t, values, lambda s: s.cos_u, derivative)


def area_volume(t: TorusShape, n: int = DEFAULT_GRID) -> AreaVolume:
    """Area, enclosed volume and reduced volume.

    Closed forms are A = 4 pi^2 a r and V = 2 pi^2 a r^2.  Both are also
    recomputed by periodic-trapezoid quadrature (area element directly; the
    volume through the divergence theorem, whose integrand on this surface is
    ``a cos u + r``) as an independent cross-check.
    """
    s = SampledTorus(t, n)
    du = 2.0 * np.pi / n
    area_q = s.area_integral(1.0)
    volume_q = (2.0 * np.pi / 3.0) * float(np.sum((t.a * s.cos_u + t.r) * t.r * s.w)) * du
    area = 4.0 * math.pi**2 * t.a * t.r
    volume = 2.0 * math.pi**2 * t.a * t.r**2
    reduced = volume / ((4.0 * math.pi / 3.0) * (area / (4.0 * math.pi)) ** 1.5)
    return AreaVolume(area, volume, reduced, area_q, volume_q)
