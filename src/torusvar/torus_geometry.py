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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "TorusShape",
    "AreaVolume",
    "grid_nodes",
    "curvatures",
    "fundamental_forms",
    "spectral_derivative",
    "lb_numeric",
    "divbar_numeric",
    "area_volume",
]

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
class AreaVolume:
    """Closed-form and quadrature area/volume, plus the reduced volume."""

    area: float
    volume: float
    reduced_volume: float
    area_quadrature: float
    volume_quadrature: float


def grid_nodes(n: int = DEFAULT_GRID) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def suggest_grid(t: TorusShape, base: int = DEFAULT_GRID, tail: float = 1e-14) -> int:
    """Grid size that resolves this torus's curvature fields spectrally.

    Fields on the torus are analytic with Fourier modes decaying like q**k,
    q = r / (a + sqrt(a^2 - r^2)); aspect ratios close to 1 decay slowly and
    need more than the default grid.  The residual applies two derivatives,
    which multiply mode k by k**2, so this returns the smallest power-of-two
    multiple of ``base`` whose Nyquist mode k = N/2 has k**2 q**k below
    ``tail``.  A torus that needs more than ``MAX_GRID`` points raises
    ValueError before any grid is allocated.
    """
    s = t.a / t.r
    q = 1.0 / (s + math.sqrt(s * s - 1.0))
    n = base
    while (n / 2) ** 2 * q ** (n / 2) >= tail:
        n *= 2
    if n > MAX_GRID:
        ratio = t.a2 / t.r2 if t.a2 is not None else t.ratio
        raise ValueError(f"a^2/r^2 = {ratio} needs a grid of {n} points, above the cap of {MAX_GRID}")
    return n


def curvatures(t: TorusShape, u):
    """Mean and Gaussian curvature at angle u (scalar or array)."""
    w = t.a + t.r * np.cos(u)
    h = 0.5 * (1.0 / t.r + np.cos(u) / w)
    k = np.cos(u) / (t.r * w)
    return h, k


def fundamental_forms(t: TorusShape, u):
    """Diagonal components (g11, g22, h11, h22) of the fundamental forms."""
    w = t.a + t.r * np.cos(u)
    g11 = t.r**2 * np.ones_like(w)
    h11 = t.r * np.ones_like(w)
    return g11, w**2, h11, w * np.cos(u)


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


def _divergence_form(t: TorusShape, values: np.ndarray, kernel) -> np.ndarray:
    """(1/(r**2 w)) d/du (kernel(u, w) df/du) for the samples f of a field
    at the grid nodes."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 16 or n % 2:
        raise ValueError(f"grid size must be even and >= 16, got {n}")
    u = grid_nodes(n)
    w = t.a + t.r * np.cos(u)
    inner = kernel(u, w) * spectral_derivative(values)
    return spectral_derivative(inner) / (t.r**2 * w)


def lb_numeric(t: TorusShape, values: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami of a v-independent field, spectrally differenced."""
    return _divergence_form(t, values, lambda u, w: w)


def divbar_numeric(t: TorusShape, values: np.ndarray) -> np.ndarray:
    """Second-fundamental-form divergence operator on a v-independent field.

    The kernel is sqrt(g) * K * h^{uu} = cos(u) / r, written here with the
    common 1/r factored into the outer division.
    """
    return _divergence_form(t, values, lambda u, w: np.cos(u))


def _area_integral(t: TorusShape, integrand, n: int) -> float:
    """Periodic-trapezoid quadrature of integrand dA, with the exact 2 pi of v."""
    u = grid_nodes(n)
    w = t.a + t.r * np.cos(u)
    du = 2.0 * math.pi / n
    return 2.0 * math.pi * float(np.sum(integrand * t.r * w)) * du


def area_volume(t: TorusShape, n: int = DEFAULT_GRID) -> AreaVolume:
    """Area, enclosed volume and reduced volume.

    Closed forms are A = 4 pi^2 a r and V = 2 pi^2 a r^2.  Both are also
    recomputed by periodic-trapezoid quadrature (area element directly; the
    volume through the divergence theorem, whose integrand on this surface is
    ``a cos u + r``) as an independent cross-check.
    """
    u = grid_nodes(n)
    w = t.a + t.r * np.cos(u)
    du = 2.0 * np.pi / n
    area_q = _area_integral(t, 1.0, n)
    volume_q = (2.0 * np.pi / 3.0) * float(np.sum((t.a * np.cos(u) + t.r) * t.r * w)) * du
    area = 4.0 * math.pi**2 * t.a * t.r
    volume = 2.0 * math.pi**2 * t.a * t.r**2
    reduced = volume / ((4.0 * math.pi / 3.0) * (area / (4.0 * math.pi)) ** 1.5)
    return AreaVolume(area, volume, reduced, area_q, volume_q)
