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
oracle those identities are tested against.  The float torus, the grid
constants and :func:`suggest_grid` need no numpy: they are defined there.

The tables of a grid, the nodes u, cos u and the derivative multiplier
i k, depend on the grid size alone; :func:`grid_tables` builds them once per
size, read-only, and keeps the last ``GRID_MEMO_SIZE`` sizes, as numpy keeps
its FFT plans.  A :class:`SampledTorus` is one torus on one grid: w, H and
K, computed once, and the powers H^i and K^j, computed on first use.  Every
numeric oracle builds one per grid for the length of a single call and reads
its fields from it, so the torus's tables never outlive the call.  The
operators work along the last axis, so a stack of fields is differenced in
one transform pair, and they also accept a u-derivative their caller has
already taken, so a field used twice is differenced once.  Each array is
computed by the same numpy operations as a fresh evaluation would use, and a
stacked transform gives each row the floats it gives that row alone, so
sharing changes no float.

A power is built by multiplication, H^e = H^(e-1) * H and the same for K,
never by numpy's ``**``.  Each step rounds once, so H^e lies within
(e - 1) * 2**-53 relative of the exact e-th power of the float samples,
wherever that power is a normal float, and the chain gives the same bits
on any host.  numpy's ``**`` is within about one ulp, but its bits depend
on the SIMD routine the host dispatches to, and on a negative base (H on
part of every torus with a^2/r^2 < 4, K on half of every torus) it takes
a per-element path that costs about fifty grid multiplications.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .h_calculus import DEFAULT_GRID, MAX_GRID, TorusShape, suggest_grid

__all__ = [
    "TorusShape",
    "AreaVolume",
    "SampledTorus",
    "grid_nodes",
    "grid_tables",
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


# grid sizes whose tables are kept; a numeric-oracles run meets six
GRID_MEMO_SIZE = 16


class GridTables(NamedTuple):
    """The read-only tables of the n-point u-grid."""

    u: np.ndarray
    cos_u: np.ndarray
    # i k for the rfft modes k = 0 .. n // 2
    ik: np.ndarray


@lru_cache(maxsize=GRID_MEMO_SIZE)
def grid_tables(n: int) -> GridTables:
    """The nodes, cos u and derivative multiplier of the n-point grid, built
    once per grid size and shared by every call on that grid."""
    u = grid_nodes(n)
    tables = GridTables(u, np.cos(u), 1j * np.arange(n // 2 + 1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _curvatures(t: TorusShape, cos_u, w):
    return 0.5 * (1.0 / t.r + cos_u / w), cos_u / (t.r * w)


def curvatures(t: TorusShape, u):
    """Mean and Gaussian curvature at angle u (scalar or array)."""
    cos_u = np.cos(u)
    return _curvatures(t, cos_u, t.a + t.r * cos_u)


def _power(table: dict[int, np.ndarray], base: np.ndarray, e: int) -> np.ndarray:
    """base**e, e >= 1, by the chain base^m = base^(m-1) * base.

    ``table`` holds base^2 .. base^(len(table) + 1); the chain starts from
    the highest of them and keeps every power it builds, so each power has
    the same floats whatever order the powers are asked in.
    """
    if e == 1:
        return base
    if e not in table:
        power = table[len(table) + 1] if table else base
        for m in range(len(table) + 2, e + 1):
            power = table[m] = power * base
    return table[e]


class SampledTorus:
    """One torus sampled on the n-point u-grid, for the length of one call.

    ``u`` and ``cos_u`` are the grid's shared read-only tables
    (:func:`grid_tables`); ``w = a + r cos u`` and the curvatures ``h`` and
    ``k`` are computed at construction, and :meth:`h_power` and
    :meth:`k_power` compute each power on first use and keep it with the
    object.  Each oracle call builds its own and drops it on return, so no
    table of the torus outlives the call.
    """

    def __init__(self, shape: TorusShape, n: int):
        self.shape = shape
        self.n = n
        self.u, self.cos_u, _ = grid_tables(n)
        self.w = shape.a + shape.r * self.cos_u
        self.h, self.k = _curvatures(shape, self.cos_u, self.w)
        self._h_powers: dict[int, np.ndarray] = {}
        self._k_powers: dict[int, np.ndarray] = {}

    def h_power(self, i: int) -> np.ndarray:
        """H**i, i >= 1, computed on first use (H itself for i = 1)."""
        return _power(self._h_powers, self.h, i)

    def k_power(self, j: int) -> np.ndarray:
        """K**j, j >= 1, computed on first use (K itself for j = 1)."""
        return _power(self._k_powers, self.k, j)

    def area_integral(self, integrand) -> float:
        """Periodic-trapezoid quadrature of integrand dA, with the exact 2 pi of v."""
        du = 2.0 * math.pi / self.n
        return 2.0 * math.pi * float(np.sum(integrand * self.shape.r * self.w)) * du


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/du along the last axis by trigonometric interpolation on [0, 2pi);
    exact for resolved trigonometric polynomials up to roundoff.

    A stack of fields is differenced row by row in one transform pair.  On
    an even grid the last rfft mode is the Nyquist mode, which carries no
    derivative information for real data and is dropped; on an odd grid it
    is a resolved mode and is kept.
    """
    n = values.shape[-1]
    spec = np.fft.rfft(values) * grid_tables(n).ik
    if n % 2 == 0:
        spec[..., -1] = 0.0
    return np.fft.irfft(spec, n)


def _divergence_form(
    t: TorusShape | SampledTorus, values: np.ndarray, kernel, derivative: np.ndarray | None
) -> np.ndarray:
    """(1/(r**2 w)) d/du (kernel(s) df/du) for the samples f of a field, or
    a stack of fields, along the last axis; t is a TorusShape, or a
    SampledTorus on the same grid, and ``derivative``, when given, is df/du
    already taken."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
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

    t is a TorusShape or a SampledTorus; ``values`` is a field or a stack of
    fields on the grid along the last axis, and ``derivative`` its
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
