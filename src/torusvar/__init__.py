"""torusvar: exact and numeric engine for critical tori of curvature functionals.

The package decides whether a torus of revolution is a critical point of a
curvature functional (an integral of a polynomial energy density in the mean
and Gaussian curvatures, plus a pressure-volume term), solves exactly for the
coefficient families and pressures that make it one, and cross-checks every
closed form against independent spectral-grid and quadrature oracles.

The root exports the names the demos use; everything else is imported from
its module (``torusvar.exact_algebra``, ``torusvar.critical_solver``, ...).
"""

__version__ = "0.3.0"

from .critical_solver import solve_pure_h, solve_with_gauss, verify_solution
from .energetics import (
    Perturbation,
    curvature_energy,
    second_variation,
    willmore_scan,
)
from .h_calculus import ExactTorus, divbar_h, grad_h_squared, laplacian_h
from .shape_equation import HelfrichParams, Lagrangian, helfrich_lagrangian, sphere_residual
from .torus_geometry import TorusShape, area_volume, curvatures, divbar_numeric, lb_numeric

__all__ = [
    "__version__",
    "ExactTorus",
    "HelfrichParams",
    "Lagrangian",
    "Perturbation",
    "TorusShape",
    "area_volume",
    "curvature_energy",
    "curvatures",
    "divbar_h",
    "divbar_numeric",
    "grad_h_squared",
    "helfrich_lagrangian",
    "laplacian_h",
    "lb_numeric",
    "second_variation",
    "solve_pure_h",
    "solve_with_gauss",
    "sphere_residual",
    "verify_solution",
    "willmore_scan",
]
