"""torusvar: exact and numeric engine for critical tori of curvature functionals.

The package decides whether a torus of revolution is a critical point of a
curvature functional (an integral of a polynomial energy density in the mean
and Gaussian curvatures, plus a pressure-volume term), solves exactly for the
coefficient families and pressures that make it one, and cross-checks every
closed form against independent spectral-grid and quadrature oracles.
"""

__version__ = "0.2.0"

from .critical_solver import (
    DegeneracyInfo,
    SolutionReport,
    VerificationResult,
    constraint_ratio,
    default_kterms,
    family_lagrangian,
    solve_lagrangian,
    solve_pure_h,
    solve_with_gauss,
    theorem_kterms,
    verify_solution,
)
from .energetics import (
    EnergyReport,
    MembraneDiagnostics,
    Perturbation,
    curvature_energy,
    membrane_diagnostics,
    second_variation,
    willmore_scan,
)
from .exact_algebra import HPoly, LinearForm, nullspace, solve_linear_system
from .h_calculus import (
    ExactTorus,
    divbar_bilinear,
    divbar_h,
    divbar_k,
    divbar_poly,
    grad_h_squared,
    k_as_hpoly,
    laplacian_h,
    laplacian_poly,
)
from .shape_equation import (
    HelfrichParams,
    Lagrangian,
    ResidualSystem,
    el_residual,
    el_system,
    helfrich_lagrangian,
    sphere_residual,
)
from .torus_geometry import (
    AreaVolume,
    suggest_grid,
    TorusShape,
    area_volume,
    curvatures,
    divbar_numeric,
    fundamental_forms,
    lb_numeric,
)

__all__ = [
    "__version__",
    "HPoly",
    "LinearForm",
    "nullspace",
    "solve_linear_system",
    "TorusShape",
    "AreaVolume",
    "curvatures",
    "fundamental_forms",
    "lb_numeric",
    "divbar_numeric",
    "area_volume",
    "suggest_grid",
    "ExactTorus",
    "k_as_hpoly",
    "laplacian_h",
    "grad_h_squared",
    "laplacian_poly",
    "divbar_h",
    "divbar_k",
    "divbar_bilinear",
    "divbar_poly",
    "Lagrangian",
    "HelfrichParams",
    "helfrich_lagrangian",
    "ResidualSystem",
    "el_system",
    "el_residual",
    "sphere_residual",
    "SolutionReport",
    "DegeneracyInfo",
    "VerificationResult",
    "constraint_ratio",
    "default_kterms",
    "theorem_kterms",
    "family_lagrangian",
    "solve_lagrangian",
    "solve_pure_h",
    "solve_with_gauss",
    "verify_solution",
    "EnergyReport",
    "Perturbation",
    "MembraneDiagnostics",
    "curvature_energy",
    "willmore_scan",
    "second_variation",
    "membrane_diagnostics",
]
