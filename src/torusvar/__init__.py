"""torusvar: exact and numeric engine for critical tori of curvature functionals.

The package decides whether a torus of revolution is a critical point of a
curvature functional (an integral of a polynomial energy density in the mean
and Gaussian curvatures, plus a pressure-volume term), solves exactly for the
coefficient families and pressures that make it one, and cross-checks every
closed form against independent spectral-grid and quadrature oracles.

The root exports the names the demos use; everything else is imported from
its module (``torusvar.exact_algebra``, ``torusvar.critical_solver``, ...).
"""

from importlib import import_module

__version__ = "0.3.0"

# each root name -> the module that defines it; a name loads its module on
# first access (PEP 562), so ``import torusvar`` loads no submodule and the
# exact path (``torusvar solve``) never loads numpy
_HOMES = {
    "ExactTorus": "h_calculus",
    "HelfrichParams": "shape_equation",
    "Lagrangian": "shape_equation",
    "Perturbation": "energetics",
    "TorusShape": "h_calculus",
    "area_volume": "torus_geometry",
    "curvature_energy": "energetics",
    "curvatures": "torus_geometry",
    "divbar_h": "h_calculus",
    "divbar_numeric": "torus_geometry",
    "grad_h_squared": "h_calculus",
    "helfrich_lagrangian": "shape_equation",
    "laplacian_h": "h_calculus",
    "lb_numeric": "torus_geometry",
    "second_variation": "energetics",
    "solve_pure_h": "critical_solver",
    "solve_with_gauss": "critical_solver",
    "sphere_residual": "shape_equation",
    "verify_solution": "critical_solver",
    "willmore_scan": "energetics",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    # looked up on every access, not cached, so a root name is always the
    # current attribute of its module
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
