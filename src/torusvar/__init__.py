"""torusvar: exact and numeric engine for critical tori of curvature functionals.

The package decides whether a torus of revolution is a critical point of a
curvature functional (an integral of a polynomial energy density in the mean
and Gaussian curvatures, plus a pressure-volume term), solves exactly for the
coefficient families and pressures that make it one, and cross-checks every
closed form against independent spectral-grid and quadrature oracles.

Each name is imported from the module that defines it
(``torusvar.h_calculus``, ``torusvar.critical_solver``, ...); the root binds
only ``__version__``, so ``import torusvar`` loads no submodule.
"""

__version__ = "0.3.0"
