"""Numerical laboratory for the two-dimensional Lagrangian mean curvature
equation arctan(lam1) + arctan(lam2) = psi(x).

The package solves Dirichlet problems for prescribed supercritical phases on
manufactured data and verifies, instance by instance, the algebraic
identities and differential inequalities behind the interior Hessian
estimate: the product form of the equation, the complex factorization of the
volume element, the slope curvature (Jacobi-type) inequality in pointwise
and integral form, subharmonicity of the modified slope, the super
isoperimetric inequality, volume-element bounds in both phase regimes, and
the exponential Hessian bound itself.

The top level holds what the README's quick start reads: the grid and bundle
constructors, the slope constants, the errors and every check.  Everything
else is imported from its module (`lmce.solver` for manufactured problems and
the Newton solver, `lmce.grid` and `lmce.geometry` for the field calculus).
"""

from .errors import ConfigError, LinearSolveError, NonConvergenceError, PreconditionError
from .geometry import GeometryBundle, SlopeConstants, bundle
from .grid import build_grid
from .identities import (
    CheckReport,
    check_complex_factorization,
    check_coordinate_laplacian,
    check_cutoff_volume_identity,
    check_form_equivalence,
    check_slope_volume,
    check_volume_formula,
)
from .inequalities import (
    check_hessian_estimate,
    check_jacobi_integral,
    check_jacobi_pointwise,
    check_subharmonic_modified_slope,
    check_super_iso,
    check_volume_bound,
    check_weak_max_principle,
)

__version__ = "0.1.0"
