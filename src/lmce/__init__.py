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
"""

from .errors import ConfigError, LinearSolveError, NonConvergenceError, PreconditionError
from .geometry import (
    GeometryBundle,
    SlopeConstants,
    bundle,
    bundle_from_hessian,
    classify_phase,
    eigen_sym2,
    grad_g_norm2,
    laplace_beltrami,
    laplace_beltrami_nondiv,
    modified_slope,
    negate_bundle,
    slope,
)
from .grid import (
    CutoffProfile,
    Grid2,
    ScalarField2,
    SymMat2Field,
    Vec2Field,
    build_grid,
    gradient_fd,
    hessian_fd,
    integrate_disk,
    make_cutoff,
    sample,
    sup_norm_disk,
)
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
    fit_exp_budget,
    fit_modification_weight,
)
from .solver import (
    AnalyticFunction2,
    ManufacturedProblem,
    SolveState,
    anisotropic_family,
    linear_solve,
    manufacture,
    negate_analytic,
    newton_solve,
    perturbed_family,
    phase_residual,
    quadratic_family,
    rescale_analytic,
)

__version__ = "0.1.0"
