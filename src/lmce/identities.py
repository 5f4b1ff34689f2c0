"""Exact algebraic and structural identity checks on geometry bundles, and
the CheckReport that every identity and inequality check returns.

An identity's report kind names its tolerance class: "identity/algebraic"
residuals are pure eigenvalue algebra and must sit at round-off (1e-10 to
1e-12 relative), while "identity/differencing" residuals involve finite
differences and are allowed C*h^2.  Discretization noise must never be able
to mask an algebraic failure, so the two classes are never mixed.

The coordinate Laplacian takes the divergence-form operator in the closed
form it has on a linear coordinate, with the operator's bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import PreconditionError
from .geometry import GeometryBundle, _quadform_inv
from .grid import (
    CUTOFF_PLATEAU_RADIUS,
    CUTOFF_SUPPORT_RADIUS,
    INTERIOR_MARGIN,
    ScalarField2,
    _bands,
    _box,
    _cutoff,
    _extreme,
    _gradient_rows,
    _hessian_rows,
    _located,
)

__all__ = [
    "CheckReport",
    "check_form_equivalence",
    "check_complex_factorization",
    "check_volume_formula",
    "check_cutoff_volume_identity",
    "check_slope_volume",
    "check_coordinate_laplacian",
]

# differencing slack of the form equivalence, in units of h^2: the Hessian's
# second-order differences leave the arctangent residual of a solution O(h^2)
FORM_SLACK_COEFF = 10.0
# the complex factorization is a few flops of eigenvalue algebra, so its
# residual is round-off relative to 1 + max V
FACTORIZATION_RTOL = 1e-12
# the volume formula divides by sin(phase); nodes whose phase lies within this
# angle of 0 or pi are left out so the division stays well-conditioned
VOLUME_SIN_FLOOR = 1e-3
# round-off of V - sig1/sin(phase) relative to max V, after a division by up to
# 1/sin(VOLUME_SIN_FLOOR) ~ 1e3
VOLUME_RTOL = 1e-10
# differencing slack of the cutoff-volume inequality, in units of h^2
CUTOFF_SLACK_COEFF = 10.0
# slack of the coordinate Laplacian, in units of h^2 (1 + max lam1^2): both
# routes carry O(h^2) differencing errors that scale with the Hessian squared
LAPLACIAN_SLACK_COEFF = 20.0


@dataclass(frozen=True)
class CheckReport:
    """Outcome of the check named check; each field is written under its own
    name in a JSON entry (entry()) and in verify.csv.

    kind is "identity/algebraic", "identity/differencing" or "inequality".
    An identity passes iff residual <= tolerance, with location the node
    of the largest residual.  An inequality has lhs and rhs its two sides
    (jacobi_pointwise and subharmonic also name the node where they come
    closest to failing).  Every inequality but subharmonic counts the slack
    it grants inside margin and passes iff margin >= 0; subharmonic's margin
    is min lap_g(b_mod) itself, and it passes iff margin >= -slack.
    jacobi_integral also needs its integration-by-parts residual within
    tolerance, and subharmonic its weak-maximum-principle sample to pass.
    Fields that do not apply to the kind are None.
    fitted holds the constants the check fitted, excluded the number of nodes
    or trials it left out, status "ran" or "precondition_failed".
    """

    check: str
    kind: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    location: tuple[int, int] | None = None
    lhs: float | None = None
    rhs: float | None = None
    margin: float | None = None
    slack: float | None = None
    fitted: dict = field(default_factory=dict)
    excluded: int = 0
    details: dict = field(default_factory=dict)
    status: str = "ran"

    def entry(self) -> dict:
        """The report as one entry of a JSON summary, without the None fields."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _report(name, worst, tol, tol_class, details=None, excluded=0) -> CheckReport:
    loc, mx = worst
    return CheckReport(
        check=name,
        kind=f"identity/{tol_class}",
        passed=bool(mx <= tol),
        residual=mx,
        tolerance=float(tol),
        location=loc,
        excluded=excluded,
        details=details or {},
    )


def check_form_equivalence(B: GeometryBundle, psi: ScalarField2) -> CheckReport:
    """Equivalence of the arctangent form and the product form of the equation.

    Computes both residuals from the Hessian of the bundle B of a potential u
    (the differenced Hessian for `bundle(u)`):
      R1 = arctan(lam1) + arctan(lam2) - psi
      R2 = cos(psi)*tr(D^2 u) + sin(psi)*(det(D^2 u) - 1)
    and asserts the scaling relation
      max|R2| <= (1 + max V) * max|R1| + FORM_SLACK_COEFF*h^2
    (for a consistent pair R2 = V sin(R1), so a small arctangent residual
    forces a small product-form residual with the volume element as the
    amplification factor).  For a genuine solution pair R1 itself must be at
    differencing level, so the check also requires
    max|R1| <= FORM_SLACK_COEFF*h^2; an arbitrary mismatched pair fails
    there, informatively.
    """
    if B.grid != psi.grid:
        raise ValueError("bundle and phase grids differ")
    g, h = B.grid, B.grid.h
    max_r1 = float(np.max([np.max(np.abs(B.phase[b] - psi.values[b])) for b in _bands(0, g.n)]))

    def r2(b):
        lam1, lam2, p = B.lam1[b], B.lam2[b], psi.values[b]
        return np.abs(np.cos(p) * (lam1 + lam2) + np.sin(p) * (lam1 * lam2 - 1.0))

    vmax = float(np.max(B.vol))
    scale_tol = (1.0 + vmax) * max_r1 + FORM_SLACK_COEFF * h * h
    phase_tol = FORM_SLACK_COEFF * h * h
    loc, max_r2 = _located(r2, slice(0, g.n), pick=np.argmax)
    return CheckReport(
        check="form_equivalence",
        kind="identity/differencing",
        passed=(max_r2 <= scale_tol) and (max_r1 <= phase_tol),
        residual=max_r2,
        tolerance=float(scale_tol),
        location=loc,
        details={
            "max_arctan_residual": max_r1,
            "phase_tolerance": phase_tol,
            "vol_max": vmax,
        },
    )


def check_complex_factorization(B: GeometryBundle) -> CheckReport:
    """(1 + i lam1)(1 + i lam2) = (1 - sig2) + i sig1 = V e^{i phase}, node-wise.

    Pure eigenvalue algebra; tolerance FACTORIZATION_RTOL*(1 + max V), class
    algebraic.
    """

    def resid(b):
        # the larger of |(1 - sig2) - V cos(phase)| and |sig1 - V sin(phase)|
        lam1, lam2, vol = B.lam1[b], B.lam2[b], B.vol[b]
        re = 1.0 - lam1 * lam2 - vol * B.cos_phase[b]
        im = lam1 + lam2 - vol * B.sin_phase[b]
        return np.maximum(np.abs(re), np.abs(im))

    worst = _located(resid, slice(0, B.grid.n), pick=np.argmax)
    tol = FACTORIZATION_RTOL * (1.0 + float(np.max(B.vol)))
    return _report("complex_factorization", worst, tol, "algebraic")


def check_volume_formula(B: GeometryBundle) -> CheckReport:
    """V = sig1 / sin(phase) on nodes with |sin(phase)| >= sin(VOLUME_SIN_FLOOR).

    Requires phase in (0, pi) everywhere on the bundle, or in (-pi, 0)
    everywhere (sig1 and sin(phase) both change sign with the potential);
    nodes too close to the endpoints (|sin| below sin(VOLUME_SIN_FLOOR)) are
    excluded from the residual to keep the division well-conditioned, and
    their count is reported.  Tolerance VOLUME_RTOL * max V.
    """
    lo, hi = float(np.min(B.phase)), float(np.max(B.phase))
    if not (0.0 < lo and hi < math.pi or -math.pi < lo and hi < 0.0):
        raise PreconditionError(
            "volume formula needs phase in (0, pi) or in (-pi, 0) on the whole region"
        )
    excluded = 0

    def resid(b):
        # |V - sig1/sin(phase)| on the kept nodes, 0 on the others
        nonlocal excluded
        sin = B.sin_phase[b]
        mask = np.abs(sin) >= math.sin(VOLUME_SIN_FLOOR)
        excluded += mask.size - np.count_nonzero(mask)
        r = np.divide(B.lam1[b] + B.lam2[b], sin, out=np.zeros_like(sin), where=mask)
        np.subtract(B.vol[b], r, out=r, where=mask)
        return np.abs(r, out=r)

    worst = _located(resid, slice(0, B.grid.n), pick=np.argmax)
    if excluded == B.vol.size:
        raise PreconditionError("no nodes with sin(phase) above the cutoff")
    tol = VOLUME_RTOL * float(np.max(B.vol))
    return _report(
        "volume_formula", worst, tol, "algebraic", {"excluded_nodes": excluded}, excluded
    )


def check_cutoff_volume_identity(B: GeometryBundle) -> CheckReport:
    """|grad_g phi|^2 V <= |D phi|^2 (2 cos(phase) + sig1 sin(phase)), node-wise.

    phi is the fixed cutoff (plateau CUTOFF_PLATEAU_RADIUS, support
    CUTOFF_SUPPORT_RADIUS), so the grid must contain its support.  The left
    side contracts the analytic cutoff gradient with g^{-1}; the right side
    is the closed form of |D phi|^2 (2 + lam1^2 + lam2^2)/V obtained from the
    factorization identities.  Equality holds exactly when the cutoff
    gradient is an eigenvector of the Hessian; in general the
    eigenvalue-versus-trace bound makes it a one-sided inequality, asserted
    with differencing slack CUTOFF_SLACK_COEFF*h^2.
    """
    if CUTOFF_SUPPORT_RADIUS > B.grid.L:
        raise PreconditionError(
            "cutoff volume check needs the grid to contain the disk of radius "
            f"{CUTOFF_SUPPORT_RADIUS}"
        )
    g = B.grid
    radii = (CUTOFF_PLATEAU_RADIUS, CUTOFF_SUPPORT_RADIUS)
    # rhs - lhs on the whole grid: its smallest value is often a zero, of the
    # sign np.min picks.  Off the box both sides are +0, as g^{-1} is positive
    # definite and the factor of |D phi|^2 is (2 + lam1^2 + lam2^2)/V > 0.
    margin = np.zeros_like(B.vol)
    box = _box(g, CUTOFF_SUPPORT_RADIUS)
    for rows in _bands(box.start, box.stop):
        # one band of the box of the cutoff's support
        _, _, (g1, g2) = _cutoff(*radii, g, with_phi=False, rows=rows)
        rb = (rows, box)
        lhs = _quadform_inv(B, g1, g2, rb) * B.vol[rb]
        factor = 2.0 * B.cos_phase[rb] + (B.lam1[rb] + B.lam2[rb]) * B.sin_phase[rb]
        margin[rb] = (g1 * g1 + g2 * g2) * factor - lhs
    min_margin = float(np.min(margin))
    # the violation |max(lhs - rhs, 0)|, lhs - rhs being rhs - lhs negated exactly
    violation = np.negative(margin, out=margin)
    np.abs(np.maximum(violation, 0.0, out=violation), out=violation)
    worst = _located(lambda b: violation[b], slice(0, g.n), pick=np.argmax)
    tol = CUTOFF_SLACK_COEFF * g.h ** 2
    return _report("cutoff_volume", worst, tol, "differencing", {"min_margin": min_margin})


def check_slope_volume(B: GeometryBundle) -> CheckReport:
    """Slope dominated by volume element: b <= V node-wise (zero tolerance)."""
    worst = _located(lambda b: B.slope[b] - B.vol[b], slice(0, B.grid.n), pick=np.argmax)
    # b <= ln V < V leaves no zero, so -max(b - V) is the smallest V - b bit for bit
    return _report("slope_volume", worst, 0.0, "algebraic", {"min_margin": -worst[1]})


def _coordinate_laplacians(B: GeometryBundle, rows: slice, cols: slice):
    """(lap_g x1, lap_g x2) on the block rows x cols of the grid's interior
    (both within 1 .. n-2), each bit for bit laplace_beltrami's values of the
    coordinate, as geometry._lb_rows forms them from the broadcast coordinate.

    A coordinate is constant across its own axis, so every difference across
    that axis is exactly 0 and its terms in the flux stencils drop: each flux
    is a half-node coefficient times the coordinate's step along its own axis,
    or times twice its central derivative there, taken from grid.axis().  One
    coordinate's coefficients are formed and freed before the other's.
    """
    h, ax = B.grid.h, B.grid.axis()
    # the block and the node line around it: (W g^12)/4 at the half nodes of
    # both coordinates comes from one product
    near_rows = slice(rows.start - 1, rows.stop + 1)
    near_cols = slice(cols.start - 1, cols.stop + 1)
    W = B.vol[near_rows, near_cols]
    A12 = W * B.inv12[near_rows, near_cols]
    W_on = W[1:-1, 1:-1]

    def lap(f1, f2):
        # ((f1[i+1/2] - f1[i-1/2])/h + (f2[j+1/2] - f2[j-1/2])/h)/W
        return ((f1[1:] - f1[:-1]) / h + (f2[:, 1:] - f2[:, :-1]) / h) / W_on

    def central(x):
        # grid._d1's central derivative of the axis at its inner nodes
        return (x[2:] - x[:-2]) / (2.0 * h)

    # x1: (W g^11)/2 times its step between rows, (W g^12)/4 times twice
    # its derivative between columns
    A = W[:, 1:-1] * B.inv11[near_rows, cols]
    x = ax[near_rows]
    f1 = 0.5 * (A[1:] + A[:-1]) * (x[1:] - x[:-1])[:, None] / h
    d = central(x)[:, None]
    f2 = 0.25 * (A12[1:-1, 1:] + A12[1:-1, :-1]) * (d + d)
    lap1 = lap(f1, f2)
    del A, f1, f2
    # x2: (W g^12)/4 times twice its derivative between rows, (W g^22)/2
    # times its step between columns
    x = ax[near_cols]
    d = central(x)[None, :]
    f1 = 0.25 * (A12[1:, 1:-1] + A12[:-1, 1:-1]) * (d + d)
    del A12
    A = W[1:-1] * B.inv22[rows, near_cols]
    f2 = 0.5 * (A[:, 1:] + A[:, :-1]) * (x[1:] - x[:-1])[None, :] / h
    return lap1, lap(f1, f2)


def check_coordinate_laplacian(
    B: GeometryBundle, u: ScalarField2, psi: ScalarField2 | None = None
) -> CheckReport:
    """Laplace-Beltrami of the coordinates against the mean curvature algebra.

    For the graph of Du, the manifold Laplacian of an ambient coordinate
    equals the matching mean curvature component; in base coordinates
      lap_g x_k = -(M g^{-1} D psi)_k,  M = D^2 u.
    B is the bundle of the potential u, and psi defaults to its phase.  The
    left side is the divergence-form operator's, in the closed form it takes
    on a coordinate (_coordinate_laplacians), the right side is pointwise
    algebra on the bundle, the differenced Hessian of u and one gradient of
    the phase, so agreement at O(h^2) exercises both routes, to
    LAPLACIAN_SLACK_COEFF h^2 (1 + max lam1^2).  Checked on the interior
    (INTERIOR_MARGIN nodes away from the boundary), one band at a time.
    """
    g = B.grid
    if psi is None:
        psi = ScalarField2(g, B.phase)
    if psi.grid != g or u.grid != g:
        raise ValueError("potential, phase field and bundle grids differ")
    m = INTERIOR_MARGIN
    inner = slice(m, g.n - m)
    parts = ([], [])
    for rows in _bands(m, g.n - m):
        # the lift M w, w = g^{-1} D(psi), on the band, its inputs freed first
        p1, p2 = _gradient_rows(psi.values, g.h, rows)
        w1 = B.inv11[rows] * p1 + B.inv12[rows] * p2
        w2 = B.inv12[rows] * p1 + B.inv22[rows] * p2
        del p1, p2
        m11, m12, m22 = _hessian_rows(u.values, g.h, rows)
        lift = (m11 * w1 + m12 * w2, m12 * w1 + m22 * w2)
        del w1, w2, m11, m12, m22
        for k, (lap, mw) in enumerate(zip(_coordinate_laplacians(B, rows, inner), lift)):
            # |lap_g x_k - (-(M w)_k)| on the inner nodes, summed into the lift
            core = mw[:, inner]
            core += lap
            parts[k].append((k + 1, _extreme(np.abs(core, out=core), rows.start, m, np.argmax)))
    # the node np.argmax picks on the two components stacked
    stacked = parts[0] + parts[1]
    k, worst = stacked[int(np.argmax([mx for _, (_, mx) in stacked]))]
    scale = 1.0 + float(max(np.max(B.lam1), -np.min(B.lam1))) ** 2
    tol = LAPLACIAN_SLACK_COEFF * g.h ** 2 * scale
    return _report("coordinate_laplacian", worst, tol, "differencing", {"component": k})
