"""Differential inequality checks and the interior Hessian-estimate harness.

Each check returns a CheckReport of kind "inequality" with explicit
left/right sides, the slack that was granted (quadrature or Lipschitz), and
any fitted constants.  Constants with no analytic value (the slope-curvature
additive constant, the quadratic modification weight, the volume-bound
prefactor, the exponential budget) are fitted and reported rather than
assumed: the point of the suite is to verify the structure of each
inequality and the stability of its constants under refinement.

Quadrature slack convention: node-indicator disk quadrature carries an O(h)
boundary layer, so integral comparisons over a disk of radius r receive
20*h*r*sup|integrand| of slack, reported in the result so a failure can
never be a boundary-layer artifact.  A check that reads a uniformly
negative phase negates the potential, and takes that flip and any phase
regime (`classify_phase`) from one (min, max) of its region's phase.

The fields of the modified slope are formed only on the box of the disk
their readers read: lap_g(|x|^2/2) on the box of the fit's region, b_mod
and |D b_mod| on the box of the sampled disk widened by 2h.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .geometry import (
    GeometryBundle,
    SlopeConstants,
    _canonical_span,
    _modified_slope_on,
    _paraboloid_laplacian,
    _quadform_inv,
    classify_phase,
)
from .grid import (
    CUTOFF_PLATEAU_RADIUS,
    CUTOFF_SUPPORT_RADIUS,
    INTERIOR_MARGIN,
    Grid2,
    ScalarField2,
    _bands,
    _box,
    _cutoff,
    _gradient_norm_on,
    _gradient_rows,
    _halo,
    _located,
    _mask_box,
    _span,
    integrate_disk,
    sup_norm_disk,
)
from .identities import CheckReport

__all__ = [
    "check_weak_max_principle",
    "check_super_iso",
    "check_jacobi_pointwise",
    "check_subharmonic_modified_slope",
    "fit_modification_weight",
    "check_jacobi_integral",
    "check_volume_bound",
    "check_hessian_estimate",
    "fit_exp_budget",
    "sampler_grid_problem",
]

# B_2, the disk that the super isoperimetric inequality integrates over, so
# also the one the weak maximum principle is sampled on
SAMPLED_RADIUS = 2.0
# sampler slack in units of h Lip(f): a subdomain's boundary points all have
# an inside node within about 1.7h, so 2 cannot fail spuriously
WMP_SLACK_COEFF = 2.0
# pointwise slope checks leave out nodes whose eigenvalue gap is below
# EIGEN_GAP_FLOOR (1 + |lam1|): the slope loses smoothness where they cross
EIGEN_GAP_FLOOR = 1e-6
# tolerance on min lap_g(b_mod) >= 0; the fitted weight attains 0 to round-off
SUBHARMONIC_SLACK = 1e-4
# integration-by-parts tolerance in units of h: the divergence form makes the
# step exact up to the O(h) nodal versus half-node quadrature mismatch
IBP_COEFF = 10.0
# the volume bound's disks: the case1 node-wise bound on B_2, the volume
# integral on B_3, and the case2 gradient bound taken on B_4
VOLUME_INNER_RADIUS = 2.0
VOLUME_MID_RADIUS = 3.0
VOLUME_OUTER_RADIUS = 4.0
# absolute bisection tolerance of the exponential-budget fit C*
EXP_BUDGET_TOL = 1e-6


def _disk_quad_slack(h: float, r: float, sup_integrand: float) -> float:
    return 20.0 * h * r * max(1.0, sup_integrand)


def _canonical(B: GeometryBundle, region=None) -> tuple[GeometryBundle, bool, tuple[float, float]]:
    """(bundle, flipped, span): B or, when its phase is uniformly <= 0 on the
    region the check reads (a boolean mask; default: the whole grid), the
    bundle of the negated potential, and that bundle's phase (min, max) on the
    region, all from one pass over B's phase (see geometry._canonical_span)."""
    if region is None:
        span = float(np.min(B.phase)), float(np.max(B.phase))
    else:
        span = _span(lambda b: B.phase[b], region)
    flipped, span = _canonical_span(*span)
    return (B.negated if flipped else B), flipped, span


def sampler_grid_problem(grid: Grid2, radius: float) -> str:
    """Why the weak-maximum-principle sampler cannot run in the disk of this
    radius on this grid, or "" when it can: the grid must contain the disk,
    and the smallest subdomain size max(6h, 0.15) must stay below the largest,
    0.7 * radius (a subdomain wider than 5h holds both node sets)."""
    if grid.L < radius:
        return f"weak maximum principle needs the grid to contain the disk of radius {radius}"
    if max(6.0 * grid.h, 0.15) >= 0.7 * radius:
        return f"no admissible subdomains at this resolution (h={grid.h}, radius {radius})"
    return ""


def check_weak_max_principle(
    f: ScalarField2,
    trials: int = 200,
    seed: int = 0,
    radius: float = SAMPLED_RADIUS,
    grad_norm: ScalarField2 | None = None,
) -> CheckReport:
    """Sampled weak maximum principle on subdomains of the disk |x| <= radius.

    Draws `trials` random sub-disks and sub-rectangles inside the disk and
    verifies, for each, that the max over interior nodes does not exceed the
    max over the nodes within 2h of the subdomain boundary by more than
    WMP_SLACK_COEFF * h * Lip(f), with Lip(f) estimated from differenced
    gradients.  Any boundary point of a subdomain has an inside node within
    about 1.7h, so WMP_SLACK_COEFF = 2 cannot produce a spurious failure; it
    is the sharpest coefficient with headroom.  Subdomains too small to hold
    both node sets are skipped and counted.  The report carries the worst
    margin over all admissible trials.  grad_norm, when given, is |Df| from
    the differenced gradient on (at least) the box of _lip_disk, and stands
    in for forming it there (_sampled_grad_norm).
    """
    g = f.grid
    problem = sampler_grid_problem(g, radius)
    if problem:
        raise PreconditionError(problem)
    h = g.h
    ax = g.axis()
    vals = f.values
    if grad_norm is None:
        grad_norm = _sampled_grad_norm(f, radius)
    lip = sup_norm_disk(grad_norm, _lip_disk(g, radius)[0])
    slack = WMP_SLACK_COEFF * h * lip
    band = 2.0 * h
    size_lo = max(6.0 * h, 0.15)

    rng = np.random.default_rng(seed)
    worst = math.inf
    worst_lhs = worst_rhs = math.nan
    degenerate = 0
    ran = 0

    def window(c, half):
        lo = np.searchsorted(ax, c - half - h)
        hi = np.searchsorted(ax, c + half + h, side="right")
        return slice(max(lo, 0), min(hi, g.n))

    for trial in range(trials):
        if trial % 2 == 0:
            rho = rng.uniform(size_lo, 0.8 * radius)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = math.sqrt(rng.uniform(0.0, 1.0)) * (radius - rho)
            c1, c2 = rad * math.cos(ang), rad * math.sin(ang)
            s1, s2 = window(c1, rho), window(c2, rho)
            x1 = ax[s1][:, None] - c1
            x2 = ax[s2][None, :] - c2
            d2 = x1 * x1 + x2 * x2
            inside = d2 <= rho * rho
            interior = d2 < (rho - band) ** 2
        else:
            w1 = rng.uniform(size_lo, 0.7 * radius)
            w2 = rng.uniform(size_lo, 0.7 * radius)
            ok = False
            for _ in range(20):
                c1 = rng.uniform(-radius, radius)
                c2 = rng.uniform(-radius, radius)
                if (abs(c1) + w1) ** 2 + (abs(c2) + w2) ** 2 <= radius * radius:
                    ok = True
                    break
            if not ok:
                degenerate += 1
                continue
            s1, s2 = window(c1, w1), window(c2, w2)
            x1 = np.abs(ax[s1][:, None] - c1)
            x2 = np.abs(ax[s2][None, :] - c2)
            inside = (x1 <= w1) & (x2 <= w2)
            interior = (x1 < w1 - band) & (x2 < w2 - band)

        boundary = inside & ~interior
        sub = vals[s1, s2]
        if not interior.any() or not boundary.any():
            degenerate += 1
            continue
        ran += 1
        int_max = float(np.max(sub[interior]))
        bnd_max = float(np.max(sub[boundary]))
        margin = bnd_max + slack - int_max
        if margin < worst:
            worst, worst_lhs, worst_rhs = margin, int_max, bnd_max + slack

    if ran == 0:
        raise PreconditionError("no admissible subdomains at this resolution")
    return CheckReport(
        check="weak_max_principle",
        kind="inequality",
        lhs=worst_lhs,
        rhs=worst_rhs,
        margin=worst,
        passed=bool(worst >= 0.0),
        slack=slack,
        excluded=degenerate,
        details={"trials_run": ran, "lipschitz": lip, "seed": seed},
    )


def check_super_iso(
    f: ScalarField2,
    trials: int = 200,
    seed: int = 0,
    wmp: CheckReport | None = None,
    grad_norm: ScalarField2 | None = None,
) -> CheckReport:
    """Sup over the unit disk bounded by gradient and value integrals over B2.

    Asserts  sup_{|x|<=1} f  <=  int_{B2} |Df| dx + int_{B2} f dx  + slack,
    with B2 the disk of radius SAMPLED_RADIUS.  Preconditions: the grid
    contains B2, f >= 0 on B2 and f passes the sampled weak maximum
    principle there; all are enforced, and a violation raises
    PreconditionError rather than reporting a failure.  wmp, when given, is
    check_weak_max_principle's report on f with these trials and seed, and
    stands in for running the sampler again; grad_norm, when given, is |Df|
    as check_weak_max_principle takes it, and the sampler shares it.
    """
    g = f.grid
    if SAMPLED_RADIUS > g.L:
        raise PreconditionError(
            "super isoperimetric check needs the grid to contain the disk of radius "
            f"{SAMPLED_RADIUS}"
        )
    b2 = g.disk_mask(SAMPLED_RADIUS)
    f_min, f_max = _span(lambda b: f.values[b], b2)
    if f_min < 0.0:
        raise PreconditionError("super isoperimetric check needs f >= 0 on B2")
    dmag = _sampled_grad_norm(f) if grad_norm is None else grad_norm
    if wmp is None:
        wmp = check_weak_max_principle(f, trials=trials, seed=seed, grad_norm=dmag)
    if not wmp.passed:
        raise PreconditionError(
            "super isoperimetric check needs the weak maximum principle "
            f"(worst margin {wmp.margin:.3e})"
        )
    lhs = sup_norm_disk(f, 1.0)
    int_grad = integrate_disk(dmag, SAMPLED_RADIUS)
    int_f = integrate_disk(f, SAMPLED_RADIUS)
    sup_int = _span(lambda b: dmag.values[b], b2)[1] + f_max
    slack = _disk_quad_slack(g.h, SAMPLED_RADIUS, sup_int)
    rhs = int_grad + int_f
    margin = rhs + slack - lhs
    return CheckReport(
        check="super_iso",
        kind="inequality",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=bool(margin >= 0.0),
        slack=slack,
        details={"int_grad": int_grad, "int_f": int_f, "wmp_margin": wmp.margin},
    )


def _disk_region(grid: Grid2, rho: float) -> tuple[np.ndarray, slice]:
    """(mask, box): the interior nodes of |x| <= rho (INTERIOR_MARGIN nodes
    from the boundary), where the weight A is fitted and the subharmonic
    check reads, and the slice of either axis that they span.  A disk whose
    interior holds no node fails the precondition of the check that reads it."""
    disk, k = grid.disk_mask(rho), INTERIOR_MARGIN
    mask = np.zeros_like(disk)
    mask[k:-k, k:-k] = disk[k:-k, k:-k]
    if not mask.any():
        raise PreconditionError(f"no interior node in the disk of radius rho={rho}")
    return mask, _mask_box(mask)


def _canonical_on_disk(B: GeometryBundle, rho: float):
    """(bundle, flipped, span, mask, box): _canonical of B on the region of
    _disk_region, the bundle of the modified slope, with the region's mask
    and box."""
    mask, box = _disk_region(B.grid, rho)
    return (*_canonical(B, mask), mask, box)


def _paraboloid_on_disk(B: GeometryBundle, rho: float) -> tuple[slice, np.ndarray]:
    """(box, block): the box of _disk_region and lap_g(|x|^2/2) on box x box,
    all of it that the fit and the subharmonic check read.  The metric is
    even in the potential, so the bundle and its negated twin give the same."""
    box = _disk_region(B.grid, rho)[1]
    return box, _paraboloid_laplacian(B, box)


def _on_box(lap_q: tuple[slice, np.ndarray] | None, B: GeometryBundle, box: slice) -> np.ndarray:
    """lap_g(|x|^2/2) on box x box: lap_q's block, once its box is this one,
    or formed when lap_q is None."""
    if lap_q is None:
        return _paraboloid_laplacian(B, box)
    if lap_q[0] != box:
        raise ValueError(f"lap_g q was formed on the box {lap_q[0]}, the region spans {box}")
    return lap_q[1]


def _sampled_slope(
    B: GeometryBundle, K: SlopeConstants, radius: float = SAMPLED_RADIUS
) -> ScalarField2:
    """The modified slope of B, bit for bit, on the box of the disk where
    check_weak_max_principle reads its gradient norm when it samples the disk
    of this radius and on the node around that box, and 0 off them
    (_lip_disk): all of the field that the sampler and check_super_iso read."""
    return _modified_slope_on(B, K, _halo(_lip_disk(B.grid, radius)[1], B.grid.n))


def _sampled_grad_norm(f: ScalarField2, radius: float = SAMPLED_RADIUS) -> ScalarField2:
    """|Df| on the box of _lip_disk, bit for bit, and 0 off it, from f on
    that box and the node around it: what the sampler and check_super_iso read."""
    return _gradient_norm_on(f, _lip_disk(f.grid, radius)[1])


def _lip_disk(grid: Grid2, radius: float) -> tuple[float, slice]:
    """(r, box): the radius r = radius + 2h, within the grid, of the disk
    where check_weak_max_principle takes Lip(f) when it samples the disk of
    radius, and the slice of either axis that disk spans, in which every
    subdomain window lies."""
    r = min(grid.L, radius + 2 * grid.h)
    return r, _mask_box(grid.disk_mask(r))


def _subharmonic_radius(rho: float) -> float:
    """The radius of the disk check_subharmonic_modified_slope samples: rho,
    up to SAMPLED_RADIUS, where it shares the sampler's own disk."""
    return min(rho, SAMPLED_RADIUS)


def check_jacobi_pointwise(
    B: GeometryBundle,
    K: SlopeConstants,
    C_budget: float = math.inf,
) -> CheckReport:
    """Pointwise slope curvature inequality lap_g b >= c |grad_g b|^2 - C.

    Evaluates m = min(lap_g b - c |grad_g b|^2) over interior nodes
    (INTERIOR_MARGIN nodes from the boundary), excluding nodes whose
    eigenvalue gap is below EIGEN_GAP_FLOOR*(1 + |lam1|): there the slope is
    a function of the larger eigenvalue only and differencing across the
    crossing is unreliable.  If every node is excluded but the slope field is
    globally constant (coalesced eigenvalues everywhere, e.g. an isotropic
    quadratic), the check proceeds on the full interior since the slope is
    then exactly smooth.  Reports the smallest additive constant C_hat = max(0, -m) that
    makes the inequality hold; passes iff C_hat <= C_budget.  Both fields are
    the bundle's cached slope fields.  location is the node of the smallest
    defect.
    """
    B, flipped, _ = _canonical(B)
    g = B.grid
    k = INTERIOR_MARGIN
    inner = slice(k, g.n - k)
    excluded = 0

    def defect(rows, gap_filter):
        # lap - c |grad_g b|^2 on the band's interior nodes, +inf on those
        # the eigenvalue-gap filter leaves out
        nonlocal excluded
        d = B.slope_laplacian[rows, inner] - K.c * B.slope_grad_norm2[rows, inner]
        if gap_filter:
            lam1 = B.lam1[rows, inner]
            gap_ok = (lam1 - B.lam2[rows, inner]) >= EIGEN_GAP_FLOOR * (1.0 + np.abs(lam1))
            excluded += gap_ok.size - int(np.count_nonzero(gap_ok))
            d = np.where(gap_ok, d, np.inf)
        return d

    loc, m = _located(lambda rows: defect(rows, True), inner, k)
    nodes = (g.n - 2 * k) ** 2
    if excluded == nodes:
        # the slope is >= 0, so its largest value is its largest magnitude
        lo, hi = float(np.min(B.slope)), float(np.max(B.slope))
        if hi - lo <= 1e-12 * (1.0 + hi):
            # coalesced eigenvalues with constant slope: smooth, keep all nodes
            loc, m = _located(lambda rows: defect(rows, False), inner, k)
            excluded = 0
        else:
            raise PreconditionError("eigenvalue-gap filter excluded every node")
    c_hat = max(0.0, -m)
    return CheckReport(
        check="jacobi_pointwise",
        kind="inequality",
        location=loc,
        lhs=c_hat,
        rhs=float(C_budget),
        margin=float(C_budget) - c_hat,
        passed=bool(c_hat <= C_budget),
        slack=0.0,
        fitted={"C_hat": c_hat, "c": K.c, "min_defect": m},
        excluded=excluded,
        details={"canonicalized": flipped, "nodes_checked": nodes - excluded},
    )


def fit_modification_weight(
    B: GeometryBundle, *, rho: float, lap_q: tuple[slice, np.ndarray] | None = None
) -> tuple[float, float]:
    """Smallest weight A >= 0 making the modified slope subharmonic on |x| <= rho.

    The operator is linear, so min over the region of
    lap_g(b) + A*lap_g(|x|^2/2) is concave piecewise-linear in A.  When the
    quadratic's Laplacian is positive on the whole region (the generic case)
    the optimum is the closed-form max of -lap_g(b)/lap_g(q).  Otherwise the
    minimum over the rising lines (lap_g(q) > 0) increases and the minimum
    over the others does not, so on [0, 1e3] the optimum is where the two
    cross, found by bisection (A = 0 when no line rises).  lap_g(b) is the
    bundle's cached field, lap_g(q) is formed on the box of the region alone
    (lap_q, when given, is _paraboloid_on_disk's (box, block) pair and stands
    in for forming it).  The region is the interior (INTERIOR_MARGIN nodes
    from the boundary) of the disk, gathered from its box in C order, and the
    fit runs on the bundle canonical on it, the one the subharmonic check reads.
    Returns (A_hat, attained minimum at A_hat).
    """
    B, _, _, mask, box = _canonical_on_disk(B, rho)
    lap_q = _on_box(lap_q, B, box)
    kept = mask[box, box]
    lap_b = B.slope_laplacian[box, box][kept]
    lap_q = lap_q[kept]

    def attained(a: float) -> float:
        return float(np.min(lap_b + a * lap_q))

    if float(np.min(lap_q)) > 0.0:
        need = -lap_b / lap_q
        a_hat = max(0.0, float(np.max(need)))
        return a_hat, attained(a_hat)
    up = lap_q > 0.0
    if not up.any():
        return 0.0, attained(0.0)
    rise_b, rise_q, rest_b, rest_q = lap_b[up], lap_q[up], lap_b[~up], lap_q[~up]
    lo, hi = 0.0, 1e3
    # halve until no float lies strictly between lo and hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.min(rise_b + mid * rise_q) < np.min(rest_b + mid * rest_q):
            lo = mid
        else:
            hi = mid
    a_hat = lo if attained(lo) >= attained(hi) else hi
    return a_hat, attained(a_hat)


def check_subharmonic_modified_slope(
    B: GeometryBundle,
    K: SlopeConstants,
    rho: float = SAMPLED_RADIUS,
    trials: int = 200,
    seed: int = 0,
    wmp: CheckReport | None = None,
    lap_q: tuple[slice, np.ndarray] | None = None,
) -> CheckReport:
    """Subharmonicity of the modified slope b + (A/2)|x|^2 on |x| <= rho.

    Requires a phase on the region that classify_phase does not call
    subcritical (phase >= delta); the region is the one fit_modification_weight
    fits on.  Evaluates min lap_g(b_mod) over the region, by linearity from
    the bundle's cached Laplacian of b and lap_g(|x|^2/2) on the region's box
    (lap_q as fit_modification_weight takes it), and demands it be
    >= -SUBHARMONIC_SLACK; then runs the weak-maximum-principle sampler on
    the modified slope of the bundle canonical on the region, on the disk of
    radius _subharmonic_radius(rho), since that is the property the
    subharmonicity is for.  Passes only if both hold.  wmp, when given, is
    check_weak_max_principle's report on that modified slope on the disk of
    radius SAMPLED_RADIUS with these trials and seed; it stands in for the
    sampler when the check samples that same disk.
    location is the node of the smallest lap_g(b_mod) on the region.
    """
    B, flipped, span, mask, box = _canonical_on_disk(B, rho)
    if classify_phase(span, K.delta) == "subcritical":
        raise PreconditionError(f"modified-slope check needs phase >= delta={K.delta} on the region")
    lap_q = _on_box(lap_q, B, box)

    def lap_mod(rows):
        at = slice(rows.start - box.start, rows.stop - box.start)
        lap = B.slope_laplacian[rows, box] + K.A * lap_q[at]
        return np.where(mask[rows, box], lap, np.inf)

    loc, m = _located(lap_mod, box, box.start)
    radius = _subharmonic_radius(rho)
    if wmp is None or radius != SAMPLED_RADIUS:
        bmod = _sampled_slope(B, K, radius)
        wmp = check_weak_max_principle(bmod, trials=trials, seed=seed, radius=radius)
    passed = (m >= -SUBHARMONIC_SLACK) and wmp.passed
    return CheckReport(
        check="subharmonic",
        kind="inequality",
        location=loc,
        lhs=0.0,
        rhs=m,
        margin=m,
        passed=bool(passed),
        slack=SUBHARMONIC_SLACK,
        fitted={"A": K.A, "min_laplacian": m},
        details={"canonicalized": flipped, "wmp_margin": wmp.margin, "wmp_passed": wmp.passed},
    )


def check_jacobi_integral(B: GeometryBundle, K: SlopeConstants, C_hat: float) -> CheckReport:
    """Integral form of the slope curvature inequality through a cutoff.

    With dv = V dx and the fixed cutoff phi (support radius
    r2 = CUTOFF_SUPPORT_RADIUS, plateau radius r1 = CUTOFF_PLATEAU_RADIUS),
    asserts
      int_{B_{r1}} |grad_g b|^2 dv
        <= (4/c^2) int |grad_g phi|^2 dv + (2/c) C int phi^2 dv + slack,
    where C = C_hat is the constant that check_jacobi_pointwise fits on the
    same bundle and constants (its fitted["C_hat"]).  Also verifies the
    discrete integration-by-parts step
      int phi^2 lap_g(b) dv = -int <2 phi grad_g phi, grad_g b>_g dv
    to IBP_COEFF*h; the divergence-form operator makes this exact up to the
    nodal-versus-half-node quadrature mismatch, since phi vanishes well
    inside the grid (its support must stay INTERIOR_MARGIN nodes inside).
    """
    B, flipped, _ = _canonical(B)
    g = B.grid
    r1, r2 = CUTOFF_PLATEAU_RADIUS, CUTOFF_SUPPORT_RADIUS
    if r2 > g.L - INTERIOR_MARGIN * g.h:
        raise PreconditionError(
            f"jacobi integral needs the disk of radius {r2}, the cutoff support, "
            f"to stay {INTERIOR_MARGIN}h inside the grid"
        )
    h = g.h
    V = B.vol
    gn = B.slope_grad_norm2
    # each integrand is formed one band of rows of the box of the cutoff's
    # support at a time.  The disk integrals gather B_{r1} and B_{r2} from
    # it band after band, in C order, into one array each (r2^2 = 9 is
    # exact, so no node of B_{r2} lies off the box); the sums over the grid
    # keep zeros around the box, as their pairwise grouping depends on where
    # each node sits
    box = _box(g, r2)
    plateau, support = g.disk_mask(r1), g.disk_mask(r2)
    grad_b = np.empty(np.count_nonzero(plateau[box, box]))
    size = np.count_nonzero(support[box, box])
    grad_phi, phi2 = np.empty(size), np.empty(size)
    whole = np.zeros_like(V)
    at1 = at2 = 0
    for rows in _bands(box.start, box.stop):
        _, phi, (dphi1, dphi2) = _cutoff(r1, r2, g, with_phi=True, rows=rows)
        rb = (rows, box)
        kept1, kept2 = plateau[rb], support[rb]
        k1, k2 = np.count_nonzero(kept1), np.count_nonzero(kept2)
        grad_b[at1 : at1 + k1] = (gn[rb] * V[rb])[kept1]
        grad_phi[at2 : at2 + k2] = (_quadform_inv(B, dphi1, dphi2, rb) * V[rb])[kept2]
        phi2[at2 : at2 + k2] = (phi * phi * V[rb])[kept2]
        whole[rb] = phi * phi * B.slope_laplacian[rb] * V[rb]
        at1, at2 = at1 + k1, at2 + k2
    lhs = float(np.sum(grad_b) * h * h)
    sup_int = float(np.max(grad_b))  # the lhs integrand's sup on B_{r1}
    i_phi = float(np.sum(grad_phi) * h * h)
    i_phi2 = float(np.sum(phi2) * h * h)
    del grad_b, grad_phi, phi2
    rhs = (4.0 / K.c**2) * i_phi + (2.0 / K.c) * C_hat * i_phi2
    slack = _disk_quad_slack(h, r1, sup_int)
    margin = rhs + slack - lhs
    ibp_lhs = float(np.sum(whole) * h * h)
    # <2 phi grad_g phi, grad_g b>_g V, one band of box rows at a time
    for rows in _bands(box.start, box.stop):
        _, phi, (dphi1, dphi2) = _cutoff(r1, r2, g, with_phi=True, rows=rows)
        gb1, gb2 = _gradient_rows(B.slope, h, rows, box)
        form = (
            B.inv11[rows, box] * dphi1 * gb1
            + B.inv12[rows, box] * (dphi1 * gb2 + dphi2 * gb1)
            + B.inv22[rows, box] * dphi2 * gb2
        )
        whole[rows, box] = form * (2.0 * phi) * V[rows, box]
    ibp_rhs = float(-np.sum(whole) * h * h)
    ibp_resid = abs(ibp_lhs - ibp_rhs)
    ibp_tol = IBP_COEFF * h
    passed = (margin >= 0.0) and (ibp_resid <= ibp_tol)
    return CheckReport(
        check="jacobi_integral",
        kind="inequality",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=bool(passed),
        slack=slack,
        fitted={"C_hat": float(C_hat), "ibp_residual": ibp_resid, "ibp_tolerance": ibp_tol},
        details={"canonicalized": flipped, "int_grad_phi": i_phi, "int_phi2": i_phi2},
    )


def check_volume_bound(B: GeometryBundle, K: SlopeConstants) -> CheckReport:
    """Volume-element bounds for the two supercritical phase regimes.

    B_inner, B_mid and B_outer are the disks of radii VOLUME_INNER_RADIUS,
    VOLUME_MID_RADIUS and VOLUME_OUTER_RADIUS (2, 3, 4).  The grid must
    contain B_mid, and B_outer in regime "case2".  The regime is
    classify_phase of the phase on B_mid with K.delta; a subcritical or
    straddling phase raises PreconditionError.

    regime "case1" (delta <= phase <= 3pi/4): asserts the exact
    node-wise bound V sin(delta) <= sig1 on B_inner (zero slack; it follows
    from V sin(phase) = sig1), and fits the prefactor
      C2 = sin(delta) * int_{B_inner} V dx / sup_{B_mid} |Du|
    of the integral bound, reporting it.

    regime "case2" (phase > 3pi/4): asserts
      int_{B_mid} V dx <= sqrt(2) * (sup_{B_outer} |Du|)^2 + slack.
    That bound fails already for isotropic quadratics, so the report also
    carries the gradient-image-area reading
      int_{B_mid} (sig2 - 1) dx <= pi * (sup_{B_mid} |Du|)^2
    (valid here because phase > pi/2 forces sig2 > 1, hence a convex
    potential and an injective gradient map), with its own pass flag in
    fitted["alt_passed"].

    The report is named volume_bound in both regimes; details["regime"]
    says which one ran.  The bundle must carry |Du| of its potential.
    """
    if B.grad_norm is None:
        raise PreconditionError("volume bound needs a bundle built from a potential")
    g = B.grid
    inner, mid, outer = VOLUME_INNER_RADIUS, VOLUME_MID_RADIUS, VOLUME_OUTER_RADIUS
    if mid > g.L:
        raise PreconditionError(f"volume bound needs the grid to contain the disk of radius {mid}")
    middle = g.disk_mask(mid)
    B, flipped, span = _canonical(B, middle)
    regime = classify_phase(span, K.delta)
    if regime not in ("case1", "case2"):
        raise PreconditionError(
            f"volume bound needs one supercritical regime on the middle disk, got {regime!r}"
        )
    dmag = ScalarField2(g, B.grad_norm)
    du_mid = sup_norm_disk(dmag, mid)
    if regime == "case1":
        region = g.disk_mask(inner)
        sd = math.sin(K.delta)
        node_min, _ = _span(lambda b: B.lam1[b] + B.lam2[b] - B.vol[b] * sd, region)
        int_v = integrate_disk(ScalarField2(g, B.vol), inner)
        c2 = sd * int_v / du_mid if du_mid > 0 else 0.0
        return CheckReport(
            check="volume_bound",
            kind="inequality",
            lhs=_span(lambda b: B.vol[b] * sd, region)[1],
            rhs=_span(lambda b: B.lam1[b] + B.lam2[b], region)[1],
            margin=node_min,
            passed=bool(node_min >= 0.0),
            slack=0.0,
            fitted={"C2": c2, "int_vol": int_v, "grad_sup": du_mid},
            details={"regime": regime, "canonicalized": flipped},
        )
    if outer > g.L:
        raise PreconditionError(f"case2 needs the grid to contain the disk of radius {outer}")
    lhs = integrate_disk(ScalarField2(g, B.vol), mid)
    du_outer = sup_norm_disk(dmag, outer)
    rhs = math.sqrt(2.0) * du_outer * du_outer
    slack = _disk_quad_slack(g.h, mid, _span(lambda b: B.vol[b], middle)[1])
    margin = rhs + slack - lhs

    # sig2 - 1 on B_mid, the gather integrate_disk would sum, filled band
    # by band in C order; its integral and its sup |.| there
    gathered, at = np.empty(np.count_nonzero(middle)), 0
    for b in _bands(0, g.n):
        k = np.count_nonzero(middle[b])
        gathered[at : at + k] = (B.lam1[b] * B.lam2[b] - 1.0)[middle[b]]
        at += k
    alt_lhs = float(np.sum(gathered) * g.h * g.h)
    sup_excess = max(float(np.max(gathered)), -float(np.min(gathered)))
    alt_rhs = math.pi * du_mid * du_mid
    alt_slack = _disk_quad_slack(g.h, mid, sup_excess)
    return CheckReport(
        check="volume_bound",
        kind="inequality",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=bool(margin >= 0.0),
        slack=slack,
        fitted={
            "alt_lhs": alt_lhs,
            "alt_rhs": alt_rhs,
            "alt_margin": alt_rhs + alt_slack - alt_lhs,
            "alt_passed": float(alt_rhs + alt_slack - alt_lhs >= 0.0),
        },
        details={"regime": regime, "canonicalized": flipped, "grad_sup_outer": du_outer},
    )


def fit_exp_budget(level: float, growth: float) -> float:
    """Smallest C >= 0 with level <= C * exp(C * growth), by bisection.

    The map C -> C e^{C g} is strictly increasing for g >= 0, so the minimal
    constant is the unique root; bisection runs to absolute tolerance
    EXP_BUDGET_TOL.
    """
    if level <= 0.0:
        return 0.0
    hi = 1.0
    while hi * math.exp(hi * growth) < level:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("exponential budget fit diverged")
    lo = 0.0
    while hi - lo > EXP_BUDGET_TOL:
        midp = 0.5 * (lo + hi)
        if midp * math.exp(midp * growth) < level:
            lo = midp
        else:
            hi = midp
    return 0.5 * (lo + hi)


def check_hessian_estimate(
    B: GeometryBundle,
    R: float,
    delta: float = 0.3,
    C_budget: float = math.inf,
) -> CheckReport:
    """Interior Hessian estimate harness on the disk of radius R.

    B is the bundle of the potential u and must carry |Du|.  Computes
    L = |D^2 u(0)| (spectral norm of the bundle's Hessian at the origin node,
    so an even n fails the precondition) and the growth ratio
      G = sup_{B_R} |Du| / R        for the moderate-phase regime "case1",
      G = (sup_{B_R} |Du| / R)^2    for the large-phase regime "case2",
    then fits the minimal C* >= 0 with L <= C* exp(C* G) and passes iff
    C* <= C_budget.  The regime is classify_phase of the phase on B_R; a
    subcritical or straddling phase raises PreconditionError.  A zero Hessian
    at the origin is regime "degenerate": C* = 0, G as in case1, no phase check.
    """
    if B.grad_norm is None:
        raise PreconditionError("Hessian estimate needs a bundle built from a potential")
    g = B.grid
    if R > g.L:
        raise PreconditionError(f"estimate needs the grid to contain B_R, R={R}")
    if g.n % 2 == 0:
        raise PreconditionError(f"estimate needs the origin as a node, an odd n, got n={g.n}")
    B, flipped, span = _canonical(B, g.disk_mask(R))
    oi, oj = g.origin_index()
    level = float(max(abs(B.lam1[oi, oj]), abs(B.lam2[oi, oj])))
    du_sup = sup_norm_disk(ScalarField2(g, B.grad_norm), R)
    regime, growth, c_star = "degenerate", du_sup / R, 0.0
    if level > 1e-14:
        regime = classify_phase(span, delta)
        if regime == "subcritical":
            raise PreconditionError(
                f"estimate needs supercritical phase >= delta={delta} on B_R (min {span[0]:.4f})"
            )
        if regime == "straddle":
            raise PreconditionError("phase range straddles 3pi/4")
        if regime == "case2":
            growth = growth**2
        c_star = fit_exp_budget(level, growth)
    return CheckReport(
        check="hessian_estimate",
        kind="inequality",
        lhs=c_star,
        rhs=float(C_budget),
        margin=float(C_budget) - c_star,
        passed=bool(c_star <= C_budget),
        slack=0.0,
        fitted={"C_star": c_star, "hess_origin": level, "growth": growth},
        details={"regime": regime, "canonicalized": flipped, "grad_sup": du_sup},
    )
