"""Per-node geometry of the gradient graph (x, Du(x)) over a 2D potential.

From the Hessian of a potential u this module builds: ordered eigenvalues
lam1 >= lam2, the phase arctan(lam1) + arctan(lam2), the symmetric functions
sig1 = lam1 + lam2 and sig2 = lam1*lam2, the induced metric g = I + (D^2 u)^2
with its inverse, the volume element V = sqrt(det g), and the slope function
b = ln sqrt(1 + lam1^2).  On top of the metric it provides the squared metric
gradient norm and a divergence-form Laplace-Beltrami operator with exact
discrete summation by parts.  For readers of one block of the grid alone,
lap_g(|x|^2/2) and the modified slope are formed on that block only, each
value the whole-grid one bit for bit; `modified_slope` is the block of the
whole grid.  `_lazy` is the decorator of every lazily built field, here and
in the verify runner's context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, wraps

import numpy as np

from .grid import (
    Grid2,
    ScalarField2,
    _bands,
    _d1,
    _d2,
    _gradient_rows,
    _hessian_rows,
    _ro,
    _slab,
    gradient_norm,
)

__all__ = [
    "GeometryBundle",
    "SlopeConstants",
    "eigen_sym2",
    "bundle",
    "bundle_from_hessian",
    "classify_phase",
    "grad_g_norm2",
    "laplace_beltrami",
    "slope",
    "modified_slope",
]


# the phase splitting the two supercritical regimes of the Hessian bound, and
# the cushion that makes every regime boundary a closed condition
PHASE_SPLIT = 0.75 * math.pi
REGIME_CUSHION = 1e-12


def _canonical_span(pmin: float, pmax: float) -> tuple[bool, tuple[float, float]]:
    """Whether the checks negate the potential of a phase with these extremes,
    as they do when it is <= 0 everywhere and < 0 somewhere, and the extremes
    of the phase they then read: the negated phase's, these negated and swapped."""
    if pmax <= 0.0 and pmin < 0.0:
        return True, (-pmax, -pmin)
    return False, (pmin, pmax)


def classify_phase(phase: np.ndarray, delta: float) -> str:
    """The regime of the Hessian bound that a phase array falls in.

    A phase that is <= 0 everywhere and < 0 somewhere is negated first, as
    the checks negate its potential.  Then, each boundary closed by
    REGIME_CUSHION: "subcritical" if min < delta, "case2" if min > 3pi/4,
    "case1" if max <= 3pi/4, else "straddle" (supercritical, both regimes
    present).  Callers pass the phase on the region they read, or its
    (min, max), which falls in the same regime."""
    _, (pmin, pmax) = _canonical_span(float(np.min(phase)), float(np.max(phase)))
    if pmin < delta - REGIME_CUSHION:
        return "subcritical"
    if pmin > PHASE_SPLIT + REGIME_CUSHION:
        return "case2"
    if pmax <= PHASE_SPLIT + REGIME_CUSHION:
        return "case1"
    return "straddle"


def eigen_sym2(m11, m12, m22):
    """Eigenvalues of symmetric 2x2 matrices, elementwise.

    Returns (lam1, lam2) with lam1 >= lam2, from the closed form
    (tr +- sqrt(tr^2 - 4 det))/2.  The discriminant is evaluated in the
    rearranged form ((m11 - m22)/2)^2 + m12^2 and clamped at zero, so
    round-off can never produce a negative radicand.
    """
    m11 = np.asarray(m11, dtype=float)
    m12 = np.asarray(m12, dtype=float)
    m22 = np.asarray(m22, dtype=float)
    # min and max propagate NaN and reach +-inf, with no boolean temporary
    if not all(math.isfinite(np.min(m)) and math.isfinite(np.max(m)) for m in (m11, m12, m22)):
        raise ValueError("symmetric matrix entries must be finite")
    mid = 0.5 * (m11 + m22)
    disc = (0.5 * (m11 - m22)) ** 2 + m12 * m12
    d = np.sqrt(np.maximum(disc, 0.0))
    return mid + d, mid - d


@dataclass(frozen=True)
class SlopeConstants:
    """Constants steering the slope-function checks.

    delta     supercritical phase margin (phase >= delta), radians
    c         quadratic coefficient in the slope curvature inequality
    A         weight of the quadratic added to the slope (modified slope)

    The additive constant of the slope curvature inequality is always fitted
    (`check_jacobi_pointwise` reports it as C_hat), so it has no field.
    """

    delta: float = 0.3
    c: float = 0.5
    A: float = 0.0

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"c must lie in (0, 1], got {self.c}")
        if self.A < 0:
            raise ValueError(f"A must be non-negative, got {self.A}")


def _lazy(build):
    """A cached property, built as its owner's _build_field(name, build)
    returns it: the one decorator of lazily built state, of a GeometryBundle
    and of the verify runner's context alike (see GeometryBundle)."""
    name = build.__name__
    return cached_property(wraps(build)(lambda self: self._build_field(name, lambda: build(self))))


@dataclass(frozen=True, eq=False)
class GeometryBundle:
    """All per-node graph geometry derived from one Hessian field.

    Arrays are (n, n), read-only, and mutually consistent:
    lam1 >= lam2, phase = arctan(lam1) + arctan(lam2) in (-pi, pi),
    vol = sqrt((1 + lam1^2)(1 + lam2^2)) = sqrt(det g) for the metric
    g = I + M^2 of its Hessian M (positive definite),
    inv* are the components of g^{-1}, and
    slope = ln sqrt(1 + lam1^2) >= 0.
    sig1 = lam1 + lam2 and sig2 = lam1*lam2 are computed on each access, not
    stored (each check binds the one it reads).

    grad_norm optionally carries |Du|, the hypot of the potential's
    differenced gradient (read by the volume and Hessian-estimate checks);
    bundles built directly from a Hessian leave it None.  The Hessian is not
    kept: the arrays are filled band by band from its rows.

    The fields below are computed on first access and then kept until the
    verify runner drops them (once no remaining check reads them), so every
    check reading them shares one computation: cos_phase and sin_phase
    (cos and sin of phase), slope_laplacian (lap_g b, divergence form) and
    slope_grad_norm2 (|grad_g b|^2), all read-only arrays.
    negated is the bundle of the negated potential, kept the same way so the
    checks that canonicalize a negative-phase bundle share its fields too; it
    shares the metric arrays and grad_norm of this bundle, and its own
    negated is this bundle.  Each of these fields is built as
    _build_field(name, build) returns build(): plain build() unless a caller
    sets its own on the bundle (the verify runner charges each build to its
    own timing key), which the negated twin takes over.
    """

    grid: Grid2
    lam1: np.ndarray
    lam2: np.ndarray
    phase: np.ndarray
    vol: np.ndarray
    inv11: np.ndarray
    inv12: np.ndarray
    inv22: np.ndarray
    slope: np.ndarray
    grad_norm: np.ndarray | None = None

    # not a field: no bundle is built with it, and replace() does not copy it
    _build_field = staticmethod(lambda name, build: build())

    @property
    def sig1(self) -> np.ndarray:
        return _ro(self.lam1 + self.lam2)

    @property
    def sig2(self) -> np.ndarray:
        return _ro(self.lam1 * self.lam2)

    @_lazy
    def cos_phase(self) -> np.ndarray:
        return _ro(np.cos(self.phase))

    @_lazy
    def sin_phase(self) -> np.ndarray:
        return _ro(np.sin(self.phase))

    @_lazy
    def slope_laplacian(self) -> np.ndarray:
        return laplace_beltrami(slope(self), self).values

    @_lazy
    def slope_grad_norm2(self) -> np.ndarray:
        return grad_g_norm2(slope(self), self).values

    @_lazy
    def negated(self) -> "GeometryBundle":
        """Bundle of the negated potential (phase flips sign, metric unchanged).

        g = I + M^2 is even in M, and so are its determinant and |Du|: the
        twin shares vol, inv11/12/22 and grad_norm, the very arrays a rebuild
        would compute bit for bit.  The eigenvalues of -M are exactly (-lam2,
        -lam1), as IEEE negation and rounding are symmetric.  The two bundles
        are each other's `negated`.
        """
        lam1, lam2 = -self.lam2, -self.lam1
        phase, b = _phase_slope(lam1, lam2)
        neg = replace(self, lam1=_ro(lam1), lam2=_ro(lam2), phase=_ro(phase), slope=_ro(b))
        neg.__dict__.update(negated=self, _build_field=self._build_field)
        return neg


def _inverse_metric(m11, m12, m22):
    """The inverse (inv11, inv12, inv22) of the metric g = I + M^2 of a
    symmetric Hessian M, elementwise."""
    g11 = 1.0 + m11 * m11 + m12 * m12
    g12 = m12 * (m11 + m22)
    g22 = 1.0 + m22 * m22 + m12 * m12
    detg = g11 * g22 - g12 * g12
    return g22 / detg, -g12 / detg, g11 / detg


def _phase_slope(lam1, lam2):
    """The phase arctan(lam1) + arctan(lam2) and the slope ln sqrt(1 + lam1^2)."""
    return np.arctan(lam1) + np.arctan(lam2), 0.5 * np.log1p(lam1 * lam1)


def _build(grid: Grid2, hess_rows, grad_norm) -> GeometryBundle:
    """The bundle whose arrays are filled one band b of rows at a time from
    the Hessian's rows hess_rows(b), by the whole-array expressions."""
    arrays = [np.empty((grid.n, grid.n)) for _ in range(8)]
    lam1, lam2, phase, vol, inv11, inv12, inv22, b = arrays
    for rows in _bands(0, grid.n):
        m = hess_rows(rows)
        lam1[rows], lam2[rows] = eigen_sym2(*m)
        inv11[rows], inv12[rows], inv22[rows] = _inverse_metric(*m)
        l1, l2 = lam1[rows], lam2[rows]
        vol[rows] = np.sqrt((1.0 + l1 * l1) * (1.0 + l2 * l2))
        phase[rows], b[rows] = _phase_slope(l1, l2)
    return GeometryBundle(grid, *map(_ro, arrays), grad_norm)


def bundle_from_hessian(grid: Grid2, hess, grad_norm: np.ndarray | None = None) -> GeometryBundle:
    """Assemble a GeometryBundle on grid from a (possibly analytic) Hessian
    (m11, m12, m22) of (n, n) arrays and, optionally, the gradient norm |Du|
    of its potential.  A non-finite Hessian entry raises ValueError."""
    return _build(grid, lambda b: tuple(m[b] for m in hess), grad_norm)


def bundle(u: ScalarField2) -> GeometryBundle:
    """Geometry bundle of a potential, from its differenced Hessian and gradient."""
    return _build(u.grid, lambda b: _hessian_rows(u.values, u.grid.h, b), gradient_norm(u).values)


def _quadform_inv(B: GeometryBundle, v1: np.ndarray, v2: np.ndarray, region=...) -> np.ndarray:
    """g^{ij} v_i v_j elementwise on a region of the grid (default all of
    it), with v1, v2 given on that region: inv11 v1 v1 + 2 inv12 v1 v2 +
    inv22 v2 v2, each product formed left to right."""
    inv11, inv12, inv22 = B.inv11[region], B.inv12[region], B.inv22[region]
    return inv11 * v1 * v1 + 2.0 * inv12 * v1 * v2 + inv22 * v2 * v2


def grad_g_norm2(f: ScalarField2, B: GeometryBundle) -> ScalarField2:
    """Squared metric gradient norm |grad_g f|^2 = g^{ij} f_i f_j, the Euclidean
    gradient (f_1, f_2) by second-order differences, formed band by band."""
    if f.grid != B.grid:
        raise ValueError("field and bundle grids differ")
    q = np.empty((B.grid.n, B.grid.n))
    for b in _bands(0, B.grid.n):
        q[b] = _quadform_inv(B, *_gradient_rows(f.values, B.grid.h, b), b)
    return ScalarField2(B.grid, q)


def _nondiv_kernel(v, W, inv11, inv12, inv22, h):
    """Non-divergence Laplace-Beltrami on raw (m, k) arrays, m, k >= 4.

    g^{ij} f_ij + (1/W) d_i(W g^{ij}) f_j with every derivative taken by the
    grid stencils along the array's own axes, so a strip of at least four
    lines reproduces the full-grid values on its outer line bit for bit.
    """
    A11 = W * inv11
    A12 = W * inv12
    A22 = W * inv22
    second = (
        inv11 * _d2(v, h, axis=0)
        + 2.0 * inv12 * _d1(_d1(v, h, axis=0), h, axis=1)
        + inv22 * _d2(v, h, axis=1)
    )
    first = (
        (_d1(A11, h, axis=0) + _d1(A12, h, axis=1)) * _d1(v, h, axis=0)
        + (_d1(A12, h, axis=0) + _d1(A22, h, axis=1)) * _d1(v, h, axis=1)
    ) / W
    return second + first


# the lower and upper node line of each pair of neighbours along each axis
_NEIGHBOUR_LINES = ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:]))

# the outer node line of each edge strip four lines wide, (strip, line in strip)
_EDGE_STRIPS = (
    ((slice(0, 4), slice(None)), (0, slice(None))),
    ((slice(-4, None), slice(None)), (-1, slice(None))),
    ((slice(None), slice(0, 4)), (slice(None), 0)),
    ((slice(None), slice(-4, None)), (slice(None), -1)),
)

def laplace_beltrami(f: ScalarField2, B: GeometryBundle) -> ScalarField2:
    """Divergence-form Laplace-Beltrami (1/W) d_i(W g^{ij} d_j f), W = sqrt(det g).

    Interior nodes use half-node flux stencils (coefficients W g^{ij}
    averaged to the half nodes, cross derivatives averaged from nodal
    central differences), which makes the discrete operator satisfy
    summation by parts exactly against weights vanishing near the grid
    boundary.  The interior is computed in bands of grid.LB_BAND_ROWS rows,
    each from its slab (grid._slab), which holds every node its stencils
    read; a band forms its own coefficients from vol and
    inv11/12/22, so nothing is cached on the bundle.  Each value is the same
    IEEE operations on the same operands as in a one-band evaluation, so
    the result does not depend on the band height, bit for bit.  The
    outermost node ring, where no flux stencil fits, takes the
    non-divergence form, evaluated only on the four edge strips four nodes
    wide (its one-sided stencils reach three nodes inward), which gives the
    ring values of the full-grid oracle bit for bit; checks needing interior
    smoothness stay 2h away from the boundary anyway.  O(h^2) truncation on
    smooth data.
    """
    if f.grid != B.grid:
        raise ValueError("field and bundle grids differ")
    g = B.grid
    out = np.empty((g.n, g.n))
    for rows in _bands(1, g.n - 1):
        _lb_rows(f.values, B, rows, out=out[rows, 1:-1])
    for strip, line in _EDGE_STRIPS:
        coeffs = (B.vol[strip], B.inv11[strip], B.inv12[strip], B.inv22[strip])
        out[line] = _nondiv_kernel(f.values[strip], *coeffs, g.h)[line]
    return ScalarField2(g, out)


def _lb_rows(values, B: GeometryBundle, rows: slice, cols: slice | None = None, out=None, origin=0):
    """laplace_beltrami's values on interior rows `rows` and interior columns
    `cols` (default 1 .. n-2), into out when given, of the field whose nodes
    from (origin, origin) on values holds (an (n, n) array when origin is 0,
    maybe a read-only view such as a broadcast coordinate), from the rows'
    slab (see grid._slab) and the columns around cols alone."""
    h, n = B.grid.h, B.grid.n
    cols = slice(1, n - 1) if cols is None else cols

    def flux(axis, v, d, c, c_cross):
        # the flux A_aa D_a f + A_ab D_b f (A = W g^{-1}) through the half
        # nodes along axis a, d the nodal central derivative along the other
        # axis b
        lo, hi = _NEIGHBOUR_LINES[axis]
        return c * (v[hi] - v[lo]) / h + c_cross * (d[hi] + d[lo])

    # the coefficients carry the factors of the flux stencils: (W g^11)/2
    # and (W g^12)/4 at (i+1/2, j) between slab rows, (W g^22)/2 and
    # (W g^12)/4 at (i, j+1/2) on the band's rows.  A slab that is not
    # C-contiguous is copied: numpy would lay its stencils out in F order.
    slab, on = _slab(n, rows)
    span = slice(cols.start - 1, cols.stop + 1)
    at = tuple(slice(s.start - origin, s.stop - origin) for s in (slab, span))
    v, W = np.ascontiguousarray(values[at]), B.vol[slab, span]
    A = W * B.inv11[slab, span]
    A12 = W * B.inv12[slab, span]
    f1 = flux(0, v, _d1(v, h, axis=1), 0.5 * (A[1:] + A[:-1]), 0.25 * (A12[1:] + A12[:-1]))
    A = W[on] * B.inv22[rows, span]
    c12 = 0.25 * (A12[on, 1:] + A12[on, :-1])
    f2 = flux(1, v[on], _d1(v, h, axis=0)[on], 0.5 * (A[:, 1:] + A[:, :-1]), c12)
    # ((f1[i+1/2] - f1[i-1/2])/h + (f2[j+1/2] - f2[j-1/2])/h)/W
    div = (f1[on, 1:-1] - f1[on.start - 1 : on.stop - 1, 1:-1]) / h
    return np.divide(div + (f2[:, 1:] - f2[:, :-1]) / h, W[on, 1:-1], out=out)


def _paraboloid_laplacian(B: GeometryBundle, box: slice) -> np.ndarray:
    """lap_g(|x|^2/2) on the block box x box of the grid's interior (box
    within 1 .. n-2), each value laplace_beltrami's on the whole grid bit
    for bit.  |x|^2/2 is formed only on the block and the nodes its
    stencils read, three around it (the widest slab reaches that far)."""
    n = B.grid.n
    near = slice(max(box.start - 3, 0), min(box.stop + 3, n))
    x = B.grid.axis()[near]
    q = x[:, None] * x[:, None] + x[None, :] * x[None, :]
    q *= 0.5
    out = np.empty((box.stop - box.start,) * 2)
    for rows in _bands(box.start, box.stop):
        at = slice(rows.start - box.start, rows.stop - box.start)
        _lb_rows(q, B, rows, box, out=out[at], origin=near.start)
    return _ro(out)


def slope(B: GeometryBundle) -> ScalarField2:
    """Slope function ln sqrt(1 + lam1^2) of the larger Hessian eigenvalue."""
    return ScalarField2(B.grid, B.slope)


def modified_slope(B: GeometryBundle, K: SlopeConstants) -> ScalarField2:
    """Slope plus the quadratic (A/2)|x|^2 that restores subharmonicity."""
    return _modified_slope_on(B, K, slice(0, B.grid.n))


def _modified_slope_on(B: GeometryBundle, K: SlopeConstants, box: slice) -> ScalarField2:
    """The modified slope on the block box x box, formed in the block of
    |x|^2, and 0 off it: a field for readers of the block alone."""
    out = np.zeros((B.grid.n, B.grid.n))
    x = B.grid.axis()[box]
    q = out[box, box]
    np.add(x[:, None] * x[:, None], x[None, :] * x[None, :], out=q)
    q *= 0.5 * K.A
    q += B.slope[box, box]
    return ScalarField2(B.grid, out)
