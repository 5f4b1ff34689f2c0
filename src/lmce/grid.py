"""Uniform-grid scalar field calculus on the square [-L, L]^2.

Provides the grid and its scalar field used throughout the package together
with second-order finite differences (a gradient as a pair of arrays, a
Hessian as the triple (m11, m12, m22)), node-indicator disk quadrature, disk
sup norms, and a smooth radial cutoff with its analytic gradient.  The
gradient norm is formed on a block (`_gradient_norm_on`), for readers of
that block alone; `gradient_norm` is its block of the whole grid.
Fields and differenced arrays are immutable after construction (marked
read-only), so they are safe to share across threads.

Ownership: a field takes over a float array that owns its memory (a freshly
computed result) without copying it, and marks that array read-only, so the
caller must not write to it afterwards.  Anything else it copies first: a
view (writable or not, so a later write to its base can never alter the
field), another dtype, or a non-array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid2",
    "ScalarField2",
    "build_grid",
    "sample",
    "gradient_fd",
    "gradient_norm",
    "hessian_fd",
    "integrate_disk",
    "sup_norm_disk",
]


def _owned(values) -> np.ndarray:
    """values itself if it is a float array owning its memory, else a copy."""
    if type(values) is np.ndarray and values.dtype == float and values.base is None:
        return values
    return np.array(values, dtype=float)


@dataclass(frozen=True)
class Grid2:
    """Uniform n x n node grid on [-L, L]^2 with spacing h = 2L/(n-1).

    Node (i, j) sits at (-L + i*h, -L + j*h); coordinates are symmetric
    about the origin. 5 <= n <= MAX_NODES: all stencils in this module fit.
    Each disk mask is built once per grid and radius and kept (one byte per
    node); equality and hashing read L and n only.
    """

    L: float
    n: int
    _disk_masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 5 <= self.n <= MAX_NODES:
            raise ValueError(f"grid needs 5 <= n <= {MAX_NODES} nodes per axis, got n={self.n}")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"grid half-width must be positive, got L={self.L}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates as broadcastable (n,1) and (1,n) arrays."""
        ax = self.axis()
        return ax[:, None], ax[None, :]

    def radius2(self) -> np.ndarray:
        x1, x2 = self.coords()
        return x1 * x1 + x2 * x2

    def disk_mask(self, r: float) -> np.ndarray:
        """Read-only boolean mask of nodes with |x| <= r.  Requires r <= L.

        Filled band by band from x1*x1 + x2*x2 <= r*r, so it holds the bits
        of `radius2() <= r*r` with no float |x|^2 of the grid's size."""
        if r > self.L:
            raise ValueError(f"disk radius {r} exceeds grid half-width {self.L}")
        if r < 0:
            raise ValueError(f"disk radius must be non-negative, got {r}")
        mask = self._disk_masks.get(r)
        if mask is None:
            x1, x2 = self.coords()
            x2_sq = x2 * x2
            mask = np.empty((self.n, self.n), dtype=bool)
            for b in _bands(0, self.n):
                np.less_equal(x1[b] * x1[b] + x2_sq, r * r, out=mask[b])
            mask = self._disk_masks[r] = _ro(mask)
        return mask

    def origin_index(self) -> tuple[int, int]:
        """Index of the origin node; requires odd n."""
        if self.n % 2 == 0:
            raise ValueError("origin is a grid node only for odd n")
        k = (self.n - 1) // 2
        return k, k


@dataclass(frozen=True, eq=False)
class ScalarField2:
    """Real values sampled at every node of a Grid2, stored as an (n, n) array.

    values[i, j] is the sample at node (-L + i*h, -L + j*h).  It is the
    array passed in, frozen, when that array owns its memory, else a frozen
    copy (see the module docstring).
    """

    grid: Grid2
    values: np.ndarray

    def __post_init__(self):
        vals = _owned(self.values)
        if vals.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"field shape {vals.shape} does not match grid n={self.grid.n}"
            )
        # min and max propagate NaN and reach +-inf, with no boolean temporary
        if not (math.isfinite(vals.min()) and math.isfinite(vals.max())):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", _ro(vals))


def build_grid(L: float, n: int) -> Grid2:
    """Build the uniform grid on [-L, L]^2 with n nodes per axis."""
    return Grid2(float(L), int(n))


def sample(f, grid: Grid2) -> ScalarField2:
    """Evaluate f(x1, x2) at every node.

    f must accept the broadcastable (n, 1) and (1, n) coordinate arrays.
    Non-finite values anywhere raise ValueError.
    """
    vals = np.asarray(f(*grid.coords()), dtype=float)
    return ScalarField2(grid, np.broadcast_to(vals, (grid.n, grid.n)))


# boundary lines that checks of twice-differenced fields leave out: the edge
# line carries one-sided stencils, and a second differencing reads it from
# the next line in
INTERIOR_MARGIN = 2
# the finest grid, 2^12 + 1 nodes per axis: a Newton solve holds about 12
# arrays of n^2 floats at its peak, 1.6 GB at this n
MAX_NODES = 4097


def _d1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided at edges."""
    return np.gradient(values, h, axis=axis, edge_order=2)


def _d2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order pure second derivative along one axis.

    Central three-point stencil at interior lines; four-point one-sided
    stencil (2, -5, 4, -1)/h^2 on the two edge lines.  Exact for cubics.
    """
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    h2 = h * h
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def _ro(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# node rows per band of all that is formed band by band: each array of a
# band takes about half a MB at n = 1025, not a full grid
LB_BAND_ROWS = 64


def _bands(lo: int, hi: int) -> list[slice]:
    """Rows lo .. hi - 1 cut into bands of LB_BAND_ROWS rows."""
    return [slice(r0, min(r0 + LB_BAND_ROWS, hi)) for r0 in range(lo, hi, LB_BAND_ROWS)]


def _extreme(block: np.ndarray, r0: int, c0: int, pick) -> tuple[tuple[int, int], float]:
    """(node, value) of the entry pick (np.argmin or np.argmax) chooses in a
    block whose first node is (r0, c0): its first such node in C order."""
    i, j = np.unravel_index(pick(block), block.shape)
    return (int(i) + r0, int(j) + c0), float(block[i, j])


def _located(values, rows: slice, col0: int = 0, pick=np.argmin) -> tuple[tuple[int, int], float]:
    """_extreme of the block of grid rows `rows`, first column col0, formed
    band by band by values(band), as pick chooses on the whole block."""
    parts = [_extreme(values(b), b.start, col0, pick) for b in _bands(rows.start, rows.stop)]
    return parts[int(pick([x for _, x in parts]))]


def _span(values, mask: np.ndarray) -> tuple[float, float]:
    """(min, max) over the nodes of an (n, n) boolean mask of the array formed
    band by band by values(band), with no gather: the values np.min and
    np.max take on the masked nodes, NaN included; (inf, -inf) for an empty mask."""
    lows, highs = [math.inf], [-math.inf]
    for b in _bands(0, len(mask)):
        if mask[b].any():
            v = values(b)
            lows.append(np.min(v, initial=math.inf, where=mask[b]))
            highs.append(np.max(v, initial=-math.inf, where=mask[b]))
            del v  # freed before the next band's values are formed
    return float(np.min(lows)), float(np.max(highs))


def _slab(n: int, band: slice) -> tuple[slice, slice]:
    """(slab, the band's rows in it): the band and a halo row each side, widened
    to the four rows of the one-sided stencils, which _d2 forms at the slab's
    ends; each value on the band is then bit for bit the whole array's."""
    lo, hi = max(band.start - 1, 0), min(band.stop + 1, n)
    hi = min(max(hi, lo + 4), n)
    lo = min(lo, hi - 4)
    return slice(lo, hi), slice(band.start - lo, band.stop - lo)


def _gradient_rows(values: np.ndarray, h: float, band: slice, cols: slice | None = None):
    """Rows `band` of gradient_fd's (d1, d2) of an (n, n) array on columns
    cols (default all), from the band's slab and a column around cols."""
    n = len(values)
    cols = slice(0, n) if cols is None else cols
    slab, k = _slab(n, band)
    span = _halo(cols, n)
    d2 = _d1(values[band, span], h, axis=1)[:, cols.start - span.start : cols.stop - span.start]
    return _d1(values[slab, cols], h, axis=0)[k], d2


def _hessian_rows(values: np.ndarray, h: float, band: slice):
    """Rows `band` of hessian_fd's (m11, m12, m22) of an (n, n) array, from the band's slab."""
    slab, k = _slab(len(values), band)
    v = values[slab]
    m12 = _d1(_d1(v, h, axis=0)[k], h, axis=1)
    return _d2(v, h, axis=0)[k], m12, _d2(values[band], h, axis=1)


def gradient_fd(f: ScalarField2) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (d1, d2) by second-order differences (one-sided on the
    boundary band), each a read-only (n, n) array.

    Exact for quadratic polynomials; O(h^2) truncation error for C^4 input.
    """
    return tuple(map(_ro, _gradient_rows(f.values, f.grid.h, slice(0, f.grid.n))))


def gradient_norm(f: ScalarField2) -> ScalarField2:
    """|Df|, the hypot of the differenced gradient, formed band by band."""
    return _gradient_norm_on(f, slice(0, f.grid.n))


def _gradient_norm_on(f: ScalarField2, box: slice) -> ScalarField2:
    """|Df| on the block box x box and 0 off it, each value on the block the
    same whatever block it is formed on: a field for readers of the block
    alone.  It reads f on the block and one node around it."""
    out = np.zeros((f.grid.n, f.grid.n))
    for b in _bands(box.start, box.stop):
        out[b, box] = np.hypot(*_gradient_rows(f.values, f.grid.h, b, box))
    return ScalarField2(f.grid, out)


def _mask_box(mask: np.ndarray) -> slice:
    """The slice of either axis that the nodes of a mask span, for a nonempty
    mask symmetric under x1 <-> x2, as a disk mask is."""
    kept = np.flatnonzero(mask.any(axis=1))
    return slice(int(kept[0]), int(kept[-1]) + 1)


def _halo(box: slice, n: int) -> slice:
    """box widened by one node each side, within 0 .. n-1."""
    return slice(max(box.start - 1, 0), min(box.stop + 1, n))


def hessian_fd(f: ScalarField2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hessian (m11, m12, m22) by second-order differences, each a read-only
    (n, n) array, not checked for finiteness (its readers check it).

    Pure second derivatives use central stencils inside and one-sided
    four-point stencils on the boundary band; the mixed derivative is a
    nested application of the first-derivative stencils.  Every node gets a
    value; exact for quadratics, O(h^2) for C^4 input.
    """
    return tuple(map(_ro, _hessian_rows(f.values, f.grid.h, slice(0, f.grid.n))))


def integrate_disk(f: ScalarField2, r: float) -> float:
    """Node-indicator quadrature of f over the disk |x| <= r.

    Sum of f*h^2 over nodes inside the disk; the un-clipped boundary layer
    makes the error O(h) times the integrand size near |x| = r.
    """
    mask = f.grid.disk_mask(r)
    h = f.grid.h
    return float(np.sum(f.values[mask]) * h * h)


def sup_norm_disk(f: ScalarField2, r: float) -> float:
    """Max of |f| over grid nodes with |x| <= r, formed band by band."""
    mask = f.grid.disk_mask(r)
    if not mask.any():
        raise ValueError(f"no grid nodes inside disk of radius {r}")
    return _span(lambda b: np.abs(f.values[b]), mask)[1]


# the cutoff that tests the slope curvature inequality: plateau B_2, the disk
# the super isoperimetric inequality integrates |grad_g b|^2 over, and
# support B_3, so the unit-wide transition keeps |grad phi| <= 1.875 and
# stays inside the default grid L = 4
CUTOFF_PLATEAU_RADIUS = 2.0
CUTOFF_SUPPORT_RADIUS = 3.0


def _quintic_slope(rho, r1: float, r2: float):
    """Radial derivative of the quintic-smoothstep cutoff: -30 t^2 (1-t)^2/w
    for t = (rho - r1)/w in (0, 1), w = r2 - r1, and 0 elsewhere."""
    w = r2 - r1
    t = (np.asarray(rho, dtype=float) - r1) / w
    return np.where((t > 0.0) & (t < 1.0), -30.0 * t * t * (1.0 - t) ** 2 / w, 0.0)


def _box(grid: Grid2, r: float) -> slice:
    """The slice of either axis that the box |x_i| <= r spans."""
    ax = grid.axis()
    return slice(int(np.searchsorted(ax, -r)), int(np.searchsorted(ax, r, side="right")))


def _cutoff(r1: float, r2: float, grid: Grid2, with_phi: bool, rows: slice | None = None):
    """(box, phi, (phi_1, phi_2)): the slice of either axis that the box
    |x_i| <= r2 spans, and the blocks on grid rows `rows` (default: the
    box's) and the box's columns of the quintic-smoothstep radial cutoff phi
    (None unless with_phi), 1 on |x| <= r1 and 0 on |x| >= r2, and of its
    analytic gradient at the nodes (no differencing).

    The transition is the quintic 10t^3 - 15t^4 + 6t^5, which is C^2 in the
    radius.  Its slope peaks at 15/8, so max |grad phi| = 1.875/(r2 - r1)
    on the whole plane, below the generic spline bound 3/(r2 - r1).  Off the
    box |x| > r2, where phi and its gradient vanish.  Each array is the
    closed form evaluated node by node, so the rows of one band of the box
    are those rows of the whole box bit for bit.
    """
    if not (0.0 < r1 < r2 <= grid.L):
        raise ValueError(f"cutoff radii must satisfy 0 < r1 < r2 <= L, got ({r1}, {r2})")
    ax = grid.axis()
    box = _box(grid, r2)
    x1, x2 = ax[box if rows is None else rows][:, None], ax[box][None, :]
    rho = np.hypot(x1, x2)
    phi = None
    if with_phi:
        t = np.clip((rho - r1) / (r2 - r1), 0.0, 1.0)
        # near t = 1 round-off can leave t^3 (10 - 15 t + 6 t^2) just above 1
        phi = np.maximum(1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t)), 0.0)
    dphi = _quintic_slope(rho, r1, r2)
    # rho is the divisor of the unit radial direction; the transition zone
    # excludes the origin, so the rho = 0 guard only affects nodes where dphi
    # is already zero
    rho = np.where(rho > 0.0, rho, 1.0)
    return box, phi, [dphi * x1 / rho, dphi * x2 / rho]
