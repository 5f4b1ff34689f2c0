"""Solution generators: manufactured solution pairs and a damped-Newton
Dirichlet solver for the prescribed-phase equation on the square.

Manufactured problems start from an analytic potential; the phase is defined
pointwise from the analytic Hessian, so the pair solves the equation exactly
by construction and doubles as ground truth for convergence sweeps.  The
Newton solver discretizes the arctangent form of the equation, whose
linearization has the inverse graph metric as coefficients and is therefore
uniformly elliptic at every iterate; the product form is kept only as a
residual cross-check elsewhere.  Its phase is atan2(tr M, 1 - det M) of the
differenced Hessian M, by the complex factorization, so the solve forms no
eigenvalue.  Each Newton system is a matrix-free 9-point stencil, solved by
BiCGSTAB preconditioned with an exact sine-transform solve of a frozen,
row-scaled constant-coefficient operator; everything is numpy.
The Newton iteration is inexact (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19, 1982): each system is solved only to the relative residual eta_k
that the outer convergence needs, the forcing term of Eisenstat & Walker
(SIAM J. Sci. Comput. 17, 1996), choice 2, which starts at ETA_MAX and falls
with the square of the residual ratio.  The initial iterate's harmonic
extensions are exact sine-transform Poisson solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LinearSolveError, PreconditionError
from .geometry import _inverse_metric, eigen_sym2
from .grid import Grid2, ScalarField2, _bands, _d2, hessian_fd, sample

__all__ = [
    "AnalyticFunction2",
    "ManufacturedProblem",
    "SolveState",
    "SystemSolve",
    "quadratic_family",
    "anisotropic_family",
    "perturbed_family",
    "manufacture",
    "newton_solve",
    "linear_solve",
    "phase_residual",
]

# BiCGSTAB iteration cap per Newton system; near pi a converging solve took
# up to 117 in one system (constant phase 3.0, n=129, harmonic start)
KRYLOV_MAXITER = 200
# Eisenstat-Walker forcing terms (choice 2): the first Newton system is solved
# to relative residual ETA_MAX, system k to ETA_GAMMA (rn_k/rn_{k-1})^2, capped
# at ETA_MAX and never below ETA_MIN
ETA_MAX = 0.1
ETA_GAMMA = 0.9
ETA_MIN = 1e-12
# Armijo sufficient decrease: a step of length t is taken once the residual
# sup-norm falls to (1 - ARMIJO t) of its value, the customary 1e-4
ARMIJO = 1e-4
# the line search halves t from 1 and gives up once t < MIN_STEP, after 21
# trials; a step that short is a stall, and it ends the solve
MIN_STEP = 2.0**-20
# differencing u rounds each second difference by about phi = eps max|u|/h^2,
# the residual's round-off floor: the exact solution's own residual is ~phi,
# and solves that cannot go lower stop at 0.72-1.22 phi.  A line search or
# linear solve that fails within FLOOR_FACTOR phi says so in the message
FLOOR_FACTOR = 2.0


@dataclass(frozen=True)
class AnalyticFunction2:
    """A C^4 potential given by closures for its value, gradient and Hessian.

    value(x1, x2) -> array; gradient(x1, x2) -> (g1, g2);
    hessian(x1, x2) -> (m11, m12, m22).  All must broadcast numpy arrays.
    """

    value: callable
    gradient: callable
    hessian: callable


def quadratic_family(a: float) -> AnalyticFunction2:
    """Isotropic quadratic a|x|^2/2 with constant phase 2*arctan(a)."""
    a = float(a)
    return AnalyticFunction2(
        value=lambda x1, x2: 0.5 * a * (x1 * x1 + x2 * x2),
        gradient=lambda x1, x2: (a * x1 + 0.0 * x2, a * x2 + 0.0 * x1),
        hessian=lambda x1, x2: (
            a + 0.0 * x1 + 0.0 * x2,
            0.0 * x1 + 0.0 * x2,
            a + 0.0 * x1 + 0.0 * x2,
        ),
    )


def anisotropic_family(theta1: float, theta2: float) -> AnalyticFunction2:
    """Diagonal quadratic (tan(theta1) x1^2 + tan(theta2) x2^2)/2.

    Constant Hessian with distinct eigenvalues and phase theta1 + theta2.
    """
    t1, t2 = math.tan(theta1), math.tan(theta2)
    return AnalyticFunction2(
        value=lambda x1, x2: 0.5 * (t1 * x1 * x1 + t2 * x2 * x2),
        gradient=lambda x1, x2: (t1 * x1 + 0.0 * x2, t2 * x2 + 0.0 * x1),
        hessian=lambda x1, x2: (
            t1 + 0.0 * x1 + 0.0 * x2,
            0.0 * x1 + 0.0 * x2,
            t2 + 0.0 * x1 + 0.0 * x2,
        ),
    )


def perturbed_family(eps: float) -> AnalyticFunction2:
    """|x|^2/2 + eps sin(x1) sin(x2): near-isotropic with oscillating Hessian."""
    eps = float(eps)
    return AnalyticFunction2(
        value=lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + eps * np.sin(x1) * np.sin(x2),
        gradient=lambda x1, x2: (
            x1 + eps * np.cos(x1) * np.sin(x2),
            x2 + eps * np.sin(x1) * np.cos(x2),
        ),
        hessian=lambda x1, x2: (
            1.0 - eps * np.sin(x1) * np.sin(x2),
            eps * np.cos(x1) * np.cos(x2),
            1.0 - eps * np.sin(x1) * np.sin(x2),
        ),
    )


@dataclass(frozen=True, eq=False)
class ManufacturedProblem:
    """Exact-by-construction solution pair on a grid.

    The phase field comes from the analytic Hessian (never from finite
    differences), and u_exact on the boundary ring is the Dirichlet data of
    a solve.  hess_exact samples the analytic Hessian again on each
    access rather than keeping three grid arrays that only error reports
    read; it gives the values the phase was built from, bit for bit.
    """

    analytic: AnalyticFunction2
    u_exact: ScalarField2
    psi: ScalarField2

    @property
    def grid(self) -> Grid2:
        return self.u_exact.grid

    @property
    def hess_exact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _sample_hessian(self.analytic, self.grid)


def _sample_hessian(analytic: AnalyticFunction2, grid: Grid2):
    """The analytic Hessian (m11, m12, m22) at the nodes, each (n, n)."""
    x1, x2 = grid.coords()
    return tuple(
        np.broadcast_to(np.asarray(c, dtype=float), (grid.n, grid.n))
        for c in analytic.hessian(x1, x2)
    )


def manufacture(analytic: AnalyticFunction2, grid: Grid2) -> ManufacturedProblem:
    """Sample an analytic potential and define its phase from the equation,
    band by band from the analytic Hessian's rows, with the whole-grid
    expressions' bits and no grid-sized eigenvalue temporary."""
    u = sample(analytic.value, grid)
    hess = _sample_hessian(analytic, grid)
    psi_vals = np.empty((grid.n, grid.n))
    for band in _bands(0, grid.n):
        lam1, lam2 = eigen_sym2(*(m[band] for m in hess))
        psi_vals[band] = np.arctan(lam1) + np.arctan(lam2)
    return ManufacturedProblem(analytic=analytic, u_exact=u, psi=ScalarField2(grid, psi_vals))


@dataclass(frozen=True)
class SystemSolve:
    """How one linear system was solved: the BiCGSTAB iterations run (also
    those of a solve that did not certify) and the relative tolerance asked
    for."""

    krylov_iterations: int
    rtol: float


@dataclass(eq=False)
class SolveState:
    """Newton iteration record for one Dirichlet solve; every field but u is
    written under its own name in the solver summary of a JSON output.

    When converged is set, residuals is strictly decreasing and ends at or
    below the solve's tol; every iterate carries the boundary trace exactly.
    systems holds how each Newton system was solved, in step order: one per
    step taken, and one for the step the solve ended in, if it solved one,
    so iterations <= len(systems) <= iterations + 1.  residual_floor is
    the round-off floor phi of the residual (newton_solve).
    """

    u: ScalarField2
    residuals: list[float]
    damping: list[float]
    converged: bool
    iterations: int
    residual_floor: float
    message: str = ""
    systems: list[SystemSolve] = field(default_factory=list)


def phase_residual(u: ScalarField2, psi: ScalarField2) -> float:
    """Sup-norm of arctan(lam1) + arctan(lam2) - psi over interior nodes.

    Recomputed from scratch (fresh differencing, no reused intermediates);
    used to certify converged states independently of the solve loop.
    """
    return _phase_defect(hessian_fd(u), psi)[1]


def _phase_defect(hess, psi: ScalarField2):
    """(r, max |r|) for r = arctan(lam1) + arctan(lam2) - psi of hess on the
    interior nodes, r an (n, n) array that is 0 on the boundary ring.

    No eigenvalue is formed: the complex factorization (1 + i lam1)(1 + i
    lam2) = (1 - det M) + i tr M makes the phase, which lies in (-pi, pi),
    atan2(tr M, 1 - det M).  Formed one band of rows at a time, so only r is
    grid-sized.  max |r| is NaN when an entry of r is (a det M that
    overflowed to inf - inf).
    A non-finite entry of hess raises ValueError, also on the boundary ring.
    """
    if not all(math.isfinite(f(m)) for m in hess for f in (np.min, np.max)):
        raise ValueError("Hessian entries must be finite")  # min, max see NaN, inf
    n = len(psi.values)
    r = np.zeros((n, n))
    for band in _bands(1, n - 1):
        m11, m12, m22 = (m[band, 1:-1] for m in hess)
        phase = np.arctan2(m11 + m22, 1.0 - (m11 * m22 - m12 * m12))
        r[band, 1:-1] = phase - psi.values[band, 1:-1]
    return r, max(float(np.max(r)), -float(np.min(r)))


@dataclass(frozen=True, eq=False)
class Stencil9:
    """A 9-point operator on the n x n grid, matrix-free: coef holds its
    three couplings (b, a, c), each (n, n) and 0 on the boundary ring, and

        A x = a (x_N + x_S - 2x) + c (x_W + x_E - 2x) + b ((x_SE - x_NE) - (x_SW - x_NW))

    with N, S the neighbours along axis 0 and W, E those along axis 1."""

    coef: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x of an (n, n) x, as an (n, n) array that is 0 on the boundary
        ring, as the couplings are.

        Formed one band of rows at a time over the band's flat run, from the
        node after the band's first to the node before its last, so that
        every neighbour read lies on the grid: each term is one contiguous
        run of the flat arrays, and only y is grid-sized."""
        b, a, c = (v.ravel() for v in self.coef)
        n = len(self.coef[0])
        x = np.ravel(x)
        y = np.zeros((n, n))
        for band in _bands(1, n - 1):
            lo, hi = band.start * n + 1, band.stop * n - 1

            def at(shift):
                return x[lo + shift : hi + shift]

            twice = 2.0 * at(0)
            d = at(-n) + at(n)
            d -= twice
            run = np.multiply(a[lo:hi], d, out=y.ravel()[lo:hi])
            np.add(at(-1), at(1), out=d)
            d -= twice
            d *= c[lo:hi]
            run += d
            np.subtract(at(n + 1), at(1 - n), out=d)
            d -= np.subtract(at(n - 1), at(-n - 1), out=twice)
            d *= b[lo:hi]
            run += d
            del twice, d  # not alive while the next band's are formed
        return y


def _newton_system(grid: Grid2, inverse_rows):
    """The operator inv11*D11 + 2*inv12*D12 + inv22*D22 on interior nodes,
    as a Stencil9, and its sine preconditioner M.

    inverse_rows(rows) gives (inv11, inv12, inv22) on the interior nodes of
    the grid rows `rows` (arrays, or scalars that broadcast).  Central
    stencils throughout; the couplings (b, a, c) and s are (n, n) arrays,
    0 on the boundary ring, where corrections vanish.

    With s = (inv11 + inv22)/2 the operator is s times one whose coefficients
    inv11/s, inv12/s, inv22/s are frozen at their interior means a, 0, c for
    M, which divides by s and solves a*D11 + c*D22 exactly by sine transform
    (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  The further the scaled
    coefficients spread about (a, 0, c), the more BiCGSTAB iterations a
    system takes.  Every array is filled one band of rows at a time; the
    means are taken over whole contiguous interior inv11/s and inv22/s
    arrays, which are then freed.
    """
    h2 = grid.h * grid.h
    b, a, c, s = (np.zeros((grid.n, grid.n)) for _ in range(4))
    for band in _bands(1, grid.n - 1):
        k = band, slice(1, -1)
        # a and c hold inv11 and inv22 until the means are taken
        a[k], b[k], c[k] = inverse_rows(band)
        b[k] /= 2.0 * h2
        s[k] = 0.5 * (a[k] + c[k])
    inner = s[1:-1, 1:-1]
    q = a[1:-1, 1:-1] / inner
    mean11 = float(np.mean(q))
    mean22 = float(np.mean(np.divide(c[1:-1, 1:-1], inner, out=q)))
    del q
    a /= h2
    c /= h2
    return Stencil9((b, a, c)), lambda r: _poisson_solve(grid, r, mean11, mean22, inner)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """The dot product of u and v over all their entries, by numpy's own
    loop, which does not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", np.ravel(u), np.ravel(v)))


def _norm(u: np.ndarray) -> float:
    """The 2-norm of u, from _dot."""
    return math.sqrt(_dot(u, u))


def _bicgstab(A, b: np.ndarray, psolve, rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """BiCGSTAB (van der Vorst, SIAM J. Sci. Stat. Comput. 13, 1992) from x = 0,
    preconditioned by psolve, to |r| < rtol |b|: the operations of the loop
    of the reference BiCGSTAB in the tests (atol=0), in the same order, but
    every dot product and norm is _dot's, so x agrees with the reference's
    to round-off, not bit for bit.  No vector the rest of the loop does not
    read is bound while psolve or A runs, and phat, shat and t, read no
    more once scaled, are scaled in place: x += (omega shat) rounds the same
    either way, with no grid-sized temporary.  Returns x and the completed
    iterations."""
    x = np.zeros_like(b)
    atol = max(0.0, rtol * _norm(b))
    # breakdown tolerances of the original Fortran template
    rhotol = omegatol = np.finfo(float).eps ** 2
    r = b.copy()  # the shadow residual is b itself, never written
    for it in range(maxiter):
        if _norm(r) < atol:
            return x, it
        rho = _dot(b, r)
        if abs(rho) < rhotol:
            return x, it
        if it > 0:
            if abs(omega) < omegatol:
                return x, it
            beta = (rho / rho_prev) * (alpha / omega)
            v *= omega
            p -= v
            del v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = psolve(p)
        v = A @ phat
        rv = _dot(b, v)
        if rv == 0:
            return x, it
        alpha = rho / rv
        r -= alpha * v
        phat *= alpha
        x += phat
        del phat
        if _norm(r) < atol:
            return x, it
        shat = psolve(r)
        t = A @ shat
        omega = _dot(t, r) / _dot(t, t)
        shat *= omega
        x += shat
        t *= omega
        r -= t
        del shat, t
        rho_prev = rho
    return x, maxiter


def linear_solve(A, rhs: np.ndarray, M, tol: float = 1e-12, record=None) -> np.ndarray:
    """Solve A x = rhs (A anything with A @ x, such as a Stencil9, and x of
    rhs's shape) by BiCGSTAB preconditioned by the callable M.

    tol is the relative residual BiCGSTAB stops at; newton_solve passes
    its forcing term, loose while the outer residual is large.  The measured
    relative residual, a _norm as are BiCGSTAB's, certifies the answer: it
    must be finite and at most max(min(10 tol, 0.5), 1e-9), below 1 so that
    x = 0 (a breakdown before the first update) never certifies.  Returns x
    (zeros for a zero right-hand side); a nonzero one appends its
    SystemSolve to the list record, certified or not.  An answer that does
    not certify raises LinearSolveError, and so does a right-hand side
    whose norm is not finite, at once, with no iteration run.
    """
    rhs = np.asarray(rhs, dtype=float)
    norm = _norm(rhs)
    if norm == 0.0:
        return np.zeros_like(rhs)
    if not math.isfinite(norm):
        if record is not None:
            record.append(SystemSolve(0, tol))
        raise LinearSolveError(f"linear solve right-hand side has norm {norm}")
    x, iterations = _bicgstab(A, rhs, M, tol, KRYLOV_MAXITER)
    if record is not None:
        record.append(SystemSolve(iterations, tol))
    res = _norm(A @ x - rhs) / norm
    if not (math.isfinite(res) and res <= max(min(10.0 * tol, 0.5), 1e-9)):
        raise LinearSolveError(f"linear solve stagnated at relative residual {res:.3e}")
    return x


def _dst1(x: np.ndarray, axis: int) -> None:
    """Unnormalized type-I sine transform y_k = sum_j x_j sin(pi j k/(m+1)),
    j, k = 1..m, along one axis of a 2-D array x, in place, from the FFT of
    the odd extension.  It runs on bands (grid._bands) of the lines along
    that axis, each band read whole before it is written, so that the
    extension and its spectrum are only band-sized; each line is the whole
    array's.

    Applied twice it returns x scaled by (m+1)/2.
    """
    x = np.moveaxis(x, axis, -1)
    m = x.shape[-1]
    for band in _bands(0, len(x)):
        z = np.zeros((band.stop - band.start, 2 * m + 2))
        z[:, 1 : m + 1] = x[band]
        np.negative(z[:, m:0:-1], out=z[:, m + 2 :])
        spectrum = np.fft.rfft(z)
        del z  # not alive with the band's result
        x[band] = -0.5 * spectrum[:, 1 : m + 1].imag
        del spectrum  # not alive while the next band's is formed


def _poisson_solve(grid: Grid2, rhs: np.ndarray, a: float = 1.0, c: float = 1.0, s=1.0) -> np.ndarray:
    """Exact solve of a*D11 + c*D22 (5-point, Dirichlet) on interior nodes
    for the right-hand side rhs / s, by diagonalizing it with the sine
    transform.  rhs and the result are (n, n) arrays, of which the solve
    reads rhs's interior nodes only and the result is 0 on the boundary
    ring; s is an (n - 2, n - 2) interior array or a scalar.

    The result is the one grid-sized array formed: its interior starts as
    rhs / s, and the four transforms and the division by the eigenvalue
    sums run on it in place, band by band.
    """
    m = grid.n - 2
    lam = -4.0 * np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1)) ** 2 / (grid.h * grid.h)
    x = np.zeros((grid.n, grid.n))
    f = np.divide(rhs[1:-1, 1:-1], s, out=x[1:-1, 1:-1])
    del rhs  # freed here when the caller passed a temporary
    _dst1(f, 0)
    _dst1(f, 1)
    for band in _bands(0, m):
        f[band] /= a * lam[band, None] + c * lam[None, :]
    _dst1(f, 0)
    _dst1(f, 1)
    f *= (2.0 / (m + 1)) ** 2
    return x


def _initial_iterate(grid: Grid2, boundary: ScalarField2, psi: ScalarField2, mode: str):
    """Discrete harmonic extension of the boundary data, optionally bent to
    match the mean phase.

    The harmonic extension of a trace is the trace with a zero interior,
    plus the Poisson solve of minus that array's Laplacian m11 + m22 (the
    pure second differences of hessian_fd), whose interior holds the
    Dirichlet data's share of the 5-point Laplacian.
    "harmonic": plain harmonic extension.
    "phase_matched": adds t*(q - harmonic extension of q's trace) where q is
    the paraboloid |x|^2/2 and t = tan(mean(psi)/2); for isotropic quadratic
    boundary data this reproduces the exact discrete solution, and in general
    it starts the iteration at the right mean curvature.
    """

    def harmonic(values: np.ndarray) -> np.ndarray:
        trace = values.copy()
        trace[1:-1, 1:-1] = 0.0
        m11, m22 = _d2(trace, grid.h, axis=0), _d2(trace, grid.h, axis=1)
        return trace + _poisson_solve(grid, -(m11 + m22))

    u0 = harmonic(boundary.values)
    if mode == "harmonic":
        return u0
    psibar = float(np.mean(psi.values[1:-1, 1:-1]))
    t = math.tan(0.5 * psibar)
    q = 0.5 * grid.radius2()
    # q - harmonic(q) vanishes on the boundary ring and has discrete Laplacian
    # 2, so u0 keeps the trace exactly while matching the mean curvature; for
    # isotropic quadratic data it is the exact discrete solution
    return u0 + t * (q - harmonic(q))


def _forcing_term(ratio: float) -> float:
    """Relative tolerance of Newton system k >= 1 (Eisenstat-Walker choice
    2) from ratio, the last residual sup-norm over the one before it; system
    0 takes ETA_MAX."""
    return max(min(ETA_GAMMA * ratio * ratio, ETA_MAX), ETA_MIN)


def newton_solve(
    psi: ScalarField2,
    boundary: ScalarField2,
    *,
    tol: float = 1e-10,
    max_iter: int = 30,
    initial: str = "phase_matched",
) -> SolveState:
    """Damped Newton iteration for the arctangent-form Dirichlet problem.

    The residual at interior nodes is arctan(lam1) + arctan(lam2) - psi of
    the differenced Hessian M, formed as atan2(tr M, 1 - det M) - psi
    (_phase_defect); the Newton system has the inverse graph metric as
    coefficients (positive definite at any iterate, so descent directions
    never degenerate).  An iterate whose metric I + M^2, or its
    determinant, may overflow ends the solve with "linearization lost
    ellipticity".  Each step solves one system, to the relative residual
    _forcing_term gives, and is damped by Armijo backtracking on the
    residual sup-norm (ARMIJO, halving down to MIN_STEP); a system that
    does not certify, or a line search that finds no step, ends the solve,
    and at a residual within FLOOR_FACTOR of the round-off floor phi = eps
    max|u|/h^2 (max|u| the boundary data's) the message names it and tol.
    Non-convergence returns the state with the converged flag unset; a
    start iterate that overflows raises PreconditionError, as no finite
    iterate exists.  The grid is psi's; boundary supplies the Dirichlet
    data on its boundary ring.
    """
    grid = psi.grid
    if boundary.grid != grid:
        raise ValueError("phase and boundary grids must match")
    if initial not in ("harmonic", "phase_matched"):
        raise ValueError(f"unknown initial iterate mode {initial!r}")
    pmin = float(np.min(psi.values))
    pmax = float(np.max(psi.values))
    if not (0.0 < pmin and pmax < math.pi):
        raise PreconditionError(
            f"solver needs supercritical phase in (0, pi), got range "
            f"[{pmin:.4f}, {pmax:.4f}]"
        )
    n = grid.n
    # max|u| of the boundary ring, the only part of boundary the solve reads
    ring = np.abs(boundary.values[:: n - 1]), np.abs(boundary.values[:, :: n - 1])
    floor = np.finfo(float).eps * max(float(np.max(v)) for v in ring) / (grid.h * grid.h)

    def residual(uarr: np.ndarray) -> tuple[np.ndarray, float, tuple]:
        """The phase residual (0 on the boundary ring), its sup-norm and the
        differenced Hessian M."""
        hess = hessian_fd(ScalarField2(grid, uarr))
        return (*_phase_defect(hess, psi), hess)

    def direction(eta: float) -> np.ndarray:
        """The Newton direction at u, 0 on the boundary ring, solved to eta.
        The inverse metric is formed band by band from hess; r and hess are
        released once read, A and M on return: none is alive in the line
        search."""
        nonlocal r, hess
        A, M = _newton_system(grid, lambda rows: _inverse_metric(*(m[rows, 1:-1] for m in hess)))
        hess = None
        rhs, r = -r, None
        return linear_solve(A, rhs, M, tol=eta, record=systems)

    def line_search(step: np.ndarray):
        """(t, u + t step, its residual) for the longest t = 1, 1/2, ... down
        to MIN_STEP that passes the Armijo test; None if no t does."""
        t = 1.0
        while t >= MIN_STEP:
            trial = u + t * step
            r_new, rn_new, hess = residual(trial)
            if rn_new <= (1.0 - ARMIJO * t) * rn:
                return t, trial, r_new, rn_new, hess
            del trial, r_new, hess  # not alive in the next trial
            t *= 0.5
        return None

    u = _initial_iterate(grid, boundary, psi, initial)
    try:
        r, rn, hess = residual(u)
    except ValueError as exc:  # u or its differenced Hessian is not finite
        raise PreconditionError(f"boundary data too large to difference: {exc}") from None
    residuals: list[float] = [rn]
    damping: list[float] = []  # one step length per Newton step taken
    systems: list[SystemSolve] = []
    message = ""
    while not rn <= tol:  # a NaN residual is not converged
        if len(damping) >= max_iter:
            message = f"no convergence within {max_iter} iterations"
            break
        # g = 1 + 2 max|m_ij|^2 bounds each interior entry of the metric I + M^2
        # and g^2 each product in the determinant _inverse_metric divides by;
        # where these overflow, g^{-1}'s smallest eigenvalue 1/(1 + lam^2) is lost
        top = max(max(float(np.max(m[1:-1, 1:-1])), -float(np.min(m[1:-1, 1:-1]))) for m in hess)
        g = 1.0 + 2.0 * top * top
        if not g * g < math.inf:  # a product: float ** raises on overflow
            message = "linearization lost ellipticity"
            break
        eta = _forcing_term(rn / residuals[-2]) if damping else ETA_MAX
        try:
            taken = line_search(direction(eta))
            if taken is None:
                message = "line search failed to reduce the residual"
        except LinearSolveError as exc:
            message = str(exc)
        if message:
            if rn <= FLOOR_FACTOR * floor:
                message = f"residual {rn:.3e} is at the round-off floor {floor:.3e} "
                message += f"of the grid, above tol {tol:.3e}"
            break
        t, u, r, rn, hess = taken
        del taken  # so that direction() frees the Hessian
        residuals.append(rn)
        damping.append(t)
    return SolveState(
        u=ScalarField2(grid, u),
        residuals=residuals,
        damping=damping,
        converged=rn <= tol,
        iterations=len(damping),
        residual_floor=floor,
        message=message,
        systems=systems,
    )
