"""Manufactured problems, Newton Dirichlet solver, linear solver."""

import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import lmce.geometry
import lmce.grid
import lmce.solver
from lmce.errors import LinearSolveError, PreconditionError
from lmce.geometry import _inverse_metric, classify_phase, eigen_sym2
from lmce.grid import ScalarField2, build_grid, hessian_fd, sample
from lmce.solver import (
    anisotropic_family,
    linear_solve,
    manufacture,
    newton_solve,
    perturbed_family,
    phase_residual,
    quadratic_family,
)
from lmce.solver import (
    ETA_MAX,
    ETA_MIN,
    FLOOR_FACTOR,
    KRYLOV_MAXITER,
    AnalyticFunction2,
    SystemSolve,
    _bicgstab,
    _dst1,
    _forcing_term,
    _initial_iterate,
    _newton_system,
    _phase_defect,
    _poisson_solve,
    _sample_hessian,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _node_rows(g, inv11, inv12, inv22):
    """The inverse_rows of _newton_system for coefficients given as node
    arrays or scalars."""
    def rows(band):
        return tuple(
            np.broadcast_to(np.asarray(v, dtype=float), (g.n, g.n))[band, 1:-1]
            for v in (inv11, inv12, inv22)
        )

    return rows


def _assemble_linearization(g, inv11, inv12, inv22):
    """The Stencil9 of inv11*D11 + 2*inv12*D12 + inv22*D22, coefficients
    given as node arrays or scalars."""
    return _newton_system(g, _node_rows(g, inv11, inv12, inv22))[0]


def _sine_preconditioner(g, inv11, inv22):
    """The sine preconditioner of the operator with these coefficients."""
    return _newton_system(g, _node_rows(g, inv11, 0.0, inv22))[1]


def _on_grid(g, interior):
    """An (n, n) array that is 0 on the boundary ring and holds the values
    of interior, in row order, on the interior nodes."""
    out = np.zeros((g.n, g.n))
    out[1:-1, 1:-1] = np.reshape(interior, (g.n - 2, g.n - 2))
    return out


def _dirichlet_rhs(g, boundary_vals):
    """Right side of a constant-coefficient Laplace problem with Dirichlet
    data, as a flat interior vector: the ring neighbours' values over h^2,
    subtracted from 0 one edge at a time.  The reference of the harmonic
    extension in _initial_iterate."""
    n = g.n
    h2 = g.h * g.h
    rhs = np.zeros((n - 2, n - 2))
    rhs[0, :] -= boundary_vals[0, 1:-1] / h2
    rhs[-1, :] -= boundary_vals[-1, 1:-1] / h2
    rhs[:, 0] -= boundary_vals[1:-1, 0] / h2
    rhs[:, -1] -= boundary_vals[1:-1, -1] / h2
    return rhs.ravel()


def _harmonic_extension(g, values):
    """The discrete harmonic extension of the trace of an (n, n) array: the
    Poisson solve of _dirichlet_rhs, trace restored.  Bit for bit the
    extension _initial_iterate forms; as a start of newton_solve it is the
    hard start near pi."""
    ext = _poisson_solve(g, _on_grid(g, _dirichlet_rhs(g, values)))
    for ring in (np.s_[:: g.n - 1], np.s_[:, :: g.n - 1]):
        ext[ring] = values[ring]
    return ext


# the 9 entries of a Stencil9 row: neighbour (i+di, j+dj) of node (i, j), the
# coupling k in (b, a, c, diag), diag = -2a - 2c, and its weight
_NEIGHBOURS = [
    (-1, -1, 0, 1), (-1, 0, 1, 1), (-1, 1, 0, -1),
    (0, -1, 2, 1), (0, 0, 3, 1), (0, 1, 2, 1),
    (1, -1, 0, -1), (1, 0, 1, 1), (1, 1, 0, 1),
]


def _csc(A):
    """The n^2 x n^2 CSC matrix of a Stencil9 on the flat grid, built from
    its couplings (b, a, c) and the diagonal -2a - 2c, each placed by
    _NEIGHBOURS with its weight: a row of 9 entries for each interior node,
    zero coefficients stored, and no entry in the rows of the ring."""
    b, a, c = A.coef
    coupling = (b, a, c, -2.0 * a - 2.0 * c)
    n = len(a)
    nodes = np.arange(n * n).reshape(n, n)
    data, rows, cols = [], [], []
    for di, dj, k, sign in _NEIGHBOURS:
        data.append(sign * coupling[k][1:-1, 1:-1].ravel())
        rows.append(nodes[1:-1, 1:-1].ravel())
        cols.append(nodes[1 + di : n - 1 + di, 1 + dj : n - 1 + dj].ravel())
    triplets = np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))
    return sp.coo_matrix(triplets, shape=(n * n, n * n)).tocsc()


def _exact_solve(A, rhs, M, tol=1e-12, record=None):
    """linear_solve's signature, answered by a sparse direct solve of the
    interior nodes' block."""
    n = len(rhs)
    inner = np.arange(n * n).reshape(n, n)[1:-1, 1:-1].ravel()
    K = _csc(A)[inner][:, inner]
    x = np.zeros((n, n))
    x.ravel()[inner] = spla.spsolve(K, rhs.ravel()[inner])
    return x


def _newton_case(case):
    """Phase, boundary data and start of a named Newton test problem."""
    if case == "perturbed":
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        return prob.psi, prob.u_exact, None
    if case == "anisotropic":
        g = build_grid(4.0, 33)
        prob = manufacture(anisotropic_family(1.4, 0.2), g)
        return prob.psi, prob.u_exact, None
    # near pi from the harmonic extension, where the damped steps need many
    # BiCGSTAB iterations
    g = build_grid(4.0, 33)
    psi = ScalarField2(g, np.full((g.n, g.n), 3.13))
    boundary = sample(quadratic_family(1.0).value, g)
    return psi, boundary, _harmonic_extension(g, boundary.values)


# Newton steps of each _newton_case with inexact solves and with exact ones:
# near pi the inexact path takes one step more
NEWTON_STEPS = {"perturbed": (4, 4), "anisotropic": (11, 11), "near_pi": (14, 13)}


def _assert_same_path(case, inexact, exact):
    """Both solves converge in the steps NEWTON_STEPS gives, with the same
    damping where the counts agree, and to the same u within 1e-9."""
    assert inexact.converged and exact.converged
    assert (inexact.iterations, exact.iterations) == NEWTON_STEPS[case]
    if inexact.iterations == exact.iterations:
        assert inexact.damping == exact.damping
    assert np.max(np.abs(inexact.u.values - exact.u.values)) <= 1e-9


def _anisotropic_bump(theta1, theta2, eps):
    """anisotropic_family(theta1, theta2) + eps sin(x1) sin(x2)."""
    t1, t2 = math.tan(theta1), math.tan(theta2)
    return AnalyticFunction2(
        value=lambda x1, x2: 0.5 * (t1 * x1 * x1 + t2 * x2 * x2) + eps * np.sin(x1) * np.sin(x2),
        gradient=lambda x1, x2: (
            t1 * x1 + eps * np.cos(x1) * np.sin(x2),
            t2 * x2 + eps * np.sin(x1) * np.cos(x2),
        ),
        hessian=lambda x1, x2: (
            t1 - eps * np.sin(x1) * np.sin(x2),
            eps * np.cos(x1) * np.cos(x2),
            t2 - eps * np.sin(x1) * np.sin(x2),
        ),
    )


def _assert_eigenvalue_phase(hess, psi):
    """_phase_defect's residual is arctan(lam1) + arctan(lam2) - psi of the
    eigenvalues, on the interior nodes, within 4 ulp of pi."""
    r, rn = _phase_defect(hess, psi)
    lam1, lam2 = eigen_sym2(*hess)
    oracle = np.arctan(lam1) + np.arctan(lam2) - psi.values
    assert np.max(np.abs(r[1:-1, 1:-1] - oracle[1:-1, 1:-1])) <= 4 * np.spacing(math.pi)
    assert rn == np.max(np.abs(r))
    assert not np.any(r[[0, -1]]) and not np.any(r[:, [0, -1]])


def _eisenstat_walker_step(ratio, eta_prev, cap=0.1, gamma=0.9, floor=1e-12):
    """Eisenstat-Walker choice 2, written out independently of the solver:
    min(cap, gamma ratio^2), raised to gamma eta_prev^2 when that exceeds
    0.1, never below floor."""
    eta = min(cap, gamma * ratio**2)
    if gamma * eta_prev**2 > 0.1:
        eta = max(eta, gamma * eta_prev**2)
    return max(eta, floor)


def _eisenstat_walker(residuals):
    """The forcing terms of a residual history: 0.1, then one step per ratio."""
    etas = [0.1]
    for prev, cur in zip(residuals, residuals[1:]):
        etas.append(_eisenstat_walker_step(cur / prev, etas[-1]))
    return etas


@pytest.mark.parametrize("n", [33, 65])
def test_initial_iterate_keeps_its_bits(n):
    # the start as it was formed from the whole of hessian_fd, m12 included
    g = build_grid(4.0, n)
    prob = manufacture(perturbed_family(0.1), g)

    def harmonic(values):
        trace = values.copy()
        trace[1:-1, 1:-1] = 0.0
        m11, _, m22 = hessian_fd(ScalarField2(g, trace))
        return trace + _poisson_solve(g, -(m11 + m22))

    q = 0.5 * g.radius2()
    t = math.tan(0.5 * float(np.mean(prob.psi.values[1:-1, 1:-1])))
    want = harmonic(prob.u_exact.values) + t * (q - harmonic(q))
    u0 = _initial_iterate(g, prob.u_exact, prob.psi)
    assert np.array_equal(u0.view(np.int64), want.view(np.int64))


def _first_newton_system(g, prob):
    """Operator, preconditioner and right-hand side of the first Newton step
    from the default start."""
    u0 = _initial_iterate(g, prob.u_exact, prob.psi)
    hess = hessian_fd(ScalarField2(g, u0))
    r, _ = _phase_defect(hess, prob.psi)
    inv11, inv12, inv22 = _inverse_metric(*hess)
    A = _assemble_linearization(g, inv11, inv12, inv22)
    return A, _sine_preconditioner(g, inv11, inv22), -r


class TestManufacture:
    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("n", [65, 1025])
    def test_phase_bands_are_the_whole_grid_bits(self, monkeypatch, n, rows):
        g = build_grid(4.0, n)
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        for family in (perturbed_family(0.1), anisotropic_family(-0.4, -1.0), quadratic_family(4)):
            lam1, lam2 = eigen_sym2(*_sample_hessian(family, g))
            want = np.arctan(lam1) + np.arctan(lam2)
            psi = manufacture(family, g).psi.values
            assert np.array_equal(psi.view(np.int64), want.view(np.int64))

    def test_paraboloid_case1(self):
        g = build_grid(4.0, 65)
        prob = manufacture(quadratic_family(1.0), g)
        assert classify_phase(prob.psi.values, 0.3) == "case1"
        np.testing.assert_allclose(prob.psi.values, math.pi / 2, atol=1e-14)

    def test_steep_case2(self):
        g = build_grid(4.0, 65)
        prob = manufacture(quadratic_family(5.0), g)
        assert classify_phase(prob.psi.values, 0.3) == "case2"
        np.testing.assert_allclose(prob.psi.values, 2.0 * math.atan(5.0), atol=1e-14)

    def test_saddle_subcritical(self):
        g = build_grid(4.0, 65)
        saddle = AnalyticFunction2(
            value=lambda x1, x2: x1 * x2,
            gradient=lambda x1, x2: (x2 + 0.0 * x1, x1 + 0.0 * x2),
            hessian=lambda x1, x2: (0.0 * x1, 1.0 + 0.0 * x1 + 0.0 * x2, 0.0 * x2),
        )
        prob = manufacture(saddle, g)
        assert classify_phase(prob.psi.values, 0.3) == "subcritical"
        np.testing.assert_allclose(prob.psi.values, 0.0, atol=1e-14)

    def test_phase_is_analytic_not_differenced(self):
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        x1, x2 = g.coords()
        m11 = 1.0 - 0.1 * np.sin(x1) * np.sin(x2)
        m12 = 0.1 * np.cos(x1) * np.cos(x2)
        lam1 = m11 + np.abs(m12)
        lam2 = m11 - np.abs(m12)
        np.testing.assert_allclose(
            prob.psi.values, np.arctan(lam1) + np.arctan(lam2), atol=1e-14
        )

    @pytest.mark.parametrize(
        "family", [perturbed_family(0.1), quadratic_family(2.0), anisotropic_family(-0.4, -1.0)]
    )
    def test_exact_hessian_is_the_analytic_one(self, family):
        # sampled again on each access, bit for bit the Hessian psi came from
        g = build_grid(4.0, 33)
        prob = manufacture(family, g)
        hess = prob.hess_exact
        analytic = family.hessian(*g.coords())
        for got, want in zip(hess, analytic):
            assert np.array_equal(got, np.broadcast_to(want, (g.n, g.n)))
        lam1, lam2 = eigen_sym2(*hess)
        assert np.array_equal(prob.psi.values, np.arctan(lam1) + np.arctan(lam2))


class TestNewtonSolve:
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_quadratic_recovered_immediately(self, a):
        # the phase-matched start is the exact discrete solution here
        g = build_grid(4.0, 65)
        prob = manufacture(quadratic_family(a), g)
        state = newton_solve(prob.psi, prob.u_exact)
        assert state.converged
        assert state.iterations <= 3
        assert state.residuals[-1] <= 1e-10
        assert np.max(np.abs(state.u.values - prob.u_exact.values)) <= 1e-9

    def test_anisotropic_converges(self):
        g = build_grid(4.0, 65)
        prob = manufacture(anisotropic_family(math.pi / 3, math.pi / 6), g)
        state = newton_solve(prob.psi, prob.u_exact)
        assert state.converged
        assert np.max(np.abs(state.u.values - prob.u_exact.values)) <= 1e-9

    def test_perturbed_converges_with_quadratic_tail(self):
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        state = newton_solve(prob.psi, prob.u_exact)
        assert state.converged
        assert state.residuals[-1] / state.residuals[-2] <= 1e-3
        assert np.max(np.abs(state.u.values - prob.u_exact.values)) <= 10.0 * g.h**2

    def test_boundary_held_exactly(self):
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        state = newton_solve(prob.psi, prob.u_exact)
        trace = prob.u_exact.values
        for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            np.testing.assert_array_equal(state.u.values[sl], trace[sl])

    def test_residual_history_strictly_decreasing(self):
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        state = newton_solve(prob.psi, prob.u_exact)
        assert state.converged
        r = state.residuals
        assert all(b < a for a, b in zip(r, r[1:]))

    def test_residual_certification(self):
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        state = newton_solve(prob.psi, prob.u_exact)
        assert phase_residual(state.u, prob.psi) <= 2.0 * 1e-10
        # the certificate and the solve share one residual kernel
        assert phase_residual(state.u, prob.psi) == state.residuals[-1]

    def test_phase_consistency(self):
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        state = newton_solve(prob.psi, prob.u_exact)
        assert phase_residual(state.u, prob.psi) <= 1e-10 + 10.0 * g.h**2

    def test_nonconvergence_returns_state(self):
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        start = _harmonic_extension(g, prob.u_exact.values)
        state = newton_solve(prob.psi, prob.u_exact, max_iter=1, start=start)
        assert not state.converged
        assert state.message

    @pytest.mark.parametrize("max_iter, converged", [(3, False), (4, True), (5, True)])
    def test_no_convergence_message_only_when_unconverged(self, max_iter, converged):
        # perturbed(0.1) at n=65 converges in 4 steps; converging on the last
        # step allowed is convergence
        prob = manufacture(perturbed_family(0.1), build_grid(4.0, 65))
        state = newton_solve(prob.psi, prob.u_exact, max_iter=max_iter)
        assert (state.converged, state.iterations) == (converged, min(max_iter, 4))
        expected = "" if converged else f"no convergence within {max_iter} iterations"
        assert state.message == expected

    def test_affine_gauge(self):
        # affine boundary shifts move the solution by the same affine function
        g = build_grid(4.0, 65)
        prob = manufacture(quadratic_family(1.0), g)
        x1, x2 = g.coords()
        affine = 0.7 + 0.3 * (x1 + np.zeros_like(x2)) - 1.1 * (x2 + np.zeros_like(x1))
        shifted = ScalarField2(g, prob.u_exact.values + affine)
        s0 = newton_solve(prob.psi, prob.u_exact)
        s1 = newton_solve(prob.psi, shifted)
        assert s1.converged
        np.testing.assert_allclose(s1.u.values - s0.u.values, affine, atol=1e-8)

    def test_subcritical_phase_rejected(self):
        g = build_grid(4.0, 65)
        psi = ScalarField2(g, np.zeros((g.n, g.n)))
        u = sample(lambda x1, x2: x1 * x2, g)
        with pytest.raises(PreconditionError):
            newton_solve(psi, u)

    def test_grid_comes_from_the_phase(self):
        g = build_grid(4.0, 33)
        prob = manufacture(quadratic_family(1.0), g)
        with pytest.raises(ValueError, match="grids must match"):
            newton_solve(prob.psi, sample(quadratic_family(1.0).value, build_grid(4.0, 17)))
        # tol, max_iter and start are keyword-only: a grid or a start passed
        # third is refused at the call rather than taken as the tolerance
        with pytest.raises(TypeError):
            newton_solve(prob.psi, prob.u_exact, g)
        with pytest.raises(TypeError):
            newton_solve(prob.psi, prob.u_exact, prob.u_exact.values)

    @pytest.mark.parametrize(
        "shape", [(16, 16), (17, 18), (17 * 17,), (17, 17, 1)], ids=["coarser", "wider", "flat", "3d"]
    )
    def test_start_of_wrong_shape_rejected_before_any_solve(self, monkeypatch, shape):
        calls = []
        poisson = lmce.solver._poisson_solve

        def spy(*args, **kwargs):
            calls.append(args)
            return poisson(*args, **kwargs)

        monkeypatch.setattr(lmce.solver, "_poisson_solve", spy)
        prob = manufacture(perturbed_family(0.1), build_grid(4.0, 17))
        with pytest.raises(ValueError, match=r"start iterate has shape .*, not the grid's \(17, 17\)"):
            newton_solve(prob.psi, prob.u_exact, start=np.zeros(shape))
        assert calls == []

    def test_start_takes_the_boundary_ring(self):
        # a start whose ring is wrong, not finite even, solves as the same
        # start with the boundary's ring: the ring comes from boundary bit
        # for bit, the interior is used as given, and the caller's array is
        # not written
        g = build_grid(4.0, 33)
        prob = manufacture(perturbed_family(0.1), g)
        start = _harmonic_extension(g, prob.u_exact.values)
        wrong = start.copy()
        wrong[0] = 7.0
        wrong[:, -1] = -np.inf
        wrong[-1, 3] = np.nan
        given = wrong.copy()
        first = newton_solve(prob.psi, prob.u_exact, max_iter=0, start=wrong)
        assert first.u.values.tobytes() == start.tobytes()
        assert not first.converged and first.iterations == 0
        solved = newton_solve(prob.psi, prob.u_exact, start=wrong)
        assert solved.converged
        assert wrong.tobytes() == given.tobytes()
        want = newton_solve(prob.psi, prob.u_exact, start=start)
        assert solved.u.values.tobytes() == want.u.values.tobytes()
        assert (solved.residuals, solved.damping) == (want.residuals, want.damping)

    @pytest.mark.parametrize("node, value", [((5, 5), np.nan), ((1, 1), np.nan), ((16, 16), np.inf)])
    def test_non_finite_start_is_named(self, node, value):
        g = build_grid(4.0, 33)
        prob = manufacture(perturbed_family(0.1), g)
        start = prob.u_exact.values.copy()
        start[node] = value
        with pytest.raises(PreconditionError, match="^start iterate not finite") as info:
            newton_solve(prob.psi, prob.u_exact, start=start)
        assert "boundary data" not in str(info.value)

    def test_harmonic_initial_mode(self):
        g = build_grid(4.0, 33)
        prob = manufacture(perturbed_family(0.1), g)
        start = _harmonic_extension(g, prob.u_exact.values)
        state = newton_solve(prob.psi, prob.u_exact, start=start)
        assert state.converged

    @pytest.mark.parametrize("gap", [1e-7, 1e-9])
    def test_near_pi_returns_a_state(self, gap):
        # one Hessian eigenvalue of order 1/gap: the smallest eigenvalue of the
        # inverse metric is tiny but positive, and the ellipticity guard must
        # not cancel it to a false alarm; the solved state's eigenvalues
        # reach 1.4e11 and the residual is still their phase's
        g = build_grid(4.0, 33)
        psi = sample(lambda x1, x2: math.pi - gap, g)
        boundary = sample(quadratic_family(1.0).value, g)
        start = _harmonic_extension(g, boundary.values)
        harmonic = newton_solve(psi, boundary, max_iter=40, start=start)
        assert harmonic.converged
        assert phase_residual(harmonic.u, psi) <= 1e-10
        _assert_eigenvalue_phase(hessian_fd(harmonic.u), psi)
        matched = newton_solve(psi, boundary, max_iter=40)
        assert not matched.converged
        assert matched.message == "line search failed to reduce the residual"

    def test_inverse_metric_released_before_the_krylov_solve(self, monkeypatch):
        # A and M hold what they read of g^{-1}, so no inverse-metric array
        # is alive in a linear solve or a line-search trial's differencing
        metrics, alive = [], []
        inverse, solve, hessian = (
            lmce.solver._inverse_metric, lmce.solver.linear_solve, lmce.solver.hessian_fd
        )

        def spy(real):
            def wrapper(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in metrics))
                return real(*args, **kwargs)

            return wrapper

        def metric(*hess):
            out = inverse(*hess)
            metrics.extend(weakref.ref(inv) for inv in out)
            return out

        monkeypatch.setattr(lmce.solver, "_inverse_metric", metric)
        monkeypatch.setattr(lmce.solver, "linear_solve", spy(solve))
        monkeypatch.setattr(lmce.solver, "hessian_fd", spy(hessian))
        g = build_grid(4.0, 33)
        prob = manufacture(anisotropic_family(1.4, 0.2), g)
        state = newton_solve(prob.psi, prob.u_exact)
        assert state.converged
        assert len(metrics) == 3 * state.iterations
        assert len(alive) > 2 * state.iterations and not any(alive)

    def test_system_released_before_the_line_search(self, monkeypatch):
        # the stencil and the right-hand side of a Newton system are not
        # alive in any line-search trial's differencing, nor is any Hessian
        # differenced before, a failed trial's included; the direction is the
        # line search's step
        systems, hessians, alive = [], [], []
        solve, hessian = lmce.solver.linear_solve, lmce.solver.hessian_fd

        def solve_spy(A, rhs, M, tol, record):
            x = solve(A, rhs, M, tol=tol, record=record)
            systems.extend(weakref.ref(v) for v in (*A.coef, rhs))
            return x

        def hessian_spy(f):
            alive.append(sum(ref() is not None for ref in systems + hessians))
            out = hessian(f)
            hessians.extend(weakref.ref(m) for m in out)
            return out

        monkeypatch.setattr(lmce.solver, "linear_solve", solve_spy)
        monkeypatch.setattr(lmce.solver, "hessian_fd", hessian_spy)
        prob = manufacture(anisotropic_family(1.4, 0.2), build_grid(4.0, 33))
        state = newton_solve(prob.psi, prob.u_exact)
        assert state.converged and min(state.damping) < 0.5  # trials fail
        assert len(systems) == 4 * state.iterations
        assert len(alive) > state.iterations + 1 and not any(alive)

    @pytest.mark.parametrize("eta", [ETA_MAX, ETA_MIN], ids=["ETA_MAX", "ETA_MIN"])
    def test_useless_direction_ends_the_solve(self, eta, monkeypatch):
        # no step length along the zero direction reduces the residual: the
        # solve ends after the step's one system, however tightly solved
        solve = lmce.solver.linear_solve

        def useless(A, rhs, M, tol, record):
            return np.zeros_like(solve(A, rhs, M, tol=tol, record=record))

        monkeypatch.setattr(lmce.solver, "ETA_MAX", eta)
        monkeypatch.setattr(lmce.solver, "linear_solve", useless)
        prob = manufacture(perturbed_family(0.1), build_grid(4.0, 33))
        state = newton_solve(prob.psi, prob.u_exact)
        assert not state.converged and state.iterations == 0
        assert state.message == "line search failed to reduce the residual"
        assert [rec.rtol for rec in state.systems] == [eta]

    @pytest.mark.parametrize("case", ["perturbed", "anisotropic"])
    def test_band_height_does_not_move_the_solve(self, case, monkeypatch):
        # the stencil product, the preconditioner, the phase defect and the
        # Newton system are formed in bands of LB_BAND_ROWS rows: each value
        # is the whole grid's, so any band height gives the same solve
        psi, boundary, start = _newton_case(case)
        solves = []
        for rows in (7, 16, 64):
            monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
            state = newton_solve(psi, boundary, start=start)
            assert phase_residual(state.u, psi) == state.residuals[-1]
            solves.append(
                (state.u.values.tobytes(), state.residuals, state.damping, state.systems)
            )
        assert solves[0] == solves[1] == solves[2]
        assert len(solves[0][1]) == NEWTON_STEPS[case][0] + 1

    @pytest.mark.parametrize("node", [(0, 3), (-1, -1), (5, 0), (5, -1), (5, 5)])
    def test_phase_defect_refuses_a_non_finite_hessian(self, node):
        # also on the boundary ring, which the residual does not read
        g = build_grid(4.0, 33)
        prob = manufacture(perturbed_family(0.1), g)
        m11, m12, m22 = (np.array(m) for m in hessian_fd(prob.u_exact))
        m12[node] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _phase_defect((m11, m12, m22), prob.psi)

    @pytest.mark.parametrize(
        "family",
        [perturbed_family(0.1), anisotropic_family(1.565, 1.5), _anisotropic_bump(1.56, 1.3, 0.5)],
        ids=["perturbed", "anisotropic-near-pi", "anisotropic-bump"],
    )
    def test_phase_defect_is_the_eigenvalue_phase(self, family):
        prob = manufacture(family, build_grid(4.0, 257))
        _assert_eigenvalue_phase(hessian_fd(prob.u_exact), prob.psi)

    def test_no_eigenvalues_in_the_solve(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return eigen_sym2(*args)

        prob = manufacture(anisotropic_family(1.4, 0.2), build_grid(4.0, 33))
        for module in (lmce.solver, lmce.geometry):
            monkeypatch.setattr(module, "eigen_sym2", spy)
        assert newton_solve(prob.psi, prob.u_exact).converged
        phase_residual(prob.u_exact, prob.psi)
        assert calls == []

    @pytest.mark.parametrize("scale", [1e70, 1e80, 1e150, 1e160, 1e200, 1e300])
    def test_overflowing_hessian_ends_the_solve(self, scale):
        # data scale |x|^2/2 at psi = pi/2, so the start's differenced Hessian
        # is of order scale.  From 1e80 the determinant of the metric I + M^2,
        # which the inverse metric divides by, may overflow (from 1e160 the
        # metric itself does): the solve ends before any Newton system is
        # built.  At 1e70 the system is solved, and the line search fails at
        # a residual far below the round-off floor
        g = build_grid(4.0, 33)
        psi = sample(lambda x1, x2: math.pi / 2, g)
        boundary = sample(lambda x1, x2: scale * 0.5 * (x1 * x1 + x2 * x2), g)
        with np.errstate(all="ignore"):  # the overflows the test is about
            state = newton_solve(psi, boundary)
        assert not state.converged and state.iterations == 0
        if scale < 1e80:
            assert state.systems
            assert state.message == (
                f"residual {math.pi / 2:.3e} is at the round-off floor "
                f"{state.residual_floor:.3e} of the grid, above tol 1.000e-10"
            )
        else:
            assert state.systems == []
            assert state.message == "linearization lost ellipticity"

    @pytest.mark.parametrize("L", [1.0, 4.0])
    def test_overflowing_start_is_a_precondition_error(self, L):
        # finite data 1e306 |x|^2/2 whose start iterate or its differenced
        # Hessian overflows: there is no finite iterate to return as a state
        g = build_grid(L, 33)
        psi = sample(lambda x1, x2: math.pi / 2, g)
        boundary = sample(lambda x1, x2: 1e306 * 0.5 * (x1 * x1 + x2 * x2), g)
        with np.errstate(all="ignore"):  # the overflows the test is about
            with pytest.raises(PreconditionError, match="boundary data too large to difference"):
                newton_solve(psi, boundary)


class TestRoundOffFloor:
    """phi = eps max|u|/h^2: no iterate's residual can be trusted below it."""

    @staticmethod
    def _floor(prob) -> float:
        return newton_solve(prob.psi, prob.u_exact, max_iter=0).residual_floor

    @pytest.mark.parametrize("n, ratio", [(33, 1.04), (65, 1.08), (129, 1.09)])
    def test_floor_is_the_exact_solutions_own_residual(self, n, ratio):
        # a quadratic has no truncation error: its discrete residual is round-off
        g = build_grid(4.0, n)
        prob = manufacture(anisotropic_family(1.4, 0.2), g)
        phi = self._floor(prob)
        eps = np.finfo(float).eps
        assert phi == pytest.approx(eps * np.max(np.abs(prob.u_exact.values)) / g.h**2, rel=1e-14)
        assert phase_residual(prob.u_exact, prob.psi) / phi == pytest.approx(ratio, abs=0.005)

    @pytest.mark.parametrize(
        "family, n",
        [(anisotropic_family(1.4, 0.2), 33), (perturbed_family(0.1), 33), (perturbed_family(0.1), 65)],
        ids=["anisotropic-33", "perturbed-33", "perturbed-65"],
    )
    def test_solve_below_the_floor_ends_there(self, family, n):
        # with tol = phi/10 no iterate can pass: the failed line search (or
        # linear solve) ends the solve at once, after its step's one system
        prob = manufacture(family, build_grid(4.0, n))
        phi = self._floor(prob)
        state = newton_solve(prob.psi, prob.u_exact, tol=phi / 10)
        assert not state.converged and state.residual_floor == phi
        rn = state.residuals[-1]
        assert rn <= FLOOR_FACTOR * phi
        assert state.message == (
            f"residual {rn:.3e} is at the round-off floor {phi:.3e} of the grid, "
            f"above tol {phi / 10:.3e}"
        )
        assert ETA_MIN not in [rec.rtol for rec in state.systems]
        assert len(state.systems) == state.iterations + 1


class TestLinearSolve:
    def test_identity(self):
        rhs = np.arange(1.0, 10.0)
        x = linear_solve(sp.identity(9, format="csr"), rhs, np.copy)
        np.testing.assert_allclose(x, rhs, atol=1e-12)

    def test_zero_rhs(self):
        x = linear_solve(sp.identity(5, format="csr"), np.zeros(5), np.copy)
        assert np.all(x == 0.0)

    def test_laplacian_recovers_quadratic(self):
        # constant-coefficient Dirichlet problem with a known exact solution
        g = build_grid(2.0, 33)
        ones = np.ones((g.n, g.n))
        zeros = np.zeros((g.n, g.n))
        A = _assemble_linearization(g, ones, zeros, ones)
        q = 0.5 * g.radius2()
        rhs = _on_grid(g, _dirichlet_rhs(g, q) + 2.0)
        x = linear_solve(A, rhs, _sine_preconditioner(g, ones, ones))
        np.testing.assert_allclose(x, _on_grid(g, q[1:-1, 1:-1]), atol=1e-9)

    def test_newton_system_residual(self):
        # first Newton system of the perturbed problem, residual recomputed
        g = build_grid(4.0, 33)
        prob = manufacture(perturbed_family(0.1), g)
        from lmce.grid import hessian_fd

        m11, m12, m22 = hessian_fd(prob.u_exact)
        g11 = 1 + m11**2 + m12**2
        g12 = m12 * (m11 + m22)
        g22 = 1 + m22**2 + m12**2
        det = g11 * g22 - g12**2
        A = _assemble_linearization(g, g22 / det, -g12 / det, g11 / det)
        M = _sine_preconditioner(g, g22 / det, g11 / det)
        rhs = _on_grid(g, np.sin(np.arange((g.n - 2) ** 2)))
        x = linear_solve(A, rhs, M, tol=1e-12)
        assert np.linalg.norm(A @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_iterative_path_meets_tolerance(self):
        # the residual bound holds on a larger system too (6241 unknowns)
        g = build_grid(2.0, 81)
        ones = np.ones((g.n, g.n))
        zeros = np.zeros((g.n, g.n))
        A = _assemble_linearization(g, ones, zeros, ones)
        rhs = _on_grid(g, np.cos(np.arange((g.n - 2) ** 2) * 0.01))
        x = linear_solve(A, rhs, _sine_preconditioner(g, ones, ones), tol=1e-12)
        assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_singular_system_reports(self):
        A = sp.csr_matrix(np.zeros((4, 4)))
        with pytest.raises(LinearSolveError):
            linear_solve(A, np.ones(4), np.copy)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_reports(self, bad):
        g = build_grid(2.0, 9)
        A = _assemble_linearization(g, 1.0, 0.0, 1.0)
        rhs = _on_grid(g, np.ones((g.n - 2) ** 2))
        rhs[1, 4] = bad
        with pytest.raises(LinearSolveError):
            linear_solve(A, rhs, np.copy)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_runs_no_iteration(self, bad):
        # BiCGSTAB on NaNs never meets a stopping test and would run the cap
        g = build_grid(2.0, 33)
        stencil = _assemble_linearization(g, 1.0, 0.0, 1.0)
        applied = []

        class Counted:
            def __matmul__(self, x):
                applied.append("A")
                return stencil @ x

        def M(r):
            applied.append("M")
            return np.copy(r)

        rhs = _on_grid(g, np.ones((g.n - 2) ** 2))
        rhs[1, 4] = bad
        record = []
        with pytest.raises(LinearSolveError, match="right-hand side"):
            linear_solve(Counted(), rhs, M, record=record)
        assert applied == []
        assert record == [SystemSolve(0, 1e-12)]


class TestAssembly:
    @pytest.mark.parametrize("n", [5, 6, 33])
    def test_matches_stencil_oracle(self, n):
        g = build_grid(2.0, n)
        rng = np.random.default_rng(n)
        inv11, inv12, inv22 = (rng.uniform(0.1, 2.0, (n, n)) for _ in range(3))
        v = np.zeros((n, n))
        v[1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2))
        A = _assemble_linearization(g, inv11, inv12, inv22)
        m11, m12, m22 = hessian_fd(ScalarField2(g, v))
        oracle = _on_grid(g, (inv11 * m11 + 2.0 * inv12 * m12 + inv22 * m22)[1:-1, 1:-1])
        scale = float(np.max(np.abs(oracle)))
        np.testing.assert_allclose(A @ v, oracle, rtol=1e-12, atol=1e-12 * scale)
        assert _csc(A).nnz == 9 * (n - 2) ** 2
        # zero coefficients stay stored: the pattern depends only on n
        assert _csc(_assemble_linearization(g, 1.0, 0.0, 1.0)).nnz == 9 * (n - 2) ** 2

    @pytest.mark.parametrize("n", [5, 6, 33])
    def test_matvec_agrees_with_csc(self, n, monkeypatch):
        # the three-term product rounds apart from the CSC matrix's sums in
        # column order, but not by more than round-off; and it is the same
        # bits in bands of any height
        g = build_grid(2.0, n)
        rng = np.random.default_rng(100 + n)
        inv11, inv12, inv22 = (rng.uniform(-2.0, 2.0, (n, n)) for _ in range(3))
        A = _assemble_linearization(g, inv11, inv12, inv22)
        x = _on_grid(g, rng.standard_normal((n - 2) ** 2))
        want = (_csc(A) @ x.ravel()).reshape(n, n)
        products = []
        for rows in (1, 7, 64):
            monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
            products.append(A @ x)
        assert all(np.array_equal(y, products[0]) for y in products)
        assert np.linalg.norm(products[0] - want) <= 1e-15 * np.linalg.norm(want)

    def test_equal_couplings_share_one_array(self):
        # b, a and c, each held once; -b is applied as a sign and the
        # diagonal -2a - 2c is formed in each product
        g = build_grid(2.0, 9)
        A = _assemble_linearization(g, 1.0, 0.5, 2.0)
        assert len(A.coef) == 3
        assert len({id(c) for c in A.coef}) == 3
        assert [float(c[1, 1]) for c in A.coef] == [0.5 / (2 * g.h**2), 1 / g.h**2, 2 / g.h**2]
        assert float(_csc(A)[g.n + 1, g.n + 1]) == -6 / g.h**2

    @pytest.mark.parametrize("n", [5, 6, 33, 129])
    def test_poisson_solve_inverts_laplacian(self, n):
        g = build_grid(2.0, n)
        A = _assemble_linearization(g, 1, 0, 1)
        rhs = _on_grid(g, np.random.default_rng(n).standard_normal((n - 2) ** 2))
        x = _poisson_solve(g, rhs)
        assert np.linalg.norm(A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        # and the scaled operator a*D11 + c*D22
        A = _assemble_linearization(g, 3.0, 0, 0.5)
        x = _poisson_solve(g, rhs, 3.0, 0.5)
        assert np.linalg.norm(A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def _dst1_whole(x, axis):
    """The type-I sine transform of the whole array at once, from the FFT of
    its odd extension: the reference of the banded one."""
    x = np.moveaxis(x, axis, -1)
    m = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (2 * m + 2,))
    z[..., 1 : m + 1] = x
    z[..., m + 2 :] = -x[..., ::-1]
    return np.moveaxis(-0.5 * np.fft.rfft(z, axis=-1)[..., 1 : m + 1].imag, -1, axis)


class TestSineTransform:
    # m straddles LB_BAND_ROWS = 64: one band short of it, one full band, a
    # band and one row, two bands
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("m", [63, 64, 65, 127])
    def test_banded_equals_the_whole_array_transform(self, m, axis):
        x = np.random.default_rng(m).standard_normal((m, m))
        y = x.copy()
        _dst1(y, axis)  # in place
        assert np.array_equal(y, _dst1_whole(x, axis))


class TestSinePreconditioner:
    @pytest.mark.parametrize("n", [5, 6, 33])
    def test_exact_for_constant_coefficients(self, n):
        g = build_grid(2.0, n)
        inv11, inv12, inv22 = (np.full((n, n), v) for v in (0.7, 0.0, 0.2))
        A = _assemble_linearization(g, inv11, inv12, inv22)
        M = _sine_preconditioner(g, inv11, inv22)
        r = _on_grid(g, np.random.default_rng(n).standard_normal((n - 2) ** 2))
        assert np.linalg.norm(A @ M(r) - r) <= 1e-12 * np.linalg.norm(r)


class TestInitialIterate:
    @pytest.mark.parametrize("n", [5, 6, 33, 64, 65])
    def test_harmonic_extension_is_the_dirichlet_rhs_solve(self, n):
        # the extensions are the Poisson solves of _dirichlet_rhs, trace
        # restored, bit for bit: minus the hessian_fd Laplacian of the trace
        # is that right-hand side on the interior nodes
        g = build_grid(4.0, n)
        prob = manufacture(perturbed_family(0.1), g)
        q = 0.5 * g.radius2()
        t = math.tan(0.5 * float(np.mean(prob.psi.values[1:-1, 1:-1])))
        want = _harmonic_extension(g, prob.u_exact.values)
        want = want + t * (q - _harmonic_extension(g, q))
        got = _initial_iterate(g, prob.u_exact, prob.psi)
        assert got.tobytes() == want.tobytes()


class TestKrylovPath:
    def test_useless_preconditioner_raises(self, monkeypatch):
        # unpreconditioned, this system needs more iterations than the cap
        monkeypatch.setattr(lmce.solver, "KRYLOV_MAXITER", 25)
        g = build_grid(2.0, 33)
        A = _assemble_linearization(g, 1.0, 0.0, 1.0)
        rhs = _on_grid(g, np.cos(np.arange((g.n - 2) ** 2) * 0.1))
        record = []
        with pytest.raises(LinearSolveError, match="stagnated"):
            linear_solve(A, rhs, np.negative, record=record)
        assert record == [SystemSolve(25, 1e-12)]

    def test_bicgstab_port_matches_scipy(self):
        # the first perturbed Newton system on the flat grid: scipy reduces
        # with BLAS and the port with _dot, so x agrees to round-off, after
        # the same number of completed iterations
        g = build_grid(4.0, 65)
        A, M, rhs = _first_newton_system(g, manufacture(perturbed_family(0.1), g))
        size = g.n * g.n
        completed = []
        ref, info = spla.bicgstab(
            _csc(A), rhs.ravel(), rtol=1e-12, atol=0.0, maxiter=KRYLOV_MAXITER,
            M=spla.LinearOperator((size, size), matvec=lambda v: M(v.reshape(g.n, g.n)).ravel()),
            callback=lambda xk: completed.append(1),
        )
        x, iterations = _bicgstab(A, rhs, M, 1e-12, KRYLOV_MAXITER)
        assert info == 0
        assert np.linalg.norm(x.ravel() - ref) <= 1e-13 * np.linalg.norm(ref)
        assert iterations == len(completed) > 0

    def test_non_finite_rhs_reports_with_preconditioner(self):
        g = build_grid(2.0, 9)
        A = _assemble_linearization(g, 1.0, 0.0, 1.0)
        M = _sine_preconditioner(g, 1.0, 1.0)
        rhs = _on_grid(g, np.ones((g.n - 2) ** 2))
        rhs[1, 4] = np.nan
        with pytest.raises(LinearSolveError):
            linear_solve(A, rhs, M)

    @pytest.mark.parametrize("case", ["perturbed", "anisotropic", "near_pi"])
    def test_same_newton_steps_as_lu(self, case, monkeypatch):
        psi, boundary, start = _newton_case(case)
        krylov = newton_solve(psi, boundary, start=start)
        monkeypatch.setattr(lmce.solver, "linear_solve", _exact_solve)
        exact = newton_solve(psi, boundary, start=start)
        _assert_same_path(case, krylov, exact)

    def test_fast_path_does_not_factor(self):
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        state = newton_solve(prob.psi, prob.u_exact)
        assert state.converged
        # the first system certifies inside its first half-iteration: 0
        # completed iterations, as scipy's callback counts them
        assert [astuple(rec) for rec in state.systems] == [
            (0, 0.1),
            (1, 0.002361113015800919),
            (2, 5.955127661423173e-05),
            (3, 2.7440784674210174e-09),
        ]

    def test_iteration_cap_covers_near_pi(self, monkeypatch):
        g = build_grid(4.0, 33)
        psi = ScalarField2(g, np.full((g.n, g.n), 3.13))
        boundary = sample(quadratic_family(1.0).value, g)
        state = newton_solve(psi, boundary)
        assert state.converged and state.iterations == 23
        assert len(state.systems) == state.iterations
        assert all(isinstance(rec, SystemSolve) for rec in state.systems)
        assert max(rec.krylov_iterations for rec in state.systems) == 38
        # under a cap of 25 that system does not certify and the solve ends
        monkeypatch.setattr(lmce.solver, "KRYLOV_MAXITER", 25)
        capped = newton_solve(psi, boundary)
        assert not capped.converged
        assert capped.message.startswith("linear solve stagnated")

    def test_breakdown_at_loose_tolerance_raises(self):
        # a preconditioner that returns 0 breaks BiCGSTAB down before its
        # first update: x = 0 has relative residual 1 and must not certify
        g = build_grid(2.0, 33)
        A = _assemble_linearization(g, 1.0, 0.0, 1.0)
        rhs = _on_grid(g, np.cos(np.arange((g.n - 2) ** 2) * 0.1))
        record = []
        with pytest.raises(LinearSolveError):
            linear_solve(A, rhs, np.zeros_like, tol=0.1, record=record)
        assert record == [SystemSolve(0, 0.1)]


class TestForcingTerm:
    @pytest.mark.parametrize("case", ["perturbed", "anisotropic", "near_pi"])
    def test_same_newton_path_as_fixed_tolerance(self, case, monkeypatch):
        psi, boundary, start = _newton_case(case)
        inexact = newton_solve(psi, boundary, start=start)
        # a cap at the floor solves every system to a fixed 1e-12
        monkeypatch.setattr(lmce.solver, "ETA_MAX", ETA_MIN)
        fixed = newton_solve(psi, boundary, start=start)
        assert {rec.rtol for rec in fixed.systems} == {1e-12}
        _assert_same_path(case, inexact, fixed)
        if case == "perturbed":
            work = [sum(rec.krylov_iterations for rec in s.systems) for s in (inexact, fixed)]
            assert work[0] < work[1]

    @pytest.mark.parametrize("case", ["perturbed", "anisotropic", "near_pi"])
    def test_rtol_sequence_follows_the_rule(self, case):
        psi, boundary, start = _newton_case(case)
        state = newton_solve(psi, boundary, start=start)
        rtols = [rec.rtol for rec in state.systems]
        assert state.iterations <= len(rtols) <= state.iterations + 1  # one system a step
        assert rtols == pytest.approx(_eisenstat_walker(state.residuals)[: len(rtols)], rel=1e-12)
        if case == "anisotropic":  # damped steps barely reduce the residual
            assert rtols.count(0.1) > 1

    def test_cap_floor_and_safeguard(self):
        assert _forcing_term(1.0) == 0.1  # cap
        assert _forcing_term(1e-9) == 1e-12  # floor
        assert _forcing_term(0.1) == pytest.approx(0.9e-2)
        # below the cap of 0.1 choice 2's safeguard cannot fire (0.9 * 0.1^2
        # < 0.1), so whatever the previous eta the rule is the same; the
        # oracle's gamma * ratio**2 may round apart from gamma * ratio * ratio
        for prev in (0.1, 1e-3, 1e-12):
            for ratio in (2.0, 1.0, 0.5, 0.2, 0.1, 0.01, 1e-5, 1e-9):
                expected = _eisenstat_walker_step(ratio, prev)
                assert _forcing_term(ratio) == pytest.approx(expected, rel=1e-15)


SCIPY_FREE = """
import json, sys
import numpy as np
import lmce.cli
from lmce.geometry import bundle_from_hessian, laplace_beltrami
from lmce.grid import ScalarField2, build_grid, sample
from lmce.inequalities import fit_modification_weight
from lmce.solver import newton_solve, quadratic_family

for command, config, out in zip(("verify", "solve"), sys.argv[1:3], sys.argv[3:5]):
    assert lmce.cli.main([command, "--config", config, "--out", out]) == 0, command
g = build_grid(4.0, 33)
near_pi = ScalarField2(g, np.full((g.n, g.n), 3.13))
state = newton_solve(near_pi, sample(quadratic_family(1.0).value, g))  # the default start
# lap_g(|x|^2/2) changes sign on B2 for this Hessian (test_mixed_sign_fit_matches_scan)
g = build_grid(4.0, 65)
x1, x2 = g.coords()
m11 = np.exp(4.0 * (x1 - 1.2)) + 0.3 * np.sin(x2)
zero, half = np.zeros((g.n, g.n)), np.full((g.n, g.n), 0.5)
B = bundle_from_hessian(g, (m11, zero, half))
lap_q = laplace_beltrami(ScalarField2(g, 0.5 * g.radius2()), B).values[g.disk_mask(2.0)]
a_hat, _ = fit_modification_weight(B, rho=2.0)
print(json.dumps({
    "near_pi": state.converged,
    "mixed_sign": bool(np.min(lap_q) < 0.0 < np.max(lap_q)) and 0.0 < a_hat < 1e3,
    "scipy": sorted(name for name in sys.modules if name.startswith("scipy")),
}))
"""


def test_runtime_never_loads_scipy(tmp_path):
    # a fresh interpreter: this test module has loaded scipy itself
    base = {"family": "perturbed", "eps": 0.1, "n": 65}
    configs = {
        "verify": {**base, "checks": ["all"], "source": "manufactured", "seed": 3},
        "solve": base,
    }
    for command, cfg in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE]
        + [str(tmp_path / f"{c}.json") for c in configs]
        + [str(tmp_path / c) for c in configs],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"near_pi": True, "mixed_sign": True, "scipy": []}
    solver = json.loads((tmp_path / "solve" / "solve.json").read_text())["solver"]
    assert "factorizations" not in solver
    assert solver["krylov_iterations"] > 0


def test_readme_library_quick_start_runs(capsys):
    # the README's "Library quick start" block, run as it is written there
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["identity/algebraic", "inequality"]
    assert lines[2].startswith("{'check': 'hessian_estimate'")


def test_solve_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the solve reduces with numpy's own loop, never with BLAS, so one and two
    # OpenBLAS threads write the same bytes
    config = tmp_path / "solve.json"
    config.write_text(json.dumps({"family": "perturbed", "eps": 0.1, "n": 257}))
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "lmce", "solve", "--config", str(config),
             "--out", str(tmp_path / threads)],
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True,
        )
    for name in ("u.csv", "solve.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@st.composite
def smooth_phases(draw, delta=0.3):
    """A grid, a smooth phase with values in [delta, pi - delta], quadratic
    boundary data and a start: the default one (None) or the harmonic
    extension of the data."""
    n = draw(st.sampled_from([9, 17, 33]))
    g = build_grid(draw(st.sampled_from([2.0, 4.0])), n)
    x1, x2 = g.coords()
    wave = np.zeros((n, n))
    for _ in range(draw(st.integers(1, 3))):
        k1, k2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        shift = draw(st.floats(0.0, 2.0 * math.pi))
        wave = wave + np.cos(k1 * x1 / g.L * math.pi + k2 * x2 / g.L * math.pi + shift)
    wave = wave / max(1.0, float(np.max(np.abs(wave))))
    mid = draw(st.floats(delta, math.pi - delta))
    amp = draw(st.floats(0.0, 1.0)) * min(mid - delta, math.pi - delta - mid)
    psi = ScalarField2(g, mid + amp * wave)
    boundary = sample(quadratic_family(draw(st.floats(0.2, 3.0))).value, g)
    return psi, boundary, _harmonic_extension(g, boundary.values) if draw(st.booleans()) else None


class TestSolverProperty:
    @settings(deadline=None, max_examples=25)
    @given(smooth_phases())
    def test_returns_a_state(self, data):
        psi, boundary, start = data
        state = newton_solve(psi, boundary, start=start)
        assert state.converged or state.message
        assert state.iterations <= len(state.systems) <= state.iterations + 1
