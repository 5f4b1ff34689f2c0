"""Algebraic and structural identity checks."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lmce.identities
from lmce.errors import PreconditionError
import lmce.grid
from lmce.geometry import _lb_rows, bundle, bundle_from_hessian, laplace_beltrami
from lmce.grid import ScalarField2, _cutoff, build_grid, gradient_fd, hessian_fd, sample
from lmce.identities import (
    check_complex_factorization,
    check_coordinate_laplacian,
    check_cutoff_volume_identity,
    check_form_equivalence,
    check_slope_volume,
    check_volume_formula,
)
from lmce.identities import _coordinate_laplacians
from lmce.solver import anisotropic_family, manufacture, perturbed_family, quadratic_family


def const_field(grid, value):
    return ScalarField2(grid, np.full((grid.n, grid.n), float(value)))


def smooth_bundle(grid, eps=0.1):
    u = sample(
        lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + eps * np.sin(x1) * np.sin(x2), grid
    )
    return bundle(u)


class TestFormEquivalence:
    def test_paraboloid(self):
        g = build_grid(4.0, 65)
        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g)
        rep = check_form_equivalence(bundle(u), const_field(g, math.pi / 2))
        assert rep.passed
        assert rep.residual <= 1e-12
        assert rep.details["max_arctan_residual"] <= 1e-12

    def test_saddle_zero_phase(self):
        g = build_grid(4.0, 65)
        u = sample(lambda x1, x2: x1 * x2, g)
        rep = check_form_equivalence(bundle(u), const_field(g, 0.0))
        assert rep.passed
        assert rep.residual <= 1e-12

    @pytest.mark.parametrize("n", [65, 129])
    def test_manufactured_pair_small_residual(self, n):
        g = build_grid(4.0, n)
        prob = manufacture(perturbed_family(0.05), g)
        rep = check_form_equivalence(bundle(prob.u_exact), prob.psi)
        assert rep.passed
        assert rep.residual <= 10.0 * g.h**2

    def test_mismatched_pair_fails_informatively(self):
        g = build_grid(4.0, 65)
        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g)
        rep = check_form_equivalence(bundle(u), const_field(g, 0.3))
        assert not rep.passed
        assert rep.details["max_arctan_residual"] > 1.0

    def test_affine_shift_invariance(self):
        # adding an affine function leaves the differenced Hessian unchanged
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.05), g)
        rep0 = check_form_equivalence(bundle(prob.u_exact), prob.psi)
        x1, x2 = g.coords()
        shifted = ScalarField2(
            g, prob.u_exact.values + 1.7 - 0.4 * (x1 + np.zeros_like(x2)) + 0.9 * (x2 + np.zeros_like(x1))
        )
        rep1 = check_form_equivalence(bundle(shifted), prob.psi)
        assert rep1.residual == pytest.approx(rep0.residual, abs=1e-10)

    def test_grid_mismatch(self):
        u = sample(lambda x1, x2: x1 * x2, build_grid(4.0, 65))
        psi = const_field(build_grid(4.0, 33), 0.0)
        with pytest.raises(ValueError):
            check_form_equivalence(bundle(u), psi)


class TestComplexFactorization:
    def test_paraboloid_exact(self):
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g))
        rep = check_complex_factorization(B)
        assert rep.passed
        # (1 - sig2, sig1) = (0, 2) = 2 (cos pi/2, sin pi/2)
        assert rep.residual <= 1e-15 * 3.0

    def test_saddle_exact(self):
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: x1 * x2, g))
        rep = check_complex_factorization(B)
        assert rep.passed

    def test_steep_paraboloid_scalar_oracle(self):
        # (1 - sig2, sig1) = (-3, 4) and V(cos, sin) = 5*(-3/5, 4/5)
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: x1 * x1 + x2 * x2, g))
        assert np.allclose(1.0 - B.sig2, -3.0, atol=1e-12)
        assert np.allclose(B.sig1, 4.0, atol=1e-12)
        assert np.allclose(B.vol * np.cos(B.phase), -3.0, atol=1e-12)
        rep = check_complex_factorization(B)
        assert rep.passed

    def test_perturbed(self):
        rep = check_complex_factorization(smooth_bundle(build_grid(4.0, 129)))
        assert rep.passed

    @settings(deadline=None, max_examples=30)
    @given(
        base=st.floats(-3.0, 3.0),
        amp=st.floats(0.0, 2.0),
        k1=st.integers(1, 3),
        k2=st.integers(1, 3),
    )
    def test_any_bundle_factorizes(self, base, amp, k1, k2):
        # the factorization is pure eigenvalue algebra: it holds for the
        # bundle of any potential, solution or not
        g = build_grid(2.0, 17)
        u = sample(
            lambda x1, x2: 0.5 * base * (x1 * x1 + x2 * x2)
            + amp * np.sin(k1 * x1) * np.cos(k2 * x2),
            g,
        )
        rep = check_complex_factorization(bundle(u))
        assert rep.passed


class TestVolumeFormula:
    def test_paraboloid(self):
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g))
        rep = check_volume_formula(B)
        assert rep.passed  # 2 = 2/1

    def test_steep_paraboloid_oracle(self):
        # 5 = 4 / (4/5)
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: x1 * x1 + x2 * x2, g))
        rep = check_volume_formula(B)
        assert rep.passed
        assert rep.residual <= 1e-10 * 5.0

    def test_zero_phase_rejected(self):
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: x1 * x2, g))
        with pytest.raises(PreconditionError):
            check_volume_formula(B)

    def test_perturbed(self):
        rep = check_volume_formula(smooth_bundle(build_grid(4.0, 129)))
        assert rep.passed

    def test_negated_family_same_residual(self):
        # V = sig1/sin(phase) on (-pi, 0) too: both factors change sign
        B = smooth_bundle(build_grid(4.0, 65))
        assert float(np.max(B.negated.phase)) < 0.0
        pos, neg = check_volume_formula(B), check_volume_formula(B.negated)
        assert neg.passed
        assert (neg.residual, neg.tolerance, neg.location, neg.excluded) == (
            pos.residual, pos.tolerance, pos.location, pos.excluded
        )

    def test_mixed_sign_phase_rejected(self):
        # Hessian diag(x1, x2): the phase arctan(x1) + arctan(x2) takes both signs
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: (x1**3 + x2**3) / 6.0, g))
        with pytest.raises(PreconditionError):
            check_volume_formula(B)


class TestCutoffVolume:
    @pytest.mark.parametrize(
        "potential",
        [
            lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + 0.1 * np.sin(x1) * np.sin(x2),
            lambda x1, x2: -0.5 * np.tan(0.4) * x1 * x1 - 0.5 * np.tan(1.0) * x2 * x2,
            lambda x1, x2: x1 * x2 + 0.2 * x1**3,
        ],
    )
    def test_same_bits_as_the_closed_form(self, potential):
        # both sides written out as whole-array expressions, zero signs included
        g = build_grid(4.0, 65)
        B = bundle(sample(potential, g))
        # the cutoff gradient on the whole grid: its box blocks, zero off the box
        box, _, grad = _cutoff(2.0, 3.0, g, with_phi=False)
        d1, d2 = np.zeros((g.n, g.n)), np.zeros((g.n, g.n))
        d1[box, box], d2[box, box] = grad
        lhs = (B.inv11 * d1 * d1 + 2.0 * B.inv12 * d1 * d2 + B.inv22 * d2 * d2) * B.vol
        rhs = (d1**2 + d2**2) * (2.0 * B.cos_phase + B.sig1 * B.sin_phase)
        violation = np.maximum(lhs - rhs, 0.0)
        rep = check_cutoff_volume_identity(B)
        loc = np.unravel_index(np.argmax(np.abs(violation)), violation.shape)
        assert rep.location == tuple(int(k) for k in loc)
        assert rep.residual == float(np.abs(violation[loc]))
        margin = float(np.min(rhs - lhs))
        assert (rep.details["min_margin"], math.copysign(1.0, rep.details["min_margin"])) == (
            margin, math.copysign(1.0, margin)
        )

    def test_paraboloid_strict_inequality(self):
        # lhs = |Dphi|^2, rhs = 2|Dphi|^2: margin stays non-negative
        g = build_grid(4.0, 129)
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g))
        rep = check_cutoff_volume_identity(B)
        assert rep.passed
        assert rep.residual == 0.0
        assert rep.details["min_margin"] >= 0.0

    def test_plateau_is_equality(self):
        # inside the plateau Dphi = 0 and both sides vanish
        g = build_grid(4.0, 65)
        B = smooth_bundle(g)
        box, _, (d1, d2) = _cutoff(2.0, 3.0, g, with_phi=False)
        gmag = np.hypot(d1, d2)
        assert np.all(gmag[g.disk_mask(2.0)[box, box]] == 0.0)
        rep = check_cutoff_volume_identity(B)
        assert rep.passed

    def test_perturbed_manufactured_margin(self):
        g = build_grid(4.0, 129)
        prob = manufacture(perturbed_family(0.1), g)
        B = bundle(prob.u_exact)
        rep = check_cutoff_volume_identity(B)
        assert rep.passed
        assert rep.details["min_margin"] >= -10.0 * g.h**2

    def test_trace_equality_route(self):
        # with the trace in place of the largest inverse eigenvalue the chain
        # is an exact identity: tr(g^{-1}) V = 2 cos(phase) + sig1 sin(phase)
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        B = bundle_from_hessian(g, prob.hess_exact)
        lhs = (B.inv11 + B.inv22) * B.vol
        rhs = 2.0 * np.cos(B.phase) + B.sig1 * np.sin(B.phase)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSlopeVolume:
    def test_paraboloid(self):
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g))
        rep = check_slope_volume(B)
        assert rep.passed
        assert rep.details["min_margin"] == pytest.approx(2.0 - 0.5 * math.log(2.0), abs=1e-12)

    def test_flat(self):
        g = build_grid(4.0, 65)
        B = bundle(const_field(g, 0.0))
        rep = check_slope_volume(B)
        assert rep.passed
        assert rep.details["min_margin"] == pytest.approx(1.0, abs=1e-14)

    def test_steep_scalar_oracle(self):
        # a = 10: ln sqrt(101) ~ 2.307 <= 101
        g = build_grid(4.0, 65)
        B = bundle(sample(lambda x1, x2: 5.0 * (x1 * x1 + x2 * x2), g))
        assert np.allclose(B.slope, 0.5 * math.log(101.0), atol=1e-12)
        assert np.allclose(B.vol, 101.0, atol=1e-10)
        assert check_slope_volume(B).passed

    @settings(deadline=None, max_examples=30)
    @given(base=st.floats(-20.0, 20.0), amp=st.floats(0.0, 5.0))
    def test_any_bundle(self, base, amp):
        g = build_grid(2.0, 9)
        u = sample(
            lambda x1, x2: 0.5 * base * (x1 * x1 - x2 * x2) + amp * np.sin(x1 + x2), g
        )
        assert check_slope_volume(bundle(u)).passed


class TestCoordinateLaplacian:
    def test_constant_metric_trivial(self):
        g = build_grid(4.0, 65)
        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g)
        rep = check_coordinate_laplacian(bundle(u), u)
        assert rep.passed
        assert rep.residual <= 1e-11

    def test_perturbed_refinement(self):
        resids = []
        for n in (65, 129):
            g = build_grid(4.0, n)
            prob = manufacture(perturbed_family(0.1), g)
            rep = check_coordinate_laplacian(bundle(prob.u_exact), prob.u_exact, prob.psi)
            assert rep.passed
            resids.append(rep.residual)
        assert 2.5 <= resids[0] / resids[1] <= 6.0

    @pytest.mark.parametrize("family", [perturbed_family(0.1), anisotropic_family(1.2, 0.3)])
    def test_worst_node_matches_stacked_argmax(self, family):
        # reference: both components stacked, first maximum in (component, i, j) order
        g = build_grid(4.0, 65)
        prob = manufacture(family, g)
        B = bundle(prob.u_exact)
        rep = check_coordinate_laplacian(B, prob.u_exact, prob.psi)
        # the lift M g^{-1} D psi from whole arrays, as plain expressions
        m11, m12, m22 = hessian_fd(prob.u_exact)
        p1, p2 = gradient_fd(prob.psi)
        w1 = B.inv11 * p1 + B.inv12 * p2
        w2 = B.inv12 * p1 + B.inv22 * p2
        mw1, mw2 = m11 * w1 + m12 * w2, m12 * w1 + m22 * w2
        x1, x2 = g.coords()
        lap1 = laplace_beltrami(ScalarField2(g, x1 + np.zeros_like(x2)), B).values
        lap2 = laplace_beltrami(ScalarField2(g, x2 + np.zeros_like(x1)), B).values
        core = np.abs(np.stack([lap1, lap2]) - np.stack([-mw1, -mw2]))[:, 2:-2, 2:-2]
        k, i, j = np.unravel_index(np.argmax(core), core.shape)
        assert rep.residual == core[k, i, j]
        assert rep.location == (i + 2, j + 2)
        assert rep.details["component"] == k + 1

    def test_tie_goes_to_first_component(self, monkeypatch):
        g = build_grid(4.0, 17)
        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g)
        # both coordinates' Laplacians on the block, all 1
        def flat(B, rows, cols):
            return [np.ones((rows.stop - rows.start, cols.stop - cols.start))] * 2

        monkeypatch.setattr(lmce.identities, "_coordinate_laplacians", flat)
        # a constant phase has a zero gradient, so both residuals are 1 everywhere
        rep = check_coordinate_laplacian(bundle(u), u, const_field(g, 0.5 * math.pi))
        assert rep.residual == 1.0
        assert rep.location == (2, 2)
        assert rep.details["component"] == 1


_COORDINATE_CASES = [
    (n, rows, family)
    for n in (64, 65, 129)
    for rows in (1, 7, 64)
    for family in ("perturbed", "anisotropic")
] + [(1025, 64, "perturbed"), (1025, 64, "anisotropic"), (65, 7, "quadratic")]

_COORDINATE_FAMILIES = {
    "perturbed": perturbed_family(0.1),
    "anisotropic": anisotropic_family(-0.4, -1.0),
    # g^12 = -0.0 or 0.0 everywhere: the dropped zero terms meet signed zeros
    "quadratic": quadratic_family(4.0),
}


@functools.lru_cache(maxsize=None)
def _coordinate_bundle(n, family):
    return bundle(manufacture(_COORDINATE_FAMILIES[family], build_grid(4.0, n)).u_exact)


@pytest.mark.parametrize("n, rows, family", _COORDINATE_CASES)
def test_coordinate_closed_form_is_the_operator_bit_for_bit(monkeypatch, n, rows, family):
    # the operator on the broadcast coordinates, band by band, sign of zero included
    B = _coordinate_bundle(n, family)
    monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
    coords = [np.broadcast_to(xk, (n, n)) for xk in B.grid.coords()]
    inner = slice(2, n - 2)
    for band in lmce.grid._bands(2, n - 2):
        for xk, lap in zip(coords, _coordinate_laplacians(B, band, inner)):
            want = _lb_rows(xk, B, band)[:, 1 : n - 3]
            assert np.array_equal(lap.view(np.int64), want.view(np.int64))


def test_coordinate_closed_form_on_any_block():
    # every interior block, the outermost ring of the interior included
    B = _coordinate_bundle(65, "anisotropic")
    coords = [np.broadcast_to(xk, (65, 65)) for xk in B.grid.coords()]
    blocks = [(1, 64, 1, 64), (1, 2, 30, 35), (63, 64, 1, 3)]
    for rows, cols in [(slice(r0, r1), slice(c0, c1)) for r0, r1, c0, c1 in blocks]:
        for xk, lap in zip(coords, _coordinate_laplacians(B, rows, cols)):
            want = _lb_rows(xk, B, rows, cols)
            assert np.array_equal(lap.view(np.int64), want.view(np.int64))


class TestBandHeight:
    """The checks that work one band of rows at a time report the same
    entries, bit for bit, whatever the band height."""

    @pytest.mark.parametrize("family", [perturbed_family(0.1), anisotropic_family(-0.4, -1.0)])
    def test_reports_do_not_depend_on_the_band_height(self, monkeypatch, family):
        from lmce.geometry import SlopeConstants
        from lmce.inequalities import check_jacobi_integral

        g = build_grid(4.0, 33)
        prob = manufacture(family, g)

        def entries():
            B = bundle(prob.u_exact)
            reports = [
                check_form_equivalence(B, prob.psi),
                check_complex_factorization(B),
                check_volume_formula(B),
                check_coordinate_laplacian(B, prob.u_exact, prob.psi),
                check_jacobi_integral(B, SlopeConstants(A=0.5), 0.3),
            ]
            return [r.entry() for r in reports]

        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", 33)
        whole = entries()
        for rows in (1, 2, 3, 7):
            monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
            assert entries() == whole, rows


class TestAlgebraicResidualsGridIndependent:
    def test_quadratic_zero_on_both_grids(self):
        # purely algebraic residuals vanish exactly for quadratics at any h
        for n in (33, 65):
            g = build_grid(4.0, n)
            B = bundle(sample(lambda x1, x2: x1 * x1 + 0.25 * x2 * x2 + 0.5 * x1 * x2, g))
            assert check_complex_factorization(B).residual <= 5e-15
            assert check_slope_volume(B).passed
