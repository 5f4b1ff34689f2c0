"""Eigenvalues, geometry bundles, metric operators, slope."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lmce
from lmce.geometry import (
    PHASE_SPLIT,
    REGIME_CUSHION,
    SlopeConstants,
    _inverse_metric,
    _lb_rows,
    _modified_slope_on,
    _nondiv_kernel,
    _paraboloid_laplacian,
    _quadform_inv,
    bundle,
    bundle_from_hessian,
    classify_phase,
    eigen_sym2,
    grad_g_norm2,
    laplace_beltrami,
    modified_slope,
    slope,
)
from lmce.grid import (
    ScalarField2,
    _gradient_norm_on,
    _halo,
    build_grid,
    gradient_fd,
    gradient_norm,
    hessian_fd,
    sample,
)
from lmce.inequalities import _disk_region, _lip_disk, _subharmonic_radius
from lmce.solver import anisotropic_family, manufacture, perturbed_family


def laplace_beltrami_nondiv(f, B):
    """Laplace-Beltrami in non-divergence form, g^{ij} f_ij plus first-order
    terms with differenced coefficients: the oracle of the divergence form."""
    return ScalarField2(B.grid, _nondiv_kernel(f.values, B.vol, B.inv11, B.inv12, B.inv22, B.grid.h))


def _metric(m11, m12, m22):
    """The metric g = I + M^2 of a symmetric Hessian M: (g11, g12, g22)."""
    return 1.0 + m11 * m11 + m12 * m12, m12 * (m11 + m22), 1.0 + m22 * m22 + m12 * m12


def paraboloid(a=1.0):
    return lambda x1, x2: 0.5 * a * (x1 * x1 + x2 * x2)


class TestEigen:
    def test_identity(self):
        lam1, lam2 = eigen_sym2(1.0, 0.0, 1.0)
        assert (lam1, lam2) == (1.0, 1.0)

    def test_saddle(self):
        lam1, lam2 = eigen_sym2(0.0, 1.0, 0.0)
        assert (lam1, lam2) == (1.0, -1.0)

    def test_analytic(self):
        lam1, lam2 = eigen_sym2(2.0, 1.0, 2.0)
        assert lam1 == pytest.approx(3.0, abs=1e-14)
        assert lam2 == pytest.approx(1.0, abs=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigen_sym2(np.inf, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_a_non_finite_entry_anywhere(self, bad, at):
        entries = [np.ones((4, 5)), np.zeros((4, 5)), np.ones((4, 5))]
        entries[at][3, 1] = bad
        with pytest.raises(ValueError, match="symmetric matrix entries must be finite"):
            eigen_sym2(*entries)

    @settings(deadline=None, max_examples=100)
    @given(
        m11=st.floats(-50, 50),
        m12=st.floats(-50, 50),
        m22=st.floats(-50, 50),
    )
    def test_trace_det_recovered(self, m11, m12, m22):
        lam1, lam2 = eigen_sym2(m11, m12, m22)
        assert lam1 >= lam2
        scale = 1.0 + abs(m11) + abs(m22) + abs(m12)
        assert lam1 + lam2 == pytest.approx(m11 + m22, abs=1e-11 * scale)
        assert lam1 * lam2 == pytest.approx(m11 * m22 - m12 * m12, abs=1e-10 * scale**2)


class TestBundle:
    def test_paraboloid(self):
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(), g))
        np.testing.assert_allclose(B.lam1, 1.0, atol=1e-12)
        np.testing.assert_allclose(B.lam2, 1.0, atol=1e-12)
        np.testing.assert_allclose(B.phase, math.pi / 2, atol=1e-12)
        np.testing.assert_allclose(B.sig1, 2.0, atol=1e-12)
        np.testing.assert_allclose(B.sig2, 1.0, atol=1e-12)
        np.testing.assert_allclose(B.vol, 2.0, atol=1e-12)
        np.testing.assert_allclose(B.slope, 0.5 * math.log(2.0), atol=1e-12)

    def test_saddle(self):
        g = build_grid(2.0, 17)
        B = bundle(sample(lambda x1, x2: x1 * x2, g))
        np.testing.assert_allclose(B.phase, 0.0, atol=1e-12)
        np.testing.assert_allclose(B.sig1, 0.0, atol=1e-12)
        np.testing.assert_allclose(B.sig2, -1.0, atol=1e-12)
        np.testing.assert_allclose(B.vol, 2.0, atol=1e-12)

    def test_steep_paraboloid_scalar_oracle(self):
        # a = 2: phase 2*arctan(2), V = sqrt(5*5) = 5, sin(phase) = 4/5
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(2.0), g))
        np.testing.assert_allclose(B.phase, 2.0 * math.atan(2.0), atol=1e-12)
        np.testing.assert_allclose(B.vol, 5.0, atol=1e-12)
        np.testing.assert_allclose(np.sin(B.phase), 0.8, atol=1e-12)

    def test_vol_equals_sqrt_det_metric(self):
        g = build_grid(2.0, 33)
        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + 0.2 * np.sin(x1) * np.cos(x2), g)
        B = bundle(u)
        g11, g12, g22 = _metric(*hessian_fd(u))
        detg = g11 * g22 - g12 * g12
        np.testing.assert_allclose(B.vol, np.sqrt(detg), rtol=1e-12)

    def test_metric_inverse_consistent(self):
        g = build_grid(2.0, 17)
        u = sample(lambda x1, x2: 0.5 * x1 * x1 + 0.3 * x1 * x2, g)
        B = bundle(u)
        hess = hessian_fd(u)
        g11, g12, g22 = _metric(*hess)
        inv11, inv12, inv22 = _inverse_metric(*hess)
        # the bundle stores the inverse that _inverse_metric returns
        for stored, computed in ((B.inv11, inv11), (B.inv12, inv12), (B.inv22, inv22)):
            np.testing.assert_array_equal(stored, computed)
        np.testing.assert_allclose(g11 * inv11 + g12 * inv12, 1.0, atol=1e-12)
        np.testing.assert_allclose(g11 * inv12 + g12 * inv22, 0.0, atol=1e-12)
        np.testing.assert_allclose(g12 * inv12 + g22 * inv22, 1.0, atol=1e-12)

    def test_negate_flips_phase(self):
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(2.0), g))
        Bn = B.negated
        np.testing.assert_allclose(Bn.phase, -B.phase, atol=1e-12)
        np.testing.assert_allclose(Bn.vol, B.vol, atol=1e-12)
        np.testing.assert_allclose(Bn.lam1, -B.lam2, atol=1e-12)


class TestMetricGradient:
    def test_constant_field(self):
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(), g))
        f = sample(lambda x1, x2: 3.0 + 0.0 * x1 + 0.0 * x2, g)
        np.testing.assert_allclose(grad_g_norm2(f, B).values, 0.0, atol=1e-14)

    def test_isotropic_metric(self):
        # g = 2I so the inverse is I/2 and |grad_g x1|^2 = 1/2
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(), g))
        f = sample(lambda x1, x2: x1 + 0.0 * x2, g)
        np.testing.assert_allclose(grad_g_norm2(f, B).values, 0.5, atol=1e-12)

    def test_steep_metric_oracle(self):
        # a = 2: inverse metric is I/5, f = x1 + x2 gives 2/5
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(2.0), g))
        f = sample(lambda x1, x2: x1 + x2, g)
        np.testing.assert_allclose(grad_g_norm2(f, B).values, 0.4, atol=1e-12)

    @pytest.mark.parametrize(
        "region",
        [..., (slice(0, 1), slice(None)), (slice(7, 23), slice(3, 40)), (slice(40, 65), slice(60, 65))],
    )
    def test_quadform_on_a_region_is_the_whole_arrays(self, region):
        # g^{ij} v_i v_j on a block of rows and columns, zero signs included
        g = build_grid(4.0, 65)
        B = bundle(manufacture(anisotropic_family(-0.4, -1.0), g).u_exact)
        rng = np.random.default_rng(5)
        v1, v2 = rng.standard_normal((2, g.n, g.n))
        v1[::3] = 0.0
        v2[:, ::4] = -0.0
        whole = B.inv11 * v1 * v1 + 2.0 * B.inv12 * v1 * v2 + B.inv22 * v2 * v2
        got = _quadform_inv(B, v1[region], v2[region], region)
        assert np.array_equal(got.view(np.int64), whole[region].view(np.int64))


class TestLaplaceBeltrami:
    def test_constant_field(self):
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(), g))
        f = sample(lambda x1, x2: 7.0 + 0.0 * x1 + 0.0 * x2, g)
        np.testing.assert_allclose(laplace_beltrami(f, B).values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_constant_coefficients_exact(self, a):
        # constant metric: lap_g(|x|^2/2) = tr(g^{-1}) = 2/(1+a^2), exactly
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(a), g))
        f = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g)
        np.testing.assert_allclose(
            laplace_beltrami(f, B).values, 2.0 / (1.0 + a * a), atol=1e-11
        )

    def test_against_nondivergence_oracle_linear(self):
        g = build_grid(4.0, 65)
        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + 0.1 * np.sin(x1) * np.sin(x2), g)
        B = bundle(u)
        f = sample(lambda x1, x2: x1 + 0.0 * x2, g)
        dv = laplace_beltrami(f, B).values
        nd = laplace_beltrami_nondiv(f, B).values
        assert np.max(np.abs((dv - nd)[2:-2, 2:-2])) <= 10.0 * g.h**2

    def test_against_nondivergence_oracle_refinement(self):
        # the two discretizations differ by O(h^2) on smooth nonlinear data
        diffs = []
        for n in (65, 129):
            g = build_grid(4.0, n)
            u = sample(
                lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + 0.1 * np.sin(x1) * np.sin(x2), g
            )
            B = bundle(u)
            f = sample(lambda x1, x2: np.sin(x1) * np.cos(x2), g)
            dv = laplace_beltrami(f, B).values
            nd = laplace_beltrami_nondiv(f, B).values
            diffs.append(np.max(np.abs((dv - nd)[2:-2, 2:-2])))
        assert diffs[0] <= 10.0 * (4.0 / 64) ** 2
        assert 2.5 <= diffs[0] / diffs[1] <= 6.0

    @pytest.mark.parametrize("n", [5, 6, 33, 65])
    def test_outer_ring_is_nondivergence_oracle_bitwise(self, n):
        # the ring comes from the non-divergence form on edge strips only;
        # it must equal the full-grid oracle's ring bit for bit
        g = build_grid(4.0, n)
        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + 0.1 * np.sin(x1) * np.sin(x2), g)
        B = bundle(u)
        fields = [
            sample(lambda x1, x2: 0.3 * x1 - 0.7 * x2, g),
            sample(lambda x1, x2: np.sin(x1) * np.cos(0.5 * x2), g),
            slope(B),
        ]
        ring = np.ones((n, n), dtype=bool)
        ring[1:-1, 1:-1] = False
        for f in fields:
            dv = laplace_beltrami(f, B).values
            nd = laplace_beltrami_nondiv(f, B).values
            assert np.array_equal(dv[ring], nd[ring])


class TestLazySlopeFields:
    def _bundle(self):
        g = build_grid(4.0, 33)
        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + 0.1 * np.sin(x1) * np.sin(x2), g)
        return bundle(u)

    def test_equal_to_fresh_computation(self):
        B = self._bundle()
        b = slope(B)
        assert np.array_equal(B.slope_laplacian, laplace_beltrami(b, B).values)
        assert np.array_equal(B.slope_grad_norm2, grad_g_norm2(b, B).values)
        neg = B.negated
        assert np.array_equal(B.negated.slope, neg.slope)
        assert np.array_equal(B.negated.slope_laplacian, neg.slope_laplacian)

    def test_computed_once_and_read_only(self):
        B = self._bundle()
        assert B.slope_laplacian is B.slope_laplacian
        assert B.slope_grad_norm2 is B.slope_grad_norm2
        assert B.negated is B.negated
        for arr in (B.slope_laplacian, B.slope_grad_norm2):
            assert not arr.flags.writeable

    def test_each_build_goes_through_the_hook_the_twin_takes_over(self):
        B = self._bundle()
        built = []
        B.__dict__["_build_field"] = lambda name, build: built.append(name) or build()
        B.slope_laplacian, B.negated.slope_grad_norm2, B.cos_phase
        assert B.slope_laplacian is B.slope_laplacian
        assert built == ["slope_laplacian", "negated", "slope_grad_norm2", "cos_phase"]
        assert self._bundle()._build_field("x", lambda: 1.0) == 1.0


class TestCachedFields:
    def _potential(self):
        g = build_grid(4.0, 33)
        return sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + 0.1 * np.sin(x1) * np.sin(x2), g)

    def _bundle(self):
        return bundle(self._potential())

    def test_phase_transcendentals_and_gradient_norm(self):
        u = self._potential()
        B = bundle(u)
        assert B.cos_phase is B.cos_phase
        assert B.sin_phase is B.sin_phase
        for arr in (B.cos_phase, B.sin_phase, B.grad_norm):
            assert not arr.flags.writeable
        assert np.array_equal(B.cos_phase, np.cos(B.phase))
        assert np.array_equal(B.sin_phase, np.sin(B.phase))
        assert np.array_equal(B.grad_norm, gradient_norm(u).values)
        assert bundle_from_hessian(B.grid, hessian_fd(u)).grad_norm is None

    def test_symmetric_functions_from_the_eigenvalues(self):
        B = self._bundle()
        assert np.array_equal(B.sig1, B.lam1 + B.lam2)
        assert np.array_equal(B.sig2, B.lam1 * B.lam2)
        assert not B.sig1.flags.writeable and not B.sig2.flags.writeable

    def _negative(self):
        g = build_grid(4.0, 65)
        return bundle(manufacture(anisotropic_family(-0.4, -1.0), g).u_exact)

    def test_negation_shares_the_metric(self):
        B = self._negative()
        grad_norm = B.grad_norm
        neg = B.negated
        for name in ("vol", "inv11", "inv12", "inv22"):
            assert getattr(neg, name) is getattr(B, name)
        assert neg.grad_norm is grad_norm
        # the very arrays that a rebuild from the negated Hessian computes
        u = manufacture(anisotropic_family(-0.4, -1.0), B.grid).u_exact
        fresh = bundle_from_hessian(B.grid, tuple(-m for m in hessian_fd(u)), neg.grad_norm)
        for name in ("lam1", "lam2", "phase", "vol", "inv11", "inv12", "inv22", "slope"):
            assert np.array_equal(getattr(neg, name), getattr(fresh, name))
        box = slice(2, B.grid.n - 2)
        assert _same_bits(_paraboloid_laplacian(neg, box), _paraboloid_laplacian(fresh, box))
        assert np.array_equal(neg.grad_norm, fresh.grad_norm)

    def test_twins_take_even_fields_from_each_other(self):
        B = self._negative()
        neg = B.negated
        assert neg.negated is B
        assert neg.grad_norm is B.grad_norm

    def test_negation_builds_no_unread_field(self):
        B = self._negative()
        neg = B.negated
        lazy = ("cos_phase", "sin_phase", "slope_laplacian", "slope_grad_norm2")
        assert not set(lazy) & set(vars(neg))
        assert not set(lazy) & set(vars(B))


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBands:
    """laplace_beltrami computes its interior in bands of LB_BAND_ROWS rows;
    the values do not depend on the band height."""

    def _one_band(self, monkeypatch, f, B):
        with monkeypatch.context() as m:
            m.setattr(lmce.grid, "LB_BAND_ROWS", B.grid.n)
            return laplace_beltrami(f, B).values

    # n - 2 interior rows below, at and off a multiple of the band height
    @pytest.mark.parametrize("n", [5, 65, 66, 131])
    def test_bands_match_one_band(self, monkeypatch, n):
        assert lmce.grid.LB_BAND_ROWS == 64
        g = build_grid(4.0, n)
        B = bundle(manufacture(perturbed_family(0.1), g).u_exact)
        neg = bundle(manufacture(anisotropic_family(-0.4, -1.0), g).u_exact)
        f = sample(lambda x1, x2: np.sin(x1) * np.cos(0.5 * x2) + 0.3 * x1 * x2, g)
        twin = neg.negated
        for field, bun in [(f, B), (slope(B), B), (f, neg), (f, twin), (slope(twin), twin)]:
            bands = laplace_beltrami(field, bun).values
            assert _same_bits(bands, self._one_band(monkeypatch, field, bun))

    def test_every_band_height(self, monkeypatch):
        # heights from one row to more than the interior
        g = build_grid(4.0, 19)
        B = bundle(manufacture(anisotropic_family(-0.4, -1.0), g).u_exact)
        f = sample(lambda x1, x2: np.cos(x1 - 0.2 * x2), g)
        whole = self._one_band(monkeypatch, f, B)
        for rows in range(1, 19):
            monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
            assert _same_bits(laplace_beltrami(f, B).values, whole)

    def test_bundle_caches_no_coefficients(self):
        g = build_grid(4.0, 33)
        B = bundle(manufacture(perturbed_family(0.1), g).u_exact)
        before = set(vars(B))
        laplace_beltrami(slope(B), B)
        assert set(vars(B)) == before


class TestBoxFields:
    """The fields formed on a box alone hold, on it, the whole-grid field's
    values bit for bit, whatever the band height."""

    BOXES = [slice(2, 63), slice(20, 45), slice(31, 34), slice(1, 64)]

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("family", [perturbed_family(0.1), anisotropic_family(-0.4, -1.0)])
    def test_paraboloid_laplacian_on_a_box(self, monkeypatch, family, rows):
        g = build_grid(4.0, 65)
        B = bundle(manufacture(family, g).u_exact)
        whole = laplace_beltrami(ScalarField2(g, 0.5 * g.radius2()), B).values
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        for box in self.BOXES:
            block = _paraboloid_laplacian(B, box)
            assert not block.flags.writeable
            assert _same_bits(block, whole[box, box])
            assert _same_bits(_paraboloid_laplacian(B.negated, box), block)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_modified_slope_and_its_gradient_norm_on_a_box(self, monkeypatch, rows):
        g = build_grid(4.0, 65)
        B = bundle(manufacture(anisotropic_family(-0.4, -1.0), g).u_exact)
        K = SlopeConstants(A=0.7)
        whole = whole_modified_slope(B, K)
        grad = whole_gradient_norm(ScalarField2(g, whole))
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        for box in self.BOXES + [slice(0, 65), slice(0, 10), slice(60, 65)]:
            on = _modified_slope_on(B, K, box)
            assert _same_bits(on.values[box, box], whole[box, box])
            assert np.count_nonzero(on.values) <= (box.stop - box.start) ** 2
            # the gradient reads the block and one node around it
            inner = slice(box.start + (box.start > 0), box.stop - (box.stop < g.n))
            norm = _gradient_norm_on(on, inner)
            assert _same_bits(norm.values[inner, inner], grad[inner, inner])
            assert np.count_nonzero(norm.values) <= (inner.stop - inner.start) ** 2

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("n", [64, 65, 129])
    def test_modified_slope_former_on_every_verify_block(self, monkeypatch, n, rows):
        B, K = _verify_case(n)
        want = whole_modified_slope(B, K)
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        assert _same_bits(modified_slope(B, K).values, want)
        for box in _verify_blocks(B.grid):
            _assert_block_of(_modified_slope_on(B, K, box), want, box)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("n", [64, 65, 129])
    def test_gradient_norm_former_on_every_verify_block(self, monkeypatch, n, rows):
        B, K = _verify_case(n)
        f = ScalarField2(B.grid, whole_modified_slope(B, K))
        want = whole_gradient_norm(f)
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        assert _same_bits(gradient_norm(f).values, want)
        for box in _verify_blocks(B.grid):
            _assert_block_of(_gradient_norm_on(f, box), want, box)

    @pytest.mark.parametrize("cols", [slice(1, 64), slice(5, 17), slice(40, 41)])
    def test_lb_rows_on_some_columns(self, cols):
        g = build_grid(4.0, 65)
        B = bundle(manufacture(perturbed_family(0.1), g).u_exact)
        f = sample(lambda x1, x2: np.sin(x1) * np.cos(0.5 * x2), g)
        whole = laplace_beltrami(f, B).values
        rows = slice(3, 12)
        assert _same_bits(_lb_rows(f.values, B, rows, cols), whole[rows, cols])


def whole_modified_slope(B, K):
    """b + (A/2)|x|^2 by whole-array expressions: the oracle of the block former."""
    q = B.grid.radius2()
    q *= 0.5 * K.A
    q += B.slope
    return q


def whole_gradient_norm(f):
    """|Df| by whole-array expressions: the oracle of the block former."""
    return np.hypot(*np.gradient(f.values, f.grid.h, edge_order=2))


@functools.cache
def _verify_case(n):
    """An anisotropic bundle on n nodes and a weight A, for the block formers."""
    g = build_grid(4.0, n)
    return bundle(manufacture(anisotropic_family(-0.4, -1.0), g).u_exact), SlopeConstants(A=0.7)


def _verify_blocks(g):
    """Every block verify forms b_mod or |D b_mod| on: the whole grid, the
    box of the interior of B_rho for rho in (0.5, 2, 3), and the box of each
    disk the sampler reads Lip(f) on, for the radii it samples, and its halo."""
    boxes = [slice(0, g.n)] + [_disk_region(g, rho)[1] for rho in (0.5, 2.0, 3.0)]
    for rho in (0.5, 2.0, 3.0):
        box = _lip_disk(g, _subharmonic_radius(rho))[1]
        boxes += [box, _halo(box, g.n)]
    return boxes


def _assert_block_of(field, want, box):
    """field holds want's values on box x box bit for bit, and 0 off it."""
    assert _same_bits(field.values[box, box], want[box, box])
    rest = field.values.copy()
    rest[box, box] = 0.0
    assert not rest.any()


def _whole_bundle(hess):
    """The bundle's arrays by whole-array expressions: the oracle of the
    banded build."""
    lam1, lam2 = eigen_sym2(*hess)
    inv11, inv12, inv22 = _inverse_metric(*hess)
    return {
        "lam1": lam1,
        "lam2": lam2,
        "phase": np.arctan(lam1) + np.arctan(lam2),
        "vol": np.sqrt((1.0 + lam1 * lam1) * (1.0 + lam2 * lam2)),
        "inv11": inv11,
        "inv12": inv12,
        "inv22": inv22,
        "slope": 0.5 * np.log1p(lam1 * lam1),
    }


class TestBandedBundle:
    """bundle(u) fills its arrays band by band from the Hessian's rows; each
    is the whole-array oracle's bit for bit, and so are the twin's and the
    fields formed per band."""

    @pytest.mark.parametrize("n", [5, 6, 7, 64, 65, 66, 129])
    def test_bundle_matches_whole_array_oracle(self, n):
        g = build_grid(4.0, n)
        for family in (perturbed_family(0.1), anisotropic_family(-0.4, -1.0)):
            u = manufacture(family, g).u_exact
            B = bundle(u)
            for name, want in _whole_bundle(hessian_fd(u)).items():
                assert _same_bits(getattr(B, name), want), name
            assert _same_bits(B.grad_norm, np.hypot(*gradient_fd(u)))
            neg = B.negated
            assert _same_bits(neg.phase, np.arctan(-B.lam2) + np.arctan(-B.lam1))
            assert _same_bits(neg.slope, 0.5 * np.log1p(B.lam2 * B.lam2))
            b1, b2 = gradient_fd(slope(B))
            q = B.inv11 * b1 * b1 + 2.0 * B.inv12 * b1 * b2 + B.inv22 * b2 * b2
            assert _same_bits(B.slope_grad_norm2, q)
            bmod = modified_slope(B, SlopeConstants(A=0.7))
            assert _same_bits(bmod.values, B.slope + 0.5 * 0.7 * g.radius2())

    def test_bundle_from_a_given_hessian(self):
        g = build_grid(4.0, 129)
        hess = hessian_fd(manufacture(anisotropic_family(1.2, 0.3), g).u_exact)
        B = bundle_from_hessian(g, hess)
        for name, want in _whole_bundle(hess).items():
            assert _same_bits(getattr(B, name), want), name

    def test_non_finite_entry_in_the_last_band_raises(self):
        # the last band of n=129 is its last row
        g = build_grid(4.0, 129)
        u = manufacture(perturbed_family(0.1), g).u_exact
        m11, m12, m22 = (np.array(m) for m in hessian_fd(u))
        m12[-1, 3] = np.nan
        with pytest.raises(ValueError, match="symmetric matrix entries must be finite"):
            bundle_from_hessian(g, (m11, m12, m22))


class TestFrameIndependence:
    def _perturbed(self):
        return lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2) + 0.1 * np.sin(x1) * np.sin(x2)

    def test_quarter_turn_nodal(self):
        # a quarter turn maps nodes to nodes: outputs must rotate with the
        # grid to round-off
        g = build_grid(2.0, 33)
        uf = self._perturbed()
        u = sample(uf, g)
        u_rot = sample(lambda x1, x2: uf(-x2, x1), g)
        f = sample(lambda x1, x2: x1 * x1 + 0.5 * x2, g)
        f_rot = sample(lambda x1, x2: (-x2) ** 2 + 0.5 * x1, g)

        def rot(values):
            # values'[i, j] = values at the pre-image node of (x1_i, x2_j)
            return values[::-1, :].T

        out = grad_g_norm2(f, bundle(u)).values
        out_rot = grad_g_norm2(f_rot, bundle(u_rot)).values
        np.testing.assert_allclose(out_rot, rot(out), atol=1e-10)
        lap = laplace_beltrami(f, bundle(u)).values
        lap_rot = laplace_beltrami(f_rot, bundle(u_rot)).values
        np.testing.assert_allclose(lap_rot, rot(lap), atol=1e-10)

    def test_general_rotation_integral(self):
        # 30-degree rotation: compare rotation-invariant disk integrals
        from lmce.grid import integrate_disk

        th = math.pi / 6
        c, s = math.cos(th), math.sin(th)
        g = build_grid(4.0, 129)
        uf = self._perturbed()
        u = sample(uf, g)
        u_rot = sample(lambda x1, x2: uf(c * x1 - s * x2, s * x1 + c * x2), g)
        f = sample(lambda x1, x2: x1 * x1 + x2 * x2, g)
        q = integrate_disk(ScalarField2(g, grad_g_norm2(f, bundle(u)).values), 2.0)
        q_rot = integrate_disk(
            ScalarField2(g, grad_g_norm2(f, bundle(u_rot)).values), 2.0
        )
        assert abs(q - q_rot) <= 20.0 * g.h


class TestSlope:
    def test_paraboloid_slope(self):
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(), g))
        np.testing.assert_allclose(slope(B).values, 0.5 * math.log(2.0), atol=1e-12)

    def test_anisotropic_slope_uses_larger_eigenvalue(self):
        # eigenvalues sqrt(3) and 1/sqrt(3): slope is ln 2 everywhere
        g = build_grid(2.0, 17)
        r3 = math.sqrt(3.0)
        u = sample(lambda x1, x2: 0.5 * (r3 * x1 * x1 + x2 * x2 / r3), g)
        B = bundle(u)
        np.testing.assert_allclose(slope(B).values, math.log(2.0), atol=1e-12)

    def test_modified_slope_quadratic_shift(self):
        g = build_grid(4.0, 257)
        B = bundle(sample(paraboloid(), g))
        bm = modified_slope(B, SlopeConstants(A=1.0))
        i, j = g.origin_index()
        assert bm.values[i, j] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        # node at (2, 0): 2 h-steps of 1/32 each... locate exactly
        k = int(round((2.0 + 4.0) / g.h))
        assert g.axis()[k] == 2.0
        assert bm.values[k, j] == pytest.approx(0.5 * math.log(2.0) + 2.0, abs=1e-12)

    def test_modified_slope_zero_weight(self):
        g = build_grid(2.0, 17)
        B = bundle(sample(paraboloid(), g))
        bm = modified_slope(B, SlopeConstants(A=0.0))
        np.testing.assert_allclose(bm.values, B.slope)

    def test_negated_anisotropic_slope(self):
        # slope of -u uses the negated smaller eigenvalue: ln(2/sqrt(3))
        g = build_grid(2.0, 17)
        r3 = math.sqrt(3.0)
        u = sample(lambda x1, x2: -0.5 * (r3 * x1 * x1 + x2 * x2 / r3), g)
        B = bundle(u)
        np.testing.assert_allclose(
            slope(B).values, 0.5 * math.log(1.0 + 1.0 / 3.0), atol=1e-12
        )


class TestPhaseSignFacts:
    def test_phase_bounded_by_pi(self):
        g = build_grid(2.0, 17)
        B = bundle(sample(lambda x1, x2: 50.0 * (x1 * x1 + x2 * x2), g))
        assert np.max(np.abs(B.phase)) < math.pi

    def test_positive_phase_forces_positive_trace(self):
        # perturbed bundle has phase on both sides of pi/2, all in (0, pi)
        g = build_grid(4.0, 65)
        prob = manufacture(perturbed_family(0.1), g)
        B = bundle(prob.u_exact)
        assert np.all((B.phase > 0.0) & (B.phase < math.pi))
        assert np.all(B.sig1 > 0.0)

    def test_large_phase_forces_det_above_one(self):
        g = build_grid(4.0, 65)
        for a in (1.5, 5.0):
            B = bundle(sample(lambda x1, x2: 0.5 * a * (x1 * x1 + x2 * x2), g))
            mask = (B.phase > math.pi / 2) & (B.phase < math.pi)
            assert mask.any()
            assert np.all(B.sig2[mask] > 1.0)

    @settings(deadline=None, max_examples=40)
    @given(lam1=st.floats(-20.0, 20.0), gap=st.floats(0.0, 20.0))
    def test_sign_facts_pointwise(self, lam1, gap):
        lam2 = lam1 - gap
        phase = math.atan(lam1) + math.atan(lam2)
        if 0.0 < phase < math.pi:
            assert lam1 + lam2 > 0.0
        if math.pi / 2 < phase < math.pi:
            assert lam1 * lam2 > 1.0


class TestNegatedPhase:
    """The one-pass phase rule reads the negated bundle's phase extremes off
    this bundle's: that phase is this one's negation, as arctan is odd."""

    @settings(deadline=None, max_examples=60)
    @given(arrays(np.float64, (3, 5, 5), elements=st.floats(-1e6, 1e6)))
    def test_negation_in_value_and_sign_bit(self, hess):
        B = bundle_from_hessian(build_grid(1.0, 5), tuple(hess))
        neg = B.negated.phase
        assert np.array_equal(neg, -B.phase)
        # the same bits off zero; a zero phase from two arctangents that
        # cancel is +0 in both twins (below)
        nonzero = B.phase != 0
        assert _same_bits(neg[nonzero], -B.phase[nonzero])

    def test_a_cancelled_phase_is_plus_zero_in_both_twins(self):
        # a saddle, lam = (1, -1): a sign of zero that no comparison of the
        # phase rule can see, so the flip and the regime do not depend on it
        hess = (np.ones((5, 5)), np.zeros((5, 5)), -np.ones((5, 5)))
        B = bundle_from_hessian(build_grid(1.0, 5), hess)
        assert _same_bits(B.phase, np.zeros((5, 5)))
        assert _same_bits(B.negated.phase, np.zeros((5, 5)))

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(-3.1, 3.1), min_size=1, max_size=20), st.floats(0.01, 1.0))
    def test_regime_of_the_extremes_is_the_regime_of_the_phase(self, phase, delta):
        phase = np.array(phase)
        regime = classify_phase(phase, delta)
        assert classify_phase((phase.min(), phase.max()), delta) == regime
        assert classify_phase((-phase.max(), -phase.min()), delta) == classify_phase(-phase, delta)


class TestSlopeConstants:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlopeConstants(delta=0.0)
        with pytest.raises(ValueError):
            SlopeConstants(c=0.0)
        with pytest.raises(ValueError):
            SlopeConstants(c=1.5)
        with pytest.raises(ValueError):
            SlopeConstants(A=-1.0)


class TestClassifyPhase:
    DELTA = 0.3

    @pytest.mark.parametrize(
        "value,regime",
        [
            (0.0, "subcritical"),
            (DELTA - 2 * REGIME_CUSHION, "subcritical"),
            (DELTA - 0.5 * REGIME_CUSHION, "case1"),
            (DELTA, "case1"),
            (PHASE_SPLIT, "case1"),
            (PHASE_SPLIT + 0.5 * REGIME_CUSHION, "case1"),
            (PHASE_SPLIT + 2 * REGIME_CUSHION, "case2"),
            (math.pi, "case2"),
        ],
    )
    def test_constant_phase_and_its_negation(self, value, regime):
        phase = np.full((5, 5), value)
        assert classify_phase(phase, self.DELTA) == regime
        assert classify_phase(-phase, self.DELTA) == regime

    def test_split_value(self):
        assert PHASE_SPLIT == 0.75 * math.pi

    def test_straddle_is_supercritical_with_both_regimes(self):
        phase = np.array([1.0, 2.5])
        assert classify_phase(phase, self.DELTA) == "straddle"
        assert classify_phase(-phase, self.DELTA) == "straddle"
        # below delta somewhere wins over straddling
        assert classify_phase(np.array([0.1, 2.5]), self.DELTA) == "subcritical"

    def test_mixed_sign_is_not_negated(self):
        assert classify_phase(np.array([-1.0, 1.0]), self.DELTA) == "subcritical"
        # <= 0 everywhere, < 0 somewhere: negated, then 0 < delta
        assert classify_phase(np.array([-1.0, 0.0]), self.DELTA) == "subcritical"
        assert classify_phase(np.array([-1.0, -0.5]), self.DELTA) == "case1"

    def test_split_and_cushion_only_in_geometry(self):
        # every other module takes its regime from classify_phase
        names = {"PHASE_SPLIT", "REGIME_CUSHION"}
        scope = {"math": math, "np": np, "__builtins__": {}}
        found = []
        for path in sorted(Path(lmce.__file__).parent.glob("*.py")):
            if path.name == "geometry.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                name = name or getattr(node, "name", None)
                if name in names:
                    found.append(f"{path.name}:{node.lineno} {name}")
                if isinstance(node, (ast.BinOp, ast.Constant)):
                    try:
                        value = eval(compile(ast.Expression(node), path.name, "eval"), scope)
                    except Exception:
                        continue
                    if isinstance(value, float) and abs(value - 0.75 * math.pi) < 1e-9:
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
        assert found == []
