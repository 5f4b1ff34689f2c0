"""Grid construction, finite differences, disk quadrature, cutoff profile."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lmce.grid
from lmce.geometry import bundle
from lmce.grid import (
    ScalarField2,
    _bands,
    _cutoff,
    _d1,
    _d2,
    _gradient_rows,
    _hessian_rows,
    _located,
    _quintic_slope,
    _slab,
    _span,
    build_grid,
    gradient_fd,
    hessian_fd,
    integrate_disk,
    sample,
    sup_norm_disk,
)


class TestBuildGrid:
    def test_small_grid(self):
        g = build_grid(2.0, 5)
        assert g.h == 1.0
        assert g.n * g.n == 25
        np.testing.assert_allclose(g.axis(), [-2, -1, 0, 1, 2])

    def test_default_grid_spacing(self):
        g = build_grid(4.0, 257)
        assert g.h == 1.0 / 32.0

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            build_grid(2.0, 3)

    def test_rejects_bad_half_width(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 9)
        with pytest.raises(ValueError):
            build_grid(-1.0, 9)

    def test_axis_symmetric(self):
        g = build_grid(3.0, 17)
        ax = g.axis()
        np.testing.assert_array_equal(ax, -ax[::-1])


class TestSample:
    def test_zero(self):
        g = build_grid(1.0, 5)
        f = sample(lambda x1, x2: 0.0 * x1 + 0.0 * x2, g)
        assert np.all(f.values == 0.0)

    def test_coordinate_columns(self):
        g = build_grid(1.0, 5)
        f = sample(lambda x1, x2: x1 + 0.0 * x2, g)
        np.testing.assert_allclose(f.values[:, 0], [-1, -0.5, 0, 0.5, 1])
        np.testing.assert_allclose(f.values[:, 0], f.values[:, -1])

    def test_paraboloid_vanishes_at_origin(self):
        g = build_grid(1.0, 5)
        f = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g)
        i, j = g.origin_index()
        assert f.values[i, j] == 0.0

    def test_rejects_non_finite(self):
        g = build_grid(1.0, 5)
        with pytest.raises(ValueError):
            sample(lambda x1, x2: np.full_like(x1 + x2, np.inf), g)

    def test_values_read_only(self):
        g = build_grid(1.0, 5)
        f = sample(lambda x1, x2: x1 + x2, g)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestOwnership:
    def test_fresh_array_frozen_in_place(self):
        g = build_grid(1.0, 5)
        a = np.arange(25.0).reshape(5, 5).copy()
        f = ScalarField2(g, a)
        assert f.values is a
        assert not a.flags.writeable

    @pytest.mark.parametrize("writable", [True, False])
    def test_view_copied(self, writable):
        g = build_grid(1.0, 5)
        base = np.arange(49.0).reshape(7, 7)
        view = base[1:-1, 1:-1]
        view.setflags(write=writable)
        f = ScalarField2(g, view)
        assert not np.shares_memory(f.values, base)
        base[:] = -1.0
        np.testing.assert_array_equal(f.values, np.arange(49.0).reshape(7, 7)[1:-1, 1:-1])
        assert base.flags.writeable

    @pytest.mark.parametrize(
        "values", [np.ones((5, 5), dtype=np.float32), np.ones((5, 5), dtype=int), [[1.0] * 5] * 5]
    )
    def test_other_inputs_copied_as_float(self, values):
        f = ScalarField2(build_grid(1.0, 5), values)
        assert f.values.dtype == np.float64 and f.values is not values
        if isinstance(values, np.ndarray):
            assert values.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_non_finite_node_rejected(self, bad):
        a = np.zeros((5, 5))
        a[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField2(build_grid(1.0, 5), a)


QUAD_COEFFS = [
    (0.3, -1.2, 0.7, 0.5, -0.25, 1.5),
    (0.0, 0.0, 0.0, 0.5, 0.0, 0.5),
    (2.0, 1.0, -1.0, -0.4, 0.8, 0.1),
]


class TestDerivatives:
    @pytest.mark.parametrize("c0,c1,c2,c11,c12,c22", QUAD_COEFFS)
    def test_quadratic_exactness(self, c0, c1, c2, c11, c12, c22):
        # second-order stencils reproduce quadratics to round-off everywhere,
        # boundary bands included
        g = build_grid(2.0, 17)
        f = sample(
            lambda x1, x2: c0 + c1 * x1 + c2 * x2 + c11 * x1 * x1 + c12 * x1 * x2 + c22 * x2 * x2,
            g,
        )
        d1, d2 = gradient_fd(f)
        x1, x2 = g.coords()
        np.testing.assert_allclose(d1, c1 + 2 * c11 * x1 + c12 * x2, atol=1e-11)
        np.testing.assert_allclose(d2, c2 + c12 * x1 + 2 * c22 * x2, atol=1e-11)
        m11, m12, m22 = hessian_fd(f)
        np.testing.assert_allclose(m11, 2 * c11, atol=1e-11)
        np.testing.assert_allclose(m12, c12, atol=1e-11)
        np.testing.assert_allclose(m22, 2 * c22, atol=1e-11)

    def test_saddle_hessian(self):
        g = build_grid(2.0, 9)
        f = sample(lambda x1, x2: x1 * x2, g)
        m11, m12, m22 = hessian_fd(f)
        np.testing.assert_allclose(m11, 0.0, atol=1e-12)
        np.testing.assert_allclose(m12, 1.0, atol=1e-12)
        np.testing.assert_allclose(m22, 0.0, atol=1e-12)

    def test_read_only_arrays_of_the_stencils(self):
        # plain (n, n) arrays, frozen, bit for bit the stencils applied directly
        g = build_grid(2.0, 17)
        f = sample(lambda x1, x2: np.sin(x1) * np.exp(x2), g)
        h, v = g.h, f.values
        want = (_d1(v, h, 0), _d1(v, h, 1), _d2(v, h, 0), _d1(_d1(v, h, 0), h, 1), _d2(v, h, 1))
        for got, ref in zip(gradient_fd(f) + hessian_fd(f), want):
            assert type(got) is np.ndarray and got.shape == (g.n, g.n)
            assert not got.flags.writeable
            assert np.array_equal(got, ref)

    def test_overflowing_hessian_raises(self):
        # u and its gradient are finite on this tiny square, the differenced
        # Hessian 2e308 is not: eigen_sym2 refuses it
        f = sample(lambda x1, x2: 1e308 * x1 * x1 + 0.0 * x2, build_grid(1e-10, 9))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.isfinite(np.hypot(*gradient_fd(f))))
            assert not np.any(np.isfinite(hessian_fd(f)[0]))
            with pytest.raises(ValueError, match="symmetric matrix entries must be finite"):
                bundle(f)

    def _hess_error(self, n):
        g = build_grid(2.0, n)
        f = sample(lambda x1, x2: np.sin(x1) * np.sin(x2), g)
        m11, m12, m22 = hessian_fd(f)
        x1, x2 = g.coords()
        e11 = np.max(np.abs(m11 + np.sin(x1) * np.sin(x2)))
        e12 = np.max(np.abs(m12 - np.cos(x1) * np.cos(x2)))
        e22 = np.max(np.abs(m22 + np.sin(x1) * np.sin(x2)))
        return max(e11, e12, e22)

    def test_refinement_ratio_near_four(self):
        # halving h divides the max Hessian error by 4 +- 10% for C^4 input
        e_h = self._hess_error(65)
        e_h2 = self._hess_error(129)
        ratio = e_h / e_h2
        assert 3.6 <= ratio <= 4.4

    def test_measured_order_in_band(self):
        e_h = self._hess_error(65)
        e_h2 = self._hess_error(129)
        order = math.log2(e_h / e_h2)
        assert 1.8 <= order <= 2.2


class TestBandedRows:
    """Each band's rows of the differenced Hessian and gradient come from the
    band's slab alone and are those rows of hessian_fd and gradient_fd bit
    for bit, whatever the band height."""

    # one band below, at and off the band height; at 65 and 129 the last
    # band is one row, whose slab widens to the four rows of the edge stencil
    @pytest.mark.parametrize("n", [5, 6, 7, 64, 65, 66, 129])
    @pytest.mark.parametrize("rows", [1, 2, 3, 64])
    def test_rows_match_the_whole_grid(self, monkeypatch, n, rows):
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        g = build_grid(2.0, n)
        f = sample(lambda x1, x2: np.sin(1.3 * x1) * np.exp(0.4 * x2) + x1 ** 3 * x2, g)
        whole = hessian_fd(f) + gradient_fd(f)
        bands = _bands(0, n)
        assert [r for b in bands for r in range(b.start, b.stop)] == list(range(n))
        for b in bands:
            slab, k = _slab(n, b)
            assert slab.start <= max(b.start - 1, 0) and slab.stop >= min(b.stop + 1, n)
            assert slab.stop - slab.start >= 4
            assert list(range(n)[slab][k]) == list(range(n)[b])
            # NaN off the slab: a stencil reading beyond it would show
            values = np.full((n, n), np.nan)
            values[slab] = f.values[slab]
            got = _hessian_rows(values, g.h, b) + _gradient_rows(values, g.h, b)
            for rows_got, want in zip(got, whole):
                assert np.array_equal(rows_got.view(np.int64), want[b].view(np.int64))

    def test_edge_slabs_hold_four_rows(self):
        assert _slab(129, slice(128, 129)) == (slice(125, 129), slice(3, 4))
        assert _slab(129, slice(0, 1)) == (slice(0, 4), slice(0, 1))
        assert _slab(66, slice(64, 66)) == (slice(62, 66), slice(2, 4))
        assert _slab(67, slice(65, 66)) == (slice(63, 67), slice(2, 3))
        # a band of two or more interior rows keeps one halo row each side
        assert _slab(67, slice(1, 65)) == (slice(0, 66), slice(1, 65))


class TestDiskQuadrature:
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_area(self, r):
        g = build_grid(4.0, 257)
        one = sample(lambda x1, x2: 1.0 + 0.0 * x1 + 0.0 * x2, g)
        assert abs(integrate_disk(one, r) - math.pi * r * r) <= 10.0 * g.h

    def test_odd_integrand_cancels(self):
        g = build_grid(4.0, 129)
        f = sample(lambda x1, x2: x1 + 0.0 * x2, g)
        assert abs(integrate_disk(f, 2.0)) <= 1e-12

    def test_radial_quadratic(self):
        # closed-form polar integral: int_{B_2} |x|^2 dx = 2*pi*2^4/4 = 8*pi
        g = build_grid(4.0, 257)
        f = sample(lambda x1, x2: x1 * x1 + x2 * x2, g)
        assert abs(integrate_disk(f, 2.0) - 8.0 * math.pi) <= 60.0 * g.h

    def test_radius_exceeds_grid(self):
        g = build_grid(2.0, 9)
        f = sample(lambda x1, x2: 1.0 + 0.0 * x1 + 0.0 * x2, g)
        with pytest.raises(ValueError):
            integrate_disk(f, 3.0)

    def test_mask_built_once_per_radius_and_read_only(self):
        g = build_grid(4.0, 65)
        mask = g.disk_mask(2.0)
        assert g.disk_mask(2.0) is mask
        assert not mask.flags.writeable
        assert np.array_equal(mask, g.radius2() <= 4.0)
        # the masks a grid keeps take no part in equality or hashing
        other = build_grid(4.0, 65)
        assert other == g and hash(other) == hash(g)
        assert other.disk_mask(2.0) is not mask

    # odd and even n, the smallest grid, bands below, at and off the height
    @pytest.mark.parametrize("n", [5, 6, 64, 65, 129])
    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_banded_mask_is_the_whole_grid_comparison(self, monkeypatch, n, rows):
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        L = 4.0
        q = np.unique(build_grid(L, n).radius2())
        # r = L, 0, the node circles themselves and radii between them
        radii = [L, 0.0, 2.0, *np.sqrt(q[q <= L * L][:40])]
        radii += [math.sqrt(0.5 * (a + b)) for a, b in zip(q[:40], q[1:41]) if b <= L * L]
        for r in radii:
            g = build_grid(L, n)  # a fresh grid, so no mask is cached
            assert np.array_equal(g.disk_mask(r), g.radius2() <= r * r), r


class TestBandedReductions:
    """The located extremum and the masked span, formed band by band, are the
    whole-array numpy reductions bit for bit, whatever the band height."""

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("lo, c0", [(0, 0), (2, 2), (3, 5)])
    def test_located_is_the_first_node_numpy_picks(self, monkeypatch, rows, lo, c0):
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        n = 70
        a = np.random.default_rng(rows + lo).integers(-2, 3, size=(n, n)).astype(float)
        # each extreme ties across the first band boundary of the block, in a
        # later column before it than after it, and twice within the later band
        edge = min(lo + rows, n - 3)
        a[edge - 1, 60] = a[edge, 10] = a[edge, 30] = -3.0
        a[edge - 1, 50] = a[edge, 20] = a[edge, 40] = 3.0
        block_rows = slice(lo, n - 2)
        block = a[block_rows, c0:]
        for pick, want_node in ((np.argmin, (edge - 1, 60)), (np.argmax, (edge - 1, 50))):
            i, j = np.unravel_index(pick(block), block.shape)
            assert (int(i) + lo, int(j) + c0) == want_node
            node, value = _located(lambda b: a[b, c0:], block_rows, c0, pick)
            assert node == want_node
            assert np.float64(value).view(np.int64) == block[i, j].view(np.int64)

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_span_is_the_extremes_of_the_gather(self, monkeypatch, rows, seed):
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        rng = np.random.default_rng(seed)
        g = build_grid(4.0, 70)
        a = rng.standard_normal((70, 70)) * 10.0 ** rng.uniform(-5, 5, (70, 70))
        tied = rng.integers(-2, 3, size=(70, 70)).astype(float)
        masks = [g.disk_mask(r) for r in (0.1, 1.0, 2.5, 4.0)] + [rng.random((70, 70)) < 0.01]
        for mask in masks:
            # the extremes also at the first and the last masked node
            planted = a.copy()
            nodes = np.flatnonzero(mask)
            planted.flat[nodes[0]], planted.flat[nodes[-1]] = 1e300, -1e300
            for values in (a, tied, planted):
                lo, hi = _span(lambda b: values[b], mask)
                want = values[mask]
                assert np.float64(lo).view(np.int64) == np.min(want).view(np.int64)
                assert np.float64(hi).view(np.int64) == np.max(want).view(np.int64)

    def test_span_of_an_empty_mask(self):
        mask = np.zeros((6, 6), dtype=bool)
        assert _span(lambda b: np.zeros((b.stop - b.start, 6)), mask) == (math.inf, -math.inf)

    def test_span_propagates_a_masked_nan(self, monkeypatch):
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", 3)
        values = np.arange(64.0).reshape(8, 8)
        values[6, 6] = np.nan
        mask = np.zeros((8, 8), dtype=bool)
        mask[1, 1] = True
        assert _span(lambda b: values[b], mask) == (9.0, 9.0)
        mask[6, 6] = True
        assert all(math.isnan(x) for x in _span(lambda b: values[b], mask))

    def test_span_skips_bands_without_a_masked_node(self, monkeypatch):
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", 4)
        mask = np.zeros((12, 12), dtype=bool)
        mask[5, 7] = True
        formed = []

        def values(b):
            formed.append(b)
            return np.arange(b.start * 12, b.stop * 12, dtype=float).reshape(-1, 12)

        assert _span(values, mask) == (67.0, 67.0)
        assert formed == [slice(4, 8)]


class TestSupNorm:
    def test_linear(self):
        g = build_grid(4.0, 257)
        f = sample(lambda x1, x2: x1 + 0.0 * x2, g)
        assert abs(sup_norm_disk(f, 1.0) - 1.0) <= g.h

    def test_constant(self):
        g = build_grid(2.0, 9)
        f = sample(lambda x1, x2: -3.0 + 0.0 * x1 + 0.0 * x2, g)
        assert sup_norm_disk(f, 1.5) == 3.0

    def test_radial(self):
        g = build_grid(4.0, 257)
        f = sample(lambda x1, x2: x1 * x1 + x2 * x2, g)
        assert abs(sup_norm_disk(f, 2.0) - 4.0) <= 10.0 * g.h

    def test_radius_exceeds_grid(self):
        g = build_grid(2.0, 9)
        f = sample(lambda x1, x2: 1.0 + 0.0 * x1 + 0.0 * x2, g)
        with pytest.raises(ValueError):
            sup_norm_disk(f, 2.5)


class TestCutoff:
    """The cutoff is evaluated on the box of its support: the blocks of phi
    and its gradient there, with phi = 0 and a zero gradient off it."""

    def test_standard_profile_invariants(self):
        g = build_grid(4.0, 257)
        box, phi, (d1, d2) = _cutoff(2.0, 3.0, g, with_phi=True)
        bb = (box, box)
        assert np.all(phi >= 0.0) and np.all(phi <= 1.0)
        assert np.all(phi[g.disk_mask(2.0)[bb]] == 1.0)
        assert np.all(phi[~g.disk_mask(3.0)[bb]] == 0.0)
        gmag = np.hypot(d1, d2)
        # the quintic's slope peaks at 15/8: |grad phi| <= 1.875/(r2 - r1) < 2
        assert np.max(gmag) <= 1.875 / (3.0 - 2.0) + 1e-14

    def test_value_at_origin(self):
        g = build_grid(4.0, 65)
        box, phi, _ = _cutoff(2.0, 3.0, g, with_phi=True)
        i, j = g.origin_index()
        assert phi[i - box.start, j - box.start] == 1.0

    def test_gradient_energy_against_radial_oracle(self):
        # 1D radial quadrature at 1e6 samples is the independent reference
        g = build_grid(4.0, 257)
        box, _, (d1, d2) = _cutoff(2.0, 3.0, g, with_phi=False)
        gm2 = np.zeros((g.n, g.n))
        gm2[box, box] = d1**2 + d2**2
        two_d = integrate_disk(ScalarField2(g, gm2), 3.0)
        rr = np.linspace(2.0, 3.0, 10**6)
        one_d = np.trapezoid(_quintic_slope(rr, 2.0, 3.0) ** 2 * 2.0 * math.pi * rr, rr)
        # integrand vanishes smoothly at both disk edges, so the node
        # quadrature converges much faster than its generic O(h) bound
        assert abs(two_d - one_d) <= g.h
        assert one_d == pytest.approx(50.0 * math.pi / 7.0, rel=1e-9)

    def test_bad_radii(self):
        g = build_grid(4.0, 65)
        with pytest.raises(ValueError):
            _cutoff(3.0, 2.0, g, with_phi=True)
        with pytest.raises(ValueError):
            _cutoff(0.0, 2.0, g, with_phi=True)
        with pytest.raises(ValueError):
            _cutoff(2.0, 5.0, g, with_phi=True)

    @pytest.mark.parametrize("L, n", [(4.0, 65), (4.0, 64), (3.0, 33), (4.0, 5)])
    def test_support_box_gives_the_full_grid_bits(self, L, n):
        # the profile evaluated at every node, signed zeros included
        g = build_grid(L, n)
        x1, x2 = g.coords()
        rho = np.hypot(*np.broadcast_arrays(x1, x2))
        t = np.clip(rho - 2.0, 0.0, 1.0)
        dphi = _quintic_slope(rho, 2.0, 3.0)
        safe = np.where(rho > 0.0, rho, 1.0)
        expected = (
            1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
            dphi * x1 / safe,
            dphi * x2 / safe,
        )
        # the box gives the box's block of each array, with or without phi
        box, phi_box, grad_box = _cutoff(2.0, 3.0, g, with_phi=True)
        _, none, alone = _cutoff(2.0, 3.0, g, with_phi=False)
        assert none is None
        for want, on_box in zip(expected + expected[1:], (phi_box, *grad_box, *alone)):
            assert np.array_equal(want[box, box].view(np.int64), on_box.view(np.int64))
        # off the box the profile is zero, and the disk of the support lies
        # on the box
        off = np.ones((n, n), dtype=bool)
        off[box, box] = False
        for want in expected:
            assert np.all(want[off] == 0.0)
        assert not np.any(g.disk_mask(3.0) & off)

    @pytest.mark.parametrize("L, n", [(4.0, 65), (4.0, 64), (3.0, 33), (4.0, 257)])
    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("with_phi", [True, False])
    def test_band_rows_are_the_whole_box_rows(self, monkeypatch, L, n, rows, with_phi):
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        g = build_grid(L, n)
        box, phi, grad = _cutoff(2.0, 3.0, g, with_phi=with_phi)
        whole = ([phi] if with_phi else []) + grad
        bands = _bands(box.start, box.stop)
        assert [r for b in bands for r in range(b.start, b.stop)] == list(range(n))[box]
        for b in bands:
            band_box, band_phi, band_grad = _cutoff(2.0, 3.0, g, with_phi=with_phi, rows=b)
            assert band_box == box
            assert (band_phi is None) == (not with_phi)
            k = slice(b.start - box.start, b.stop - box.start)
            for got, want in zip(([band_phi] if with_phi else []) + band_grad, whole):
                assert got.shape == (b.stop - b.start, box.stop - box.start)
                assert np.array_equal(got.view(np.int64), want[k].view(np.int64))

    def test_slope_is_the_closed_form(self):
        # formed in place, the profile's slope keeps the bits of the
        # expression, zero signs included
        rho = np.linspace(0.0, 4.0, 4001)
        t = (rho - 1.3) / (2.9 - 1.3)
        inside = (t > 0.0) & (t < 1.0)
        tt = np.where(inside, t, 0.0)
        want = np.where(inside, -30.0 * tt * tt * (1.0 - tt) ** 2 / (2.9 - 1.3), 0.0)
        assert np.array_equal(_quintic_slope(rho, 1.3, 2.9).view(np.int64), want.view(np.int64))

    @settings(deadline=None, max_examples=25)
    @given(
        r1=st.floats(0.3, 2.0),
        width=st.floats(0.3, 1.8),
    )
    # round-off put phi at -1.1e-15 on a node at t = 0.99999837
    @example(r1=1.446656382732114, width=0.6893456783873761)
    def test_profile_properties(self, r1, width):
        g = build_grid(4.0, 65)
        r2 = min(r1 + width, 4.0)
        box, phi, (d1, d2) = _cutoff(r1, r2, g, with_phi=True)
        bb = (box, box)
        assert np.all((phi >= 0.0) & (phi <= 1.0))
        assert np.all(phi[g.disk_mask(r1)[bb]] == 1.0)
        assert np.all(phi[~g.disk_mask(r2)[bb]] == 0.0)
        gmag = np.hypot(d1, d2)
        # the analytic bound 1.875/(r2 - r1), below the generic spline bound 3/(r2 - r1)
        assert np.max(gmag) <= 1.875 / (r2 - r1) + 1e-12
