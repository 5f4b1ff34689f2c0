"""Differential inequality checks and the Hessian-estimate harness."""

import math

import numpy as np
import pytest

import lmce.grid
from lmce.errors import PreconditionError
from lmce.geometry import (
    SlopeConstants,
    bundle,
    bundle_from_hessian,
    classify_phase,
    laplace_beltrami,
    modified_slope,
)
from lmce.grid import (
    ScalarField2,
    _cutoff,
    build_grid,
    gradient_fd,
    hessian_fd,
    sample,
    sup_norm_disk,
)
from lmce.inequalities import (
    EIGEN_GAP_FLOOR,
    _canonical,
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
from lmce.solver import (
    AnalyticFunction2,
    anisotropic_family,
    manufacture,
    perturbed_family,
    quadratic_family,
)

K_DEFAULT = SlopeConstants(delta=0.3, c=0.5)


def negate_analytic(f):
    """The negated potential (phase changes sign)."""
    return AnalyticFunction2(
        value=lambda x1, x2: -f.value(x1, x2),
        gradient=lambda x1, x2: tuple(-gi for gi in f.gradient(x1, x2)),
        hessian=lambda x1, x2: tuple(-mi for mi in f.hessian(x1, x2)),
    )


def rescale_analytic(f, s: float):
    """The rescaled potential v(x) = f(s x)/s^2, which keeps the Hessian range."""
    s = float(s)
    return AnalyticFunction2(
        value=lambda x1, x2: f.value(s * x1, s * x2) / (s * s),
        gradient=lambda x1, x2: tuple(gi / s for gi in f.gradient(s * x1, s * x2)),
        hessian=lambda x1, x2: f.hessian(s * x1, s * x2),
    )


@pytest.fixture(scope="module")
def grid129():
    return build_grid(4.0, 129)


@pytest.fixture(scope="module")
def perturbed_bundle_129(grid129):
    prob = manufacture(perturbed_family(0.1), grid129)
    return bundle(prob.u_exact)


class TestWeakMaxPrinciple:
    def test_linear_passes(self, grid129):
        f = sample(lambda x1, x2: x1 + 0.0 * x2, grid129)
        rep = check_weak_max_principle(f)
        assert rep.passed
        assert rep.details["trials_run"] > 150

    def test_subharmonic_passes(self, grid129):
        f = sample(lambda x1, x2: x1 * x1 + x2 * x2, grid129)
        assert check_weak_max_principle(f).passed

    def test_interior_peak_fails(self, grid129):
        f = sample(lambda x1, x2: -(x1 * x1 + x2 * x2), grid129)
        rep = check_weak_max_principle(f)
        assert not rep.passed
        assert rep.margin < 0.0

    def test_seed_reproducible(self, grid129):
        f = sample(lambda x1, x2: np.exp(x1) + 0.0 * x2, grid129)
        rep1 = check_weak_max_principle(f, seed=7)
        rep2 = check_weak_max_principle(f, seed=7)
        assert rep1.margin == rep2.margin
        assert rep1.excluded == rep2.excluded

    def test_degenerate_subdomains_error(self):
        # h = 1 leaves no room for any admissible subdomain inside B2
        g = build_grid(2.0, 5)
        f = sample(lambda x1, x2: x1 + 0.0 * x2, g)
        with pytest.raises(PreconditionError):
            check_weak_max_principle(f)

    def test_grid_must_contain_disk(self):
        g = build_grid(1.5, 17)
        f = sample(lambda x1, x2: x1 + 0.0 * x2, g)
        with pytest.raises(PreconditionError):
            check_weak_max_principle(f)


class TestSuperIso:
    def test_constant_one(self, grid129):
        f = sample(lambda x1, x2: 1.0 + 0.0 * x1 + 0.0 * x2, grid129)
        rep = check_super_iso(f)
        assert rep.passed
        assert rep.lhs == 1.0
        assert rep.details["int_grad"] == pytest.approx(0.0, abs=1e-12)
        assert rep.details["int_f"] == pytest.approx(4.0 * math.pi, abs=10.0 * grid129.h)

    def test_radial_square_closed_form(self, grid129):
        # oracle: int_{B2} 2|x| dx = 32 pi/3 and int_{B2} |x|^2 dx = 8 pi
        f = sample(lambda x1, x2: x1 * x1 + x2 * x2, grid129)
        rep = check_super_iso(f)
        assert rep.passed
        assert rep.lhs == pytest.approx(1.0, abs=3.0 * grid129.h)
        assert rep.details["int_grad"] == pytest.approx(32.0 * math.pi / 3.0, abs=60.0 * grid129.h)
        assert rep.details["int_f"] == pytest.approx(8.0 * math.pi, abs=60.0 * grid129.h)

    def test_exponential_against_quadrature_oracle(self, grid129):
        from scipy.integrate import dblquad

        f = sample(lambda x1, x2: np.exp(x1) + 0.0 * x2, grid129)
        rep = check_super_iso(f)
        assert rep.passed
        assert rep.lhs == pytest.approx(math.e, rel=0.02)
        oracle, _ = dblquad(
            lambda y, x: 2.0 * math.exp(x),
            -2.0,
            2.0,
            lambda x: -math.sqrt(4.0 - x * x),
            lambda x: math.sqrt(4.0 - x * x),
        )
        assert rep.rhs == pytest.approx(oracle, abs=rep.slack)

    def test_negative_rejected_at_precondition(self, grid129):
        f = sample(lambda x1, x2: -(x1 * x1 + x2 * x2), grid129)
        with pytest.raises(PreconditionError):
            check_super_iso(f)

    def test_grid_must_contain_disk(self):
        f = sample(lambda x1, x2: 1.0 + 0.0 * x1 + 0.0 * x2, build_grid(1.5, 65))
        with pytest.raises(PreconditionError, match="disk of radius 2.0"):
            check_super_iso(f)

    def test_wmp_failure_rejected(self, grid129):
        # positive but peaked inside: fails the weak maximum principle stage
        f = sample(lambda x1, x2: np.exp(-(x1 * x1 + x2 * x2)), grid129)
        with pytest.raises(PreconditionError):
            check_super_iso(f)

    def test_shift_monotonicity(self, grid129):
        # f and f + const: the right side grows by the shift's integral while
        # the left side grows by the shift, so margins cannot collapse
        f = sample(lambda x1, x2: x1 * x1 + x2 * x2, grid129)
        g_shift = sample(lambda x1, x2: x1 * x1 + x2 * x2 + 2.0, grid129)
        rep_f = check_super_iso(f)
        rep_g = check_super_iso(g_shift)
        assert rep_g.rhs >= rep_f.rhs
        assert rep_g.margin >= rep_f.margin - (rep_g.lhs - rep_f.lhs)

    def test_scale_monotonicity(self, grid129):
        f = sample(lambda x1, x2: 1.0 + 0.25 * (x1 * x1 + x2 * x2), grid129)
        g_scaled = sample(lambda x1, x2: 2.0 * (1.0 + 0.25 * (x1 * x1 + x2 * x2)), grid129)
        rep_f = check_super_iso(f)
        rep_g = check_super_iso(g_scaled)
        assert rep_g.rhs >= 2.0 * rep_f.rhs - 1e-9


class TestJacobiPointwise:
    def test_isotropic_quadratic_constant_slope(self, grid129):
        # coalesced eigenvalues everywhere but constant slope: C_hat = 0
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), grid129))
        rep = check_jacobi_pointwise(B, K_DEFAULT)
        assert rep.passed
        assert rep.fitted["C_hat"] <= 1e-12

    def test_anisotropic_quadratic(self, grid129):
        # constant slope up to sampling round-off; /h^2 amplification keeps
        # the fitted constant near 1e-10, far inside the 1e-6 gate
        prob = manufacture(anisotropic_family(math.pi / 3, math.pi / 6), grid129)
        rep = check_jacobi_pointwise(bundle(prob.u_exact), K_DEFAULT)
        assert rep.passed
        assert rep.fitted["C_hat"] <= 1e-6
        assert rep.excluded == 0

    def test_perturbed_fitted_constant_stable(self):
        c_hats = []
        for n in (65, 129):
            g = build_grid(4.0, n)
            prob = manufacture(perturbed_family(0.1), g)
            rep = check_jacobi_pointwise(bundle(prob.u_exact), K_DEFAULT)
            c_hats.append(rep.fitted["C_hat"])
        assert c_hats[1] > 0.0
        assert 0.8 <= c_hats[0] / c_hats[1] <= 1.2

    def test_budget_gate(self, perturbed_bundle_129):
        rep = check_jacobi_pointwise(perturbed_bundle_129, K_DEFAULT, C_budget=1e-9)
        assert not rep.passed
        rep = check_jacobi_pointwise(perturbed_bundle_129, K_DEFAULT, C_budget=10.0)
        assert rep.passed

    def test_affine_invariance(self, grid129):
        prob = manufacture(perturbed_family(0.1), grid129)
        rep0 = check_jacobi_pointwise(bundle(prob.u_exact), K_DEFAULT)
        x1, x2 = grid129.coords()
        shifted = ScalarField2(
            grid129,
            prob.u_exact.values + 0.3 + 1.1 * (x1 + np.zeros_like(x2)) - 0.7 * (x2 + np.zeros_like(x1)),
        )
        rep1 = check_jacobi_pointwise(bundle(shifted), K_DEFAULT)
        assert rep1.fitted["C_hat"] == pytest.approx(rep0.fitted["C_hat"], abs=1e-9)

    def test_negative_phase_canonicalized(self, grid129):
        prob = manufacture(negate_analytic(perturbed_family(0.1)), grid129)
        rep = check_jacobi_pointwise(bundle(prob.u_exact), K_DEFAULT)
        assert rep.details["canonicalized"]
        prob_pos = manufacture(perturbed_family(0.1), grid129)
        rep_pos = check_jacobi_pointwise(bundle(prob_pos.u_exact), K_DEFAULT)
        assert rep.fitted["C_hat"] == pytest.approx(rep_pos.fitted["C_hat"], abs=1e-12)


class TestLocations:
    """jacobi_pointwise and subharmonic name the node of their smallest value:
    np.argmin over the masked full array, so the first node in C order on a
    tie, whatever the height of the bands they take their minima in."""

    @staticmethod
    def _argmin(values, mask):
        i, j = np.unravel_index(np.argmin(np.where(mask, values, np.inf)), values.shape)
        return int(i), int(j)

    @pytest.mark.parametrize(
        "family",
        [
            perturbed_family(0.1),
            negate_analytic(perturbed_family(0.1)),
            anisotropic_family(-0.4, -1.0),
            quadratic_family(1.0),
        ],
    )
    def test_node_of_the_smallest_value(self, family):
        self._assert_smallest_value(family)

    @pytest.mark.parametrize("family", [perturbed_family(0.1), quadratic_family(1.0)])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_band_height_keeps_the_node(self, monkeypatch, family, rows):
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        self._assert_smallest_value(family)

    def _assert_smallest_value(self, family):
        g = build_grid(4.0, 65)
        B = bundle(manufacture(family, g).u_exact)
        K = SlopeConstants(c=0.5, A=fit_modification_weight(B, rho=2.0)[0])
        interior = np.zeros((g.n, g.n), dtype=bool)
        interior[2:-2, 2:-2] = True
        rep = check_jacobi_pointwise(B, K)
        C = B.negated if rep.details["canonicalized"] else B
        defect = C.slope_laplacian - K.c * C.slope_grad_norm2
        gap = (C.lam1 - C.lam2) >= EIGEN_GAP_FLOOR * (1.0 + np.abs(C.lam1))
        mask = interior & gap if np.any(interior & gap) else interior
        assert rep.location == self._argmin(defect, mask)
        assert defect[rep.location] == rep.fitted["min_defect"]
        assert rep.details["nodes_checked"] == np.count_nonzero(mask)
        assert rep.excluded == np.count_nonzero(interior & ~mask)
        rep = check_subharmonic_modified_slope(B, K, trials=20)
        C = B.negated if rep.details["canonicalized"] else B
        lap = C.slope_laplacian + K.A * _paraboloid_laplacian(C)
        region = interior & g.disk_mask(2.0)
        assert rep.location == self._argmin(lap, region)
        assert lap[rep.location] == rep.fitted["min_laplacian"]

    def test_tie_takes_the_first_node(self, grid129):
        # constant slope: every defect is 0, so the first interior node
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), grid129))
        assert check_jacobi_pointwise(B, K_DEFAULT).location == (2, 2)

    def test_tie_across_bands_takes_the_first_band(self, monkeypatch, grid129):
        # every band of one row holds the smallest defect, 0
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", 1)
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), grid129))
        assert check_jacobi_pointwise(B, K_DEFAULT).location == (2, 2)


class TestSubharmonicModifiedSlope:
    def test_paraboloid_any_weight(self, grid129):
        # constant phase kills the phase-gradient term: min lap = A exactly
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), grid129))
        for a in (0.0, 1.0):
            K = SlopeConstants(delta=0.3, c=0.5, A=a)
            rep = check_subharmonic_modified_slope(B, K)
            assert rep.passed
            assert rep.fitted["min_laplacian"] == pytest.approx(a, abs=1e-10)

    def test_steep_paraboloid_zero_weight(self, grid129):
        B = bundle(sample(lambda x1, x2: x1 * x1 + x2 * x2, grid129))
        rep = check_subharmonic_modified_slope(B, SlopeConstants(delta=0.3, c=0.5, A=0.0))
        assert rep.passed
        assert rep.fitted["min_laplacian"] == pytest.approx(0.0, abs=1e-10)

    def test_perturbed_fit_and_sweep_monotone(self, perturbed_bundle_129):
        a_hat, attained = fit_modification_weight(perturbed_bundle_129, rho=2.0)
        assert a_hat > 0.0
        assert attained >= -1e-10
        mins = []
        for a in (0.0, 0.5 * a_hat, a_hat, 2.0 * a_hat):
            K = SlopeConstants(delta=0.3, c=0.5, A=a)
            rep = check_subharmonic_modified_slope(perturbed_bundle_129, K)
            mins.append(rep.fitted["min_laplacian"])
        assert mins == sorted(mins)
        assert mins[0] < 0.0  # unmodified slope alone is not subharmonic
        assert mins[2] >= -1e-4
        K = SlopeConstants(delta=0.3, c=0.5, A=a_hat)
        assert check_subharmonic_modified_slope(perturbed_bundle_129, K).passed

    def test_subcritical_phase_rejected(self, grid129):
        B = bundle(sample(lambda x1, x2: x1 * x2, grid129))
        with pytest.raises(PreconditionError):
            check_subharmonic_modified_slope(B, K_DEFAULT)

    def test_fit_reads_the_canonical_bundle(self):
        # a negative-phase bundle is fitted on its negation, the bundle the
        # slope checks read (on the raw bundle the fit gave 0.2328, not 0.0511)
        B = bundle(manufacture(perturbed_family(0.1), build_grid(4.0, 65)).u_exact)
        a_hat, attained = fit_modification_weight(B, rho=2.0)
        assert fit_modification_weight(B.negated, rho=2.0) == (a_hat, attained)
        assert a_hat == pytest.approx(0.0511, abs=1e-4)

    def test_mixed_sign_fit_matches_scan(self):
        # W g^11 falls steeply in x1 where m11 = e^{4(x1 - 1.2)} passes 1, so
        # lap_g(|x|^2/2) = (1/W) d_i(W g^ij x_j) is negative on part of B2
        g = build_grid(4.0, 65)
        x1, x2 = g.coords()
        m11 = np.exp(4.0 * (x1 - 1.2)) + 0.3 * np.sin(x2)
        B = bundle_from_hessian(g, (m11, np.zeros((g.n, g.n)), np.full((g.n, g.n), 0.5)))
        region = g.disk_mask(2.0).copy()
        region[:2] = region[-2:] = region[:, :2] = region[:, -2:] = False
        lap_b, lap_q = B.slope_laplacian[region], _paraboloid_laplacian(B)[region]
        assert np.min(lap_q) < 0.0 < np.max(lap_q)

        def attained(a):
            return np.min(lap_b[None, :] + a[:, None] * lap_q[None, :], axis=1)

        # the minimum is concave in A, so zooming in on the best scan node
        # keeps the maximum inside the window
        lo, hi = 0.0, 1e3
        while hi - lo > 1e-9:
            a = np.linspace(lo, hi, 1001)
            best = int(np.argmax(attained(a)))
            lo, hi = max(0.0, a[best] - (a[1] - a[0])), min(1e3, a[best] + (a[1] - a[0]))
        a_scan = 0.5 * (lo + hi)
        a_hat, value = fit_modification_weight(B, rho=2.0)
        assert 0.0 < a_scan < 1e3
        assert a_hat == pytest.approx(a_scan, abs=1e-6)
        assert value == pytest.approx(float(attained(np.array([a_scan]))[0]), abs=1e-6)

    def test_shared_sample_stands_in_for_the_same_field(self):
        B = bundle(manufacture(perturbed_family(0.1), build_grid(4.0, 65)).u_exact)
        K = SlopeConstants(delta=0.3, c=0.5, A=0.06)
        wmp = check_weak_max_principle(modified_slope(B, K), trials=40, seed=7)
        own = check_subharmonic_modified_slope(B, K, trials=40, seed=7)
        shared = check_subharmonic_modified_slope(B, K, trials=40, seed=7, wmp=wmp)
        assert shared.entry() == own.entry()
        assert shared.details["wmp_margin"] == wmp.margin

    def test_shared_sample_ignored_for_another_field(self):
        # a stand-in that would fail shows which sample the check used
        stand_in = check_weak_max_principle(
            sample(lambda x1, x2: np.exp(-(x1 * x1 + x2 * x2)), build_grid(4.0, 65)),
            trials=40,
        )
        assert not stand_in.passed
        prob = manufacture(perturbed_family(0.1), build_grid(4.0, 65))
        K = SlopeConstants(delta=0.3, c=0.5, A=0.06)
        used = check_subharmonic_modified_slope(bundle(prob.u_exact), K, wmp=stand_in)
        assert not used.details["wmp_passed"]
        rep = check_subharmonic_modified_slope(
            bundle(prob.u_exact), K, rho=1.5, trials=40, wmp=stand_in
        )
        assert rep.details["wmp_passed"]
        assert rep.details["wmp_margin"] != stand_in.margin


def _paraboloid_laplacian(B):
    """lap_g(|x|^2/2) on the whole grid."""
    return laplace_beltrami(ScalarField2(B.grid, 0.5 * B.grid.radius2()), B).values


def _jacobi_integral(B, K):
    """The integral check with the constant that the pointwise check fits."""
    return check_jacobi_integral(B, K, check_jacobi_pointwise(B, K).fitted["C_hat"])


class TestJacobiIntegral:
    def test_quadratic_zero_lhs(self, grid129):
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), grid129))
        rep = _jacobi_integral(B, K_DEFAULT)
        assert rep.passed
        assert rep.lhs <= 1e-10
        assert rep.fitted["ibp_residual"] <= 1e-10

    def test_perturbed_margin_and_ibp(self, perturbed_bundle_129, grid129):
        rep = _jacobi_integral(perturbed_bundle_129, K_DEFAULT)
        assert rep.passed
        assert rep.margin > 0.0
        assert rep.fitted["ibp_residual"] <= 10.0 * grid129.h

    def test_ibp_residual_refines(self):
        resids = []
        for n in (65, 129):
            g = build_grid(4.0, n)
            prob = manufacture(perturbed_family(0.1), g)
            rep = _jacobi_integral(bundle(prob.u_exact), K_DEFAULT)
            resids.append(rep.fitted["ibp_residual"])
        assert resids[1] <= 0.7 * resids[0] + 1e-12

    @pytest.mark.parametrize(
        "family, flipped",
        [(perturbed_family(0.1), False), (anisotropic_family(-0.4, -1.0), True)],
        ids=["perturbed", "negative"],
    )
    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_same_bits_as_the_closed_form(self, monkeypatch, family, flipped, rows):
        # each integral from whole-array expressions on the canonical bundle,
        # the cutoff and its gradient zero off the box of its support
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        g = build_grid(4.0, 65)
        B = bundle(manufacture(family, g).u_exact)
        rep = check_jacobi_integral(B, K_DEFAULT, 0.25)
        assert rep.details["canonicalized"] == flipped
        C = B.negated if flipped else B
        box, phi_box, grad_box = _cutoff(2.0, 3.0, g, with_phi=True)
        phi, d1, d2 = (np.zeros((g.n, g.n)) for _ in range(3))
        for whole, block in zip((phi, d1, d2), (phi_box, *grad_box)):
            whole[box, box] = block
        h, V, c = g.h, C.vol, K_DEFAULT.c
        plateau, support = g.disk_mask(2.0), g.disk_mask(3.0)
        grad_b = C.slope_grad_norm2 * V
        grad_phi = (C.inv11 * d1 * d1 + 2.0 * C.inv12 * d1 * d2 + C.inv22 * d2 * d2) * V
        lhs = float(np.sum(grad_b[plateau]) * h * h)
        i_phi = float(np.sum(grad_phi[support]) * h * h)
        i_phi2 = float(np.sum((phi * phi * V)[support]) * h * h)
        rhs = (4.0 / c**2) * i_phi + (2.0 / c) * 0.25 * i_phi2
        slack = 20.0 * h * 2.0 * max(1.0, float(np.max(grad_b[plateau])))
        gb1, gb2 = gradient_fd(ScalarField2(g, C.slope))
        form = C.inv11 * d1 * gb1 + C.inv12 * (d1 * gb2 + d2 * gb1) + C.inv22 * d2 * gb2
        ibp_lhs = float(np.sum(phi * phi * C.slope_laplacian * V) * h * h)
        ibp_rhs = float(-np.sum(form * (2.0 * phi) * V) * h * h)
        assert (rep.lhs, rep.rhs, rep.margin) == (lhs, rhs, rhs + slack - lhs)
        assert (rep.details["int_grad_phi"], rep.details["int_phi2"]) == (i_phi, i_phi2)
        assert rep.fitted["ibp_residual"] == abs(ibp_lhs - ibp_rhs)

    def test_slack_sup_is_taken_on_the_plateau(self):
        # |grad_g b|^2 V exceeds 1 only off B_2, where the lhs integrates
        # nothing: the slack is 20 h r1 max(1, sup on B_2) = 20 h r1
        g = build_grid(4.0, 65)
        B = bundle(
            sample(
                lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2)
                + 0.02 * np.cos(3.0 * x1) * (x1 * x1 / 4.0) ** 2,
                g,
            )
        )
        grad_b = B.slope_grad_norm2 * B.vol
        assert float(np.max(grad_b[g.disk_mask(2.0)])) < 1.0 < float(np.max(grad_b))
        rep = check_jacobi_integral(B, K_DEFAULT, 0.25)
        assert rep.slack == 20.0 * g.h * 2.0
        assert rep.margin == rep.rhs + rep.slack - rep.lhs

    def test_cutoff_support_too_wide(self):
        # the support B_3 reaches the edge of [-3, 3]^2
        g = build_grid(3.0, 65)
        B = bundle(sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g))
        with pytest.raises(PreconditionError):
            _jacobi_integral(B, K_DEFAULT)


def _straddling_potential(x1, x2):
    """A potential whose phase range contains 3pi/4 on every disk B_r, 1 <= r <= 4."""
    return 0.5 * 2.4 * (x1 * x1 + x2 * x2) + 0.3 * np.sin(x1) * np.sin(x2)


class TestVolumeBound:
    def test_case1_equality_at_right_angle(self):
        # V = 2 = lap(u)/sin(pi/2): margin exactly zero, no slack consumed
        g = build_grid(4.0, 257)
        prob = manufacture(quadratic_family(1.0), g)
        rep = check_volume_bound(bundle(prob.u_exact), SlopeConstants(delta=math.pi / 2, c=0.5))
        assert rep.passed
        assert rep.margin == 0.0
        assert rep.slack == 0.0

    def test_case1_fitted_prefactor(self):
        # quadrature oracle: sin(pi/2) * int_{B2} 2 dx / sup_{B3}|Du| = 8pi/3
        g = build_grid(4.0, 257)
        prob = manufacture(quadratic_family(1.0), g)
        rep = check_volume_bound(bundle(prob.u_exact), SlopeConstants(delta=math.pi / 2, c=0.5))
        assert rep.fitted["C2"] == pytest.approx(8.0 * math.pi / 3.0, abs=20.0 * g.h)

    def test_case1_perturbed(self, perturbed_bundle_129):
        rep = check_volume_bound(perturbed_bundle_129, K_DEFAULT)
        assert rep.passed
        assert rep.margin > 0.0

    def test_case2_discrepancy_reported_alternative_passes(self):
        # the sqrt(2) * grad-sup^2 bound fails for the steep quadratic; the
        # gradient-image-area reading passes with margin near 9 pi
        g = build_grid(4.0, 257)
        prob = manufacture(quadratic_family(5.0), g)
        rep = check_volume_bound(bundle(prob.u_exact), K_DEFAULT)
        assert not rep.passed
        assert rep.lhs == pytest.approx(26.0 * 9.0 * math.pi, rel=0.02)
        assert rep.rhs == pytest.approx(math.sqrt(2.0) * 400.0, rel=1e-6)
        assert rep.fitted["alt_passed"] == 1.0
        assert rep.fitted["alt_lhs"] == pytest.approx(24.0 * 9.0 * math.pi, rel=0.02)
        assert rep.fitted["alt_rhs"] == pytest.approx(math.pi * 225.0, rel=1e-6)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_case2_alternative_is_the_closed_form(self, monkeypatch, rows):
        # sig2 - 1 integrated over B_3 from the whole-array gather, and the
        # slack from its sup over B_3, not over the whole grid, where the
        # quartic term makes it largest
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        g = build_grid(4.0, 129)
        B = bundle(
            sample(
                lambda x1, x2: 2.0 * (x1 * x1 + x2 * x2)
                + 0.02 * (x1 * x1 + x2 * x2) ** 2
                + 0.1 * np.sin(x1) * np.sin(x2),
                g,
            )
        )
        rep = check_volume_bound(B, K_DEFAULT)
        assert rep.details["regime"] == "case2"
        excess = B.lam1 * B.lam2 - 1.0
        alt_lhs = float(np.sum(excess[g.disk_mask(3.0)]) * g.h * g.h)
        du = sup_norm_disk(ScalarField2(g, B.grad_norm), 3.0)
        sup = float(np.max(np.abs(excess[g.disk_mask(3.0)])))
        assert float(np.max(np.abs(excess))) > sup > 1.0
        alt_margin = math.pi * du * du + 20.0 * g.h * 3.0 * max(1.0, sup) - alt_lhs
        assert (rep.fitted["alt_lhs"], rep.fitted["alt_margin"]) == (alt_lhs, alt_margin)

    def test_regime_classified_on_middle_disk(self, grid129):
        steep = bundle(manufacture(quadratic_family(5.0), grid129).u_exact)
        flat = bundle(manufacture(quadratic_family(1.0), grid129).u_exact)
        assert check_volume_bound(steep, K_DEFAULT).details["regime"] == "case2"
        assert check_volume_bound(flat, K_DEFAULT).details["regime"] == "case1"

    def test_straddling_phase_rejected(self):
        B = bundle(sample(_straddling_potential, build_grid(4.0, 65)))
        with pytest.raises(PreconditionError, match="'straddle'"):
            check_volume_bound(B, K_DEFAULT)

    def test_subcritical_phase_rejected(self, grid129):
        # phase 2 arctan(0.1) ~ 0.2 < delta = 0.3
        shallow = bundle(manufacture(quadratic_family(0.1), grid129).u_exact)
        with pytest.raises(PreconditionError, match="'subcritical'"):
            check_volume_bound(shallow, K_DEFAULT)

    def test_needs_gradient(self, grid129):
        from lmce.geometry import bundle_from_hessian
        from lmce.grid import hessian_fd

        u = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), grid129)
        B = bundle_from_hessian(grid129, hessian_fd(u))
        with pytest.raises(PreconditionError):
            check_volume_bound(B, K_DEFAULT)

    def test_grid_must_contain_middle_disk(self):
        B = bundle(manufacture(quadratic_family(1.0), build_grid(2.5, 65)).u_exact)
        with pytest.raises(PreconditionError, match="disk of radius 3.0"):
            check_volume_bound(B, K_DEFAULT)


class TestCanonicalOnRegion:
    """A phase that is negative on the disks the checks read but positive near
    the grid corners: each check negates the potential on its own region."""

    @pytest.fixture(scope="class")
    def B(self):
        g = build_grid(4.0, 129)
        return bundle(sample(lambda x1, x2: -0.5 * (x1**2 + x2**2) + 2e-4 * (x1**6 + x2**6), g))

    def test_mixed_on_grid_negative_on_disk(self, B):
        assert np.max(B.phase) > 0.5
        assert np.max(B.phase[B.grid.disk_mask(3.0)]) < -1.0

    def test_checks_read_the_negated_potential(self, B):
        K = SlopeConstants(delta=0.3, c=0.5, A=1.0)
        rep = check_volume_bound(B, K)
        assert rep.details == {"regime": "case1", "canonicalized": True}
        assert rep.passed
        assert check_subharmonic_modified_slope(B, K, trials=50).details["canonicalized"]
        rep = check_hessian_estimate(B, 3.0)
        assert (rep.details["regime"], rep.details["canonicalized"]) == ("case1", True)
        assert fit_modification_weight(B, rho=2.0) == fit_modification_weight(B.negated, rho=2.0)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_one_pass_span_is_the_canonical_bundles_own(self, B, monkeypatch, rows):
        # the flip and the regime come from one (min, max) of B's phase on the
        # region: they are the gathered extremes of the bundle it returns
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", rows)
        for region, flips in ((B.grid.disk_mask(3.0), True), (None, False)):
            canon, flipped, span = _canonical(B, region)
            assert (canon is B.negated, flipped) == (flips, flips)
            phase = canon.phase if region is None else canon.phase[region]
            assert span == (np.min(phase), np.max(phase))


class TestExpBudgetFit:
    def test_unit_root(self):
        # independent bisection oracle for C e^C = 1
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert fit_exp_budget(1.0, 1.0) == pytest.approx(oracle, abs=1e-6)
        assert oracle == pytest.approx(0.5671432904097838, abs=1e-12)

    def test_zero_level(self):
        assert fit_exp_budget(0.0, 5.0) == 0.0

    def test_monotone_in_level(self):
        assert fit_exp_budget(2.0, 1.0) > fit_exp_budget(1.0, 1.0)


class TestHessianEstimate:
    def test_paraboloid_omega_constant(self):
        g = build_grid(4.0, 257)
        prob = manufacture(quadratic_family(1.0), g)
        rep = check_hessian_estimate(bundle(prob.u_exact), 4.0)
        assert rep.fitted["C_star"] == pytest.approx(0.5671432904097838, abs=1e-3)
        assert rep.details["regime"] == "case1"

    def test_flat_potential(self):
        g = build_grid(4.0, 65)
        u = sample(lambda x1, x2: 0.0 * x1 + 0.0 * x2, g)
        rep = check_hessian_estimate(bundle(u), 4.0)
        assert rep.passed
        assert rep.fitted["C_star"] == 0.0

    def test_family_sweep_single_budget(self):
        g = build_grid(4.0, 129)
        regimes = {1.0: "case1", 2.0: "case1", 4.0: "case2", 8.0: "case2"}
        for a, expected in regimes.items():
            prob = manufacture(quadratic_family(a), g)
            rep = check_hessian_estimate(bundle(prob.u_exact), 4.0, C_budget=5.0)
            assert rep.passed
            assert rep.details["regime"] == expected
            assert rep.fitted["hess_origin"] == pytest.approx(a, abs=1e-10)

    @pytest.mark.parametrize("R", [2.0, 4.0, 8.0])
    def test_rescaling_invariance(self, R):
        base = quadratic_family(1.0)
        gR = build_grid(R, 129)
        rep_u = check_hessian_estimate(bundle(manufacture(base, gR).u_exact), R)
        g4 = build_grid(4.0, 129)
        v = rescale_analytic(base, R / 4.0)
        rep_v = check_hessian_estimate(bundle(manufacture(v, g4).u_exact), 4.0)
        assert rep_u.fitted["C_star"] == pytest.approx(rep_v.fitted["C_star"], abs=1e-3)

    def test_rescaling_invariance_perturbed(self):
        # non-quadratic instance: the rescaled pair still fits the same C*
        base = perturbed_family(0.1)
        g2 = build_grid(2.0, 129)
        rep_u = check_hessian_estimate(bundle(manufacture(base, g2).u_exact), 2.0)
        g4 = build_grid(4.0, 129)
        v = rescale_analytic(base, 0.5)
        rep_v = check_hessian_estimate(bundle(manufacture(v, g4).u_exact), 4.0)
        assert rep_u.fitted["C_star"] == pytest.approx(rep_v.fitted["C_star"], abs=1e-3)

    def test_negative_phase_canonicalized(self):
        g = build_grid(4.0, 129)
        rep_pos = check_hessian_estimate(bundle(manufacture(quadratic_family(1.0), g).u_exact), 4.0)
        rep_neg = check_hessian_estimate(
            bundle(manufacture(negate_analytic(quadratic_family(1.0)), g).u_exact), 4.0
        )
        assert rep_neg.details["canonicalized"]
        assert rep_neg.fitted["C_star"] == pytest.approx(rep_pos.fitted["C_star"], abs=1e-12)

    def test_budget_gate(self):
        g = build_grid(4.0, 65)
        prob = manufacture(quadratic_family(1.0), g)
        rep = check_hessian_estimate(bundle(prob.u_exact), 4.0, C_budget=0.1)
        assert not rep.passed

    @pytest.mark.parametrize("budget, passed", [(5.0, True), (-1.0, False)])
    def test_degenerate_origin_keeps_the_margin_rule(self, budget, passed):
        # the differenced Hessian of x1^3 - x2^3 is exactly 0 at the origin
        u = sample(lambda x1, x2: x1**3 - x2**3, build_grid(4.0, 65))
        rep = check_hessian_estimate(bundle(u), 4.0, C_budget=budget)
        assert rep.details["regime"] == "degenerate"
        assert rep.fitted["hess_origin"] == 0.0
        assert (rep.fitted["C_star"], rep.margin, rep.passed) == (0.0, budget, passed)
        assert rep.passed == (rep.margin >= -rep.slack)

    def test_mixed_regime_rejected(self):
        # phase range straddling 3pi/4: classification must refuse
        u = sample(_straddling_potential, build_grid(4.0, 65))
        assert classify_phase(bundle(u).phase, 0.3) == "straddle"
        with pytest.raises(PreconditionError, match="straddles"):
            check_hessian_estimate(bundle(u), 4.0)

    def test_subcritical_rejected(self):
        g = build_grid(4.0, 65)
        u = manufacture(quadratic_family(0.1), g).u_exact
        with pytest.raises(PreconditionError, match="supercritical"):
            check_hessian_estimate(bundle(u), 4.0)

    def test_subcritical_message_on_a_negative_phase(self):
        # the minimum it names is the negated bundle's, from the one
        # (min, max) pass over this bundle's phase on B_R
        u = manufacture(quadratic_family(0.1), build_grid(4.0, 65)).u_exact
        with pytest.raises(PreconditionError) as exc:
            check_hessian_estimate(bundle(ScalarField2(u.grid, -u.values)), 4.0)
        assert str(exc.value) == (
            "estimate needs supercritical phase >= delta=0.3 on B_R (min 0.1993)"
        )

    def test_disk_must_fit(self):
        g = build_grid(2.0, 65)
        prob = manufacture(quadratic_family(1.0), g)
        with pytest.raises(PreconditionError):
            check_hessian_estimate(bundle(prob.u_exact), 4.0)

    def test_needs_bundle_with_gradient(self):
        g = build_grid(4.0, 65)
        u = manufacture(quadratic_family(1.0), g).u_exact
        with pytest.raises(PreconditionError):
            check_hessian_estimate(bundle_from_hessian(g, hessian_fd(u)), 4.0)
