"""Schedules, local mass ratio, distance-moment bounds, rate constants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from knnabc import (distance_moment_bound, get_model, mise_prediction,
                    resolve_schedule, schedule, mise_rate_quantities)
from knnabc.errors import (BoundHypothesisError, InvalidArgumentError,
                           UnsupportedModelError)
from knnabc.estimators import make_kernel
from knnabc.tuning import (TheoreticalQuantities,
                           mise_prediction_exact_moments, resolve_bandwidth,
                           xi0_from_marginal_cdf)

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestSchedule:
    def test_high_dimension_example(self):
        k, h = schedule(5, 1, 10**6)
        assert k == 1000
        assert h == pytest.approx(10 ** -0.6, rel=1e-12)
        assert resolve_schedule(5, 1).regime == "m_gt_4"

    def test_low_dimension_example(self):
        k, _ = schedule(1, 1, 10**6)
        assert k == 2154  # round(1e6 ** (5/9))

    def test_small_table(self):
        sched = resolve_schedule(2, 2)
        assert sched.k_exponent == Fraction(6, 10)
        assert sched.h_exponent == Fraction(-1, 10)
        k, _ = schedule(2, 2, 10)
        assert k == 4  # round(10 ** 0.6)

    def test_regime_dispatch_total_and_m4_shared(self):
        for p in range(1, 7):
            for m in range(1, 13):
                sched = resolve_schedule(m, p)
                assert sched.regime in ("m_le_3", "m_eq_4", "m_gt_4")
                if m <= 4:
                    assert sched.k_exponent == Fraction(p + 4, p + 8)
                    assert sched.h_exponent == Fraction(-1, p + 8)
                else:
                    assert sched.k_exponent == Fraction(p + 4, m + p + 4)
        assert resolve_schedule(4, 3).k_exponent == resolve_schedule(3, 3).k_exponent

    def test_limit_exponents_symbolically(self):
        # k -> inf, k/N -> 0 and k h^p -> inf need
        # 0 < k_exponent < 1 and k_exponent + p * h_exponent > 0
        for p in range(1, 9):
            for m in range(1, 12):
                sched = resolve_schedule(m, p)
                assert Fraction(0) < sched.k_exponent < Fraction(1)
                assert sched.k_exponent + p * sched.h_exponent > 0
                assert sched.h_exponent < 0

    def test_k_clamped_into_valid_range(self):
        k, _ = schedule(1, 1, 2, c_k=1000.0)
        assert k == 1
        k, _ = schedule(1, 1, 100, c_k=1e9)
        assert k == 99

    def test_bad_multipliers(self):
        with pytest.raises(InvalidArgumentError):
            schedule(1, 1, 100, c_k=0.0)

    def test_k_beyond_the_float_range_is_clamped_before_rounding(self):
        # 1e308 * 100^(5/9) is +inf, which round_half_up cannot convert
        assert schedule(1, 1, 100, c_k=1e308)[0] == 99

    @pytest.mark.parametrize("multipliers", [{"c_k": math.inf}, {"c_h": math.inf},
                                             {"c_k": math.nan}])
    def test_non_finite_multipliers_rejected(self, multipliers):
        with pytest.raises(InvalidArgumentError, match="must be finite and > 0"):
            schedule(1, 1, 100, **multipliers)


class TestAutoBandwidth:
    def test_spread_times_schedule_power(self):
        thetas = np.array([[0.1], [0.4], [-0.3], [0.9]])
        spread = float(np.std(thetas, ddof=1))
        assert resolve_bandwidth("auto", thetas, 1, 1, 1000) == \
            spread * 1000 ** float(Fraction(-1, 9))
        assert resolve_bandwidth("auto", thetas, 5, 1, 1000) == \
            spread * 1000 ** float(Fraction(-1, 10))

    def test_resolver_takes_a_number_or_auto(self):
        thetas = np.array([[0.1], [0.4], [-0.3], [0.9]])
        assert resolve_bandwidth(0.25, thetas, 1, 1, 1000) == 0.25
        with pytest.raises(InvalidArgumentError, match="positive number or 'auto'"):
            resolve_bandwidth("silverman", thetas, 1, 1, 1000)


class TestXi0:
    def test_deterministic_grid_version(self):
        model = get_model("gaussian_conjugate_1d")
        value = xi0_from_marginal_cdf(model.analytic.marginal_cdf, 1.0, 20.0)
        # infimum sits at delta = L where the ball holds all the mass
        assert value == pytest.approx(1.0 / 20.0, rel=1e-6)


class TestDistanceMomentBound:
    def test_order2_m1_plugin(self):
        bound = distance_moment_bound(1, 9, 999, xi0=1.0, L_diam=1.0, order=2)
        assert bound == pytest.approx(0.0199, abs=1e-12)

    def test_order2_m2_log_form(self):
        bound = distance_moment_bound(2, 9, 999, xi0=1.0, L_diam=1.0, order=2)
        assert bound == pytest.approx(0.01 * (1.0 + math.log(100.0)), rel=1e-12)

    def test_order4_m4_log_form(self):
        bound = distance_moment_bound(4, 9, 999, xi0=1.0, L_diam=1.0, order=4)
        assert bound == pytest.approx(0.01 * (1.0 + math.log(100.0)), rel=1e-12)

    def test_hypothesis_gate(self):
        with pytest.raises(BoundHypothesisError):
            distance_moment_bound(1, 500, 999, xi0=0.1, L_diam=1.0, order=2)

    def test_positive_over_random_admissible_tuples(self):
        gen = np.random.default_rng(51)
        checked = 0
        while checked < 1000:
            m = int(gen.integers(1, 9))
            xi0 = float(gen.uniform(0.1, 10.0))
            L = float(gen.uniform(0.5, 5.0))
            cap = min(1.0, xi0 * L**m)
            n = int(gen.integers(100, 10**6))
            ratio = float(gen.uniform(1e-6, cap))
            k = max(1, int(ratio * (n + 1) - 1))
            if (k + 1) / (n + 1) > xi0 * L**m or k > n - 1:
                continue
            for order in (2, 4):
                assert distance_moment_bound(m, k, n, xi0, L, order) > 0.0
            checked += 1

    @pytest.mark.parametrize("m, order, xi0, L", [
        (5, 2, 0.05, 1e100),    # L^m beyond the float range
        (1, 4, 1e100, 1.0),     # xi0^(order/m) beyond it
        (1, 2, 1e-300, 1e300),  # xi0^(order/m) below it
        (4, 4, 0.05, 1e100),    # the log term's argument beyond it
    ])
    def test_finite_inputs_never_overflow(self, m, order, xi0, L):
        # each of these raised OverflowError or ZeroDivisionError; an
        # intermediate beyond the float range saturates the bound to +inf
        bound = distance_moment_bound(m, 9, 999, xi0, L, order)
        assert bound > 0.0

    def test_bound_past_a_huge_support_matches_its_limit(self):
        # with L^m infinite the tail L^(order-m) (...) vanishes: the lead term is left
        lead = 5 / (0.05 ** 0.4 * 3) * (10 / 1000) ** 0.4
        assert distance_moment_bound(5, 9, 999, 0.05, 1e100, 2) == pytest.approx(lead, rel=1e-12)

    def test_bad_order(self):
        with pytest.raises(InvalidArgumentError):
            distance_moment_bound(1, 9, 999, 1.0, 1.0, order=3)

    @pytest.mark.parametrize("order", [2.5, 4.7, 1.999, True, False, "2", None])
    def test_order_is_not_truncated(self, order):
        # int(2.5) is 2: the order itself is tested, not its truncation
        with pytest.raises(InvalidArgumentError, match="order must be 2 or 4"):
            distance_moment_bound(1, 9, 999, 1.0, 1.0, order=order)

    @pytest.mark.parametrize("order", [2, 4])
    def test_an_integral_float_order_passes(self, order):
        assert distance_moment_bound(1, 9, 999, 1.0, 1.0, order=float(order)) == \
            distance_moment_bound(1, 9, 999, 1.0, 1.0, order=np.int64(order))


class TestRateQuantities:
    """Closed-form oracles for the conjugate model (untruncated forms):

    with c = s0/2 and mu2 the kernel's per-coordinate second moment,
        Phi1 = (3/4) mu2^2 / sqrt(2 pi)
        Phi2 = (3/16 + c^2) / (36 sqrt(2 pi))
        Phi3 = mu2 / (8 sqrt(2 pi))
    derived by Gaussian-moment algebra against weight exp(-2u^2).
    """

    @pytest.mark.parametrize("kind", ["gaussian", "naive"])
    @pytest.mark.parametrize("s0", [0.0, 1.0, -0.7])
    def test_curvature_functionals_match_closed_forms(self, kind, s0):
        model = get_model("gaussian_conjugate_1d")
        kernel = make_kernel(kind, 1)
        tq = mise_rate_quantities(model, [s0], kernel)
        mu2 = 1.0 if kind == "gaussian" else 1.0 / 3.0
        c = s0 / 2.0
        assert tq.Phi1 == pytest.approx(0.75 * mu2**2 / SQRT_2PI, rel=1e-5)
        assert tq.Phi2 == pytest.approx((3.0 / 16.0 + c * c) / (36.0 * SQRT_2PI), rel=1e-5)
        assert tq.Phi3 == pytest.approx(mu2 / (8.0 * SQRT_2PI), rel=1e-5)
        assert tq.Phi1 >= 0.0 and tq.Phi2 >= 0.0  # integrals of squares
        assert np.isfinite([tq.Phi1, tq.Phi2, tq.Phi3]).all()

    def test_xi0_computed_from_marginal(self):
        model = get_model("gaussian_conjugate_1d")
        tq = mise_rate_quantities(model, [1.0], make_kernel("gaussian", 1))
        assert tq.xi0 == pytest.approx(0.05, rel=1e-6)
        assert tq.L_diam == pytest.approx(20.0)

    def test_summary_curvature_matches_finite_differences(self):
        # phi2 check: analytic second s-derivative against central differences
        model = get_model("gaussian_conjugate_1d")
        analytic = model.analytic
        step = 1e-4
        for theta0, s0 in [(0.2, 1.0), (-0.5, 0.4), (1.1, -0.8)]:
            pts = np.array([[theta0]])

            def joint(at):
                return float(np.asarray(analytic.joint_pdf(pts, np.array([at])))[0])

            exact = float(np.asarray(analytic.summary_laplacian(pts, np.array([s0])))[0])
            fd = (joint(s0 + step) - 2.0 * joint(s0) + joint(s0 - step)) / step**2
            assert fd == pytest.approx(exact, rel=1e-5)

    def test_model_without_analytic_joint(self):
        with pytest.raises(UnsupportedModelError):
            mise_rate_quantities(get_model("uniform_box_1d"), [0.5],
                                    make_kernel("gaussian", 1))

    def test_model_without_marginal_cdf(self):
        # gauss_5d has analytic derivatives but no marginal CDF to take xi0 from
        with pytest.raises(UnsupportedModelError, match="no closed-form marginal CDF"):
            mise_rate_quantities(get_model("gauss_5d"), [1.0, 0.0, 0.0, 0.0, 0.0],
                                 make_kernel("gaussian", 1))


class TestMisePrediction:
    def _tq(self, **overrides):
        base = dict(xi0=1.0, L_diam=1.0, Phi1=0.3, Phi2=0.005, Phi3=0.05,
                    kernel_sq_integral=0.2821, m=1, p=1)
        base.update(overrides)
        return TheoreticalQuantities(**base)

    def test_variance_only(self):
        tq = self._tq(Phi1=0.0, Phi2=0.0, Phi3=0.0)
        k, h = 100, 0.2
        assert mise_prediction(tq, 10**5, k, h) == pytest.approx(
            0.2821 / (k * h), rel=1e-12)

    def test_h_bias_terms_vanish_as_h_shrinks(self):
        tq = self._tq()
        k, n = 100, 10**5
        d4 = distance_moment_bound(1, k, n, 1.0, 1.0, order=4)
        h = 1e-6
        expected = tq.Phi2 * d4 + tq.kernel_sq_integral / (k * h)
        assert mise_prediction(tq, n, k, h) == pytest.approx(expected, rel=1e-9)

    def test_regime_dispatch_uses_log_forms(self):
        # m=2 pairs the plain 4th-moment term with the log 2nd-moment term
        tq = self._tq(m=2)
        k, n, h = 50, 10**4, 0.3
        d2_log = distance_moment_bound(2, k, n, 1.0, 1.0, order=2)
        d4_plain = distance_moment_bound(2, k, n, 1.0, 1.0, order=4)
        expected = (tq.Phi1 * h**4 + tq.Phi2 * d4_plain
                    + tq.Phi3 * h**2 * d2_log + tq.kernel_sq_integral / (k * h))
        assert mise_prediction(tq, n, k, h) == pytest.approx(expected, rel=1e-12)

    def test_exact_moment_variant(self):
        tq = self._tq()
        value = mise_prediction_exact_moments(tq, 100, 0.2,
                                              d2_moment=1e-4, d4_moment=1e-8)
        expected = (0.3 * 0.2**4 + 0.005 * 1e-8 + 0.05 * 0.04 * 1e-4
                    + 0.2821 / (100 * 0.2))
        assert value == pytest.approx(expected, rel=1e-12)
