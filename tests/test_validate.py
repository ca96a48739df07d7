"""Validation harness at reduced scale (full scale runs in acceptance)."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from knnabc import (bound_check, conditional_law_test, get_model, mise_estimate,
                    moment_consistency, prop1_calibration, rate_experiment)
from knnabc.errors import InvalidArgumentError, KnnAbcError, UnsupportedModelError
from knnabc.estimators import make_kernel
from knnabc.validate import integrated_squared_error


class TestMiseEstimate:
    def test_oracle_against_itself_is_zero(self):
        model = get_model("gaussian_conjugate_1d")
        grid = np.linspace(-3, 4, 4001)
        oracle_vals = np.asarray(model.oracle.pdf(grid[:, None], np.array([1.0])))
        assert integrated_squared_error(oracle_vals, oracle_vals, (grid,)) == 0.0

    def test_mise_decreases_with_table_size(self):
        model = get_model("gaussian_conjugate_1d")
        kernel = make_kernel("gaussian", 1)
        from knnabc.tuning import schedule
        small_k, _ = schedule(1, 1, 1_000)
        big_k, _ = schedule(1, 1, 10_000)
        small = mise_estimate(model, [1.0], 1_000, small_k, "auto", kernel, 10, seed=61)
        big = mise_estimate(model, [1.0], 10_000, big_k, "auto", kernel, 10, seed=61)
        assert big.mise_mean < small.mise_mean
        assert small.mise_stderr > 0.0

    def test_oversmoothing_floor(self):
        # a flat estimate leaves essentially the oracle's own mass:
        # mise >= (1 - eps) * int g^2
        model = get_model("gaussian_conjugate_1d")
        oracle_sq, _ = quad(lambda t: float(model.oracle.pdf(np.array([[t]]),
                                                             np.array([1.0]))) ** 2,
                            -4.0, 5.0)
        report = mise_estimate(model, [1.0], 1_000, 50, 1e3,
                               make_kernel("gaussian", 1), 2, seed=62,
                               grid_points=200_001)
        assert report.mise_mean >= 0.9 * oracle_sq

    def test_auto_bandwidth_needs_two_rows(self):
        model = get_model("gaussian_conjugate_1d")
        with pytest.raises(KnnAbcError, match="auto bandwidth needs at least 2 accepted rows"):
            mise_estimate(model, [1.0], 100, 1, "auto", make_kernel("gaussian", 1), 2, seed=3)

    def test_requires_oracle(self):
        with pytest.raises(UnsupportedModelError):
            mise_estimate(get_model("gaussian_mean_demo"), [0.0], 100, 5, 0.3,
                          make_kernel("gaussian", 1), 2, seed=63)

    def test_report_is_reproducible(self):
        model = get_model("gaussian_conjugate_1d")
        kernel = make_kernel("naive", 1)
        a = mise_estimate(model, [1.0], 500, 30, 0.3, kernel, 5, seed=64)
        b = mise_estimate(model, [1.0], 500, 30, 0.3, kernel, 5, seed=64)
        assert a.per_replicate.tobytes() == b.per_replicate.tobytes()
        assert a.mise_mean == b.mise_mean
        c = mise_estimate(model, [1.0], 500, 30, 0.3, kernel, 5, seed=64,
                          max_workers=4)
        assert c.per_replicate.tobytes() == a.per_replicate.tobytes()


class TestPointwiseConsistency:
    def test_pointwise_error_decreases_with_table_size(self):
        # squared error of the estimate at a fixed theta0, averaged over
        # replicate seeds, falls along the N ladder (one inversion within
        # one MC standard error tolerated)
        from knnabc import abc_knn, g_hat, generate_table
        from knnabc.rng import derive_seed
        from knnabc.tuning import resolve_schedule, schedule
        model = get_model("gaussian_conjugate_1d")
        kernel = make_kernel("gaussian", 1)
        theta0, s0 = 0.5, np.array([1.0])
        target = float(model.oracle.pdf(np.array([[theta0]]), s0))
        h_exp = float(resolve_schedule(1, 1).h_exponent)
        means, errs = [], []
        for n in (1_000, 10_000, 100_000):
            k, _ = schedule(1, 1, n)
            sq = []
            for r in range(50):
                table = generate_table(model, n, derive_seed(600, "pw", n, r))
                acc = abc_knn(table, s0, k)
                h = float(np.std(acc.ordered_thetas, ddof=1)) * n**h_exp
                sq.append((g_hat(acc, h, kernel, [theta0]) - target) ** 2)
            sq = np.array(sq)
            means.append(sq.mean())
            errs.append(sq.std(ddof=1) / math.sqrt(len(sq)))
        inversions = 0
        for i in range(2):
            if not means[i + 1] < means[i]:
                inversions += 1
                assert means[i + 1] - means[i] <= math.hypot(errs[i], errs[i + 1])
        assert inversions <= 1


class TestRateExperiment:
    def test_needs_three_points(self):
        model = get_model("gaussian_conjugate_1d")
        with pytest.raises(InvalidArgumentError):
            rate_experiment(model, [1.0], [100, 1000], make_kernel("gaussian", 1),
                            5, seed=65)

    def test_reports_theoretical_slopes(self):
        model = get_model("gaussian_conjugate_1d")
        report = rate_experiment(model, [1.0], [300, 1000, 3000],
                                 make_kernel("gaussian", 1), 5, seed=66)
        assert report.theoretical_slope == pytest.approx(-4.0 / 9.0)
        assert not report.log_factor_flag
        assert report.fitted_slope < 0.0
        five = get_model("gauss_5d")
        r5 = rate_experiment(five, [1.0, 0.0, 0.0, 0.0, 0.0], [300, 1000, 3000],
                             make_kernel("gaussian", 1), 4, seed=67)
        assert r5.theoretical_slope == pytest.approx(-0.4)


class TestConditionalLaw:
    def test_small_k_rejected(self):
        model = get_model("gaussian_conjugate_1d")
        with pytest.raises(InvalidArgumentError):
            conditional_law_test(model, [1.0], 500, 5, 100, seed=71)

    def test_p_value_in_unit_interval(self):
        model = get_model("gaussian_conjugate_1d")
        stat, pval = conditional_law_test(model, [1.0], 1000, 40, 400, seed=72)
        assert 0.0 <= stat <= 1.0
        assert 0.0 <= pval <= 1.0

    def test_mini_calibration_and_negative_control(self):
        model = get_model("gaussian_conjugate_1d")
        calib = prop1_calibration(model, [1.0], 1000, 40, runs=40,
                                  oracle_draws=400, seed=73)
        assert calib["rejection_fraction"] <= 0.2
        null = prop1_calibration(model, [1.0], 1000, 40, runs=40,
                                 oracle_draws=400, seed=73,
                                 oracle_kind="unrestricted")
        assert null["rejection_fraction"] >= 0.5

    def test_requires_univariate_parameter(self):
        # restriction is on p, not m: the 5-summary model still has p = 1
        model = get_model("gauss_5d")
        stat, pval = conditional_law_test(model, [1.0, 0, 0, 0, 0], 800, 25, 100,
                                          seed=74)
        assert 0.0 <= pval <= 1.0


class TestBoundCheck:
    def test_uniform_box_small_case(self):
        model = get_model("uniform_box_1d")
        results = bound_check(model, [0.5], [(999, 9)], xi0=1.0, L_diam=1.0,
                              order=2, replicates=300, seed=81)
        entry = results[0]
        assert entry["tested"] and entry["holds"]
        # E[d^2_(k+1)] ~ E[B^2]/4 with B ~ Beta(k+1, N-k)
        expected = (10 * 11) / (1000 * 1001) / 4.0
        assert entry["empirical_moment"] == pytest.approx(expected, rel=0.25)
        assert entry["bound"] == pytest.approx(0.0199, abs=1e-12)

    def test_hypothesis_violating_pair_is_flagged(self):
        model = get_model("uniform_box_1d")
        results = bound_check(model, [0.5], [(99, 98)], xi0=0.5, L_diam=1.0,
                              order=2, replicates=10, seed=82)
        assert results[0]["tested"] is False
        assert results[0]["holds"] is None

    def test_invalid_order_raises(self):
        # only a failed bound hypothesis skips a pair; a bad argument is an error
        model = get_model("uniform_box_1d")
        with pytest.raises(InvalidArgumentError, match="order must be 2 or 4"):
            bound_check(model, [0.5], [(999, 9)], xi0=1.0, L_diam=1.0,
                        order=3, replicates=5, seed=1)


class TestMomentConsistency:
    def test_constant_functional_is_exact(self):
        model = get_model("gaussian_conjugate_1d")
        out = moment_consistency(model, [1.0], 500, 30, ["one"], 10, seed=91)
        assert out[0]["estimate_mean"] == 1.0
        assert out[0]["z_score"] == 0.0

    def test_identity_and_square_close_to_oracle(self):
        model = get_model("gaussian_conjugate_1d")
        out = moment_consistency(model, [1.0], 10_000, 129, ["identity", "square"],
                                 20, seed=92)
        by_name = {row["phi"]: row for row in out}
        # truncation of the conjugate model shifts the exact moments by ~4e-9
        assert by_name["identity"]["oracle_value"] == pytest.approx(0.5, abs=1e-6)
        assert by_name["square"]["oracle_value"] == pytest.approx(0.75, abs=1e-6)
        assert abs(by_name["identity"]["z_score"]) <= 4.0
        assert abs(by_name["square"]["z_score"]) <= 4.0

    def test_custom_phi_triple(self):
        model = get_model("gaussian_conjugate_1d")
        out = moment_consistency(
            model, [1.0], 2_000, 60,
            [("abs", lambda t: np.abs(t[:, 0]), 0.6)], 5, seed=93)
        assert out[0]["phi"] == "abs"
        assert math.isfinite(out[0]["z_score"])
