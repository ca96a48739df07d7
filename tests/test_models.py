"""Model zoo: priors, simulators, and exact posterior oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from knnabc import abc_knn, generate_table, get_model, oracle_posterior_pdf
from knnabc.errors import (ConfigurationError, InvalidArgumentError,
                           UnsupportedModelError)
from knnabc.rng import derive_key, row_words, uniform01

BOUND = 5.0
TRUNC_MASS = ndtr(BOUND) - ndtr(-BOUND)


def phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2 * math.pi)


def trunc_prior_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= BOUND, phi(t) / TRUNC_MASS, 0.0)


def trunc_noise_pdf(e):
    return trunc_prior_pdf(e)


def _draw_thetas(model, seed, n):
    return generate_table(model, n, seed).thetas[:, 0]


def _uniforms(seed, tag, n, width):
    """n rows of `width` uniforms from the Philox words tables are built from."""
    words = row_words(derive_key(seed, tag), 0, n, -(-width // 4) * 4)
    return uniform01(words[:, :width])


class TestSamplePrior:
    def test_conjugate_prior_centering(self):
        model = get_model("gaussian_conjugate_1d")
        draws = _draw_thetas(model, 101, 100_000)
        assert abs(draws.mean()) <= 3.0 / math.sqrt(100_000)

    def test_uniform_box_support(self):
        model = get_model("uniform_box_1d")
        draws = _draw_thetas(model, 102, 20_000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_truncated_prior_variance_matches_quadrature(self):
        # independent oracle: the exact variance of the +/-5 truncated prior
        target, _ = quad(lambda t: t * t * trunc_prior_pdf(t), -BOUND, BOUND)
        model = get_model("gauss_5d")
        draws = _draw_thetas(model, 103, 100_000)
        emp_var = draws.var(ddof=1)
        assert 0.97 <= emp_var <= 1.03
        # truncation correction is ~1.5e-5, invisible at this sample size
        assert abs(emp_var - target) <= 3.0 * math.sqrt(2.0 / 100_000)

    def test_single_draw_deterministic(self):
        model = get_model("gaussian_conjugate_1d")
        a = generate_table(model, 2, 7).thetas[0]
        b = generate_table(model, 2, 7).thetas[0]
        assert np.array_equal(a, b)
        assert a.shape == (1,)


class TestSimulateSummary:
    def test_conjugate_noise_centering(self):
        model = get_model("gaussian_conjugate_1d")
        u = _uniforms(201, "sim", 5000, model.summary_words)
        draws = model.summaries_from_uniforms(np.zeros((5000, 1)), u)[:, 0]
        assert abs(draws.mean()) <= 4.0 / math.sqrt(5000)

    def test_uniform_ball_stays_within_radius(self):
        model = get_model("uniform_ball_1d", radius=0.1)
        table = generate_table(model, 200, 202)
        assert np.all(np.abs(table.summaries - table.thetas) <= 0.1)

    def test_ancillary_coordinates_uncorrelated_with_theta(self):
        model = get_model("gauss_5d")
        table = generate_table(model, 100_000, 203)
        theta = table.thetas[:, 0]
        for j in range(1, 5):
            rho = np.corrcoef(theta, table.summaries[:, j])[0, 1]
            assert abs(rho) < 0.01

    def test_dimension_mismatch_rejected(self):
        table = generate_table(get_model("gauss_5d"), 10, 1)
        with pytest.raises(InvalidArgumentError):
            abc_knn(table, [0.0, 0.0], 3)


class TestPosteriorOracle:
    def test_conjugate_pdf_against_numeric_bayes(self):
        # independent oracle: normalize f(s0|theta) pi(theta) by quadrature
        model = get_model("gaussian_conjugate_1d")
        s0 = 1.0
        norm, _ = quad(lambda t: trunc_noise_pdf(s0 - t) * trunc_prior_pdf(t),
                       -BOUND, BOUND)

        def numeric_pdf(t0):
            return trunc_noise_pdf(s0 - t0) * trunc_prior_pdf(t0) / norm

        assert oracle_posterior_pdf(model, 0.5, [s0]) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-6)
        for t0 in (-0.5, 0.0, 0.5, 1.2):
            assert oracle_posterior_pdf(model, t0, [s0]) == pytest.approx(
                numeric_pdf(t0), rel=1e-9, abs=1e-12)

    def test_posterior_mean_symmetry_at_zero(self):
        model = get_model("gaussian_conjugate_1d")
        assert model.oracle.mean([0.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_ancillary_coordinates_do_not_move_posterior(self):
        conj = get_model("gaussian_conjugate_1d")
        five = get_model("gauss_5d")
        s0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        for t0 in (-1.0, 0.25, 0.5, 2.0):
            assert oracle_posterior_pdf(five, t0, s0) == pytest.approx(
                oracle_posterior_pdf(conj, t0, [1.0]), rel=1e-12)
        # cross-check by quadrature of the 5-d joint over theta
        tail = float(np.prod(phi(s0[1:]) / TRUNC_MASS))
        norm, _ = quad(lambda t: trunc_noise_pdf(1.0 - t) * trunc_prior_pdf(t) * tail,
                       -BOUND, BOUND)
        val = trunc_noise_pdf(1.0 - 0.5) * trunc_prior_pdf(0.5) * tail / norm
        assert oracle_posterior_pdf(five, 0.5, s0) == pytest.approx(val, rel=1e-9)

    def test_several_points_raise(self):
        model = get_model("gaussian_conjugate_1d")
        single = oracle_posterior_pdf(model, 0.0, [1.0])
        assert oracle_posterior_pdf(model, [0.0], [1.0]) == single
        assert oracle_posterior_pdf(model, [[0.0]], [1.0]) == single
        with pytest.raises(InvalidArgumentError, match="one point"):
            oracle_posterior_pdf(model, [0.0, 3.0], [1.0])

    def test_missing_oracle_raises(self):
        demo = get_model("gaussian_mean_demo")
        with pytest.raises(UnsupportedModelError):
            oracle_posterior_pdf(demo, 0.0, [0.0])


class TestModelInvariants:
    @pytest.mark.parametrize("model_id", ["gaussian_conjugate_1d", "uniform_box_1d",
                                          "gauss_5d", "uniform_ball_1d"])
    def test_oracle_pdf_integrates_to_one(self, model_id):
        model = get_model(model_id)
        gen = np.random.default_rng(42)
        for _ in range(10):
            if model_id == "uniform_box_1d":
                s0 = np.array([gen.uniform(0.05, 0.95)])
            elif model_id == "uniform_ball_1d":
                s0 = np.array([gen.uniform(0.0, 1.0)])
            elif model_id == "gauss_5d":
                s0 = np.concatenate([gen.normal(0, 1, 1), gen.normal(0, 1, 4)])
            else:
                s0 = gen.normal(0, 1.2, 1)
            # hint the quadrature at the (possibly narrow) support window
            hint = sorted({-7.0, 8.0, float(s0[0]) - 0.11, float(s0[0]) + 0.11, 0.0, 1.0})
            total, err = quad(lambda t: float(model.oracle.pdf(np.array([[t]]), s0)),
                              -7.0, 8.0, limit=400, points=[v for v in hint if -7 < v < 8])
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_prior_density_integrates_to_one(self):
        total, _ = quad(trunc_prior_pdf, -BOUND, BOUND)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bayes_identity_for_conjugate_model(self):
        # oracle(theta0|s0) * fbar(s0) must equal f(s0|theta0) * pi(theta0),
        # with fbar computed by quadrature of the truncated model
        model = get_model("gaussian_conjugate_1d")
        for theta0, s0 in [(0.5, 1.0), (-0.3, 0.2), (1.5, -1.0)]:
            fbar, _ = quad(lambda t: trunc_noise_pdf(s0 - t) * trunc_prior_pdf(t),
                           -BOUND, BOUND, epsabs=1e-13, epsrel=1e-12)
            lhs = oracle_posterior_pdf(model, theta0, [s0]) * fbar
            rhs = trunc_noise_pdf(s0 - theta0) * trunc_prior_pdf(theta0)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_bayes_identity_for_uniform_box(self):
        model = get_model("uniform_box_1d")
        # summary independent of theta: fbar = 1 on [0,1], posterior = prior
        for theta0, s0 in [(0.3, 0.6), (0.9, 0.1)]:
            lhs = oracle_posterior_pdf(model, theta0, [s0]) * 1.0
            assert lhs == pytest.approx(1.0, abs=1e-12)

    def test_bayes_identity_for_five_summary_model(self):
        model = get_model("gauss_5d")
        s0 = np.array([0.8, 0.2, -0.4, 1.1, 0.0])
        tail = float(np.prod(phi(s0[1:]) / TRUNC_MASS))
        for theta0 in (-0.2, 0.4, 1.0):
            fbar, _ = quad(lambda t: trunc_noise_pdf(s0[0] - t) * trunc_prior_pdf(t)
                           * tail, -BOUND, BOUND, epsabs=1e-14, epsrel=1e-12)
            lhs = oracle_posterior_pdf(model, theta0, s0) * fbar
            rhs = trunc_noise_pdf(s0[0] - theta0) * trunc_prior_pdf(theta0) * tail
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_bayes_identity_for_uniform_ball(self):
        model = get_model("uniform_ball_1d", radius=0.1)
        for theta0, s0 in [(0.5, 0.55), (0.02, 0.05), (0.93, 0.99)]:
            fbar = (min(1.0, s0 + 0.1) - max(0.0, s0 - 0.1)) / 0.2
            rhs = (1.0 / 0.2 if abs(s0 - theta0) <= 0.1 else 0.0) * 1.0
            lhs = oracle_posterior_pdf(model, theta0, [s0]) * fbar
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_compact_support_diameter(self):
        for model_id in ("gaussian_conjugate_1d", "uniform_box_1d",
                         "uniform_ball_1d", "gauss_5d"):
            model = get_model(model_id)
            table = generate_table(model, 50_000, 77)
            spread = table.summaries.max(axis=0) - table.summaries.min(axis=0)
            assert float(np.linalg.norm(spread)) <= model.support_diameter + 1e-12

    def test_seed_determinism_bitwise(self):
        model = get_model("gauss_5d")
        theta = np.full((1, 1), 0.3)
        a = model.summaries_from_uniforms(theta, _uniforms(9, "det", 1, model.summary_words))
        b = model.summaries_from_uniforms(theta, _uniforms(9, "det", 1, model.summary_words))
        assert a.shape == (1, 5)
        assert a.tobytes() == b.tobytes()


class TestRegistry:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            get_model("no_such_model")

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            get_model("gaussian_conjugate_1d", wrong_param=1)

    def test_demo_summary_map(self):
        demo = get_model("gaussian_mean_demo", n_obs=4)
        assert demo.summary_map([1.0, 2.0, 3.0, 4.0])[0] == pytest.approx(2.5)
        with pytest.raises(InvalidArgumentError):
            demo.summary_map([1.0, 2.0])
