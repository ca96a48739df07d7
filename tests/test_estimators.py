"""Kernels and the accepted-set estimator."""

import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from knnabc import (abc_knn, cli, estimators, get_model, generate_table, make_kernel,
                    posterior_functional, unit_ball_volume)
from knnabc.cli import validate_config
from knnabc.core import AcceptedSet
from knnabc.errors import EmptyAcceptedSetError, InvalidArgumentError
from knnabc.estimators import (BLOCK_ENTRIES, EXP_FLOOR, _gaussian_exp, default_grid,
                               estimate_density, g_hat_many, grid_points)


def _accepted(thetas, radius_next=1.0):
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    k = thetas.shape[0]
    return AcceptedSet(ordered_thetas=thetas,
                       ordered_summaries=np.zeros((k, 1)),
                       distances=np.linspace(0.01, 0.5, k),
                       radius_next=radius_next,
                       source_indices=np.arange(k, dtype=np.int64))


def _estimate_at(accepted, h, kernel, theta0):
    """The estimate at the one point theta0."""
    return float(g_hat_many(accepted, h, kernel, np.asarray(theta0, dtype=float)[None, :])[0])


def _kernel_at(kernel, u):
    """K(u): the estimate with one accepted row at the origin and h = 1."""
    return _estimate_at(_accepted(np.zeros((1, kernel.dim))), 1.0, kernel, u)


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_matches_gamma_formula_up_to_30(self):
        for p in range(1, 31):
            expected = math.pi ** (p / 2.0) / math.gamma(1.0 + p / 2.0)
            assert unit_ball_volume(p) == pytest.approx(expected, rel=1e-12)

    def test_odd_dimensions_keep_the_bits_of_the_exact_ratio(self):
        # 4^n n! / (2n)! by int true division, as float(Fraction(...)) rounds it;
        # past p = 1239, pi^((p-1)/2) overflows
        for p in range(1, 1240, 2):
            n = (p + 1) // 2
            ratio = Fraction(4**n * math.factorial(n), math.factorial(2 * n))
            assert unit_ball_volume(p) == math.pi ** ((p - 1) // 2) * float(ratio)

    def test_bad_dimension(self):
        with pytest.raises(InvalidArgumentError):
            unit_ball_volume(0)


class TestKernels:
    def test_naive_values(self):
        naive1 = make_kernel("naive", 1)
        assert _kernel_at(naive1, [0.0]) == pytest.approx(0.5)
        assert _kernel_at(naive1, [1.0]) == pytest.approx(0.5)  # closed ball
        assert _kernel_at(naive1, [1.0001]) == 0.0

    def test_gaussian_normalizer(self):
        gauss2 = make_kernel("gaussian", 2)
        assert _kernel_at(gauss2, [0.0, 0.0]) == pytest.approx(1.0 / (2.0 * math.pi))

    def test_symmetry(self):
        gen = np.random.default_rng(0)
        for kind in ("naive", "gaussian"):
            kernel = make_kernel(kind, 3)
            for _ in range(50):
                u = gen.normal(0, 1, 3)
                assert _kernel_at(kernel, u) == _kernel_at(kernel, -u)
                assert _kernel_at(kernel, u) >= 0.0

    @pytest.mark.parametrize("kind,p", [("naive", 1), ("naive", 2), ("naive", 3),
                                        ("gaussian", 1), ("gaussian", 2), ("gaussian", 3)])
    def test_integrates_to_one_radially(self, kind, p):
        # radial reduction: int K = p * V_p * int_0^inf r^(p-1) K(r) dr
        kernel = make_kernel(kind, p)
        surface = p * unit_ball_volume(p)
        value, _ = quad(lambda r: r ** (p - 1) * _kernel_at(kernel, np.r_[r, np.zeros(p - 1)]),
                        0, 1.0 if kind == "naive" else 40.0, limit=200)
        assert surface * value == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            _kernel_at(make_kernel("naive", 2), [0.0])

    def test_second_moment_and_square_integral(self):
        # per-coordinate second moments and int K^2, against quadrature
        for p in (1, 2):
            naive = make_kernel("naive", p)
            assert naive.second_moment == pytest.approx(1.0 / (p + 2))
            assert make_kernel("gaussian", p).second_moment == 1.0
            assert naive.square_integral == pytest.approx(1.0 / unit_ball_volume(p))
            assert make_kernel("gaussian", p).square_integral == pytest.approx(
                (4.0 * math.pi) ** (-p / 2.0))
        # quadrature check of int K^2 in 1-d
        g1 = make_kernel("gaussian", 1)
        val, _ = quad(lambda x: _kernel_at(g1, [x]) ** 2, -40, 40)
        assert val == pytest.approx(g1.square_integral, rel=1e-9)


class TestGHat:
    def test_single_centered_point(self):
        acc = _accepted([0.7])
        value = _estimate_at(acc, 0.5, make_kernel("naive", 1), [0.7])
        assert value == pytest.approx(1.0)  # 1 / (0.5 * V_1)

    def test_two_point_gaussian(self):
        acc = _accepted([0.0, 1.0])
        value = _estimate_at(acc, 1.0, make_kernel("gaussian", 1), [0.0])
        expected = 0.5 * (math.exp(0.0) + math.exp(-0.5)) / math.sqrt(2 * math.pi)
        assert value == pytest.approx(expected)
        assert value == pytest.approx(0.32046, abs=5e-6)

    def test_naive_grid_integral_is_one(self):
        gen = np.random.default_rng(5)
        acc = _accepted(gen.normal(0, 1, 40))
        h = 0.3
        grid = np.linspace(acc.ordered_thetas.min() - h, acc.ordered_thetas.max() + h,
                           2000)
        vals = g_hat_many(acc, h, make_kernel("naive", 1), grid[:, None])
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-3)

    def test_empty_accepted_set(self):
        empty = AcceptedSet(ordered_thetas=np.zeros((0, 1)),
                            ordered_summaries=np.zeros((0, 1)),
                            distances=np.zeros(0), radius_next=0.1,
                            source_indices=np.zeros(0, dtype=np.int64))
        with pytest.raises(EmptyAcceptedSetError):
            _estimate_at(empty, 0.5, make_kernel("naive", 1), [0.0])

    def test_translation_equivariance(self):
        gen = np.random.default_rng(8)
        thetas = gen.normal(0, 1, 25)
        kernel = make_kernel("gaussian", 1)
        for shift in (-3.0, 0.125, 11.0):
            base = _estimate_at(_accepted(thetas), 0.4, kernel, [0.3])
            moved = _estimate_at(_accepted(thetas + shift), 0.4, kernel, [0.3 + shift])
            assert moved == pytest.approx(base, rel=1e-12)

    def test_bandwidth_kernel_rescaling_identity(self):
        # sum of c^p K(c u) values at bandwidth c*h reproduces the estimate at h
        gen = np.random.default_rng(9)
        thetas = gen.normal(0, 1, 30)
        c, h, theta0 = 2.0, 0.37, 0.2
        for kind in ("naive", "gaussian"):
            kernel = make_kernel(kind, 1)
            direct = _estimate_at(_accepted(thetas), h, kernel, [theta0])
            hp = c * h
            scaled_vals = [c * _kernel_at(kernel, [c * (theta0 - t) / hp]) for t in thetas]
            manual = float(np.mean(scaled_vals)) / hp
            assert manual == pytest.approx(direct, rel=1e-12)


class TestBandwidthNormaliser:
    @pytest.mark.parametrize("p, h", [(1, 1e-320), (1, 1e308), (2, 1e-200), (2, 1e200)])
    def test_unrepresentable_scale_rejected(self, p, h):
        # 1/(k h^p) would be inf, 0, or a bare ZeroDivisionError or
        # OverflowError from h**p
        acc = _accepted(np.zeros((3, p)))
        for kind in ("naive", "gaussian"):
            kernel = make_kernel(kind, p)
            with pytest.raises(InvalidArgumentError, match="normaliser"):
                g_hat_many(acc, h, kernel, np.zeros((1, p)))
            with pytest.raises(InvalidArgumentError, match="normaliser"):
                estimate_density(acc, h, kernel, axes=[np.linspace(-1.0, 1.0, 5)] * p)

    @pytest.mark.parametrize("p, h", [(1, 1e-300), (2, 1e-150), (2, 1e150)])
    def test_extreme_but_representable_scale_kept(self, p, h):
        acc = _accepted(np.zeros((3, p)))
        kernel = make_kernel("naive", p)
        value = g_hat_many(acc, h, kernel, np.zeros((1, p)))[0]
        assert value == 3 * kernel.normalizer * (1.0 / (3 * h**p))


class TestPosteriorFunctional:
    def test_mean(self):
        assert posterior_functional(_accepted([1.0, 2.0, 3.0]),
                                    lambda t: t[:, 0]) == pytest.approx(2.0)

    def test_constant(self):
        assert posterior_functional(_accepted([5.0, -1.0]),
                                    lambda t: 3.25) == pytest.approx(3.25)

    def test_empty(self):
        empty = AcceptedSet(ordered_thetas=np.zeros((0, 1)),
                            ordered_summaries=np.zeros((0, 1)),
                            distances=np.zeros(0), radius_next=0.1,
                            source_indices=np.zeros(0, dtype=np.int64))
        with pytest.raises(EmptyAcceptedSetError):
            posterior_functional(empty, lambda t: t[:, 0])


class TestDensityEstimate:
    def test_values_nonnegative_and_normalized(self):
        gen = np.random.default_rng(21)
        for kind in ("naive", "gaussian"):
            for p in (1, 2):
                thetas = gen.normal(0, 1, size=(60, p))
                acc = AcceptedSet(ordered_thetas=thetas,
                                  ordered_summaries=np.zeros((60, 1)),
                                  distances=np.linspace(0.01, 0.4, 60),
                                  radius_next=0.5,
                                  source_indices=np.arange(60, dtype=np.int64))
                h = float(gen.uniform(0.7, 1.3))
                est = estimate_density(acc, h, make_kernel(kind, p))
                assert np.all(est.values >= 0)
                assert est.integral() == pytest.approx(1.0, abs=1e-3)

    def test_default_grid_cap_in_2d(self):
        gen = np.random.default_rng(22)
        acc = AcceptedSet(ordered_thetas=gen.normal(0, 1, (10, 2)),
                          ordered_summaries=np.zeros((10, 1)),
                          distances=np.linspace(0.01, 0.4, 10), radius_next=0.5,
                          source_indices=np.arange(10, dtype=np.int64))
        axes = default_grid(acc, 0.5)
        assert len(axes) == 2
        assert len(axes[0]) * len(axes[1]) <= 100_000
        # each axis gets the largest r with r^p <= cap, also when cap is a
        # perfect p-th power, where int(cap ** (1/p)) once gave r - 1
        for p, cap, per_axis in ((2, 100_000, 316), (2, 200_000, 447), (3, 125, 5),
                                 (3, 10**6, 100)):
            acc = _accepted(gen.normal(0, 1, (10, p)))
            assert [len(a) for a in default_grid(acc, 0.5, cap=cap)] == [per_axis] * p

    @pytest.mark.parametrize("axis", [np.array([1.0, 0.0, -1.0]), np.array([0.0, np.nan, 1.0]),
                                      np.array([np.nan]), np.array([-np.inf, 0.0, np.inf])],
                             ids=["descending", "nan", "only-nan", "infinite"])
    @pytest.mark.parametrize("kind", ["naive", "gaussian"])
    def test_axes_must_be_ascending(self, kind, axis):
        acc = _accepted(np.zeros((3, 2)))
        with pytest.raises(InvalidArgumentError, match="ascending"):
            estimate_density(acc, 1.0, make_kernel(kind, 2), axes=(np.linspace(-1, 1, 5), axis))
        with pytest.raises(InvalidArgumentError, match="ascending"):
            estimate_density(acc, 1.0, make_kernel(kind, 2), axes=(axis, np.linspace(-1, 1, 5)))

    @pytest.mark.parametrize("kind, k", [("naive", 60), ("gaussian", 110)])
    def test_p2_grid_peak_memory(self, kind, k):
        # a criterion-3-shaped estimate on the 447 x 447 grid holds its
        # values and small per-axis temporaries, not a (G, p) point list
        acc = _accepted(np.random.default_rng(23).normal(0, 1, (k, 2)))
        kernel = make_kernel(kind, 2)
        axes = default_grid(acc, 1.0, cap=200_000)
        assert [len(a) for a in axes] == [447, 447]
        estimate_density(acc, 1.0, kernel, axes=axes)
        tracemalloc.start()
        try:
            values = estimate_density(acc, 1.0, kernel, axes=axes).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * values.nbytes

    def test_csv_export_header(self, tmp_path):
        config = validate_config(json.dumps({
            "schema": "abc-config/1", "model": {"id": "gaussian_conjugate_1d"},
            "N": 200, "seed": 4, "s0": [0.5], "acceptance": {"k": 20}, "bandwidth": 0.5}))
        cli.run(config, "estimate", tmp_path)
        lines = (tmp_path / "density.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"theta_0,g_hat"
        assert len(lines) == 514 and lines[-1] == b""    # header, 512 grid rows, final CRLF
        cells = np.array([[float(v) for v in line.split(b",")] for line in lines[1:-1]])
        acc = abc_knn(generate_table(get_model("gaussian_conjugate_1d"), 200, 4), [0.5], 20)
        est = estimate_density(acc, 0.5, make_kernel("gaussian", 1), axes=default_grid(acc, 0.5))
        assert np.array_equal(cells, np.column_stack([grid_points(est.axes), est.values]))


class TestTensorGridEvaluation:
    """estimate_density evaluates the grid axis by axis; its values must be
    those of the dense g_hat_many on the flattened grid."""

    @staticmethod
    def _assert_matches_dense(acc, h, kind, axes):
        kernel = make_kernel(kind, len(axes))
        est = estimate_density(acc, h, kernel, axes=axes)
        dense = g_hat_many(acc, h, kernel, grid_points(axes))
        assert np.array_equal(est.values > 0, dense > 0)
        nonzero = dense > 0
        rel = np.abs(est.values[nonzero] - dense[nonzero]) / dense[nonzero]
        assert rel.max() <= 1e-12

    @pytest.mark.parametrize("kind", ["naive", "gaussian"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_dense_path(self, kind, p):
        gen = np.random.default_rng(40 + p)
        acc = _accepted(gen.normal(0, 1, size=(80, p)))
        h = 0.45
        axes = default_grid(acc, h, points=301, cap=40_000)
        self._assert_matches_dense(acc, h, kind, axes)

    @pytest.mark.parametrize("h", [0.5, 1.25])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_naive_ball_boundary(self, p, h):
        # centres and grid on one lattice of step 0.25, so that grid points
        # lie at distance exactly h from centres: the closed ball includes
        # them, by the same floating-point test as the dense path
        gen = np.random.default_rng(50 + p)
        centers = gen.integers(-8, 9, size=(30, p)) * 0.25
        axes = tuple(np.arange(-16, 17) * 0.25 for _ in range(p))
        pts = grid_points(axes)
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.any(np.abs(d2 - h * h) <= 1e-12)
        self._assert_matches_dense(_accepted(centers), h, "naive", axes)

    def test_gaussian_support_may_differ_below_1e300_at_p2(self):
        # each axis's factor, e^-350 and e^-360, is above the exp floor, but
        # the dense path floors their product's exponent, -710, to 0
        acc = _accepted(np.zeros((1, 2)))
        axes = (np.array([math.sqrt(700.0)]), np.array([math.sqrt(720.0)]))
        kernel = make_kernel("gaussian", 2)
        grid = estimate_density(acc, 1.0, kernel, axes=axes).values[0]
        dense = g_hat_many(acc, 1.0, kernel, grid_points(axes))[0]
        assert dense == 0.0
        assert grid == pytest.approx(7.1242308e-310, rel=1e-7)


class TestGaussianExpFloor:
    """Gaussian kernel factors below exp(EXP_FLOOR) are exactly 0, which
    keeps numpy's exp off its scalar path; every other factor keeps the
    bits of np.exp."""

    def test_matches_np_exp_above_floor_and_zero_below(self):
        edges = np.array([EXP_FLOOR, -708.4, -745.2, -0.0])
        a = np.concatenate([np.linspace(-800.0, 0.0, 8001), edges,
                            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        got = _gaussian_exp(a.copy())
        keep = a >= EXP_FLOOR
        assert got[keep].tobytes() == np.exp(a[keep]).tobytes()
        assert np.all(got[~keep] == 0.0) and not np.signbit(got).any()
        assert got[a == EXP_FLOOR][0] == math.exp(EXP_FLOOR) > 0.0

    def test_two_clusters_100h_apart(self):
        # grid points between the clusters lie up to 50h from every centre;
        # a centre beyond about 37h adds 0 instead of a factor below
        # exp(EXP_FLOOR), so a value moves by at most K(0) exp(EXP_FLOOR) / h
        h = 0.1
        gen = np.random.default_rng(61)
        acc = _accepted(np.concatenate([gen.uniform(0.0, 2 * h, 40),
                                        gen.uniform(100 * h, 102 * h, 40)]))
        kernel = make_kernel("gaussian", 1)
        axes = default_grid(acc, h, points=2001)

        def both_paths():
            return (estimate_density(acc, h, kernel, axes=axes).values,
                    g_hat_many(acc, h, kernel, grid_points(axes)))

        tensor, dense = both_paths()
        with mock.patch.object(estimators, "_gaussian_exp", np.exp):
            references = both_paths()
        assert np.array_equal(tensor > 0, dense > 0)
        for got, want in zip((tensor, dense), references):
            large = want >= 1e-280
            assert got[large].tobytes() == want[large].tobytes()
            assert (got != want).any()
            assert np.abs(got - want).max() <= kernel.normalizer * math.exp(EXP_FLOOR) / h


def test_g_hat_many_memory_flat_in_k():
    points = np.linspace(-3.0, 3.0, 1024)[:, None]
    kernel = make_kernel("gaussian", 1)
    peaks = []
    for k in (1_000, 10_000):
        acc = _accepted(np.linspace(-2.0, 2.0, k))
        tracemalloc.start()
        try:
            g_hat_many(acc, 0.3, kernel, points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a few (rows, k) temporaries of about BLOCK_ENTRIES entries each
    assert max(peaks) <= 8 * 8 * BLOCK_ENTRIES
    assert peaks[1] <= 1.25 * peaks[0]
