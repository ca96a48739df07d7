"""Validation harness at reduced scale (full scale runs in acceptance)."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from knnabc import (bound_check, conditional_law_test, core, generate_table, get_model,
                    mise_estimate, moment_consistency, prop1_calibration, rate_experiment,
                    validate)
from knnabc.core import squared_distances
from knnabc.errors import InvalidArgumentError, KnnAbcError, UnsupportedModelError
from knnabc.estimators import make_kernel
from knnabc.rng import derive_seed
from knnabc.validate import integrated_squared_error


def _no_table(*args, **kwargs):
    raise AssertionError("simulated a table before checking the request")


class TestMiseEstimate:
    def test_oracle_against_itself_is_zero(self):
        model = get_model("gaussian_conjugate_1d")
        grid = np.linspace(-3, 4, 4001)
        oracle_vals = model.oracle.pdf(grid[:, None], np.array([1.0]))
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
        oracle_sq, _ = quad(lambda t: model.oracle.pdf(np.array([[t]]),
                                                       np.array([1.0]))[0] ** 2,
                            -4.0, 5.0)
        report = mise_estimate(model, [1.0], 1_000, 50, 1e3,
                               make_kernel("gaussian", 1), 2, seed=62,
                               grid_points=200_001)
        assert report.mise_mean >= 0.9 * oracle_sq

    def test_auto_bandwidth_needs_two_rows(self):
        model = get_model("gaussian_conjugate_1d")
        with pytest.raises(KnnAbcError, match="auto bandwidth needs at least 2 accepted rows"):
            mise_estimate(model, [1.0], 100, 1, "auto", make_kernel("gaussian", 1), 2, seed=3)

    @pytest.mark.parametrize("h", ["bogus", -1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("run", [
        lambda model, h: mise_estimate(model, [1.0], 500, 30, h, make_kernel("gaussian", 1),
                                       2, seed=1),
        lambda model, h: rate_experiment(model, [1.0], [200, 400, 800],
                                         make_kernel("gaussian", 1), 2, seed=1, bandwidth=h),
    ], ids=["mise", "rates"])
    def test_bad_bandwidth_rejected_before_any_table(self, monkeypatch, run, h):
        monkeypatch.setattr(core, "simulate_knn", _no_table)
        with pytest.raises(InvalidArgumentError, match="h must be a positive number or 'auto'"):
            run(get_model("gaussian_conjugate_1d"), h)

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
        from knnabc import abc_knn, generate_table
        from knnabc.estimators import g_hat_many
        from knnabc.rng import derive_seed
        from knnabc.tuning import resolve_schedule, schedule
        model = get_model("gaussian_conjugate_1d")
        kernel = make_kernel("gaussian", 1)
        theta0, s0 = 0.5, np.array([1.0])
        target = model.oracle.pdf(np.array([[theta0]]), s0)[0]
        h_exp = float(resolve_schedule(1, 1).h_exponent)
        means, errs = [], []
        for n in (1_000, 10_000, 100_000):
            k, _ = schedule(1, 1, n)
            sq = []
            for r in range(50):
                table = generate_table(model, n, derive_seed(600, "pw", n, r))
                acc = abc_knn(table, s0, k)
                h = float(np.std(acc.ordered_thetas, ddof=1)) * n**h_exp
                sq.append((g_hat_many(acc, h, kernel, np.array([[theta0]]))[0] - target) ** 2)
            sq = np.array(sq)
            means.append(sq.mean())
            errs.append(sq.std(ddof=1) / math.sqrt(len(sq)))
        inversions = 0
        for i in range(2):
            if not means[i + 1] < means[i]:
                inversions += 1
                assert means[i + 1] - means[i] <= math.hypot(errs[i], errs[i + 1])
        assert inversions <= 1


@pytest.mark.parametrize("run", [
    lambda model, s0: mise_estimate(model, s0, 1000, 50, "auto", make_kernel("gaussian", 1),
                                    2, seed=1),
    lambda model, s0: rate_experiment(model, s0, [200, 400, 800], make_kernel("gaussian", 1),
                                      2, seed=1),
    lambda model, s0: moment_consistency(model, s0, 1000, 50, ["identity"], 2, seed=1),
], ids=["mise", "rates", "moments"])
@pytest.mark.parametrize("model_id, s0", [
    ("gaussian_conjugate_1d", [11.0]), ("gaussian_conjugate_1d", [10.0]),
    ("gauss_5d", [-11.0, 0.0, 0.0, 0.0, 0.0]), ("uniform_ball_1d", [5.0]),
    ("uniform_box_1d", [1.5]),
], ids=["conjugate-11", "conjugate-2b", "gauss_5d--11", "ball-5", "box-1.5"])
def test_an_s0_without_a_posterior_fails_before_any_simulation(monkeypatch, run, model_id,
                                                               s0):
    def no_table(*args, **kwargs):
        raise AssertionError("simulated a table for an s0 the oracle cannot use")

    monkeypatch.setattr(core, "simulate_knn", no_table)
    with pytest.raises(InvalidArgumentError, match="outside the support"):
        run(get_model(model_id), s0)


class TestRateExperiment:
    def test_needs_three_points(self):
        model = get_model("gaussian_conjugate_1d")
        with pytest.raises(InvalidArgumentError):
            rate_experiment(model, [1.0], [100, 1000], make_kernel("gaussian", 1),
                            5, seed=65)

    def test_needs_two_distinct_sizes(self, monkeypatch):
        # one size leaves the log-log fit no slope; found before simulating
        def no_table(*args, **kwargs):
            raise AssertionError("simulated a table for a ladder with no slope")

        monkeypatch.setattr(core, "simulate_knn", no_table)
        with pytest.raises(InvalidArgumentError, match="2 of them distinct"):
            rate_experiment(get_model("gaussian_conjugate_1d"), [1.0], [200, 200, 200],
                            make_kernel("gaussian", 1), 2, seed=65)

    def test_every_size_is_checked_before_any_table(self, monkeypatch):
        # N = 1 has no schedule; the two sizes before it are not simulated
        def no_table(*args, **kwargs):
            raise AssertionError("simulated a table before checking every size")

        monkeypatch.setattr(core, "simulate_knn", no_table)
        with pytest.raises(InvalidArgumentError, match="n_rows must be >= 2"):
            rate_experiment(get_model("gaussian_conjugate_1d"), [1.0], [200, 400, 1],
                            make_kernel("gaussian", 1), 2, seed=65)

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

    @pytest.mark.parametrize("oracle_kind", ["restricted", "unrestricted"])
    @pytest.mark.parametrize("oracle_draws", [0, -3])
    def test_oracle_draws_below_one_rejected(self, oracle_kind, oracle_draws):
        model = get_model("gaussian_conjugate_1d")
        with pytest.raises(InvalidArgumentError, match="oracle_draws must be >= 1"):
            conditional_law_test(model, [1.0], 500, 30, oracle_draws, seed=75,
                                 oracle_kind=oracle_kind)
        with pytest.raises(InvalidArgumentError, match="oracle_draws must be >= 1"):
            prop1_calibration(model, [1.0], 500, 30, runs=3, oracle_draws=oracle_draws,
                              seed=75, oracle_kind=oracle_kind)

    @pytest.mark.parametrize("sizes", [(40, 400), (50, 500), (400, 40), (25, 1), (7, 7)])
    def test_statistic_and_p_value_match_scipy_bit_for_bit(self, sizes):
        from scipy.stats import ks_2samp
        generator = np.random.default_rng(sum(sizes))
        for trial in range(20):
            a = generator.normal(size=sizes[0])
            b = generator.normal(0.3 * (trial % 3), size=sizes[1])
            if trial % 2:  # rounded samples tie within and across the two
                a, b = np.round(a, 1), np.round(b, 1)
            expected = ks_2samp(a, b, method="asymp")
            statistic = validate._ks_statistic(a, b)
            assert np.float64(statistic).tobytes() == np.float64(expected.statistic).tobytes()
            p_value = validate._ks_pvalues(np.array([statistic, 0.5, statistic]), *sizes)
            assert p_value[0].tobytes() == np.float64(expected.pvalue).tobytes()
            assert p_value[2] == p_value[0]

    def test_calibration_p_values_are_the_single_tests(self):
        model = get_model("gaussian_conjugate_1d")
        calib = prop1_calibration(model, [1.0], 1000, 40, runs=6, oracle_draws=300, seed=76,
                                  max_workers=2)
        singles = [conditional_law_test(model, [1.0], 1000, 40, 300,
                                        derive_seed(76, "prop1-run", r))[1] for r in range(6)]
        assert calib["p_values"].tobytes() == np.array(singles).tobytes()

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

    @pytest.mark.parametrize("order, xi0, L, message", [
        (3, 1.0, 1.0, "order must be 2 or 4"),
        (2, -1.0, 1.0, "xi0 and L_diam must be > 0"),
        (4, 1.0, 0.0, "xi0 and L_diam must be > 0"),
    ], ids=["order", "xi0", "L"])
    def test_bad_arguments_raise_without_a_pair(self, monkeypatch, order, xi0, L, message):
        # the arguments are checked once, not only inside each pair's bound
        monkeypatch.setattr(core, "kth_distances", _no_table)
        with pytest.raises(InvalidArgumentError, match=message):
            bound_check(get_model("uniform_box_1d"), [0.5], [], xi0=xi0, L_diam=L,
                        order=order, replicates=3, seed=1)


_BOUND_MODELS = [
    # (model, s0, xi0, L): every pair below meets the bound hypothesis
    ("uniform_box_1d", [0.5], 1.0, 1.0),
    ("uniform_ball_1d", [0.45], 0.05, 20.0),
    ("gaussian_conjugate_1d", [1.0], 0.05, 20.0),
    ("gauss_5d", [1.0, 0.2, -0.1, 0.0, 0.3], 0.05, 20.0),   # the m > 1 einsum path
    ("gaussian_mean_demo", [0.4], 0.05, 20.0),
]


def _bound_reference(model, s0, n_rows, k, order, replicates, seed, j):
    """bound_check's moment for pair j, one whole table per replicate."""
    moments = []
    for r in range(replicates):
        table = generate_table(model, n_rows, derive_seed(seed, "bound", j, r))
        d2 = squared_distances(table.summaries, s0)
        moments.append(float(np.partition(d2, k)[k]) ** (order / 2))
    return float(np.array(moments).mean())


class TestBoundCheckBlocks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model_id, s0, xi0, L", _BOUND_MODELS)
    def test_matches_per_replicate_tables(self, model_id, s0, xi0, L, workers):
        # 999 and 301 do not divide the block size, and 43 replicates are a
        # whole number of neither's blocks (8 and 27 tables)
        model = get_model(model_id)
        pairs, replicates, seed = [(999, 9), (301, 4)], 43, 84
        for order in (2, 4):
            got = bound_check(model, s0, pairs, xi0, L, order, replicates, seed,
                              max_workers=workers)
            for j, (entry, (n_rows, k)) in enumerate(zip(got, pairs)):
                assert entry["tested"]
                assert entry["empirical_moment"] == _bound_reference(
                    model, s0, n_rows, k, order, replicates, seed, j)

    @pytest.mark.parametrize("model_id", ["gauss_5d", "gaussian_mean_demo"])
    def test_tables_longer_than_a_chunk(self, model_id, monkeypatch):
        # a 64-row chunk makes a 300-row table take the chunked path
        monkeypatch.setattr(core, "_CHUNK_ROWS", 64)
        model = get_model(model_id)
        s0 = np.linspace(0.5, -0.5, model.m)
        seeds = np.array([3, 2**40 + 1, 0], dtype=np.uint64)
        scratch = core._Scratch(model, len(seeds) * min(300, core._CHUNK_ROWS), words=True)
        got = core.block_distances(model, core.table_keys(model, seeds), 300, s0, scratch)
        expected = [squared_distances(generate_table(model, 300, int(s)).summaries, s0)
                    for s in seeds]
        assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("model_id", ["gaussian_conjugate_1d", "gauss_5d"])
    def test_every_row_kept_without_a_bound(self, model_id):
        # with no tau nothing is dropped, so a NaN s0 gives NaN rows, not a short block
        model = get_model(model_id)
        s0 = np.full(model.m, np.nan)
        keys = core.table_keys(model, np.array([5, 6], dtype=np.uint64))
        scratch = core._Scratch(model, 2 * 40, words=True)
        got = core.block_distances(model, keys, 40, s0, scratch)
        assert got.shape == (2, 40) and np.isnan(got).all()

    @pytest.mark.parametrize("n_rows, k", [(999, 9), (9999, 99)])
    def test_memory_does_not_grow_with_replicates(self, n_rows, k):
        # each block's distances are freed once its d_(k+1) values are read
        def peak(replicates):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bound_check(get_model("uniform_box_1d"), [0.5], [(n_rows, k)], xi0=1.0,
                            L_diam=1.0, order=2, replicates=replicates, seed=85)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(400) - peak(40) < 1 << 20

    @pytest.mark.parametrize("replicates", [0, -2])
    def test_replicates_must_be_positive(self, replicates):
        with pytest.raises(InvalidArgumentError, match="replicates"):
            bound_check(get_model("uniform_box_1d"), [0.5], [(999, 9)], xi0=1.0,
                        L_diam=1.0, order=2, replicates=replicates, seed=1)

    def test_k_zero_reads_the_nearest_distance(self):
        model = get_model("uniform_box_1d")
        got = bound_check(model, [0.5], [(999, 0)], xi0=1.0, L_diam=1.0, order=2,
                          replicates=20, seed=1)
        assert got[0]["empirical_moment"] == _bound_reference(model, [0.5], 999, 0, 2, 20, 1, 0)

    # (1, 5) and (100, 200) also fail the bound hypothesis at xi0 = L = 1:
    # the pair is checked first, so they raise instead of reading untested
    @pytest.mark.parametrize("pair", [(0, 0), (1, 0), (10, 10), (10, -1), (1, 5), (100, 200)])
    def test_pair_outside_the_table_raises(self, pair):
        with pytest.raises(InvalidArgumentError, match="0 <= k <= N-1"):
            bound_check(get_model("uniform_box_1d"), [0.5], [pair], xi0=1.0,
                        L_diam=1.0, order=2, replicates=3, seed=1)

    def test_every_pair_is_checked_before_any_table(self, monkeypatch):
        # (1, 0) fits no table; the valid pair before it is not simulated
        def no_table(*args, **kwargs):
            raise AssertionError("simulated a table before checking every pair")

        monkeypatch.setattr(core, "kth_distances", no_table)
        with pytest.raises(InvalidArgumentError, match=r"got \(1, 0\)"):
            bound_check(get_model("uniform_box_1d"), [0.5], [(999, 9), (1, 0)], xi0=1.0,
                        L_diam=1.0, order=2, replicates=3, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_s0_must_be_finite(self, bad):
        with pytest.raises(InvalidArgumentError, match="s0 must not contain NaN or infinite"):
            bound_check(get_model("uniform_box_1d"), [bad], [(999, 9)], xi0=1.0,
                        L_diam=1.0, order=2, replicates=3, seed=1)


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

    @pytest.mark.parametrize("replicates", [0, 1])
    def test_replicates_below_two_rejected(self, replicates):
        model = get_model("gaussian_conjugate_1d")
        with pytest.raises(InvalidArgumentError, match="replicates must be >= 2"):
            moment_consistency(model, [1.0], 500, 30, ["identity"], replicates, seed=95)

    def test_empty_phis_rejected_before_any_table(self, monkeypatch):
        monkeypatch.setattr(core, "simulate_knn", _no_table)
        with pytest.raises(InvalidArgumentError, match="phis must name at least one"):
            moment_consistency(get_model("gaussian_conjugate_1d"), [1.0], 500, 30, [], 5,
                               seed=1)

    def test_unknown_phi_name_rejected(self):
        model = get_model("gaussian_conjugate_1d")
        with pytest.raises(InvalidArgumentError, match="registered: identity, one, square"):
            moment_consistency(model, [1.0], 500, 30, ["bogus"], 5, seed=94)
