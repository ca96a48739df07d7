"""Reference table, acceptance rules, restricted sampler, persistence."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from knnabc import (abc_knn, abc_tolerance, cli, generate_table, get_model,
                    percentile_to_k, sample_restricted)
from knnabc.cli import validate_config
from knnabc.core import (_CHUNK_ROWS, ReferenceTable, squared_distances, table_from_bytes,
                         table_to_bytes)
from knnabc.errors import InfeasibleRadiusError, InvalidArgumentError


def _table_from_distances(distances, s0=0.0):
    """A 1-d table whose rows sit at the given distances from s0."""
    d = np.asarray(distances, dtype=float)
    return ReferenceTable(thetas=np.arange(len(d), dtype=float)[:, None],
                          summaries=(s0 + d)[:, None], seed=0, model_id="synthetic")


def _sort_oracle(summaries, s0, k):
    """Stable full-sort reference: k smallest by (squared distance, index)."""
    d2 = np.sum((summaries - np.asarray(s0, dtype=float)) ** 2, axis=1)
    order = np.lexsort((np.arange(len(d2)), d2))
    return order[:k], d2


def _overhead_bytes(fn, *args):
    """Peak traced allocation during fn(*args) beyond the arrays it returns
    (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = out.thetas.nbytes + out.summaries.nbytes if isinstance(out, ReferenceTable) else out.nbytes
    return peak - base - kept


# whatever the table size, the work beyond the result is one chunk's; a few
# bytes per chunk of bookkeeping may grow, a second copy of the table may not
_OVERHEAD_GROWTH_BYTES = 1 << 16


class TestGenerateTable:
    def test_bit_identical_across_worker_counts(self):
        model = get_model("gaussian_conjugate_1d")
        one = generate_table(model, 10, 42, max_workers=1)
        eight = generate_table(model, 10, 42, max_workers=8)
        assert one.thetas.tobytes() == eight.thetas.tobytes()
        assert one.summaries.tobytes() == eight.summaries.tobytes()
        # larger than one chunk as well
        big1 = generate_table(model, 70_000, 42, max_workers=1)
        big8 = generate_table(model, 70_000, 42, max_workers=8)
        assert big1.summaries.tobytes() == big8.summaries.tobytes()

    def test_multi_chunk_gauss_5d_identical_at_two_workers(self):
        model = get_model("gauss_5d")
        n = 3 * _CHUNK_ROWS + 17
        one = generate_table(model, n, 9, max_workers=1)
        two = generate_table(model, n, 9, max_workers=2)
        assert one.thetas.tobytes() == two.thetas.tobytes()
        assert one.summaries.tobytes() == two.summaries.tobytes()

    def test_memory_beyond_table_does_not_grow_with_rows(self):
        model = get_model("gauss_5d")
        small = _overhead_bytes(generate_table, model, 4 * _CHUNK_ROWS, 3)
        large = _overhead_bytes(generate_table, model, 16 * _CHUNK_ROWS, 3)
        assert large - small <= _OVERHEAD_GROWTH_BYTES

    def test_single_row_table_rejected(self):
        model = get_model("uniform_box_1d")
        with pytest.raises(InvalidArgumentError):
            generate_table(model, 1, 0)

    def test_uniform_marginal_fraction(self):
        table = generate_table(get_model("uniform_box_1d"), 100_000, 7)
        s = table.summaries[:, 0]
        frac = np.mean((s >= 0.4) & (s <= 0.6))
        assert abs(frac - 0.2) <= 0.004  # binomial 3 sigma

    def test_stream_values_frozen(self):
        # regression pin: these exact draws are part of the reproducibility
        # contract for persisted seeds
        table = generate_table(get_model("gaussian_conjugate_1d"), 3, 42)
        assert table.thetas[:, 0].tolist() == [-1.0244529755567113,
                                               -0.45707694742647564,
                                               1.301113938759935]
        assert table.summaries[0, 0] == -0.9195343161397718
        five = generate_table(get_model("gauss_5d"), 2, 1)
        assert five.summaries[0].tolist() == [-2.0236967491481077,
                                              -1.2469456202126288,
                                              -0.8829210397542169,
                                              1.0388198313320531,
                                              -0.3220547983437429]

    def test_row_content_independent_of_total_rows(self):
        model = get_model("gauss_5d")
        small = generate_table(model, 100, 5)
        large = generate_table(model, 1000, 5)
        assert np.array_equal(small.thetas, large.thetas[:100])
        assert np.array_equal(small.summaries, large.summaries[:100])


class TestSquaredDistances:
    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                   3 * _CHUNK_ROWS + 123])
    def test_blocks_match_one_shot_bit_for_bit(self, m, n):
        summaries = np.random.default_rng(n + m).standard_normal((n, m))
        s0 = np.linspace(-0.3, 0.7, m)
        diff = summaries - s0
        one_shot = diff[:, 0] ** 2 if m == 1 else np.einsum("ij,ij->i", diff, diff)
        assert squared_distances(summaries, s0).tobytes() == one_shot.tobytes()

    def test_memory_beyond_output_does_not_grow_with_rows(self):
        s0 = np.zeros(5)
        rng = np.random.default_rng(4)
        small = rng.standard_normal((4 * _CHUNK_ROWS, 5))
        large = rng.standard_normal((16 * _CHUNK_ROWS, 5))
        growth = (_overhead_bytes(squared_distances, large, s0)
                  - _overhead_bytes(squared_distances, small, s0))
        assert growth <= _OVERHEAD_GROWTH_BYTES


class TestToleranceRule:
    def test_hand_sorted_example(self):
        table = _table_from_distances([0.5, 0.2, 0.9, 0.1, 0.4])
        acc = abc_tolerance(table, [0.0], 0.3)
        assert acc.source_indices.tolist() == [3, 1]
        assert acc.distances.tolist() == [0.1, 0.2]
        assert acc.radius_next == pytest.approx(0.4)

    def test_zero_epsilon_empty(self):
        table = _table_from_distances([0.5, 0.2, 0.9])
        acc = abc_tolerance(table, [0.0], 0.0)
        assert acc.k == 0
        assert acc.radius_next == pytest.approx(0.2)

    def test_infinite_epsilon_accepts_all(self):
        table = _table_from_distances([0.5, 0.2, 0.9])
        acc = abc_tolerance(table, [0.0], np.inf)
        assert acc.k == 3
        assert math.isinf(acc.radius_next)

    def test_boundary_is_closed(self):
        table = _table_from_distances([0.5, 0.25, 0.9])
        acc = abc_tolerance(table, [0.0], 0.25)
        assert acc.source_indices.tolist() == [1]


class TestKnnRule:
    def test_hand_sorted_example(self):
        table = _table_from_distances([0.5, 0.2, 0.9, 0.1, 0.4])
        acc = abc_knn(table, [0.0], 2)
        assert acc.source_indices.tolist() == [3, 1]
        assert acc.distances.tolist() == [0.1, 0.2]
        assert acc.radius_next == pytest.approx(0.4)

    def test_k_equals_n_minus_one(self):
        table = _table_from_distances([0.5, 0.2, 0.9, 0.1, 0.4])
        acc = abc_knn(table, [0.0], 4)
        assert 2 not in acc.source_indices  # farthest row excluded
        assert acc.radius_next == pytest.approx(0.9)

    @pytest.mark.parametrize("k", [0, 5, 6])
    def test_k_out_of_range(self, k):
        table = _table_from_distances([0.5, 0.2, 0.9, 0.1, 0.4])
        with pytest.raises(InvalidArgumentError):
            abc_knn(table, [0.0], k)

    def test_exact_ties_resolved_by_index(self):
        # rows 1 and 3 sit at exactly the same distance from s0 = 0
        table = _table_from_distances([0.5, 0.2, 0.2, 0.2, 0.9])
        acc = abc_knn(table, [0.0], 2)
        assert acc.source_indices.tolist() == [1, 2]
        acc3 = abc_knn(table, [0.0], 3)
        assert acc3.source_indices.tolist() == [1, 2, 3]
        assert acc3.radius_next == pytest.approx(0.5)

    def test_matches_sort_oracle_on_random_tables(self):
        gen = np.random.default_rng(11)
        for _ in range(200):
            n = int(gen.integers(2, 200))
            m = int(gen.integers(1, 4))
            summaries = gen.normal(0, 1, size=(n, m))
            if n > 4 and gen.random() < 0.5:
                summaries[n // 2] = summaries[0]  # engineered exact tie
            table = ReferenceTable(thetas=gen.normal(0, 1, size=(n, 1)),
                                   summaries=summaries, seed=0, model_id="r")
            s0 = gen.normal(0, 1, size=m)
            k = int(gen.integers(1, n))
            expected, _ = _sort_oracle(summaries, s0, k)
            acc = abc_knn(table, s0, k)
            assert acc.source_indices.tolist() == expected.tolist()

    def test_duality_with_tolerance_rule(self):
        gen = np.random.default_rng(13)
        for _ in range(100):
            n = int(gen.integers(3, 150))
            table = ReferenceTable(thetas=gen.normal(0, 1, (n, 1)),
                                   summaries=gen.normal(0, 1, (n, 2)),
                                   seed=0, model_id="r")
            s0 = gen.normal(0, 1, 2)
            k = int(gen.integers(1, n))
            knn = abc_knn(table, s0, k)
            tol = abc_tolerance(table, s0, knn.distances[-1])
            assert set(tol.source_indices) == set(knn.source_indices)

    def test_radius_next_monotone_in_k(self):
        gen = np.random.default_rng(17)
        table = ReferenceTable(thetas=gen.normal(0, 1, (300, 1)),
                               summaries=gen.normal(0, 1, (300, 1)),
                               seed=0, model_id="r")
        radii = [abc_knn(table, [0.3], k).radius_next for k in range(1, 300)]
        assert all(a <= b for a, b in zip(radii, radii[1:]))

    def test_radius_shrinks_with_table_size(self):
        model = get_model("gaussian_conjugate_1d")
        medians = []
        for n in (1_000, 10_000, 100_000):
            radii = [abc_knn(generate_table(model, n, 1000 + r), [1.0], 10).radius_next
                     for r in range(5)]
            medians.append(np.median(radii))
        assert medians[0] > medians[1] > medians[2]

    def test_distances_match_recomputation(self):
        from knnabc.core import squared_distances
        model = get_model("gauss_5d")
        table = generate_table(model, 500, 3)
        s0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        acc = abc_knn(table, s0, 20)
        recomputed = np.sqrt(squared_distances(acc.ordered_summaries, s0))
        assert np.array_equal(acc.distances, recomputed)
        assert np.all(np.diff(acc.distances) >= 0)
        assert acc.radius_next >= acc.distances[-1]


class TestPercentile:
    def test_common_case(self):
        assert percentile_to_k(10**6, 0.001) == 1000

    def test_clamps(self):
        assert percentile_to_k(100, 0.999999) == 99
        assert percentile_to_k(100, 1e-9) == 1

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(InvalidArgumentError):
            percentile_to_k(100, alpha)


class TestRestrictedSampler:
    def test_all_draws_inside_ball(self):
        model = get_model("gauss_5d")
        s0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        thetas, summaries = sample_restricted(model, s0, 1.5, 500, seed=21)
        assert thetas.shape == (500, 1)
        d = np.sqrt(np.sum((summaries - s0) ** 2, axis=1))
        assert np.all(d <= 1.5)

    def test_infinite_radius_matches_unrestricted_law(self):
        model = get_model("gaussian_conjugate_1d")
        thetas, _ = sample_restricted(model, [0.0], np.inf, 10_000, seed=22)
        reference = generate_table(model, 10_000, 23).thetas[:, 0]
        assert ks_2samp(thetas[:, 0], reference).pvalue > 0.01

    def test_restricted_summary_mean_matches_quadrature(self):
        # independent oracle: mean of s under fbar restricted to |s-1| <= 0.2
        model = get_model("gaussian_conjugate_1d")
        fbar = model.analytic.marginal_pdf
        mass, _ = quad(lambda s: fbar([s]), 0.8, 1.2)
        mean, _ = quad(lambda s: s * fbar([s]), 0.8, 1.2)
        target = mean / mass
        _, summaries = sample_restricted(model, [1.0], 0.2, 100_000, seed=24)
        assert 0.98 <= summaries.mean() <= 1.02
        assert summaries.mean() == pytest.approx(target, abs=0.002)

    def test_infeasible_radius_raises(self):
        model = get_model("uniform_box_1d")
        with pytest.raises(InfeasibleRadiusError):
            sample_restricted(model, [50.0], 0.1, 10, seed=25, probe_budget=100_000)

    def test_deterministic(self):
        model = get_model("gaussian_conjugate_1d")
        a = sample_restricted(model, [1.0], 0.3, 100, seed=6)
        b = sample_restricted(model, [1.0], 0.3, 100, seed=6)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()


class TestPersistence:
    def test_binary_round_trip(self):
        table = generate_table(get_model("gauss_5d"), 128, 99)
        blob = table_to_bytes(table)
        assert blob[:4] == b"ABCT"
        back = table_from_bytes(blob)
        assert back.seed == table.seed and back.model_id == table.model_id
        assert np.array_equal(back.thetas, table.thetas)
        assert np.array_equal(back.summaries, table.summaries)

    def test_csv_rows_shape_and_precision(self, tmp_path, capsys):
        config = validate_config(json.dumps({
            "schema": "abc-config/1", "model": {"id": "gauss_5d"}, "N": 4, "seed": 1,
            "s0": [0.0] * 5, "acceptance": {"k": 1}}))
        cli.run(config, "sample", tmp_path)
        lines = (tmp_path / "table.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"theta_0,s_0,s_1,s_2,s_3,s_4"
        assert len(lines) == 6 and lines[-1] == b""      # header, 4 rows, final CRLF
        cells = np.array([[float(v) for v in line.split(b",")] for line in lines[1:-1]])
        table = generate_table(get_model("gauss_5d"), 4, 1)
        # 17 significant digits round-trip every value exactly
        assert np.array_equal(cells, np.hstack([table.thetas, table.summaries]))

    def test_bad_magic_rejected(self):
        with pytest.raises(InvalidArgumentError):
            table_from_bytes(b"XXXX" + bytes(64))
