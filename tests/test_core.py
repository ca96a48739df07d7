"""Reference table, acceptance rules, restricted sampler, persistence."""

import dataclasses
import itertools
import json
import math
import os
import struct
import sys
import threading
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, quad
from scipy.special import ndtr
from scipy.stats import ks_2samp, kstest

from knnabc import (abc_knn, abc_tolerance, bound_check, cli, conditional_law_test, core,
                    generate_table, get_model, mise_estimate, mise_rate_quantities,
                    model_ids, moment_consistency, percentile_to_k, prop1_calibration,
                    rate_experiment, sample_restricted, simulate_knn)
from knnabc.cli import validate_config
from knnabc.core import _CHUNK_ROWS, ReferenceTable, _nearest, squared_distances, table_to_bytes
from knnabc.errors import InfeasibleRadiusError, InvalidArgumentError
from knnabc.estimators import make_kernel
from knnabc.rng import derive_key, row_words, uniform01


def _restricted_cdf(s0: float, radius: float):
    """The CDF of theta given |s - s0| <= radius on gaussian_conjugate_1d
    (Proposition 1's g_r), truncation to [-5, 5] included:
    g_r(theta) is proportional to
    phi(theta) [Phi(min(s0 + r - theta, 5)) - Phi(max(s0 - r - theta, -5))]+,
    integrated by cumulative trapezoid on 200 001 points."""
    t = np.linspace(-5.0, 5.0, 200_001)
    ball = ndtr(np.minimum(s0 + radius - t, 5.0)) - ndtr(np.maximum(s0 - radius - t, -5.0))
    cdf = cumulative_trapezoid(np.exp(-0.5 * t * t) * np.maximum(ball, 0.0), t, initial=0.0)
    return lambda x: np.interp(x, t, cdf / cdf[-1])


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


def _stream_rows(model, key, n):
    """Rows 0..n-1 of the joint stream with this key, every summary entry
    of every row computed in one pass: the reference that chunks and
    pruning must not change."""
    u = uniform01(row_words(key, 0, n, 4 * -(-model.words // 4))[:, :model.words].copy())
    thetas = model.thetas_from_uniforms(u, np.empty((n, model.p)))
    return thetas, model.summaries_from_uniforms(thetas, u, np.empty((n, model.m)))


def _to_lattice(values):
    np.multiply(values, 4.0, out=values)
    np.round(values, out=values)
    return np.divide(values, 4.0, out=values)


def _lattice(model):
    """``model`` with every summary entry rounded to the 0.25 lattice, so
    that thousands of rows tie at each distance.  Rounding is monotone, so
    the rounded bounds bound the rounded entries."""
    def summaries(thetas, u, out):
        return _to_lattice(model.summaries_from_uniforms(thetas, u, out))

    def bounds(j, gather, lo, hi):
        model.summary_bounds(j, gather, lo, hi)
        _to_lattice(lo)
        _to_lattice(hi)

    return dataclasses.replace(model, model_id=model.model_id + "_lattice",
                               summaries_from_uniforms=summaries, summary_bounds=bounds)


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
    if isinstance(out, np.ndarray):
        kept = out.nbytes
    else:
        kept = sum(v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray))
    return peak - base - kept


def _assert_same_accepted(got, expected):
    for field in ("source_indices", "ordered_thetas", "ordered_summaries", "distances"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert np.float64(got.radius_next).tobytes() == np.float64(expected.radius_next).tobytes()


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

    @pytest.mark.parametrize("model_id", model_ids())
    def test_rows_match_the_stream_computed_in_one_pass(self, model_id):
        model = get_model(model_id)
        n = _CHUNK_ROWS + 5
        table = generate_table(model, n, 4, max_workers=2)
        thetas, summaries = _stream_rows(model, derive_key(4, "table", model_id), n)
        assert table.thetas.tobytes() == thetas.tobytes()
        assert table.summaries.tobytes() == summaries.tobytes()

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


class TestSimulateKnn:
    def test_shared_rule_breaks_ties_by_lowest_index(self):
        # rows 0..99 of chunk 0 and 100..199 of chunk 1; the k-th and
        # (k+1)-th values tie at 4.0, among rows of both chunks
        d2 = np.full(200, 9.0)
        d2[[3, 150]] = 1.0
        d2[[7, 40, 120, 199]] = 4.0          # k = 4: 2 of these 4 win
        full_idx, full_next = _nearest(d2, 4)
        assert full_idx.tolist() == [3, 150, 7, 40]
        assert full_next == 4.0
        # a 2-worker merge: chunk 1's candidates arrive before chunk 0's
        pool_rows = np.r_[np.arange(100, 200), np.arange(100)]
        pos, pool_next = _nearest(d2[pool_rows], 4, pool_rows)
        assert pool_rows[pos].tolist() == full_idx.tolist()
        assert pool_next == full_next
        # and the same through abc_knn on the whole array
        acc = abc_knn(_table_from_distances(np.sqrt(d2)), [0.0], 4)
        assert acc.source_indices.tolist() == full_idx.tolist()
        # a cut to the k+1 nearest keeps the lowest-indexed (k+1)-th row
        cut, _ = _nearest(d2[pool_rows], 5, pool_rows)
        assert sorted(pool_rows[cut].tolist()) == [3, 7, 40, 120, 150]

    @pytest.mark.parametrize("schedule",
                             ["one_worker", "two_workers", "all_chunks_simulated_first"])
    def test_massive_ties_across_chunks_match_table_path(self, monkeypatch, schedule):
        # summaries on a 0.25 lattice tie thousands of rows at each
        # distance, so pool cuts and the final selection all break ties;
        # at m = 5 with s0 on the lattice every partial sum is exact, so
        # rows whose partial sum equals tau meet the prune's margin
        workers = 2 if schedule == "two_workers" else 1
        n = 3 * _CHUNK_ROWS + 7
        cases = [(_lattice(get_model(model_id)), s0)
                 for model_id, s0 in (("gaussian_conjugate_1d", [0.3]),
                                      ("gauss_5d", [1.0, 0.0, 0.25, 0.0, 0.0]))]
        tables = [generate_table(model, n, 5) for model, _ in cases]
        if schedule == "all_chunks_simulated_first":
            # the stalest tau possible: every chunk is simulated, each with
            # its own scratch and tau = inf, before the first is visited
            def simulate_all_first(fn, items, max_workers=1):
                yield from [fn(i) for i in items]

            monkeypatch.setattr(core, "ordered_map", simulate_all_first)
        for (model, s0), table in zip(cases, tables):
            for k in (1, 100, 20_000, n - 1):
                _assert_same_accepted(simulate_knn(model, n, 5, s0, k, max_workers=workers),
                                      abc_knn(table, s0, k))
            # epsilons on the lattice's distances tie thousands of rows at
            # epsilon, and one ulp below one leaves them all beyond it
            d = np.unique(np.sqrt(squared_distances(table.summaries, s0)))
            for epsilon in (0.0, d[0], d[1], d[3], np.nextafter(d[3], 0.0), 1e9):
                _assert_same_accepted(
                    core.simulate_tolerance(model, n, 5, s0, epsilon, max_workers=workers),
                    abc_tolerance(table, s0, epsilon))

    def test_workers_sharing_scratch_and_pool_under_thread_switching(self, monkeypatch):
        # 8 threads on 64-row chunks, switching every microsecond, take and
        # return scratch and fill the pool concurrently; a scratch handed to
        # two chunks at once, or a lost pool update, changes the result
        monkeypatch.setattr(core, "_CHUNK_ROWS", 64)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        model, n, s0 = get_model("gauss_5d"), 20_000, np.full(5, 0.2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = generate_table(model, n, 3, max_workers=8)
            got = simulate_knn(model, n, 3, s0, 50, max_workers=8)
            got_within = core.simulate_tolerance(model, n, 3, s0, 0.9, max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        expected = generate_table(model, n, 3)
        assert table.thetas.tobytes() == expected.thetas.tobytes()
        assert table.summaries.tobytes() == expected.summaries.tobytes()
        _assert_same_accepted(got, abc_knn(expected, s0, 50))
        _assert_same_accepted(got_within, abc_tolerance(expected, s0, 0.9))

    def test_first_span_is_ramped(self):
        # a table longer than a chunk is scanned from a span of
        # max(_RAMP_ROWS, 4(k+1)) rows, so tau is finite after a few
        # thousand rows and few rows reach the inverse CDF: 33 311 here
        # while the first span was a whole chunk
        model = get_model("gauss_5d")
        rows = []

        def counting(u, out):
            rows.append(u.shape[0])
            return model.thetas_from_uniforms(u, out)

        counted = dataclasses.replace(model, thetas_from_uniforms=counting)
        got = simulate_knn(counted, 100_000, 3, np.full(5, 0.2), 316)
        assert sum(rows) <= 8192
        _assert_same_accepted(got, simulate_knn(model, 100_000, 3, np.full(5, 0.2), 316))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ramped_spans_match_table_path(self, monkeypatch, workers):
        # 256-row chunks and a least first span of 4 rows: the spans start
        # at max(4, 4(k+1)) rows and grow 4x up to a chunk, the table's end
        # cuts them short, and a table of one chunk is not ramped
        monkeypatch.setattr(core, "_CHUNK_ROWS", 256)
        monkeypatch.setattr(core, "_RAMP_ROWS", 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        model, s0 = get_model("gauss_5d"), np.full(5, 0.2)
        spans = []

        def recording(key, start_row, n_rows, *args):
            spans.append((start_row, n_rows))
            return row_words(key, start_row, n_rows, *args)

        monkeypatch.setattr(core, "row_words", recording)
        for n in (256, 257, 300, 2000):
            table = generate_table(model, n, 9)
            for k in (1, 15, 100, n - 1):
                spans.clear()
                _assert_same_accepted(simulate_knn(model, n, 9, s0, k, max_workers=workers),
                                      abc_knn(table, s0, k))
                expected, start, rows = [], 0, max(4, 4 * (k + 1)) if n > 256 else 256
                while start < n:
                    expected.append((start, min(rows, 256, n - start)))
                    start, rows = start + expected[-1][1], 4 * rows
                assert sorted(spans) == expected

    def test_a_ramped_scan_never_builds_its_span_list(self):
        # a scan of 2^62 rows: its span numbers are read in place, so four
        # spans cost what four spans cost, whatever the table's length
        tracemalloc.start()
        try:
            with closing(core._scan_table(get_model("uniform_box_1d"), derive_key(1, "scan"),
                                          2**62, 1, first=1024)) as spans:
                visited = [(start, thetas.shape[0])
                           for start, _, thetas, _, _ in itertools.islice(spans, 4)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert visited == [(0, 1024), (1024, 4096), (5120, 16384), (21504, _CHUNK_ROWS)]
        assert peak < 4 << 20

    def test_an_abandoned_scan_leaves_no_thread(self, monkeypatch):
        # the loop of simulate_knn stopped after 2 spans: closing the
        # generator shuts the pool of its 2 workers down
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        model, s0 = get_model("gauss_5d"), np.full(5, 0.2)
        baseline = threading.active_count()
        with closing(core._scan_table(model, derive_key(1, "scan"), 10 * _CHUNK_ROWS, 2, s0,
                                      first=1024)) as spans:
            assert [start for start, *_ in itertools.islice(spans, 2)] == [0, 1024]
            assert threading.active_count() > baseline
        assert threading.active_count() == baseline

    def test_a_reused_workspace_keeps_every_bit(self):
        # one workspace serves calls of several sizes in turn, the
        # sampler's too; each result is the one a call without it gives
        model, s0 = get_model("gauss_5d"), np.full(5, 0.1)
        workspace = core.Workspace(model)
        for seed, (n, k) in enumerate(((5000, 40), (3000, 40), (70_000, 300), (70_000, 5),
                                       (5000, 40))):
            _assert_same_accepted(simulate_knn(model, n, seed, s0, k, workspace=workspace),
                                  simulate_knn(model, n, seed, s0, k))
            got = sample_restricted(model, s0, 2.0, 50, seed, workspace=workspace)
            expected = sample_restricted(model, s0, 2.0, 50, seed)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_memory_beyond_accepted_set_does_not_grow_with_rows(self):
        model = get_model("gauss_5d")
        s0 = np.full(5, 0.2)
        small = _overhead_bytes(simulate_knn, model, 4 * _CHUNK_ROWS, 3, s0, 500)
        large = _overhead_bytes(simulate_knn, model, 16 * _CHUNK_ROWS, 3, s0, 500)
        assert large - small <= _OVERHEAD_GROWTH_BYTES

    @pytest.mark.parametrize("k", [100, 1000])
    def test_bounds_pass_adds_no_memory_to_a_chunk(self, k):
        # gaussian_mean_demo bounds each row from 11 words.  The work beyond
        # the accepted set is one chunk's Philox words, the candidate pool,
        # the scratch's thetas, summaries and distances, and one more
        # chunk-long column (the first chunk's row numbers); the bounds pass
        # must fit in that, one column at a time
        model, s0 = get_model("gaussian_mean_demo"), [0.3]
        simulate_knn(model, 4 * _CHUNK_ROWS, 3, s0, k)  # builds the bin tables once
        cap = 2 * (k + 1) + _CHUNK_ROWS
        allowed = (_CHUNK_ROWS * core._words_per_row(model) * 8
                   + cap * 8 * (1 + 1 + model.p + model.m)
                   + _CHUNK_ROWS * 8 * (model.p + model.m + 2)
                   + (1 << 16))
        assert _overhead_bytes(simulate_knn, model, 4 * _CHUNK_ROWS, 3, s0, k) <= allowed

    @pytest.mark.parametrize("k", [0, 10, 11])
    def test_k_out_of_range(self, k):
        with pytest.raises(InvalidArgumentError, match="1 <= k <= N-1 = 9"):
            simulate_knn(get_model("uniform_box_1d"), 10, 1, [0.5], k)

    def test_nan_s0_rejected(self):
        with pytest.raises(InvalidArgumentError):
            simulate_knn(get_model("uniform_box_1d"), 10, 1, [np.nan], 3)


class TestSimulateTolerance:
    def test_memory_does_not_grow_with_chunks_that_accept_nothing(self, monkeypatch):
        # epsilon 0 accepts no row, so no chunk may leave a part behind:
        # 16 and 1000 chunks of 64 rows differed by 688 bytes, and by
        # 570 kB when every chunk appended its empty part
        monkeypatch.setattr(core, "_CHUNK_ROWS", 64)
        model = get_model("uniform_box_1d")
        core.simulate_tolerance(model, 64, 3, [0.5], 0.0)  # builds the bin tables once
        few = _overhead_bytes(core.simulate_tolerance, model, 16 * 64, 3, [0.5], 0.0)
        many = _overhead_bytes(core.simulate_tolerance, model, 1000 * 64, 3, [0.5], 0.0)
        assert many - few <= 1 << 14

    @pytest.mark.parametrize("epsilon", [-1e-300, -np.inf, np.nan])
    @pytest.mark.parametrize("select", [
        lambda model, epsilon: abc_tolerance(generate_table(model, 100, 1), [0.5], epsilon),
        lambda model, epsilon: core.simulate_tolerance(model, 100, 1, [0.5], epsilon),
    ], ids=["abc_tolerance", "simulate_tolerance"])
    def test_negative_or_nan_epsilon_rejected(self, select, epsilon):
        with pytest.raises(InvalidArgumentError, match="epsilon must be >= 0"):
            select(get_model("uniform_box_1d"), epsilon)


_GAUSSIAN = make_kernel("gaussian", 1)


@pytest.mark.parametrize("s0, message", [
    ([np.nan], "s0 must not contain NaN or infinite"),
    ([np.inf], "s0 must not contain NaN or infinite"),
    ([0.5, 0.5], "s0 has dimension 2, summaries have m=1"),
], ids=["nan", "inf", "dimension"])
@pytest.mark.parametrize("select", [
    lambda model, s0: abc_knn(generate_table(model, 100, 1), s0, 5),
    lambda model, s0: abc_tolerance(generate_table(model, 100, 1), s0, 1.0),
    lambda model, s0: simulate_knn(model, 100, 1, s0, 5),
    lambda model, s0: core.simulate_tolerance(model, 100, 1, s0, 1.0),
    lambda model, s0: sample_restricted(model, s0, 0.1, 10, 1),
    lambda model, s0: bound_check(model, s0, [(100, 5)], 1.0, 20.0, 2, 2, 1),
    lambda model, s0: mise_estimate(model, s0, 100, 5, "auto", _GAUSSIAN, 2, 1),
    lambda model, s0: rate_experiment(model, s0, [100, 200, 300], _GAUSSIAN, 2, 1),
    lambda model, s0: moment_consistency(model, s0, 100, 5, ["identity"], 2, 1),
    lambda model, s0: conditional_law_test(model, s0, 100, 20, 10, 1),
    lambda model, s0: prop1_calibration(model, s0, 100, 20, 2, 10, 1),
    lambda model, s0: mise_rate_quantities(model, s0, _GAUSSIAN),
], ids=["abc_knn", "abc_tolerance", "simulate_knn", "simulate_tolerance",
        "sample_restricted", "bound_check",
        "mise_estimate", "rate_experiment", "moment_consistency", "conditional_law_test",
        "prop1_calibration", "mise_rate_quantities"])
def test_every_selector_rejects_non_finite_s0(select, s0, message):
    # every public function that takes s0 checks it with core.check_s0: no
    # row is within a finite radius of a NaN or infinite s0, nor nearer to
    # it than another; abc_knn once returned k = 0 for NaN and 5 rows at
    # distance inf for inf, abc_tolerance k = 0, and mise_rate_quantities
    # NaN quantities
    with pytest.raises(InvalidArgumentError, match=message):
        select(get_model("gaussian_conjugate_1d"), s0)


_FILTER_MODELS = model_ids() + ("gaussian_conjugate_1d_lattice", "gauss_5d_lattice")


def _filter_model(name):
    base = name.removesuffix("_lattice")
    return get_model(base) if base == name else _lattice(get_model(base))


class TestChunkKernel:
    @pytest.mark.parametrize("model_id", model_ids())
    def test_never_reads_a_rows_padding_words(self, model_id):
        # a row draws whole Philox blocks, of which the model reads the
        # first model.words; flipping every bit of the rest changes nothing,
        # with or without the bounds pass
        model, n = get_model(model_id), 500
        words = row_words(derive_key(11, "padding"), 0, n, core._words_per_row(model))
        assert words.shape[1] > model.words
        scratch = core._Scratch(model, n)
        s0 = core._simulate_rows(model, words.copy(), scratch)[2][0].copy()
        tau = float(np.sort(core._simulate_rows(model, words.copy(), scratch, s0)[3])[n // 10])

        def simulate():
            return [[None if a is None else a.tobytes()
                     for a in core._simulate_rows(model, words.copy(), scratch, *select)]
                    for select in ((), (s0, tau))]

        before = simulate()
        words[:, model.words:] = ~words[:, model.words:]
        assert simulate() == before

    @pytest.mark.parametrize("model_id", model_ids())
    def test_each_row_as_if_simulated_alone(self, model_id):
        model, n = get_model(model_id), 64
        words = row_words(derive_key(12, "alone"), 0, n, core._words_per_row(model))
        scratch = core._Scratch(model, n)
        _, thetas, summaries, _ = core._simulate_rows(model, words.copy(), scratch)
        thetas, summaries = thetas.copy(), summaries.copy()
        for i in range(n):
            _, theta, summary, _ = core._simulate_rows(model, words[i:i + 1].copy(), scratch)
            assert theta.tobytes() == thetas[i].tobytes()
            assert summary.tobytes() == summaries[i].tobytes()


class TestBoundsFilter:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(_FILTER_MODELS), seed=st.integers(0, 2**32),
           row=st.integers(0, 499), shift=st.sampled_from([0.0, 0.25, -1e-9, 0.1, -2.0]),
           rank=st.integers(-1, 499))
    def test_keeps_every_row_the_exact_test_keeps(self, name, seed, row, shift, rank):
        # s0 at or near a row, and tau one of the rows' squared distances
        # (or 0), so rows tie with tau and the lattice models tie in bulk
        model, n = _filter_model(name), 500
        key = derive_key(seed, "filter")
        scratch = core._Scratch(model, n)

        def words():
            return row_words(key, 0, n, core._words_per_row(model))

        _, thetas, summaries, _ = core._simulate_rows(model, words(), scratch)
        thetas, s0 = thetas.copy(), summaries[row].copy()
        s0[0] += shift
        *_, d2 = core._simulate_rows(model, words(), scratch, s0)
        summaries, d2 = summaries.copy(), d2.copy()
        tau = 0.0 if rank < 0 else float(np.sort(d2)[rank])
        exact = np.flatnonzero(d2 <= tau)

        candidates = core._bounds_filter(model, words(), scratch, s0, tau)
        assert np.isin(exact, np.arange(n) if candidates is None else candidates).all()
        rows, got_thetas, got_summaries, got_d2 = core._simulate_rows(
            model, words(), scratch, s0, tau)
        assert np.array_equal(np.arange(n) if rows is None else rows, exact)
        assert got_thetas.tobytes() == thetas[exact].tobytes()
        assert got_summaries.tobytes() == summaries[exact].tobytes()
        assert got_d2.tobytes() == d2[exact].tobytes()

    @pytest.mark.parametrize("model_id", model_ids())
    def test_tries_entries_from_the_last_to_the_first(self, model_id):
        # gauss_5d's entry 0 reads two words, so its builder puts it first
        # and the pass reaches it last, once the others have dropped rows
        model = get_model(model_id)
        visited = []

        def spy(j, *args):
            visited.append(j)
            return model.summary_bounds(j, *args)

        spied = dataclasses.replace(model, summary_bounds=spy)
        n = 1 << 12
        words = row_words(derive_key(8, "order"), 0, n, core._words_per_row(model))
        scratch = core._Scratch(model, n)
        s0 = core._simulate_rows(model, words.copy(), scratch)[2][0].copy()
        *_, d2 = core._simulate_rows(model, words.copy(), scratch, s0)
        rows = core._bounds_filter(spied, words, scratch, s0, float(np.sort(d2)[n // 100]))
        assert rows is not None and rows.size < n
        assert visited == list(range(model.m - 1, -1, -1))

    @pytest.mark.parametrize("model_id", model_ids())
    def test_keeps_few_rows_beyond_the_exact_ones(self, model_id):
        # tau at the 1 % quantile: the bins rule out nearly every other row
        model, n = get_model(model_id), 1 << 14
        key = derive_key(7, "filter")
        scratch = core._Scratch(model, n)
        words = row_words(key, 0, n, core._words_per_row(model))
        s0 = core._simulate_rows(model, words.copy(), scratch)[2][0].copy()
        *_, d2 = core._simulate_rows(model, words.copy(), scratch, s0)
        tau = float(np.sort(d2)[n // 100])
        rows = core._bounds_filter(model, words, scratch, s0, tau)
        assert rows is not None and rows.size <= 2 * (n // 100)


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

    def test_nan_s0_rejected(self):
        # no row is ever within any radius of a NaN s0: the sampler once
        # drew its whole 10M-proposal budget and reported an infeasible radius
        with pytest.raises(InvalidArgumentError, match="s0 must not contain NaN"):
            sample_restricted(get_model("gaussian_conjugate_1d"), [np.nan], 1.0, 10, seed=1)

    @pytest.mark.parametrize("s0", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_infinite_s0_rejected(self, s0):
        # no row is ever within a finite radius of an infinite s0: the
        # sampler once drew its whole 10M-proposal budget before raising
        # InfeasibleRadiusError
        with pytest.raises(InvalidArgumentError, match="s0 must not contain NaN or infinite"):
            sample_restricted(get_model("gaussian_conjugate_1d"), [s0], 1.0, 10, seed=1)

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

    def test_infeasible_radius_raises(self, monkeypatch):
        model = get_model("uniform_box_1d")
        monkeypatch.setattr(core, "_PROBE_BUDGET", 100_000)
        with pytest.raises(InfeasibleRadiusError):
            sample_restricted(model, [50.0], 0.1, 10, seed=25)

    @pytest.mark.parametrize("s0, radius, seed", [
        (1.0, 0.05, 60), (1.0, 0.5, 61), (1.0, 2.0, 62),
        (3.0, 0.05, 63), (3.0, 0.5, 64), (3.0, 2.0, 65)])
    def test_matches_exact_restricted_law(self, s0, radius, seed):
        thetas, _ = sample_restricted(get_model("gaussian_conjugate_1d"), [s0], radius, 5000,
                                      seed=seed)
        assert kstest(thetas[:, 0], _restricted_cdf(s0, radius)).pvalue > 0.01

    def test_exact_law_check_sees_a_wrong_ball(self):
        # the check above has power: the same draws fail against a ball
        # moved by 0.1, or widened by 30 %
        model = get_model("gaussian_conjugate_1d")
        near, _ = sample_restricted(model, [1.0], 0.05, 5000, seed=60)
        wide, _ = sample_restricted(model, [1.0], 2.0, 5000, seed=62)
        assert kstest(near[:, 0], _restricted_cdf(1.1, 0.05)).pvalue < 0.01
        assert kstest(wide[:, 0], _restricted_cdf(1.0, 2.6)).pvalue < 0.01

    @pytest.mark.parametrize("where", ["first_batch", "mid_batch", "batch_end"])
    def test_keeps_first_accepted_rows_of_the_stream(self, where, monkeypatch):
        model = get_model("gauss_5d")
        s0, radius, batch, seed = np.full(5, 0.1), 2.0, 1000, 8
        thetas, summaries = _stream_rows(model, derive_key(seed, "restricted", "gauss_5d"),
                                         3 * batch)
        inside = np.sum((summaries - s0) ** 2, axis=1) <= radius * radius
        per_batch = np.cumsum(inside.reshape(3, batch).sum(axis=1))
        count = {"first_batch": per_batch[0] - 5, "mid_batch": per_batch[1] - 5,
                 "batch_end": per_batch[1]}[where]
        monkeypatch.setattr(core, "_BATCH_ROWS", batch)
        got_thetas, got_summaries = sample_restricted(model, s0, radius, count, seed=seed)
        assert got_thetas.tobytes() == thetas[inside][:count].tobytes()
        assert got_summaries.tobytes() == summaries[inside][:count].tobytes()

    def test_batch_sizing_leaves_rows_unchanged(self, monkeypatch):
        # about 2 % of proposals land within 0.05 of s0 = 1, so 500 draws
        # need more than the first 2^14-row batch
        model = get_model("gaussian_conjugate_1d")
        s0, radius, count, seed = [1.0], 0.05, 500, 31
        thetas, summaries = _stream_rows(model, derive_key(seed, "restricted", model.model_id),
                                         1 << 16)
        inside = np.flatnonzero(np.abs(summaries[:, 0] - 1.0) <= radius)
        needed = inside[count - 1] + 1
        assert needed > 1 << 14
        drawn = []

        def counting(key, start_row, n_rows, *args):
            drawn.append(n_rows)
            return row_words(key, start_row, n_rows, *args)

        monkeypatch.setattr(core, "row_words", counting)
        got_thetas, got_summaries = sample_restricted(model, s0, radius, count, seed=seed)
        assert got_thetas.tobytes() == thetas[inside[:count]].tobytes()
        assert got_summaries.tobytes() == summaries[inside[:count]].tobytes()
        # the first batch is full size; the rest are sized from its rate
        assert drawn[0] == 1 << 14 and max(drawn[1:]) < 1 << 14
        assert needed <= sum(drawn) < 1.3 * needed
        for batch in (1000, 1 << 16):
            monkeypatch.setattr(core, "_BATCH_ROWS", batch)
            other = sample_restricted(model, s0, radius, count, seed=seed)
            assert other[0].tobytes() == got_thetas.tobytes()

    def test_deterministic(self):
        model = get_model("gaussian_conjugate_1d")
        a = sample_restricted(model, [1.0], 0.3, 100, seed=6)
        b = sample_restricted(model, [1.0], 0.3, 100, seed=6)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()


class TestPersistence:
    def test_binary_layout(self):
        # parsed as README's table states the layout: a 34-byte little-endian
        # header, the model id, then each column as N float64
        table = generate_table(get_model("gauss_5d"), 128, 99)
        blob = table_to_bytes(table)
        magic, version, n, p, m, seed, id_len = struct.unpack_from("<4sIQIIQH", blob)
        assert (magic, version, n, p, m, seed) == (b"ABCT", 1, 128, 1, 5, 99)
        assert blob[34:34 + id_len].decode("utf-8") == table.model_id
        assert len(blob) == 34 + id_len + 8 * n * (p + m)
        cols = np.frombuffer(blob, dtype="<f8", offset=34 + id_len).reshape(p + m, n)
        assert np.array_equal(cols[:p].T, table.thetas)
        assert np.array_equal(cols[p:].T, table.summaries)

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
