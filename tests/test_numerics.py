"""Numerical utilities against independent references."""

import concurrent.futures
import math
import threading
import time
import tracemalloc
from concurrent.futures import Future
from contextlib import closing

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import linregress

from knnabc import numerics
from knnabc.errors import InvalidArgumentError
from knnabc.numerics import (adaptive_trapezoid, ols_slope, ordered_map, parallel_map,
                             round_half_up, trapezoid_nd)


class TestRounding:
    @pytest.mark.parametrize("x,expected", [(2.5, 3), (3.5, 4), (-2.5, -3),
                                            (0.49999, 0), (1000.0, 1000)])
    def test_half_away_from_zero(self, x, expected):
        assert round_half_up(x) == expected


class TestTrapezoid:
    def test_matches_numpy_in_1d(self):
        x = np.linspace(0, 3, 301)
        y = np.sin(x)
        assert trapezoid_nd(y, (x,)) == pytest.approx(np.trapezoid(y, x))

    def test_separable_2d(self):
        x = np.linspace(0, 1, 201)
        y = np.linspace(0, 2, 401)
        vals = np.outer(x**2, np.exp(-y))
        expected = (1.0 / 3.0) * (1.0 - math.exp(-2.0))
        assert trapezoid_nd(vals, (x, y)) == pytest.approx(expected, rel=1e-4)

    def test_accepts_flat_values(self):
        x = np.linspace(0, 1, 11)
        y = np.linspace(0, 1, 21)
        vals = np.ones(11 * 21)
        assert trapezoid_nd(vals, (x, y)) == pytest.approx(1.0)


class TestAdaptiveTrapezoid:
    @pytest.mark.parametrize("fn,a,b", [
        (lambda x: np.exp(-x * x), -8.0, 8.0),
        (lambda x: np.exp(-np.abs(x)) * np.cos(3 * x), -10.0, 10.0),
        (lambda x: 1.0 / (1.0 + x * x), -20.0, 20.0),
    ])
    def test_agrees_with_quad(self, fn, a, b):
        reference, _ = quad(fn, a, b, limit=300)
        assert adaptive_trapezoid(fn, a, b) == pytest.approx(
            reference, rel=1e-6)

    def test_empty_interval_rejected(self):
        with pytest.raises(InvalidArgumentError):
            adaptive_trapezoid(np.exp, 1.0, 1.0)


class TestOlsSlope:
    def test_matches_scipy_linregress(self):
        gen = np.random.default_rng(33)
        x = np.linspace(0, 5, 12)
        y = 2.0 - 0.7 * x + gen.normal(0, 0.1, 12)
        slope, stderr = ols_slope(x, y)
        ref = linregress(x, y)
        assert slope == pytest.approx(ref.slope, rel=1e-12)
        assert stderr == pytest.approx(ref.stderr, rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            ols_slope([1, 2], [3, 4])

    def test_x_without_spread(self):
        # a rate ladder of one table size: the slope is 0 / 0
        with pytest.raises(InvalidArgumentError, match="no spread"):
            ols_slope(np.log([200, 200, 200]), [3.0, 4.0, 5.0])


class TestParallelMap:
    def test_order_preserved_any_worker_count(self):
        squares = [i * i for i in range(50)]
        for items in (list(range(50)), range(50)):
            serial = parallel_map(lambda i: i * i, items, 1)
            threaded = parallel_map(lambda i: i * i, items, 8)
            assert serial == threaded == squares
            for workers in (1, 8):
                assert list(ordered_map(lambda i: i * i, items, workers)) == squares

    @pytest.mark.parametrize("asked,n_items,cpus,expected", [
        (64, 10, 4, 4),       # capped by the CPU count
        (64, 3, 4, 3),        # capped by the item count
        (2, 10, 4, 2),        # the caller's cap holds
        (8, 10, None, None),  # unknown CPU count: serial, no pool
        (8, 1, 4, None),      # one item: serial, no pool
    ])
    def test_pool_size_capped(self, monkeypatch, asked, n_items, cpus, expected):
        # parallel_map and ordered_map size their pools by the same rule
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        # numerics imports the pool class when a pool is first needed
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: cpus)
        items = list(range(n_items))
        assert parallel_map(lambda i: -i, items, asked) == [-i for i in items]
        assert list(ordered_map(lambda i: -i, items, asked)) == [-i for i in items]
        assert pools == ([] if expected is None else [expected, expected])


class TestOrderedMap:
    def test_at_most_one_result_per_worker_exists(self, monkeypatch):
        # item i + workers may start only once the caller is done with
        # item i's result: count the items started against the results the
        # caller has finished with, as each item starts
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 4)
        lock = threading.Lock()
        started = done = 0
        most = []

        def fn(i):
            nonlocal started
            with lock:
                started += 1
                most.append(started - done)
            return i

        for i, got in enumerate(ordered_map(fn, range(40), 4)):
            assert got == i
            time.sleep(1e-3)  # let the workers run ahead while the caller holds a result
            with lock:
                done += 1
        assert started == 40 and max(most) <= 4

    def test_error_in_fn_reaches_caller_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 4)
        baseline = threading.active_count()

        def fn(i):
            if i == 5:
                raise ValueError("item 5 fails")
            return i

        with pytest.raises(ValueError, match="item 5 fails"):
            list(ordered_map(fn, range(40), 4))
        assert threading.active_count() == baseline

    def test_a_scan_never_builds_its_work_list(self, monkeypatch):
        # a scan of 2^62 rows in 2^15-row chunks: its 2^47 chunk starts are
        # read from the range in place, so three results cost what three
        # items cost, whatever the range's length
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            with closing(ordered_map(lambda i: i, range(0, 2**62, 2**15), 2)) as results:
                first = [next(results) for _ in range(3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [0, 32768, 65536]
        assert peak < 64_000

    def test_closing_early_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 4)
        baseline = threading.active_count()
        with closing(ordered_map(lambda i: i, range(40), 4)) as results:
            assert next(results) == 0
            assert threading.active_count() > baseline
        assert threading.active_count() == baseline
