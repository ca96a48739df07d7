"""Property tests for the structural invariants of the engine."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from knnabc import (abc_knn, abc_tolerance, core, distance_moment_bound, estimators,
                    generate_table, get_model, make_kernel, model_ids,
                    percentile_to_k, simulate_knn, unit_ball_volume)
from knnabc.core import _CHUNK_ROWS, AcceptedSet, ReferenceTable, squared_distances


def _tables(min_rows=2, max_rows=60, max_m=3):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_rows, max_rows))
        m = draw(st.integers(1, max_m))
        summaries = draw(hnp.arrays(np.float64, (n, m),
                                    elements=st.floats(-100, 100, allow_nan=False,
                                                       allow_infinity=False,
                                                       width=32)))
        if n >= 4 and draw(st.booleans()):
            summaries[0] = summaries[n - 1]  # force an exact tie
        thetas = np.arange(n, dtype=float)[:, None]
        s0 = draw(hnp.arrays(np.float64, (m,),
                             elements=st.floats(-100, 100, allow_nan=False,
                                                allow_infinity=False, width=32)))
        k = draw(st.integers(1, n - 1))
        return ReferenceTable(thetas=thetas, summaries=summaries,
                              seed=0, model_id="prop"), s0, k

    return build()


class TestSelectionProperties:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_matches_stable_sort(self, case):
        table, s0, k = case
        d2 = squared_distances(table.summaries, s0)
        expected = np.lexsort((np.arange(table.n_rows), d2))[:k]
        accepted = abc_knn(table, s0, k)
        assert accepted.source_indices.tolist() == expected.tolist()
        assert np.all(np.diff(accepted.distances) >= 0)
        assert accepted.radius_next >= accepted.distances[-1]

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    # distinct squared distances whose square roots round to one float
    @example((ReferenceTable(thetas=np.arange(2.0)[:, None],
                             summaries=np.array([[9.99999997e-07, 64.0], [0.0, 64.0]]),
                             seed=0, model_id="prop"), np.zeros(2), 1))
    def test_duality_as_sets(self, case):
        table, s0, k = case
        knn = abc_knn(table, s0, k)
        tol = abc_tolerance(table, s0, knn.distances[-1])
        # with ties at the cut the tolerance rule may accept extra rows,
        # but never fewer, and always a superset
        assert set(knn.source_indices) <= set(tol.source_indices)
        # the tolerance rule compares the distances sqrt(d2) with epsilon,
        # so only distinct distances, not distinct d2, rule out extra rows
        d = np.sqrt(squared_distances(table.summaries, s0))
        if len(np.unique(d)) == table.n_rows:
            assert set(knn.source_indices) == set(tol.source_indices)

    @settings(max_examples=200, deadline=None)
    @given(_tables(min_rows=3))
    def test_radius_next_monotone_in_k(self, case):
        table, s0, _ = case
        radii = [abc_knn(table, s0, k).radius_next
                 for k in range(1, table.n_rows)]
        assert all(a <= b for a, b in zip(radii, radii[1:]))


_C = _CHUNK_ROWS
_CHUNK_EDGES = [_C - 1, _C, _C + 1, 2 * _C - 1, 2 * _C, 2 * _C + 1, 3 * _C]


class TestSimulateKnnProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bit_identical_to_table_path(self, data):
        # either rule: the k nearest rows, or every row within epsilon, where
        # epsilon is 0, any float in [0, 3] or a drawn row's distance (a tie)
        model = get_model(data.draw(st.sampled_from(model_ids())))
        n = data.draw(st.one_of(st.integers(2, 300), st.sampled_from(_CHUNK_EDGES)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        s0 = data.draw(hnp.arrays(np.float64, (model.m,),
                                  elements=st.floats(-3, 3, allow_nan=False, width=32)))
        workers = data.draw(st.sampled_from([1, 2]))
        table = generate_table(model, n, seed)
        if data.draw(st.sampled_from(["knn", "tolerance"])) == "knn":
            k = data.draw(st.one_of(st.integers(1, n - 1), st.sampled_from([1, n - 1])))
            got = simulate_knn(model, n, seed, s0, k, max_workers=workers)
            expected = abc_knn(table, s0, k)
        else:
            source = data.draw(st.sampled_from(["zero", "float", "row"]))
            if source == "zero":
                epsilon = 0.0
            elif source == "float":
                epsilon = data.draw(st.floats(0, 3))
            else:
                row = data.draw(st.integers(0, n - 1))
                epsilon = float(np.sqrt(squared_distances(table.summaries, s0))[row])
            got = core.simulate_tolerance(model, n, seed, s0, epsilon, max_workers=workers)
            expected = abc_tolerance(table, s0, epsilon)
        for field in ("source_indices", "ordered_thetas", "ordered_summaries", "distances"):
            assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field
        assert np.float64(got.radius_next).tobytes() == np.float64(expected.radius_next).tobytes()


class TestPercentileProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10**7),
           st.floats(1e-9, 1, exclude_max=True, allow_nan=False))
    def test_result_always_in_valid_range(self, n, alpha):
        k = percentile_to_k(n, alpha)
        assert 1 <= k <= n - 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10**6),
           st.floats(0.001, 0.5, allow_nan=False),
           st.floats(0.001, 0.49, allow_nan=False))
    def test_monotone_in_alpha(self, n, alpha, bump):
        assert percentile_to_k(n, alpha) <= percentile_to_k(n, min(alpha + bump, 0.999))


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["naive", "gaussian"]), st.integers(1, 4),
           st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=4))
    def test_nonnegative_and_symmetric(self, kind, dim, coords):
        u = np.resize(np.asarray(coords, dtype=float), dim)
        kernel = make_kernel(kind, dim)
        # one accepted row at the origin and h = 1: the estimate at u is K(u)
        origin = AcceptedSet(ordered_thetas=np.zeros((1, dim)),
                             ordered_summaries=np.zeros((1, 1)), distances=np.zeros(1),
                             radius_next=1.0, source_indices=np.zeros(1, dtype=np.int64))
        value, mirrored = estimators.g_hat_many(origin, 1.0, kernel, np.stack([u, -u]))
        assert value >= 0.0
        assert value == mirrored
        assert value <= kernel.normalizer  # the mode sits at the origin

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_gaussian_floor_keeps_values_above_1e_280(self, data):
        # only kernel factors below exp(EXP_FLOOR) ~ 1e-304 are dropped, so
        # every value the plain np.exp gives at >= 1e-280 keeps its bits
        p = data.draw(st.sampled_from([1, 2]))
        k = data.draw(st.integers(1, 30))
        thetas = data.draw(hnp.arrays(np.float64, (k, p),
                                      elements=st.floats(-5, 5, width=32)))
        h = data.draw(st.floats(0.01, 2.0))
        # estimate_density takes ascending axes only
        axes = tuple(np.sort(data.draw(hnp.arrays(np.float64, st.integers(1, 40),
                                                  elements=st.floats(-20, 20, width=32))))
                     for _ in range(p))
        accepted = AcceptedSet(ordered_thetas=thetas, ordered_summaries=np.zeros((k, 1)),
                               distances=np.zeros(k), radius_next=1.0,
                               source_indices=np.arange(k, dtype=np.int64))
        kernel = make_kernel("gaussian", p)

        def both_paths():
            return (estimators.estimate_density(accepted, h, kernel, axes=axes).values,
                    estimators.g_hat_many(accepted, h, kernel, estimators.grid_points(axes)))

        got = both_paths()
        with mock.patch.object(estimators, "_gaussian_exp", np.exp):
            references = both_paths()
        for value, reference in zip(got, references):
            large = reference >= 1e-280
            assert value[large].tobytes() == reference[large].tobytes()

    def test_ball_volume_ratio_identity(self):
        # V_p / V_{p-2} = 2 pi / p, a sharp closed-form consistency check
        for p in range(3, 31):
            ratio = unit_ball_volume(p) / unit_ball_volume(p - 2)
            assert ratio == pytest.approx(2 * np.pi / p, rel=1e-12)


class TestBoundProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8),
           st.floats(0.1, 10, allow_nan=False),
           st.floats(0.5, 5, allow_nan=False),
           st.integers(100, 10**6),
           st.floats(1e-6, 1.0, allow_nan=False))
    def test_admissible_bounds_are_positive(self, m, xi0, L, n, frac):
        ratio_cap = min(1.0, xi0 * L**m)
        k = max(1, min(n - 1, int(frac * ratio_cap * (n + 1) - 1)))
        if (k + 1) / (n + 1) > xi0 * L**m:
            return
        for order in (2, 4):
            assert distance_moment_bound(m, k, n, xi0, L, order) > 0.0
