"""Substream machinery: chunk-independence and value hygiene."""

import numpy as np
import pytest

from knnabc import rng


class TestRowWords:
    def test_rows_independent_of_chunking(self):
        key = rng.derive_key(123, "table", "some-model")
        whole = rng.row_words(key, 0, 100, 8)
        pieces = [rng.row_words(key, start, 10, 8) for start in range(0, 100, 10)]
        assert np.array_equal(whole, np.concatenate(pieces, axis=0))

    def test_row_offset_equals_slice(self):
        key = rng.derive_key(9, "x")
        assert np.array_equal(rng.row_words(key, 0, 50, 4)[17:20],
                              rng.row_words(key, 17, 3, 4))

    def test_words_per_row_must_align(self):
        with pytest.raises(ValueError):
            rng.row_words(rng.derive_key(1), 0, 4, 6)


class TestUniformMapping:
    def test_strictly_inside_unit_interval(self):
        words = np.array([0, 1, 2**64 - 1, 2**63], dtype=np.uint64)
        u = rng.uniform01(words)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_top_52_bits_plus_half_bit_for_bit(self):
        words = np.concatenate([
            np.array([0, 1, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, 2**64 - 1], dtype=np.uint64),
            rng.row_words(rng.derive_key(3, "bits"), 0, 1000, 4).reshape(-1)])
        expected = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
        u = rng.uniform01(words)
        assert u.dtype == np.float64 and u.tobytes() == expected.tobytes()
        assert np.shares_memory(u, words)  # the words are overwritten, not copied

    def test_truncated_normal_within_bounds(self):
        key = rng.derive_key(5, "t")
        u = rng.uniform01(rng.row_words(key, 0, 10000, 4)[:, 0])
        x = rng.truncated_normal_from_uniform(u, 5.0, np.empty_like(u))
        assert np.all(np.abs(x) <= 5.0)
        assert np.all(np.isfinite(x))


class TestDerivation:
    def test_key_depends_on_every_tag(self):
        base = rng.derive_key(7, "a", "b")
        assert not np.array_equal(base, rng.derive_key(7, "a", "c"))
        assert not np.array_equal(base, rng.derive_key(8, "a", "b"))

    def test_derivation_is_frozen(self):
        # regression pin: changing the derivation would silently break the
        # reproducibility contract for persisted seeds
        assert rng.tag_to_int("table") == 0xED06378DA7C44F0D
        assert rng.derive_seed(42, "table") == 6565243829855084329
        assert rng.derive_key(42, "table").tolist() == [
            6565243829855084329, 3317916441970074577]

    def test_generator_uniforms_open_interval(self):
        u = rng.uniform01(rng.row_words(rng.derive_key(11, "quick"), 0, 250, 4))
        assert u.size == 1000
        assert np.all((u > 0) & (u < 1))


def _seed_sequence(entropy, n_words):
    return np.random.SeedSequence(entropy).generate_state(n_words, dtype=np.uint64)


# seeds whose entropy is one 32-bit word (0 included) or two
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


class TestVectorisedDerivation:
    """derive_seeds/derive_keys against numpy's SeedSequence itself, on
    60 000 + 40 000 random entropy tuples."""

    @pytest.mark.parametrize("tags", [("table", "gauss_5d"), (), (0, 2**40 + 3, "bound")])
    def test_derive_keys_matches_seed_sequence(self, tags):
        gen = np.random.default_rng(len(tags))
        seeds = gen.integers(0, 2**64 - 1, size=20_000, dtype=np.uint64, endpoint=True)
        seeds[::3] >>= np.uint64(32)    # derived seeds below 2^32
        seeds[:len(_EDGE_SEEDS)] = _EDGE_SEEDS
        tag_ints = rng._tag_ints(tags)
        expected = np.array([_seed_sequence([s, *tag_ints], 2) for s in seeds.tolist()])
        got = rng.derive_keys(seeds, *tags)
        assert got.dtype == np.uint64 and got.shape == (seeds.size, 2)
        assert np.array_equal(got, expected)

    def test_derive_seeds_matches_seed_sequence(self):
        gen = np.random.default_rng(7)
        for case in range(40):
            seed = (_EDGE_SEEDS[case] if case < len(_EDGE_SEEDS)
                    else int(gen.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True)))
            tags = [("bound", int(gen.integers(0, 4))), ("mise",), (),
                    (2**33, "a", 2**64 - 1), ("rate", 0, "x")][case % 5]
            entropy = rng._entropy(seed, tags)
            got = rng.derive_seeds(seed, *tags, count=1000)
            assert got.dtype == np.uint64
            assert np.array_equal(got, [_seed_sequence(entropy + [r], 1)[0]
                                        for r in range(1000)])

    def test_match_the_scalar_functions(self):
        seeds = rng.derive_seeds(5000, "bound", 1, count=50)
        assert seeds.tolist() == [rng.derive_seed(5000, "bound", 1, r) for r in range(50)]
        keys = rng.derive_keys(seeds, "table", "uniform_box_1d")
        assert np.array_equal(keys, [rng.derive_key(s, "table", "uniform_box_1d")
                                     for s in seeds.tolist()])

    @pytest.mark.parametrize("tags", [("prop1-table",), ("prop1-oracle",), (), (3, "x")])
    def test_derive_subseeds_match_derive_seed(self, tags):
        # a sub-seed is the first word of the key from the same entropy
        gen = np.random.default_rng(11)
        seeds = gen.integers(0, 2**64 - 1, size=300, dtype=np.uint64, endpoint=True)
        seeds[::3] >>= np.uint64(32)
        seeds[:len(_EDGE_SEEDS)] = _EDGE_SEEDS
        got = rng.derive_keys(seeds, *tags)[:, 0]
        assert got.dtype == np.uint64
        assert got.tolist() == [rng.derive_seed(s, *tags) for s in seeds.tolist()]
        assert rng.derive_keys(seeds[:0], *tags)[:, 0].shape == (0,)

    def test_empty(self):
        assert rng.derive_seeds(3, "x", count=0).shape == (0,)
        assert rng.derive_keys(np.array([], dtype=np.uint64), "x").shape == (0, 2)


class TestPhiloxReuse:
    @pytest.mark.parametrize("reuse", [False, True])
    def test_row_words_match_a_fresh_generator(self, reuse):
        gen = np.random.default_rng(12)
        bit_gen = np.random.Philox(0) if reuse else None
        for case in range(300):
            key = gen.integers(0, 2**64 - 1, size=2, dtype=np.uint64, endpoint=True)
            start = int(gen.integers(0, 2**40)) if case % 2 else int(gen.integers(0, 64))
            wpr = int(gen.choice([4, 8, 12]))
            n = int(gen.integers(1, 40))
            fresh = np.random.Philox(key=key, counter=start * (wpr // 4))
            assert np.array_equal(rng.row_words(key, start, n, wpr, bit_gen),
                                  fresh.random_raw(n * wpr).reshape(n, wpr))

    def test_counter_beyond_64_bits(self):
        key = np.array([5, 6], dtype=np.uint64)
        counter = 2**200 + 2**130 + 2**64 + 7
        bit_gen = np.random.Philox(0)
        bit_gen.random_raw(3)  # leave words in its buffer
        rng._reset_philox(bit_gen, key, counter)
        assert np.array_equal(bit_gen.random_raw(12),
                              np.random.Philox(key=key, counter=counter).random_raw(12))


def _bin_words(offsets: np.ndarray) -> np.ndarray:
    """Words at these offsets (as uint64) within every bin, one row per bin."""
    starts = np.arange(1 << rng.BIN_BITS, dtype=np.uint64) << np.uint64(64 - rng.BIN_BITS)
    return starts[:, None] + offsets.astype(np.uint64)[None, :]


class TestBinTables:
    # a uniform01 ulp is 2^12 in the word; the edges and 4 ulps inside them
    _EDGE_OFFSETS = np.concatenate([np.arange(5) << 12,
                                    (1 << 52) - 1 - (np.arange(5) << 12)]).astype(np.uint64)

    def test_word_bins_are_the_top_bits(self):
        words = _bin_words(self._EDGE_OFFSETS)
        bins = rng.word_bins(words, np.empty(words.shape, dtype=np.int64))
        assert np.array_equal(bins, np.repeat(np.arange(1 << rng.BIN_BITS), words.shape[1])
                              .reshape(words.shape))

    def test_uniform_bins_are_the_edge_uniforms(self):
        lo, hi = rng.uniform_bins()
        words = _bin_words(np.array([0, (1 << 52) - 1]))
        u = rng.uniform01(words)
        assert lo.tobytes() == u[:, 0].tobytes() and hi.tobytes() == u[:, 1].tobytes()
        assert not lo.flags.writeable and not hi.flags.writeable

    @pytest.mark.parametrize("bound", [0.1, 1.0, 5.0, 40.0])
    def test_truncated_normal_bins_bound_every_uniform_of_their_bin(self, bound):
        lo, hi = rng.truncated_normal_bins(bound)
        assert rng.truncated_normal_bins(bound) is rng.truncated_normal_bins(bound)
        # the edges, 4 ulps inside them, and 25 random words a bin (10^5 in all)
        interior = np.random.default_rng(int(bound * 10)).integers(
            0, 1 << 52, size=(1 << rng.BIN_BITS, 25), dtype=np.uint64)
        words = np.concatenate([_bin_words(self._EDGE_OFFSETS),
                                _bin_words(np.zeros(1)) + interior], axis=1)
        u = rng.uniform01(words)
        x = rng.truncated_normal_from_uniform(u, bound, np.empty_like(u))
        assert np.all(lo[:, None] <= x) and np.all(x <= hi[:, None])
