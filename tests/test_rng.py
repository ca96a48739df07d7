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

    def test_truncated_normal_within_bounds(self):
        key = rng.derive_key(5, "t")
        u = rng.uniform01(rng.row_words(key, 0, 10000, 4)[:, 0])
        x = rng.truncated_normal_from_uniform(u, 5.0)
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
