"""Deterministic counter-based random substreams.

All randomness in the package flows through Philox-4x64 streams keyed by a
64-bit user seed plus string purpose tags.  Row i of any generated block
consumes a fixed window of counter positions, so regeneration is
bit-identical no matter how the work is chunked or how many workers run.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtr, ndtri

WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter block

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def tag_to_int(tag: str) -> int:
    """Stable 64-bit integer for a string tag (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "little")


def _entropy(seed: int, tags) -> list[int]:
    ent = [int(seed) & _U64_MASK]
    for t in tags:
        ent.append(tag_to_int(t) if isinstance(t, str) else int(t) & _U64_MASK)
    return ent


def derive_key(seed: int, *tags) -> np.ndarray:
    """128-bit Philox key derived from a master seed and purpose tags."""
    return np.random.SeedSequence(_entropy(seed, tags)).generate_state(2, dtype=np.uint64)


def derive_seed(seed: int, *tags) -> int:
    """A 64-bit sub-seed for handing to APIs that take a plain seed."""
    return int(np.random.SeedSequence(_entropy(seed, tags)).generate_state(1, dtype=np.uint64)[0])


def row_words(key: np.ndarray, start_row: int, n_rows: int, words_per_row: int) -> np.ndarray:
    """Raw uint64 words for rows [start_row, start_row + n_rows).

    Row i always receives counter words [i*words_per_row, (i+1)*words_per_row),
    so the result is independent of where chunk boundaries fall.
    ``words_per_row`` must be a multiple of 4 to align with Philox blocks.
    """
    if words_per_row % WORDS_PER_BLOCK:
        raise ValueError("words_per_row must be a multiple of 4")
    bit_gen = np.random.Philox(key=key, counter=start_row * (words_per_row // WORDS_PER_BLOCK))
    raw = bit_gen.random_raw(n_rows * words_per_row)
    return raw.reshape(n_rows, words_per_row)


def uniform01(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles strictly inside (0, 1).

    Uses the top 52 bits so the +0.5 offset is exactly representable for
    every word; 0 and 1 are unreachable, which makes inverse-CDF
    transforms safe.
    """
    return ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def truncated_normal_from_uniform(u: np.ndarray, bound: float) -> np.ndarray:
    """Standard normal conditioned on [-bound, bound], via inverse CDF."""
    lo = ndtr(-bound)
    hi = ndtr(bound)
    return ndtri(lo + u * (hi - lo))
