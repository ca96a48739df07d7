"""Deterministic counter-based random substreams.

All randomness in the package flows through Philox-4x64 streams keyed by a
64-bit user seed plus string purpose tags.  Row i of any generated block
consumes a fixed window of counter positions, so regeneration is
bit-identical no matter how the work is chunked or how many workers run.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import types
from functools import lru_cache

import numpy as np


def _normal_ufuncs():
    """scipy.special's compiled ``ndtr`` and ``ndtri``, loaded without
    running the package's ``__init__``.

    That ``__init__`` sets up scipy's array-API layer
    (``_support_alternative_backends``, ``scipy._lib._array_api``): about
    0.1 s of the 0.26 s ``import knnabc.cli`` took with it (2 vCPUs,
    median of 9 runs; 0.15 s without), for two ufuncs.  A bare stub for
    ``scipy.special`` that carries only ``__path__`` lets
    ``scipy.special._ufuncs`` load alone, and the stub leaves
    ``sys.modules`` at once.  A later ``import scipy.special`` reuses the
    loaded ``_ufuncs``, so its ``ndtr`` and ``ndtri`` are these very
    objects.  Another thread that imports ``scipy.special`` while knnabc
    itself is being imported could see the stub.  A scipy laid out
    otherwise gets the package import.
    """
    module = sys.modules.get("scipy.special")
    if module is None:
        import scipy
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
        sys.modules["scipy.special"] = stub
        try:
            module = importlib.import_module("scipy.special._ufuncs")
        except ImportError:
            pass
        finally:
            if sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
    if not (hasattr(module, "ndtr") and hasattr(module, "ndtri")):
        import scipy.special as module
    return module.ndtr, module.ndtri


ndtr, ndtri = _normal_ufuncs()

WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter block

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_EXPONENT_52 = np.uint64(0x4330000000000000)  # the bits of the double 2^52
_U32_MASK = 0xFFFFFFFF

# a word's top BIN_BITS bits fix its uniform01 to one of 2^BIN_BITS bins
BIN_BITS = 12
_BIN_SHIFT = np.uint64(64 - BIN_BITS)
# a bin table entry is widened by this share of its magnitude, or of 1 if
# that is larger: far beyond ndtri's relative error of about 1e-16
_BIN_MARGIN = 2.0**-30

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on uint32 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def tag_to_int(tag: str) -> int:
    """Stable 64-bit integer for a string tag (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "little")


def _tag_ints(tags) -> list[int]:
    return [tag_to_int(t) if isinstance(t, str) else int(t) & _U64_MASK for t in tags]


def _entropy(seed: int, tags) -> list[int]:
    return [int(seed) & _U64_MASK] + _tag_ints(tags)


def derive_key(seed: int, *tags) -> np.ndarray:
    """128-bit Philox key derived from a master seed and purpose tags."""
    return np.random.SeedSequence(_entropy(seed, tags)).generate_state(2, dtype=np.uint64)


def derive_seed(seed: int, *tags) -> int:
    """A 64-bit sub-seed for handing to APIs that take a plain seed."""
    return int(np.random.SeedSequence(_entropy(seed, tags)).generate_state(1, dtype=np.uint64)[0])


def _entropy_words(ints) -> list[int]:
    """SeedSequence's split of entropy integers into uint32 words: low word
    first, and one word for 0."""
    words = []
    for n in ints:
        words.append(n & _U32_MASK)
        n >>= 32
        while n:
            words.append(n & _U32_MASK)
            n >>= 32
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` over arrays of uint32 words.

    Its running constant never depends on the data, so it is tracked as a
    Python int and applied to every row at once.
    """
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _U32_MASK
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_sequence_states(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words, np.uint64)`` for each row
    of a (rows, L) uint32 array of assembled entropy words."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    columns = list(entropy.T)
    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(columns[i] if i < len(columns) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for column in columns[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(column))
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * n_words)]
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(halves[::2], halves[1::2])],
                    axis=1)


def _states_varying(prefix: list[int], values: np.ndarray, suffix: list[int],
                    n_words: int) -> np.ndarray:
    """States of the entropies ``prefix + [v] + suffix``, one row per uint64 v.

    A v below 2^32 (0 included) is one entropy word, a larger one two, so
    the two kinds are hashed apart.
    """
    values = np.asarray(values, dtype=np.uint64).reshape(-1)
    out = np.empty((values.size, n_words), dtype=np.uint64)
    low = (values & np.uint64(_U32_MASK)).astype(np.uint32)
    high = (values >> np.uint64(32)).astype(np.uint32)
    short = values <= np.uint64(_U32_MASK)
    for rows, middle in ((short, [low]), (~short, [low, high])):
        if rows.any():
            entropy = np.empty((int(rows.sum()), len(prefix) + len(middle) + len(suffix)),
                               dtype=np.uint32)
            entropy[:, :len(prefix)] = prefix
            for i, column in enumerate(middle):
                entropy[:, len(prefix) + i] = column[rows]
            entropy[:, len(prefix) + len(middle):] = suffix
            out[rows] = _seed_sequence_states(entropy, n_words)
    return out


def derive_seeds(seed: int, *tags, count: int) -> np.ndarray:
    """``[derive_seed(seed, *tags, r) for r in range(count)]`` as a uint64
    array, hashed in one vectorised pass."""
    replicates = np.arange(int(count), dtype=np.uint64)
    return _states_varying(_entropy_words(_entropy(seed, tags)), replicates, [], 1)[:, 0]


def derive_keys(seeds, *tags) -> np.ndarray:
    """``derive_key(s, *tags)`` for each of ``seeds`` (uint64), as rows of a
    (len(seeds), 2) array, hashed in one vectorised pass."""
    return _states_varying([], seeds, _entropy_words(_tag_ints(tags)), 2)


def row_words(key: np.ndarray, start_row: int, n_rows: int, words_per_row: int,
              bit_gen: np.random.Philox | None = None) -> np.ndarray:
    """Raw uint64 words for rows [start_row, start_row + n_rows).

    Row i always receives counter words [i*words_per_row, (i+1)*words_per_row),
    so the result is independent of where chunk boundaries fall.
    ``words_per_row`` must be a multiple of 4 to align with Philox blocks.
    A caller that draws from many keys in a row may pass its own ``bit_gen``,
    which is reset to the key and counter instead of a new one being built.
    """
    if words_per_row % WORDS_PER_BLOCK:
        raise ValueError("words_per_row must be a multiple of 4")
    counter = start_row * (words_per_row // WORDS_PER_BLOCK)
    if bit_gen is None:
        bit_gen = np.random.Philox(key=key, counter=counter)
    else:
        _reset_philox(bit_gen, key, counter)
    raw = bit_gen.random_raw(n_rows * words_per_row)
    return raw.reshape(n_rows, words_per_row)


def _reset_philox(bit_gen: np.random.Philox, key: np.ndarray, counter: int) -> None:
    """Put ``bit_gen`` in the state ``Philox(key=key, counter=counter)`` starts in.

    A new Philox costs about 15 us, most of it OS entropy that the key then
    overrides; setting the state costs about 4.
    """
    bit_gen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([(counter >> shift) & _U64_MASK
                                       for shift in (0, 64, 128, 192)], dtype=np.uint64),
                  "key": np.asarray(key, dtype=np.uint64)},
        "buffer": np.zeros(WORDS_PER_BLOCK, dtype=np.uint64),
        "buffer_pos": WORDS_PER_BLOCK,
        "has_uint32": 0,
        "uinteger": 0,
    }


def uniform01(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles strictly inside (0, 1), in place: the
    result overwrites ``words`` and is returned as a float64 view of the
    same memory.

    Uses the top 52 bits, t, so the +0.5 offset is exactly representable
    for every word; 0 and 1 are unreachable, which makes inverse-CDF
    transforms safe.  The double with exponent 52 and mantissa t is
    2^52 + t, so (t + 0.5) 2^-52 comes from integer and float operations
    that are all exact.
    """
    bits = np.right_shift(words, np.uint64(12), out=words)
    np.bitwise_or(bits, _EXPONENT_52, out=bits)
    u = bits.view(np.float64)
    np.subtract(u, 2.0**52 - 0.5, out=u)
    return np.multiply(u, 2.0**-52, out=u)


def truncated_normal_from_uniform(u: np.ndarray, bound: float, out: np.ndarray) -> np.ndarray:
    """Standard normal conditioned on [-bound, bound], via inverse CDF;
    ``out`` (which may be ``u``) receives the result."""
    lo = ndtr(-bound)
    hi = ndtr(bound)
    out = np.multiply(u, hi - lo, out=out)
    np.add(out, lo, out=out)
    return ndtri(out, out=out)


def word_bins(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The bin of each word's ``uniform01``, its top ``BIN_BITS`` bits, into
    the int64 array ``out`` (which may share the words' memory)."""
    np.right_shift(words, _BIN_SHIFT, out=out.view(np.uint64))
    return out


def _frozen(*arrays) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def uniform_bins() -> tuple[np.ndarray, np.ndarray]:
    """The smallest and the largest ``uniform01`` of the words in each bin,
    exactly: a bin's words share their top bits, and ``uniform01`` is
    monotone in the word."""
    words = np.arange(1 << BIN_BITS, dtype=np.uint64) << _BIN_SHIFT
    top = words | np.uint64((1 << (64 - BIN_BITS)) - 1)
    return _frozen(uniform01(words), uniform01(top))


@lru_cache(maxsize=16)
def truncated_normal_bins(bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on ``truncated_normal_from_uniform(u, bound)`` over each bin's
    uniforms u, built on first use for each bound.

    The steps before ``ndtri`` are monotone in u, and ``ndtri`` is within
    about 1e-16 of its increasing exact value, so its results over a bin
    lie within that of its values at the bin's two edges.  Each entry is
    widened by ``_BIN_MARGIN`` times its magnitude (at least 1).
    """
    lo, hi = (truncated_normal_from_uniform(u, bound, out=np.empty_like(u))
              for u in uniform_bins())
    np.subtract(lo, _BIN_MARGIN * np.maximum(np.abs(lo), 1.0), out=lo)
    np.add(hi, _BIN_MARGIN * np.maximum(np.abs(hi), 1.0), out=hi)
    return _frozen(lo, hi)
