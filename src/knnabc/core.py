"""Reference-table generation and the two acceptance rules.

``generate_table`` draws N iid (theta_i, s_i) pairs with one counter-based
substream per row, so tables regenerate bit-identically for a given
(model, seed, N) at any worker count.  ``abc_knn`` keeps the k nearest
summaries by squared distance with index tie-breaking, in expected O(N)
via partial selection; ``abc_tolerance`` keeps everything within a fixed
radius.  ``sample_restricted`` draws from the joint density restricted
to the ball cylinder via rejection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRadiusError, InvalidArgumentError
from .models import Model
from .numerics import parallel_map, round_half_up
from .rng import derive_key, row_words, uniform01

_CHUNK_ROWS = 1 << 15
_MAX_SEED = 2**64


@dataclass(frozen=True)
class ReferenceTable:
    """N iid draws (theta_i, s_i) from pi(theta) f(s|theta)."""

    thetas: np.ndarray     # (N, p)
    summaries: np.ndarray  # (N, m)
    seed: int
    model_id: str

    def __post_init__(self):
        if self.thetas.shape[0] != self.summaries.shape[0]:
            raise InvalidArgumentError("thetas and summaries must have equal row counts")
        if self.thetas.shape[0] < 2:
            raise InvalidArgumentError("a reference table requires N >= 2")

    @property
    def n_rows(self) -> int:
        return self.thetas.shape[0]


@dataclass(frozen=True)
class AcceptedSet:
    """Accepted rows ordered by (squared distance, original index).

    ``radius_next`` is the distance to the first row beyond the accepted
    ones: d_(k+1) for the k-nearest rule, and the smallest distance above
    epsilon (or +inf) for the tolerance rule.
    """

    ordered_thetas: np.ndarray     # (k, p)
    ordered_summaries: np.ndarray  # (k, m)
    distances: np.ndarray          # (k,) nondecreasing
    radius_next: float
    source_indices: np.ndarray     # (k,) original row numbers

    @property
    def k(self) -> int:
        return self.distances.shape[0]


def _validate_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise InvalidArgumentError("seed must be a 64-bit unsigned integer")
    return seed


def _words_per_row(model: Model) -> int:
    need = model.theta_words + model.summary_words
    return 4 * ((need + 3) // 4)


def _joint_rows(model: Model, key: np.ndarray, start: int, stop: int):
    """Rows [start, stop) of the joint stream for the given key."""
    wpr = _words_per_row(model)
    words = row_words(key, start, stop - start, wpr)
    tw = model.theta_words
    thetas = model.thetas_from_uniforms(uniform01(words[:, :tw]))
    summaries = model.summaries_from_uniforms(
        thetas, uniform01(words[:, tw:tw + model.summary_words]))
    return thetas, summaries


def generate_table(model: Model, n_rows: int, seed: int, max_workers: int = 1) -> ReferenceTable:
    """Simulate the iid reference table.

    Row i depends only on (seed, i): chunk boundaries are fixed and each
    chunk reads its own counter range, so output is identical for any
    ``max_workers``.
    """
    n_rows = int(n_rows)
    if n_rows < 2:
        raise InvalidArgumentError("n_rows must be >= 2 (the k-nearest rule needs 1 <= k <= N-1)")
    seed = _validate_seed(seed)
    key = derive_key(seed, "table", model.model_id)

    spans = [(start, min(start + _CHUNK_ROWS, n_rows)) for start in range(0, n_rows, _CHUNK_ROWS)]
    chunks = parallel_map(lambda span: _joint_rows(model, key, *span), spans, max_workers)
    thetas = np.concatenate([c[0] for c in chunks], axis=0)
    summaries = np.concatenate([c[1] for c in chunks], axis=0)
    return ReferenceTable(thetas=thetas, summaries=summaries, seed=seed, model_id=model.model_id)


def squared_distances(summaries: np.ndarray, s0) -> np.ndarray:
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if s0.shape[0] != summaries.shape[1]:
        raise InvalidArgumentError(
            f"s0 has dimension {s0.shape[0]}, summaries have m={summaries.shape[1]}")
    diff = summaries - s0
    if diff.shape[1] == 1:
        return diff[:, 0] ** 2
    return np.einsum("ij,ij->i", diff, diff)


def _build_accepted(table: ReferenceTable, idx: np.ndarray, distances: np.ndarray,
                    radius_next: float) -> AcceptedSet:
    return AcceptedSet(
        ordered_thetas=table.thetas[idx],
        ordered_summaries=table.summaries[idx],
        distances=distances,
        radius_next=float(radius_next),
        source_indices=idx.astype(np.int64),
    )


def abc_knn(table: ReferenceTable, s0, k: int) -> AcceptedSet:
    """Accept the k rows whose summaries are nearest to s0.

    Ordering and tie-breaking are by the pair (squared distance, original
    index), so results are deterministic even with exact float ties.
    Expected O(N): a partial selection positions the k-th and (k+1)-th
    order statistics, and only the winners get sorted.
    """
    n = table.n_rows
    k = int(k)
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError(f"k must satisfy 1 <= k <= N-1 = {n - 1}, got {k}")
    d2 = squared_distances(table.summaries, s0)
    part = np.partition(d2, (k - 1, k))
    kth_value, next_value = part[k - 1], part[k]

    below = np.flatnonzero(d2 < kth_value)
    at = np.flatnonzero(d2 == kth_value)
    chosen = np.concatenate([below, at[: k - below.size]])
    order = np.lexsort((chosen, d2[chosen]))
    idx = chosen[order]
    return _build_accepted(table, idx, np.sqrt(d2[idx]), np.sqrt(next_value))


def abc_tolerance(table: ReferenceTable, s0, epsilon: float) -> AcceptedSet:
    """Accept every row with ||s_i - s0|| <= epsilon (possibly none).

    ``radius_next`` is the smallest distance beyond epsilon, +inf when all
    rows are accepted.
    """
    epsilon = float(epsilon)
    if not epsilon >= 0.0:
        raise InvalidArgumentError("epsilon must be >= 0")
    d2 = squared_distances(table.summaries, s0)
    d = np.sqrt(d2)
    inside = d <= epsilon
    chosen = np.flatnonzero(inside)
    order = np.lexsort((chosen, d2[chosen]))
    idx = chosen[order]
    radius_next = float(d[~inside].min()) if chosen.size < table.n_rows else np.inf
    return _build_accepted(table, idx, d[idx], radius_next)


def percentile_to_k(n_rows: int, alpha: float) -> int:
    """Acceptance percentile -> neighbor count, clamped into [1, N-1]."""
    n_rows = int(n_rows)
    if n_rows < 2:
        raise InvalidArgumentError("n_rows must be >= 2")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError("alpha must lie strictly inside (0, 1)")
    return max(1, min(n_rows - 1, round_half_up(alpha * n_rows)))


def sample_restricted(model: Model, s0, radius: float, count: int, seed: int,
                      batch_rows: int = 1 << 14,
                      probe_budget: int = 10_000_000):
    """Draw ``count`` iid pairs from the joint density restricted to the
    cylinder {(theta, s): ||s - s0|| <= radius}.

    Proposals come from the unrestricted joint (a dedicated substream of
    ``seed``) and survive iff the summary lands in the ball, which yields
    the restriction exactly.  If the empirical acceptance rate over at
    least ``probe_budget`` proposals falls below 1e-12 the radius is
    declared infeasible.
    """
    radius = float(radius)
    if not radius > 0.0:
        raise InvalidArgumentError("radius must be > 0")
    count = int(count)
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    seed = _validate_seed(seed)
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    key = derive_key(seed, "restricted", model.model_id)

    kept_thetas, kept_summaries = [], []
    kept = 0
    drawn = 0
    start = 0
    r2 = radius * radius
    while kept < count:
        thetas, summaries = _joint_rows(model, key, start, start + batch_rows)
        start += batch_rows
        drawn += batch_rows
        accept = squared_distances(summaries, s0) <= r2
        kept_thetas.append(thetas[accept])
        kept_summaries.append(summaries[accept])
        kept += int(accept.sum())
        if kept < count and drawn >= probe_budget and kept / drawn < 1e-12:
            raise InfeasibleRadiusError(
                f"acceptance rate below 1e-12 after {drawn} proposals "
                f"(radius={radius!r}, s0={s0.tolist()})")
    thetas = np.concatenate(kept_thetas, axis=0)[:count]
    summaries = np.concatenate(kept_summaries, axis=0)[:count]
    return thetas, summaries


# ---------------------------------------------------------------------------
# persistence

_MAGIC = b"ABCT"
_VERSION = 1
_HEADER = struct.Struct("<4sIQIIQ H")  # magic, version, N, p, m, seed, len(model_id)


def table_to_bytes(table: ReferenceTable) -> bytes:
    """Binary column layout: header, then each theta column and each summary
    column as little-endian float64."""
    model_id = table.model_id.encode("utf-8")
    parts = [_HEADER.pack(_MAGIC, _VERSION, table.n_rows,
                          table.thetas.shape[1], table.summaries.shape[1],
                          table.seed, len(model_id)), model_id]
    for j in range(table.thetas.shape[1]):
        parts.append(np.ascontiguousarray(table.thetas[:, j], dtype="<f8").tobytes())
    for j in range(table.summaries.shape[1]):
        parts.append(np.ascontiguousarray(table.summaries[:, j], dtype="<f8").tobytes())
    return b"".join(parts)


def table_from_bytes(blob: bytes) -> ReferenceTable:
    magic, version, n, p, m, seed, id_len = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise InvalidArgumentError("not a reference-table file (bad magic)")
    if version != _VERSION:
        raise InvalidArgumentError(f"unsupported table file version {version}")
    off = _HEADER.size
    model_id = blob[off:off + id_len].decode("utf-8")
    off += id_len
    cols = np.frombuffer(blob, dtype="<f8", count=n * (p + m), offset=off)
    cols = cols.reshape(p + m, n)
    return ReferenceTable(
        thetas=np.ascontiguousarray(cols[:p].T),
        summaries=np.ascontiguousarray(cols[p:].T),
        seed=seed, model_id=model_id)

