"""Reference-table generation and the two acceptance rules.

``generate_table`` draws N iid (theta_i, s_i) pairs with one counter-based
substream per row, so tables regenerate bit-identically for a given
(model, seed, N) at any worker count.  ``abc_knn`` keeps the k nearest
summaries by squared distance with index tie-breaking, in expected O(N)
via partial selection; ``abc_tolerance`` keeps every row within a radius.
``simulate_knn`` and ``simulate_tolerance`` select by the same rules while
simulating, without holding the table; ``block_distances`` gives the
distances of many equal-size tables at once, for validation replicates.
``sample_restricted`` draws from the ball-restricted joint by rejection.
``write_table`` writes a table's binary layout one chunk at a time.  Worker
threads only simulate a table's chunks; the caller loops over them in order.
"""

from __future__ import annotations

import io
import math
import struct
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRadiusError, InvalidArgumentError
from .models import Model
from .numerics import ordered_map, parallel_map, round_half_up
from .rng import WORDS_PER_BLOCK, derive_key, derive_keys, row_words, uniform01, word_bins

_CHUNK_ROWS = 1 << 15
_BLOCK_ROWS = 1 << 15  # table rows per block of validation tables
_RAMP_ROWS = 1 << 10  # the least first span of a ramped scan
_MOVE_ROWS = 1 << 8  # rows of words moved at a time after a bounds pass
# key derivation keeps only a seed's low 64 bits and table.bin stores it as
# uint64, so a larger seed is an error, not an alias
SEED_MAX = 2**64 - 1


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
    if not 0 <= seed <= SEED_MAX:
        raise InvalidArgumentError("seed must be a 64-bit unsigned integer")
    return seed


def _words_per_row(model: Model) -> int:
    """A row's words, ``model.words`` padded to whole Philox blocks."""
    return (model.words + WORDS_PER_BLOCK - 1) // WORDS_PER_BLOCK * WORDS_PER_BLOCK


class _Scratch:
    """One worker's buffers for chunks of up to ``rows`` rows, reused for
    every chunk it simulates, so that a chunk allocates little beyond its
    Philox words; ``words`` holds a block's words gathered from many
    tables.  The thetas, summaries and distances share one buffer, whose
    (p + m + 1, rows) ``columns`` the bounds pass uses before any of them
    holds a value."""

    def __init__(self, model: Model, rows: int, words: bool = False):
        p, m = model.p, model.m
        self.columns = np.empty((p + m + 1, rows))
        self.thetas = self.columns[:p].reshape(rows, p)
        self.summaries = self.columns[p:p + m].reshape(rows, m)
        self.d2 = self.columns[p + m]
        self.words = np.empty((rows, _words_per_row(model)), dtype=np.uint64) if words else None
        self.bit_gen = np.random.Philox(0)  # reset to each key and counter by row_words


class Spares:
    """Spare buffers for one call: ``take`` reuses one or makes one with
    ``make()``, and ``give`` returns it once its result is used; never more
    than work in flight."""

    def __init__(self, make):
        self._make = make
        self._spare = []  # list.pop and list.append are atomic, so threads can share it
        self.give = self._spare.append

    def take(self):
        try:
            return self._spare.pop()
        except IndexError:
            return self._make()


class Workspace:
    """One thread's buffers for a run of calls on one model: the candidate
    pool and chunk scratch of ``simulate_knn`` and the batch scratch of
    ``sample_restricted``.  A call given a workspace takes its buffers from
    it and leaves them there for the next call, so replicates of one size
    allocate them once; it serves one call at a time.  A call given none
    builds its own."""

    def __init__(self, model: Model):
        self.model = model
        self._held = {}  # name -> (size, buffers)

    def _get(self, name: str, size: int, make):
        held = self._held.get(name)
        if held is None or held[0] != size:
            held = self._held[name] = size, make()
        return held[1]

    def pool(self, cap: int) -> tuple[np.ndarray, ...]:
        """Candidate arrays of ``cap`` rows: d2, row index, thetas, summaries."""
        p, m = self.model.p, self.model.m
        return self._get("pool", cap, lambda: (np.empty(cap), np.empty(cap, dtype=np.int64),
                                               np.empty((cap, p)), np.empty((cap, m))))

    def chunks(self, rows: int) -> Spares:
        """Spare scratch for chunks of up to ``rows`` rows."""
        model = self.model  # a maker holding self would make a cycle only gc frees
        return self._get("chunks", rows, lambda: Spares(lambda: _Scratch(model, rows)))

    def batch(self) -> _Scratch:
        """Scratch for one batch of the restricted sampler."""
        return self._get("batch", _BATCH_ROWS, lambda: _Scratch(self.model, _BATCH_ROWS))


def _bounds_filter(model: Model, words: np.ndarray, scratch: _Scratch, s0: np.ndarray,
                   tau: float) -> np.ndarray | None:
    """Positions of the rows of ``words`` whose squared distance to s0 may
    be at most tau, from the bins of their words alone (None when no row
    is ruled out).

    From the last summary entry to the first, each entry's bounds
    (``model.summary_bounds``) give its distance to s0's entry from below,
    and a row is dropped once the sum of their squares exceeds
    tau * (1 + 2m 2^-52).  Rounding is monotone, so each rounded term is at
    most the exact test's own rounded square of that entry; the two float
    sums of m nonnegative terms are each within about m 2^-53 of their
    exact values, so a dropped row's computed squared distance exceeds
    tau.  The bounds live in ``scratch.columns``, one column each, and an
    added ``gather`` takes one more column while it runs.
    """
    lo, hi, binned, *rest = scratch.columns
    lb = rest[0] if rest else lo  # p = m = 1: the one entry's square is the sum
    limit = tau * (1.0 + 2 * model.m * 2.0**-52)
    rows = None  # positions of the rows in play, once some are dropped
    n = words.shape[0]

    def bins(column):
        col = words[:, column]
        if rows is not None:
            col = np.take(col, rows, out=binned[:n].view(np.uint64), mode="clip")
        return word_bins(col, binned[:n].view(np.int64))

    def gather(column, table, add=False):
        at = bins(column)
        for bound, values in zip((lo[:n], hi[:n]), table):
            if add:
                np.add(bound, np.take(values, at, mode="clip"), out=bound)
            else:
                np.take(values, at, out=bound, mode="clip")

    for step, j in enumerate(reversed(range(model.m))):
        gap, other = lo[:n], hi[:n]
        model.summary_bounds(j, gather, gap, other)
        # the distance from s0[j] to [lo, hi], squared
        np.subtract(gap, s0[j], out=gap)
        np.subtract(s0[j], other, out=other)
        np.maximum(gap, other, out=gap)
        np.maximum(gap, 0.0, out=gap)
        if step:
            np.multiply(gap, gap, out=gap)
            np.add(lb[:n], gap, out=lb[:n])
        else:
            np.multiply(gap, gap, out=lb[:n])
        keep = np.flatnonzero(lb[:n] <= limit)
        if keep.size < n:
            n = keep.size
            lb[:n] = lb[keep]
            rows = keep if rows is None else rows[keep]
    return rows


def _simulate_rows(model: Model, words: np.ndarray, scratch: _Scratch,
                   s0: np.ndarray | None = None, tau: float = np.inf):
    """Simulate the joint rows whose Philox words are ``words`` into
    ``scratch``, keeping those with squared distance at most ``tau`` to
    ``s0`` (every row without s0).  ``words`` may be overwritten.

    Returns (rows, thetas, summaries, d2) of the rows kept, in order: their
    positions in ``words`` (None when every row is kept), their values and
    their squared distances (None without s0).  Once tau is finite, a
    bounds pass on the raw words (``_bounds_filter``) first drops most rows
    beyond it, before their uniforms and inverse CDF are computed; the
    test of the rows left is d2 <= tau, on the ``squared_distances`` of
    their summaries.  A kept row gets the same elementwise operations as if
    it had been simulated alone, so its values do not depend on the rows
    dropped.
    """
    rows = None
    if s0 is not None and tau != np.inf:
        rows = _bounds_filter(model, words, scratch, s0, tau)
        if rows is not None:
            # move the rows left to the front, a few at a time, so that no
            # copy of all of them exists beside the chunk's words; rows
            # ascend, so each part reads only rows not yet overwritten
            for start in range(0, rows.size, _MOVE_ROWS):
                part = rows[start:start + _MOVE_ROWS]
                words[start:start + part.size] = words[part]
            words = words[:rows.size]
    n = words.shape[0]
    u = uniform01(words)[:, :model.words]  # the model never sees the padding words
    thetas, summaries, d2 = scratch.thetas[:n], scratch.summaries[:n], scratch.d2[:n]
    model.thetas_from_uniforms(u, thetas)
    model.summaries_from_uniforms(thetas, u, summaries)
    if s0 is None:
        return rows, thetas, summaries, None
    squared_distances(summaries, s0, out=d2)
    if tau != np.inf:  # else every row is kept, NaN distances too
        keep = np.flatnonzero(d2 <= tau)
        if keep.size < n:
            n = keep.size
            d2[:n], thetas[:n], summaries[:n] = d2[keep], thetas[keep], summaries[keep]
            rows = keep if rows is None else rows[keep]
    return rows, thetas[:n], summaries[:n], d2[:n]


def check_s0(s0, m: int) -> np.ndarray:
    """s0 as a finite float vector of the summary dimension m.  A NaN or
    infinite s0 is rejected: every row's distance to it is NaN or infinite,
    so no row is within a finite bound of it or nearer to it than another."""
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if s0.shape[0] != m:
        raise InvalidArgumentError(f"s0 has dimension {s0.shape[0]}, summaries have m={m}")
    if not np.isfinite(s0).all():
        raise InvalidArgumentError("s0 must not contain NaN or infinite entries")
    return s0


def _scan_table(model: Model, key: np.ndarray, n_rows: int, max_workers: int,
                s0: np.ndarray | None = None, tau=lambda: np.inf, first: int = _CHUNK_ROWS,
                workspace: Workspace | None = None):
    """Simulate the table of ``n_rows`` rows with this key one span of rows
    at a time, yielding ``(start, rows, thetas, summaries, d2)`` for each
    span in row order: its first row number and its ``_simulate_rows``
    result for ``tau()`` read as the span starts.  The first span has
    ``first`` rows and each later one 4 times as many, up to
    ``_CHUNK_ROWS``; a row's bits depend only on its words, so the spans
    change no output.  Workers only simulate; the caller's loop runs in
    the calling thread, and a span's scratch (from ``workspace``, if given)
    goes back when the caller asks for the next span, before
    ``ordered_map`` starts another.  Closing the generator, as dropping an
    abandoned loop does, waits for the spans started.
    """
    wpr = _words_per_row(model)
    pool = (workspace or Workspace(model)).chunks(min(_CHUNK_ROWS, n_rows))
    ramp, rows = [0], first  # where each span shorter than a chunk starts, then the chunks
    while rows < _CHUNK_ROWS and ramp[-1] < n_rows:
        ramp.append(min(n_rows, ramp[-1] + rows))
        rows *= 4
    short, chunked = len(ramp) - 1, ramp[-1]

    def simulate(span: int):
        if span < short:
            start, stop = ramp[span], ramp[span + 1]
        else:
            start = chunked + (span - short) * _CHUNK_ROWS
            stop = min(n_rows, start + _CHUNK_ROWS)
        scratch = pool.take()
        words = row_words(key, start, stop - start, wpr, scratch.bit_gen)
        return start, scratch, _simulate_rows(model, words, scratch, s0, tau())

    # the span numbers are a range, read in place, however long the table
    spans = range(short + (n_rows - chunked + _CHUNK_ROWS - 1) // _CHUNK_ROWS)
    with closing(ordered_map(simulate, spans, max_workers)) as simulated:
        for start, scratch, result in simulated:
            yield start, *result
            pool.give(scratch)


def _table_tags(model: Model) -> tuple[str, str]:
    """Purpose tags of a table's joint stream, after its seed."""
    return "table", model.model_id


def _table_stream(model: Model, n_rows: int, seed: int) -> tuple[int, int, np.ndarray]:
    """Checked (n_rows, seed) and the key of the table's joint stream."""
    n_rows = int(n_rows)
    if n_rows < 2:
        raise InvalidArgumentError("n_rows must be >= 2 (the k-nearest rule needs 1 <= k <= N-1)")
    seed = _validate_seed(seed)
    return n_rows, seed, derive_key(seed, *_table_tags(model))


def table_keys(model: Model, seeds: np.ndarray) -> np.ndarray:
    """The joint-stream keys of the tables with these uint64 ``seeds``, one
    row each: row b is the key ``generate_table`` derives from seeds[b]."""
    return derive_keys(seeds, *_table_tags(model))


def block_distances(model: Model, keys: np.ndarray, n_rows: int, s0,
                    scratch: _Scratch) -> np.ndarray:
    """Squared distances to s0 of every row of several equal-size tables.

    Row b of the (len(keys), n_rows) result is
    ``squared_distances(generate_table(model, n_rows, seed).summaries, s0)``,
    bit for bit, for the seed whose key is keys[b].  Each table's words come
    from one Philox call; the uniforms, the model's transforms and the
    distances then run once over the whole block.  A table longer than
    ``_CHUNK_ROWS`` is done one chunk of rows at a time, so the work beyond
    the result is bounded by one chunk per table.  Every chunk runs in
    ``scratch``, which needs words and room for
    ``len(keys) * min(n_rows, _CHUNK_ROWS)`` rows, so a caller running
    many blocks reuses one scratch for all of them.  s0 is used as given,
    a float vector of dimension m; a NaN s0 gives NaN distances.
    """
    wpr = _words_per_row(model)
    n_tables = len(keys)
    d2 = np.empty((n_tables, n_rows))
    step = min(n_rows, _CHUNK_ROWS)
    words = scratch.words
    for start in range(0, n_rows, step):
        rows = min(step, n_rows - start)
        for b, key in enumerate(keys):
            words[b * rows:(b + 1) * rows] = row_words(key, start, rows, wpr, scratch.bit_gen)
        *_, block = _simulate_rows(model, words[:n_tables * rows], scratch, s0)
        d2[:, start:start + rows] = block.reshape(n_tables, rows)
    return d2


def kth_distances(model: Model, keys: np.ndarray, n_rows: int, s0, k: int,
                  max_workers: int = 1) -> np.ndarray:
    """Order statistic k (counting from 0) of the squared distances to s0
    of each table whose key is in ``keys``: entry b is row b of
    ``block_distances(model, keys, n_rows, s0, ...)`` partitioned at k, so the
    result is the same at any worker count.

    The tables run in blocks of about ``_BLOCK_ROWS`` rows, and a worker
    reuses its scratch for every block it runs, so the memory beyond the
    result is one block per worker and is not handed back to the system
    and faulted in again between blocks.
    """
    per_block = max(1, _BLOCK_ROWS // n_rows)
    pool = Spares(lambda: _Scratch(model, per_block * min(n_rows, _CHUNK_ROWS), words=True))

    def block(start: int) -> np.ndarray:
        scratch = pool.take()
        d2 = block_distances(model, keys[start:start + per_block], n_rows, s0, scratch)
        pool.give(scratch)
        d2.partition(k, axis=1)
        return d2[:, k].copy()  # a view would keep the whole block alive

    return np.concatenate(parallel_map(block, range(0, len(keys), per_block), max_workers))


def generate_table(model: Model, n_rows: int, seed: int, max_workers: int = 1) -> ReferenceTable:
    """Simulate the iid reference table.

    Row i depends only on (seed, i): chunk boundaries are fixed and each
    chunk reads its own counter range, so output is identical for any
    ``max_workers``.
    """
    n_rows, seed, key = _table_stream(model, n_rows, seed)

    # each chunk is copied into its own slice, so the table is held once
    thetas = np.empty((n_rows, model.p))
    summaries = np.empty((n_rows, model.m))

    for start, _, chunk_thetas, chunk_summaries, _ in _scan_table(model, key, n_rows, max_workers):
        stop = start + chunk_thetas.shape[0]
        thetas[start:stop], summaries[start:stop] = chunk_thetas, chunk_summaries
    return ReferenceTable(thetas=thetas, summaries=summaries, seed=seed, model_id=model.model_id)


def squared_distances(summaries: np.ndarray, s0, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances ||s_i - s0||^2, one per row, into
    ``out`` if given.

    For m > 1 the differences are formed ``_CHUNK_ROWS`` rows at a time,
    so the work beyond the (N,) result is bounded by one block; each row's
    sum is the same ``einsum`` as over the whole array, bit for bit.
    """
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if s0.shape[0] != summaries.shape[1]:
        raise InvalidArgumentError(
            f"s0 has dimension {s0.shape[0]}, summaries have m={summaries.shape[1]}")
    if s0.shape[0] == 1:
        diff = np.subtract(summaries[:, 0], s0[0], out=out)
        return np.multiply(diff, diff, out=diff)
    if out is None:
        out = np.empty(summaries.shape[0])
    for start in range(0, summaries.shape[0], _CHUNK_ROWS):
        diff = summaries[start:start + _CHUNK_ROWS] - s0
        np.einsum("ij,ij->i", diff, diff, out=out[start:start + _CHUNK_ROWS])
    return out


def _build_accepted(thetas: np.ndarray, summaries: np.ndarray, pos: np.ndarray,
                    index: np.ndarray, distances: np.ndarray,
                    radius_next: float) -> AcceptedSet:
    """The rows at ``pos``, whose row numbers are ``index``, as an AcceptedSet."""
    return AcceptedSet(
        ordered_thetas=thetas[pos],
        ordered_summaries=summaries[pos],
        distances=distances,
        radius_next=float(radius_next),
        source_indices=index.astype(np.int64),
    )


def _check_k(k: int, n_rows: int) -> int:
    k = int(k)
    if not 1 <= k <= n_rows - 1:
        raise InvalidArgumentError(f"k must satisfy 1 <= k <= N-1 = {n_rows - 1}, got {k}")
    return k


def _check_epsilon(epsilon: float) -> float:
    if not float(epsilon) >= 0.0:
        raise InvalidArgumentError("epsilon must be >= 0")
    return float(epsilon)


def _nearest(d2: np.ndarray, k: int, index: np.ndarray | None = None):
    """The k-nearest rule on squared distances ``d2`` (length > k).

    Returns the positions in ``d2`` of its k smallest entries by (value,
    row index), in that order, and the (k+1)-th smallest value.  ``index``
    gives each entry's row index, in any order; by default it is the
    position.  A partial selection positions the k-th and (k+1)-th order
    statistics, and only the winners get sorted.
    """
    part = np.partition(d2, (k - 1, k))
    kth_value = part[k - 1]
    below = np.flatnonzero(d2 < kth_value)
    at = np.flatnonzero(d2 == kth_value)
    if index is not None:
        at = at[np.argsort(index[at])]
    chosen = np.concatenate([below, at[: k - below.size]])
    order = np.lexsort((chosen if index is None else index[chosen], d2[chosen]))
    return chosen[order], part[k]


def abc_knn(table: ReferenceTable, s0, k: int) -> AcceptedSet:
    """Accept the k rows whose summaries are nearest to s0.

    Ordering and tie-breaking are by the pair (squared distance, original
    index), so results are deterministic even with exact float ties.
    Expected O(N) (see ``_nearest``).  s0 must be finite.
    """
    k = _check_k(k, table.n_rows)
    d2 = squared_distances(table.summaries, check_s0(s0, table.summaries.shape[1]))
    idx, next_value = _nearest(d2, k)
    return _build_accepted(table.thetas, table.summaries, idx, idx, np.sqrt(d2[idx]),
                           np.sqrt(next_value))


def simulate_knn(model: Model, n_rows: int, seed: int, s0, k: int,
                 max_workers: int = 1, workspace: Workspace | None = None) -> AcceptedSet:
    """``abc_knn(generate_table(model, n_rows, seed), s0, k)``, bit for bit,
    without holding the table.

    Each chunk of the joint stream adds its rows with squared distance at
    most tau, the (k+1)-th smallest seen at the last cut, to a candidate
    pool with their row indices.  Once the pool holds more than 2(k+1)
    rows it is cut back to its k+1 nearest by (distance, index), which
    lowers tau.  Rows beyond those k+1 can neither be accepted nor be
    d_(k+1), so the pool never holds more than 2(k+1) rows plus one chunk,
    and the cuts cost amortised O(N).  Once tau is finite, a chunk drops
    most rows beyond it from their words' bins, before their inverse CDF
    (see ``_simulate_rows``).  A table longer than one chunk is scanned in
    spans that start at max(``_RAMP_ROWS``, 4(k+1)) rows, so tau is finite
    after the first of them (``_scan_table``).  The pool is filled and cut
    in the calling thread, in row order; a chunk reads tau as it starts,
    and a stale tau only adds rows, so the result is the same at any
    worker count.  The pool and the chunk scratch come from ``workspace``
    if given.
    """
    n_rows, _, key = _table_stream(model, n_rows, seed)
    k = _check_k(k, n_rows)
    s0 = check_s0(s0, model.m)
    workspace = workspace or Workspace(model)
    pool_d2, pool_index, pool_thetas, pool_summaries = workspace.pool(
        min(n_rows, 2 * (k + 1) + _CHUNK_ROWS))
    size, tau = 0, np.inf
    first = max(_RAMP_ROWS, 4 * (k + 1)) if n_rows > _CHUNK_ROWS else _CHUNK_ROWS
    for start, rows, thetas, summaries, d2 in _scan_table(model, key, n_rows, max_workers, s0,
                                                          lambda: tau, first, workspace):
        end = size + d2.size
        pool_d2[size:end] = d2
        pool_index[size:end] = (start + np.arange(d2.size)) if rows is None else start + rows
        pool_thetas[size:end] = thetas
        pool_summaries[size:end] = summaries
        size = end
        if size > 2 * (k + 1):
            cut, _ = _nearest(pool_d2[:size], k + 1, pool_index[:size])
            for pool in (pool_d2, pool_index, pool_thetas, pool_summaries):
                pool[:k + 1] = pool[cut]
            size = k + 1
            tau = pool_d2[k]
    pos, next_value = _nearest(pool_d2[:size], k, pool_index[:size])
    return _build_accepted(pool_thetas, pool_summaries, pos, pool_index[pos],
                           np.sqrt(pool_d2[pos]), np.sqrt(next_value))


def abc_tolerance(table: ReferenceTable, s0, epsilon: float) -> AcceptedSet:
    """Accept every row with ||s_i - s0|| <= epsilon (possibly none).

    ``radius_next`` is the smallest distance beyond epsilon, +inf when all
    rows are accepted.  s0 must be finite.
    """
    epsilon = _check_epsilon(epsilon)
    d2 = squared_distances(table.summaries, check_s0(s0, table.summaries.shape[1]))
    d = np.sqrt(d2)
    inside = d <= epsilon
    chosen = np.flatnonzero(inside)
    order = np.lexsort((chosen, d2[chosen]))
    idx = chosen[order]
    radius_next = np.min(d, where=~inside, initial=np.inf)
    return _build_accepted(table.thetas, table.summaries, idx, idx, d[idx], radius_next)


def simulate_tolerance(model: Model, n_rows: int, seed: int, s0, epsilon: float,
                       max_workers: int = 1) -> AcceptedSet:
    """``abc_tolerance(generate_table(model, n_rows, seed), s0, epsilon)``, bit for bit, holding
    only the accepted rows.  tau is the least d2 beyond epsilon; a stale tau keeps extra rows."""
    n_rows, _, key = _table_stream(model, n_rows, seed)
    epsilon, s0 = _check_epsilon(epsilon), check_s0(s0, model.m)
    parts, beyond = [], np.inf
    for start, rows, thetas, summaries, d2 in _scan_table(model, key, n_rows, max_workers, s0,
                                                          lambda: beyond):
        inside = np.sqrt(d2) <= epsilon  # the test of abc_tolerance
        beyond = min(beyond, np.min(d2, where=~inside, initial=np.inf))
        if inside.any() or not parts:  # only the first part may be empty: it sets the dtypes
            index = start + (np.arange(d2.size) if rows is None else rows)
            parts.append((index[inside], thetas[inside], summaries[inside], d2[inside]))
    index, thetas, summaries, d2 = map(np.concatenate, zip(*parts))
    pos = np.lexsort((index, d2))  # sqrt is monotone, so sqrt(beyond) is the least distance
    return _build_accepted(thetas, summaries, pos, index[pos], np.sqrt(d2[pos]), np.sqrt(beyond))


def percentile_to_k(n_rows: int, alpha: float) -> int:
    """Acceptance percentile -> neighbor count, clamped into [1, N-1]."""
    n_rows = int(n_rows)
    if n_rows < 2:
        raise InvalidArgumentError("n_rows must be >= 2")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError("alpha must lie strictly inside (0, 1)")
    return max(1, min(n_rows - 1, round_half_up(alpha * n_rows)))


# the restricted sampler's largest batch, and the proposals it draws
# before an acceptance rate below 1e-12 declares the radius infeasible
_BATCH_ROWS = 1 << 14
_PROBE_BUDGET = 10_000_000


def sample_restricted(model: Model, s0, radius: float, count: int, seed: int,
                      workspace: Workspace | None = None):
    """Draw ``count`` iid pairs from the joint density restricted to the
    cylinder {(theta, s): ||s - s0|| <= radius}.

    Proposals come from the unrestricted joint (a dedicated substream of
    ``seed``) and survive iff the summary lands in the ball, which yields
    the restriction exactly.  If the empirical acceptance rate over at
    least ``_PROBE_BUDGET`` proposals falls below 1e-12 the radius is
    declared infeasible.

    Accepted rows are taken in stream order, so the output does not depend
    on batch sizes.  Batches hold ``_BATCH_ROWS`` rows until a row is
    accepted; later ones are sized from the acceptance rate seen so far.
    Each batch drops most rows outside the ball from their words' bins,
    before their inverse CDF (see ``_simulate_rows``), in a scratch from
    ``workspace`` if given.
    """
    radius = float(radius)
    if not radius > 0.0:
        raise InvalidArgumentError("radius must be > 0")
    count = int(count)
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    seed = _validate_seed(seed)
    s0 = check_s0(s0, model.m)
    key = derive_key(seed, "restricted", model.model_id)

    thetas = np.empty((count, model.p))
    summaries = np.empty((count, model.m))
    scratch = (workspace or Workspace(model)).batch()
    wpr = _words_per_row(model)
    kept = 0
    drawn = 0
    rows = _BATCH_ROWS
    r2 = radius * radius
    while kept < count:
        words = row_words(key, drawn, rows, wpr, scratch.bit_gen)
        drawn += rows
        _, batch_thetas, batch_summaries, _ = _simulate_rows(model, words, scratch, s0, r2)
        accepted = min(batch_thetas.shape[0], count - kept)
        thetas[kept:kept + accepted] = batch_thetas[:accepted]
        summaries[kept:kept + accepted] = batch_summaries[:accepted]
        kept += accepted
        if kept < count and drawn >= _PROBE_BUDGET and kept / drawn < 1e-12:
            raise InfeasibleRadiusError(
                f"acceptance rate below 1e-12 after {drawn} proposals "
                f"(radius={radius!r}, s0={s0.tolist()})")
        if kept:
            # size the next batch from the acceptance rate so far, with a
            # margin so that one more batch usually suffices
            rows = min(_BATCH_ROWS, math.ceil(1.2 * (count - kept) * drawn / kept) + 64)
    return thetas, summaries


# ---------------------------------------------------------------------------
# persistence

_MAGIC = b"ABCT"
_VERSION = 1
_HEADER = struct.Struct("<4sIQIIQ H")  # magic, version, N, p, m, seed, len(model_id)


def _table_header(n_rows: int, p: int, m: int, seed: int, model_id: str) -> bytes:
    """The header and model id that open a table's binary layout."""
    model_id = model_id.encode("utf-8")
    return _HEADER.pack(_MAGIC, _VERSION, n_rows, p, m, seed, len(model_id)) + model_id


def _write_rows(fh, offset: int, n_rows: int, start: int, thetas: np.ndarray,
                summaries: np.ndarray) -> None:
    """Write rows ``start``.. of an ``n_rows``-row table into their places
    in its column layout, which begins ``offset`` bytes into ``fh``."""
    for j, column in enumerate((*thetas.T, *summaries.T)):
        fh.seek(offset + 8 * (j * n_rows + start))
        fh.write(np.ascontiguousarray(column, dtype="<f8"))


def table_to_bytes(table: ReferenceTable) -> bytes:
    """Binary column layout: header, then each theta column and each summary
    column as little-endian float64."""
    header = _table_header(table.n_rows, table.thetas.shape[1], table.summaries.shape[1],
                           table.seed, table.model_id)
    buf = io.BytesIO(header)
    _write_rows(buf, len(header), table.n_rows, 0, table.thetas, table.summaries)
    return buf.getvalue()


def write_table(model: Model, n_rows: int, seed: int, fh, write_chunk,
                max_workers: int = 1) -> None:
    """Write ``table_to_bytes(generate_table(model, n_rows, seed))`` to the
    empty, seekable binary file ``fh`` without holding the table, and call
    ``write_chunk(thetas, summaries)`` with each chunk's rows, in row order.

    The chunks are simulated as ``generate_table`` simulates them and
    written by the calling thread in row order (``_scan_table``), so the file
    is the same at any ``max_workers``; the run holds one chunk per worker.
    """
    n_rows, seed, key = _table_stream(model, n_rows, seed)
    header = _table_header(n_rows, model.p, model.m, seed, model.model_id)
    fh.write(header)
    for start, _, thetas, summaries, _ in _scan_table(model, key, n_rows, max_workers):
        _write_rows(fh, len(header), n_rows, start, thetas, summaries)
        write_chunk(thetas, summaries)

