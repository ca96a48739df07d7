"""Small numerical utilities: finiteness, rounding, trapezoid integration, OLS, thread pools."""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InvalidArgumentError


def is_finite(value) -> bool:
    """Whether a number has a finite float value.  Numbers read from JSON
    need this test: json.loads takes the literals NaN and Infinity, and
    integers beyond the float range, on which math.isfinite raises."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (not banker's)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def trapezoid_nd(values: np.ndarray, axes) -> float:
    """Trapezoid integral of values sampled on a tensor grid.

    ``values`` has shape (len(axes[0]), ..., len(axes[-1])) or is flat in
    C order over that grid.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    shape = tuple(len(a) for a in axes)
    vals = np.asarray(values, dtype=float).reshape(shape)
    for axis_grid in reversed(axes):
        vals = np.trapezoid(vals, axis_grid, axis=-1)
    return float(vals)


def adaptive_trapezoid(fn, a: float, b: float) -> float:
    """Adaptive trapezoid quadrature of a vectorized function on [a, b].

    Starts from 129 points and doubles the panel count, at most 16 times,
    until successive estimates agree to 1e-6 relative (or an absolute
    floor of 1e-14 for integrals near zero).
    """
    if b <= a:
        raise InvalidArgumentError("integration interval is empty")
    n = 129
    x = np.linspace(a, b, n)
    y = np.asarray(fn(x), dtype=float)
    est = np.trapezoid(y, x)
    for _ in range(16):
        mid = 0.5 * (x[:-1] + x[1:])
        y_mid = np.asarray(fn(mid), dtype=float)
        # refined trapezoid: half the old estimate plus the midpoint layer
        h_new = (b - a) / (2 * (n - 1))
        new_est = 0.5 * est + h_new * float(np.sum(y_mid))
        x = np.sort(np.concatenate([x, mid]))
        converged = abs(new_est - est) <= 1e-6 * max(abs(new_est), 1e-300) + 1e-14
        est = new_est
        n = 2 * n - 1
        if converged:
            break
    return float(est)


def ols_slope(x, y) -> tuple[float, float]:
    """Least-squares slope of y on x with its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise InvalidArgumentError("need at least 3 points for a slope fit")
    if x.min() == x.max():
        raise InvalidArgumentError("x has no spread; the slope is undefined")
    xm = x - x.mean()
    sxx = float(np.sum(xm * xm))
    slope = float(np.sum(xm * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    sigma2 = float(np.sum(resid * resid) / dof)
    return slope, math.sqrt(sigma2 / sxx)


def _pool_size(max_workers: int, n_items: int) -> int:
    return min(max_workers, n_items, os.cpu_count() or 1)  # 1 or less: no pool


def parallel_map(fn, items, max_workers: int = 1) -> list:
    """Map preserving order; thread pool when more than one worker is useful.

    The pool never has more threads than items or CPUs, whatever
    ``max_workers`` asks for.  ``items``, a sequence, is read in place.
    Results are collected by item index, so the output (and any aggregation
    done over it in order) is independent of scheduling.
    """
    workers = _pool_size(max_workers, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def ordered_map(fn, items, max_workers: int = 1):
    """Yield ``fn(item)`` for each item of the sequence ``items``, read in
    place, in order, computed ahead on a pool sized as in ``parallel_map``:
    item i + workers starts once the caller is back after item i's result,
    so at most ``workers`` results exist at once.  An error in ``fn`` is
    raised at its item; closing waits for items started."""
    workers = _pool_size(max_workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        running = [pool.submit(fn, it) for it in items[:workers]]
        for i in range(len(items)):
            yield running.pop(0).result()
            if i + workers < len(items):
                running.append(pool.submit(fn, items[i + workers]))
