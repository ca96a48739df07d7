"""Kernels and the conditional posterior-density estimator.

``g_hat_many`` smooths only the accepted (nearest-neighbor) thetas with a
kernel on R^p -- no ratio, no denominator that can vanish -- at a list of
points; ``estimate_density`` evaluates the same estimate on a tensor grid,
axis by axis.  ``posterior_functional`` averages a bounded map over the
accepted thetas; ``PHIS`` holds the maps a config may name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import AcceptedSet
from .errors import EmptyAcceptedSetError, InvalidArgumentError
from .numerics import trapezoid_nd

KERNEL_KINDS = ("naive", "gaussian")

GRID_POINTS_1D = 512
GRID_CAP = 100_000
GRID_PADDING = 4.0


def unit_ball_volume(p: int) -> float:
    """Volume of the closed unit ball in R^p, by exact factorial closed
    forms (no special-function call)."""
    p = int(p)
    if p < 1:
        raise InvalidArgumentError("dimension p must be >= 1")
    if p % 2 == 0:
        half = p // 2
        return math.pi**half / math.factorial(half)
    n = (p + 1) // 2
    # int true division rounds the exact ratio correctly
    return math.pi ** ((p - 1) // 2) * (4**n * math.factorial(n) / math.factorial(2 * n))


@dataclass(frozen=True)
class KernelSpec:
    """Normalized kernel on R^dim: flat on the unit ball ("naive") or
    standard Gaussian."""

    kind: str
    dim: int
    normalizer: float
    second_moment: float    # per coordinate; off-diagonal moments vanish by radial symmetry
    square_integral: float  # the integral of K^2 over R^dim, in closed form


def make_kernel(kind: str, dim: int) -> KernelSpec:
    if dim < 1:
        raise InvalidArgumentError("kernel dimension must be >= 1")
    if kind == "naive":
        normalizer = 1.0 / unit_ball_volume(dim)  # and int K^2 = (1/V_p)^2 V_p
        return KernelSpec(kind, dim, normalizer, second_moment=1.0 / (dim + 2),
                          square_integral=normalizer)
    if kind == "gaussian":
        return KernelSpec(kind, dim, (2.0 * math.pi) ** (-dim / 2.0), second_moment=1.0,
                          square_integral=(4.0 * math.pi) ** (-dim / 2.0))
    raise InvalidArgumentError(f"kernel kind must be one of {KERNEL_KINDS}")


# exp(a) is set to exactly 0 below this argument (exp(-700) is about
# 1e-304).  numpy's vectorised exp covers arguments down to about -707;
# below that it takes a scalar path, about 73 ns a lane where the result is
# 0 and 150 ns where it is subnormal, against about 1 ns (AVX-512 Xeon,
# numpy 2.4).
EXP_FLOOR = -700.0


def _gaussian_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) in place: bit for bit ``np.exp`` for a >= EXP_FLOOR, and
    exactly 0 below it.  Every Gaussian kernel factor, dense or per axis,
    goes through here."""
    keep = a >= EXP_FLOOR
    np.maximum(a, EXP_FLOOR, out=a)
    np.exp(a, out=a)
    a *= keep
    return a


def _kernel_values(kernel: KernelSpec, sq_norms: np.ndarray) -> np.ndarray:
    """Kernel values given squared norms ||u||^2 (radial kernels only)."""
    if kernel.kind == "naive":
        return np.where(sq_norms <= 1.0, kernel.normalizer, 0.0)
    return kernel.normalizer * _gaussian_exp(-0.5 * sq_norms)


# ---------------------------------------------------------------------------
# the accepted-set estimator

# Entries in one block of pairwise work on a tensor grid; it bounds the
# grid evaluation's temporaries at a few MB whatever k is.
BLOCK_ENTRIES = 1 << 18


def _points_sq_dist(points: np.ndarray, centers: np.ndarray, h: float) -> np.ndarray:
    """Squared scaled distances ||(x_g - c_j)/h||^2, shape (G, k).

    The coordinates are added in order, so the tensor-grid evaluation can
    repeat the naive kernel's boundary test bit for bit."""
    sq = np.zeros((points.shape[0], centers.shape[0]))
    for d in range(points.shape[1]):
        u = (points[:, d, None] - centers[None, :, d]) / h
        sq += u * u
    return sq


def _checked_centers(accepted: AcceptedSet, h: float, kernel: KernelSpec):
    """The bandwidth as a float, the accepted thetas, and the normaliser
    1 / (k h^p), which must be a finite float > 0."""
    if accepted.k == 0:
        raise EmptyAcceptedSetError("estimator needs at least one accepted row")
    h = float(h)
    if not h > 0.0:
        raise InvalidArgumentError("bandwidth h must be > 0")
    centers = accepted.ordered_thetas
    p = centers.shape[1]
    if kernel.dim != p:
        raise InvalidArgumentError(f"kernel dimension {kernel.dim} != parameter dimension {p}")
    try:
        scale = 1.0 / (accepted.k * h**p)
    except (OverflowError, ZeroDivisionError):  # h**p over- or underflows
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise InvalidArgumentError(
            f"bandwidth h={h!r} at p={p}: the normaliser 1/(k h^p) is not a finite float > 0")
    return h, centers, scale


def g_hat_many(accepted: AcceptedSet, h: float, kernel: KernelSpec,
               points: np.ndarray) -> np.ndarray:
    """Density estimate mean_j K((x - Theta_(j)) / h) / h^p from the
    accepted thetas at each point x of ``points``, shape (G, p), in blocks
    of about BLOCK_ENTRIES (point, centre) pairs whatever k is."""
    h, centers, scale = _checked_centers(accepted, h, kernel)
    p = centers.shape[1]
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != p:
        raise InvalidArgumentError(f"points must have shape (G, {p})")
    out = np.empty(points.shape[0])
    rows = max(1, BLOCK_ENTRIES // accepted.k)
    for lo in range(0, points.shape[0], rows):
        sq = _points_sq_dist(points[lo:lo + rows], centers, h)
        out[lo:lo + rows] = _kernel_values(kernel, sq).sum(axis=1) * scale
    return out


def _gaussian_grid_sums(centers: np.ndarray, h: float, axes) -> np.ndarray:
    """sum_j exp(-||x - c_j||^2 / (2 h^2)) at every point x of a tensor
    grid, shape (prod of the leading axes' lengths, length of the last).

    The Gaussian factorises over coordinates (Wand 1994, here without
    binning): per-axis factor matrices of shape (G_d, k) are chained by
    outer products over the leading axes, and one matrix product against
    the last axis sums over the centres.  ``einsum`` forms that product
    without BLAS, whose threaded kernels round differently at different
    thread counts."""
    k, p = centers.shape
    lead = math.prod(len(a) for a in axes[:-1])
    block = max(1, BLOCK_ENTRIES // (lead + len(axes[-1])))
    sums = np.empty((lead, len(axes[-1])))
    for lo in range(0, k, block):
        c = centers[lo:lo + block]

        def factor(d):
            # built in place on the one temporary the subtraction makes
            u = axes[d][:, None] - c[None, :, d]
            u /= h
            u *= u
            u *= -0.5
            return _gaussian_exp(u)

        prod = factor(0) if p > 1 else np.ones((1, c.shape[0]))
        for d in range(1, p - 1):
            prod = (prod[:, None, :] * factor(d)[None, :, :]).reshape(-1, c.shape[0])
        if lo == 0:
            np.einsum("rj,gj->rg", prod, factor(p - 1), out=sums)
        else:
            sums += np.einsum("rj,gj->rg", prod, factor(p - 1))
    return sums


def _ball_grid_counts(centers: np.ndarray, h: float, axes) -> np.ndarray:
    """Number of centres c_j with ||(x - c_j)/h||^2 <= 1 at every point x
    of a tensor grid, as floats, in the layout of :func:`_gaussian_grid_sums`.

    On each row of the grid (its leading coordinates fixed) a centre's ball
    covers one contiguous run of the ascending last axis.  ``searchsorted``
    finds the run from the ball's half-width; its ends are then stepped
    until they agree with the inclusion test of ``g_hat_many``, evaluated
    with the same arithmetic, so the counts are those of the dense path.
    A difference array turns the runs into counts."""
    k, p = centers.shape
    x = axes[-1]
    g = x.shape[0]
    lead_points = grid_points(axes[:-1]) if p > 1 else np.zeros((1, 0))
    counts = np.zeros((lead_points.shape[0], g))
    if g == 0:
        return counts
    rows = max(1, BLOCK_ENTRIES // k)
    for r0 in range(0, lead_points.shape[0], rows):
        lead = lead_points[r0:r0 + rows]
        sq_lead = _points_sq_dist(lead, centers[:, :-1], h)
        row, j = np.nonzero(sq_lead <= 1.0)
        s, c = sq_lead[row, j], centers[j, -1]
        half = h * np.sqrt(1.0 - s)
        lo = np.searchsorted(x, c - half, side="left")
        hi = np.searchsorted(x, c + half, side="right")

        def inside(i):
            u = (x[np.clip(i, 0, g - 1)] - c) / h
            return (i >= 0) & (i < g) & (s + u * u <= 1.0)

        while True:
            lo_step = np.where(inside(lo - 1), -1, np.where((lo < hi) & ~inside(lo), 1, 0))
            lo += lo_step
            hi_step = np.where(inside(hi), 1, np.where((hi > lo) & ~inside(hi - 1), -1, 0))
            hi += hi_step
            if not (lo_step.any() or hi_step.any()):
                break
        edges = np.zeros((g + 1) * lead.shape[0])
        np.add.at(edges, row * (g + 1) + lo, 1.0)
        np.subtract.at(edges, row * (g + 1) + hi, 1.0)
        np.cumsum(edges.reshape(-1, g + 1)[:, :g], axis=1, out=counts[r0:r0 + lead.shape[0]])
    return counts


def posterior_functional(accepted: AcceptedSet, phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Plain average of phi over the accepted thetas.

    ``phi`` receives the (k, p) matrix of accepted thetas and must return
    one value per row.
    """
    if accepted.k == 0:
        raise EmptyAcceptedSetError("posterior functional needs at least one accepted row")
    values = np.asarray(phi(accepted.ordered_thetas), dtype=float)
    values = np.broadcast_to(values, (accepted.k,))
    return float(values.mean())


# The phis a config may name: phi name -> (phi of the (k, p) accepted
# thetas, its oracle moment from the posterior mean and variance of theta_1)
PHIS: dict[str, tuple[Callable, Callable[[float, float], float]]] = {
    "identity": (lambda thetas: thetas[:, 0], lambda mean, var: mean),
    "square": (lambda thetas: thetas[:, 0] ** 2, lambda mean, var: var + mean * mean),
    "one": (lambda thetas: np.ones(thetas.shape[0]), lambda mean, var: 1.0),
}


# ---------------------------------------------------------------------------
# grids and the packaged estimate

@dataclass(frozen=True)
class DensityEstimate:
    """Estimator values on a tensor grid plus the facts of the estimate:
    k, h, the kernel, d_(k+1) and the grid shape."""

    values: np.ndarray            # (G,) nonnegative, at grid_points(axes)
    axes: tuple                   # per-coordinate ascending 1-D grids
    meta: dict

    def integral(self) -> float:
        """Trapezoid integral over the tensor grid."""
        return trapezoid_nd(self.values, self.axes)


def default_grid(accepted: AcceptedSet, h: float, points: int = GRID_POINTS_1D,
                 padding: float = GRID_PADDING, cap: int = GRID_CAP):
    """Axes of the default evaluation grid: each coordinate spans the
    accepted thetas padded by ``padding`` bandwidths; the tensor size is
    capped by shrinking the per-axis count."""
    if accepted.k == 0:
        raise EmptyAcceptedSetError("cannot build a grid from an empty accepted set")
    p = accepted.ordered_thetas.shape[1]
    root = round(cap ** (1.0 / p))  # r or r + 1, for the largest r with r^p <= cap
    per_axis = min(points, max(2, root - (root**p > cap))) if p > 1 else points
    lo = accepted.ordered_thetas.min(axis=0) - padding * h
    hi = accepted.ordered_thetas.max(axis=0) + padding * h
    with np.errstate(over="ignore"):  # hi - lo is finite only if both ends are
        finite = np.all(np.isfinite(hi - lo))
    if not finite:
        raise InvalidArgumentError(
            f"grid ends or step are not finite: thetas padded by {padding!r} x h={h!r}")
    return tuple(np.linspace(lo[j], hi[j], per_axis) for j in range(p))


def grid_points(axes) -> np.ndarray:
    """Flatten tensor axes to an (G, p) array of points in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def estimate_density(accepted: AcceptedSet, h: float, kernel: KernelSpec,
                     axes=None) -> DensityEstimate:
    """Evaluate the estimate of :func:`g_hat_many` on a tensor grid (the
    default grid if none is given) and package it with its facts.

    The values are computed axis by axis, not point by point; they equal
    ``g_hat_many`` on ``grid_points(axes)`` up to the order of summation,
    and the naive kernel's counts are identical.  Both are 0 at the same
    points for the naive kernel at every p and the Gaussian at p = 1.  At
    p >= 2 Gaussian values below about 1e-300 can differ: the exp floor
    applies to each axis's factor here, and the factors multiply."""
    h, centers, scale = _checked_centers(accepted, h, kernel)
    p = centers.shape[1]
    if axes is None:
        axes = default_grid(accepted, h)
    axes = tuple(np.asarray(a, dtype=float).reshape(-1) for a in axes)
    if len(axes) != p:
        raise InvalidArgumentError(f"need {p} grid axes, got {len(axes)}")
    if any(not np.isfinite(a).all() or np.any(a[1:] < a[:-1]) for a in axes):
        raise InvalidArgumentError("grid axes must be finite and ascending")
    if kernel.kind == "naive":
        values = _ball_grid_counts(centers, h, axes)
    else:
        values = _gaussian_grid_sums(centers, h, axes)
    values *= kernel.normalizer
    values *= scale
    meta = {
        "k": accepted.k,
        "h": float(h),
        "kernel": kernel.kind,
        "d_k_plus_1": accepted.radius_next,
        "grid_shape": [int(len(a)) for a in axes],
    }
    return DensityEstimate(values=values.reshape(-1), axes=axes, meta=meta)

