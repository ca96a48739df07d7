"""Rate-optimal (k, h) schedules and the theoretical rate quantities.

The schedule exponents depend only on the regime of the summary dimension
m (m <= 3, m = 4, m > 4); proportionality constants are free parameters,
with a normal-reference default for the bandwidth multiplier.  The module
also evaluates the plug-in upper bounds on E[d_(k+1)^2] and E[d_(k+1)^4]
(logarithmic variants at m = 2 resp. m = 4) and assembles them, together
with quadratures of the curvature functionals Phi_1..Phi_3, into a
leading-order MISE prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import generate_table
from .errors import (BoundHypothesisError, InsufficientSampleError,
                     InvalidArgumentError, KnnAbcError, RegimeNotCoveredError,
                     UnsupportedModelError)
from .estimators import KernelSpec, kernel_second_moment, kernel_square_integral
from .models import Model
from .numerics import adaptive_trapezoid, round_half_up
from .rng import derive_seed

REGIMES = ("m_le_3", "m_eq_4", "m_gt_4")


@dataclass(frozen=True)
class Schedule:
    """Regime-resolved acceptance-count and bandwidth exponents."""

    regime: str
    k_exponent: Fraction
    h_exponent: Fraction
    c_k: float = 1.0
    c_h: float = 1.0


def resolve_schedule(m: int, p: int, c_k: float = 1.0, c_h: float = 1.0) -> Schedule:
    m, p = int(m), int(p)
    if m < 1 or p < 1:
        raise InvalidArgumentError("dimensions m and p must be >= 1")
    if not (c_k > 0 and c_h > 0):
        raise InvalidArgumentError("multipliers c_k and c_h must be > 0")
    if m > 4:
        regime = "m_gt_4"
        k_exp = Fraction(p + 4, m + p + 4)
        h_exp = Fraction(-1, m + p + 4)
    else:
        # m = 4 shares the m <= 3 exponents (its rate carries an extra log N)
        regime = "m_eq_4" if m == 4 else "m_le_3"
        k_exp = Fraction(p + 4, p + 8)
        h_exp = Fraction(-1, p + 8)
    return Schedule(regime=regime, k_exponent=k_exp, h_exponent=h_exp, c_k=c_k, c_h=c_h)


def schedule(m: int, p: int, n_rows: int, c_k: float = 1.0, c_h: float = 1.0) -> tuple[int, float]:
    """Concrete (k, h) for a table of n_rows rows."""
    n_rows = int(n_rows)
    if n_rows < 2:
        raise InvalidArgumentError("n_rows must be >= 2")
    sched = resolve_schedule(m, p, c_k, c_h)
    k = round_half_up(c_k * n_rows ** float(sched.k_exponent))
    k = max(1, min(n_rows - 1, k))
    h = c_h * n_rows ** float(sched.h_exponent)
    return k, h


def auto_bandwidth(thetas: np.ndarray, m: int, p: int, n_rows: int) -> float:
    """The "auto" bandwidth: the accepted thetas' standard deviation times
    the schedule power of N."""
    if thetas.shape[0] < 2:
        raise KnnAbcError("auto bandwidth needs at least 2 accepted rows")
    spread = float(np.std(thetas, ddof=1))
    return spread * n_rows ** float(resolve_schedule(m, p).h_exponent)


def acceptance_fraction(m: int, p: int, n_rows: int) -> float:
    """Rule-of-thumb accepted fraction k/N for m > 4."""
    if int(m) <= 4:
        raise RegimeNotCoveredError(
            "acceptance fraction rule applies only for m > 4; use schedule()")
    return float(n_rows) ** float(resolve_schedule(m, p).k_exponent - 1)


# ---------------------------------------------------------------------------
# local mass ratio xi0

def estimate_xi0(model: Model, s0, L_diam: float, aux_sample_size: int,
                 delta_grid: int = 64, seed: int = 0,
                 min_ball_count: int = 4000) -> float:
    """Monte Carlo estimate of the infimum over delta <= L of
    mass(ball(s0, delta)) / delta^m.

    The infimum over a continuum is discretized to a log-spaced grid, which
    biases the estimate upward (dips between grid points are invisible);
    Monte Carlo noise at the smallest radii pulls the minimum down, so the
    smallest grid radius is chosen to contain at least ``min_ball_count``
    draws.  Fewer than 50 draws in the largest ball is an error.
    """
    if not L_diam > 0:
        raise InvalidArgumentError("L_diam must be > 0")
    aux_sample_size = int(aux_sample_size)
    if aux_sample_size < 2:
        raise InvalidArgumentError("aux_sample_size must be >= 2")
    table = generate_table(model, aux_sample_size, derive_seed(seed, "xi0"))
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    dist = np.sqrt(np.sum((table.summaries - s0) ** 2, axis=1))
    dist.sort()
    inside = int(np.searchsorted(dist, L_diam, side="right"))
    if inside < 50:
        raise InsufficientSampleError(
            f"only {inside} draws inside the largest ball; need at least 50")
    floor_rank = min(min_ball_count, inside)
    delta_min = dist[floor_rank - 1]
    if not delta_min > 0:
        delta_min = np.finfo(float).tiny
    deltas = np.geomspace(min(delta_min, L_diam), L_diam, int(delta_grid))
    counts = np.searchsorted(dist, deltas, side="right")
    ratios = counts / (aux_sample_size * deltas ** model.m)
    return float(ratios.min())


def xi0_from_marginal_cdf(marginal_cdf, s0: float, L_diam: float,
                          grid: int = 4096) -> float:
    """Deterministic xi0 for m = 1 models with a closed-form marginal CDF."""
    s0 = float(np.asarray(s0, dtype=float).reshape(-1)[0])
    deltas = np.geomspace(L_diam * 1e-9, L_diam, grid)
    mass = np.asarray(marginal_cdf(s0 + deltas)) - np.asarray(marginal_cdf(s0 - deltas))
    return float((mass / deltas).min())


# ---------------------------------------------------------------------------
# distance-moment bounds

def distance_moment_bound(m: int, k: int, n_rows: int, xi0: float, L_diam: float,
                          order: int) -> float:
    """Plug-in upper bound for E[d_(k+1)^order], order in {2, 4}.

    Valid only while (k+1)/(N+1) <= xi0 * L^m; outside that regime a
    BoundHypothesisError is raised rather than returning a number that
    bounds nothing.  The m = order case uses the logarithmic form.
    """
    m = int(m)
    order = int(order)
    if order not in (2, 4):
        raise InvalidArgumentError("order must be 2 or 4")
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    if not (xi0 > 0 and L_diam > 0):
        raise InvalidArgumentError("xi0 and L_diam must be > 0")
    ratio = (int(k) + 1) / (int(n_rows) + 1)
    if ratio > xi0 * L_diam**m:
        raise BoundHypothesisError(
            f"(k+1)/(N+1) = {ratio:.6g} exceeds xi0 * L^m = {xi0 * L_diam**m:.6g}")
    if m == order:
        return (1.0 / xi0) * (1.0 + math.log(xi0 * L_diam**order * (1.0 / ratio))) * ratio
    lead = m / (xi0 ** (order / m) * (m - order)) * ratio ** (order / m)
    tail = L_diam ** (order - m) / (xi0 * (m / order - 1.0)) * ratio
    return lead - tail


# ---------------------------------------------------------------------------
# curvature functionals and the MISE prediction

@dataclass(frozen=True)
class TheoreticalQuantities:
    """Quadrature values of the rate constants at a fixed s0."""

    xi0: float
    L_diam: float
    Phi1: float
    Phi2: float
    Phi3: float
    kernel_sq_integral: float
    m: int
    p: int


def mise_rate_quantities(model: Model, s0, kernel: KernelSpec,
                         xi0: Optional[float] = None,
                         rtol: float = 1e-6) -> TheoreticalQuantities:
    """Compute the curvature functionals Phi_1..Phi_3 by adaptive trapezoid
    quadrature of the analytic joint density's second derivatives.

    phi_1 folds the kernel's second moment into the theta-Laplacian;
    phi_2 and phi_3 are the summary-Laplacians of the joint and marginal
    scaled by 1/(2m+4).  Requires a model with analytic derivatives.
    """
    if model.analytic is None:
        raise UnsupportedModelError(
            f"model '{model.model_id}' exposes no analytic joint density")
    if kernel.dim != model.p:
        raise InvalidArgumentError("kernel dimension must equal the parameter dimension")
    if model.p != 1:
        raise UnsupportedModelError("quadrature of the rate constants is implemented for p = 1")
    analytic = model.analytic
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    if s0.shape[0] != model.m:
        raise InvalidArgumentError(f"s0 must have dimension m={model.m}")

    if xi0 is None:
        if analytic.marginal_cdf is None or model.m != 1:
            raise InvalidArgumentError(
                "xi0 must be supplied for models without a closed-form marginal CDF")
        if model.support_diameter is None:
            raise InvalidArgumentError("model has no compact support diameter")
        xi0 = xi0_from_marginal_cdf(analytic.marginal_cdf, s0, model.support_diameter)

    mu2 = kernel_second_moment(kernel)
    fbar = float(analytic.marginal_pdf(s0))
    scale = 1.0 / (2.0 * model.m + 4.0)
    phi3 = scale * float(analytic.marginal_summary_laplacian(s0))

    def as_points(t):
        return np.asarray(t, dtype=float).reshape(-1, 1)

    def phi1(t):
        return 0.5 * mu2 * analytic.theta_laplacian(as_points(t), s0)

    def bracket(t):
        pts = as_points(t)
        phi2 = scale * analytic.summary_laplacian(pts, s0)
        return phi2 * fbar - phi3 * analytic.joint_pdf(pts, s0)

    half = analytic.theta_halfwidth
    big_phi1 = adaptive_trapezoid(lambda t: phi1(t) ** 2, -half, half, rtol) / fbar**2
    big_phi2 = adaptive_trapezoid(lambda t: bracket(t) ** 2, -half, half, rtol) / fbar**4
    big_phi3 = 2.0 * adaptive_trapezoid(lambda t: phi1(t) * bracket(t), -half, half, rtol) / fbar**3

    return TheoreticalQuantities(
        xi0=float(xi0),
        L_diam=float(model.support_diameter) if model.support_diameter else float("nan"),
        Phi1=big_phi1, Phi2=big_phi2, Phi3=big_phi3,
        kernel_sq_integral=kernel_square_integral(kernel),
        m=model.m, p=model.p,
    )


def mise_prediction(tq: TheoreticalQuantities, m: int, p: int, n_rows: int,
                    k: int, h: float) -> float:
    """Leading-order MISE prediction:
    Phi1*h^4 + Phi2*(4th-moment term) + Phi3*h^2*(2nd-moment term) + intK^2/(k h^p).

    The moment terms are the plug-in bounds of
    :func:`distance_moment_bound` (logarithmic variants at m = 2 / m = 4),
    so the prediction inherits their looseness; see
    :func:`mise_prediction_exact_moments` for the same display with
    externally supplied moments.
    """
    if m != tq.m or p != tq.p:
        raise InvalidArgumentError("dimensions disagree with the quantities' provenance")
    d2_term = distance_moment_bound(m, k, n_rows, tq.xi0, tq.L_diam, order=2)
    d4_term = distance_moment_bound(m, k, n_rows, tq.xi0, tq.L_diam, order=4)
    return _mise_display(tq, k, h, p, d2_term, d4_term)


def mise_prediction_exact_moments(tq: TheoreticalQuantities, m: int, p: int,
                                  k: int, h: float,
                                  d2_moment: float, d4_moment: float) -> float:
    """Same leading-order display with true (or estimated) values of
    E[d_(k+1)^2] and E[d_(k+1)^4] in place of the plug-in bounds."""
    if m != tq.m or p != tq.p:
        raise InvalidArgumentError("dimensions disagree with the quantities' provenance")
    return _mise_display(tq, k, h, p, d2_moment, d4_moment)


def _mise_display(tq, k, h, p, d2_term, d4_term):
    h = float(h)
    if not (h > 0 and k >= 1):
        raise InvalidArgumentError("need h > 0 and k >= 1")
    return (tq.Phi1 * h**4
            + tq.Phi2 * d4_term
            + tq.Phi3 * h**2 * d2_term
            + tq.kernel_sq_integral / (k * h**p))
