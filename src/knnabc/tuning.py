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

import numpy as np

from .core import check_s0
from .errors import (BoundHypothesisError, InvalidArgumentError, KnnAbcError,
                     UnsupportedModelError)
from .estimators import KernelSpec
from .models import Model
from .numerics import adaptive_trapezoid, round_half_up


@dataclass(frozen=True)
class Schedule:
    """Regime-resolved acceptance-count and bandwidth exponents."""

    regime: str
    k_exponent: Fraction
    h_exponent: Fraction


def resolve_schedule(m: int, p: int) -> Schedule:
    """The regime and the exponents of N in k and h for summary dimension
    m and parameter dimension p."""
    m, p = int(m), int(p)
    if m < 1 or p < 1:
        raise InvalidArgumentError("dimensions m and p must be >= 1")
    if m > 4:
        regime = "m_gt_4"
        k_exp = Fraction(p + 4, m + p + 4)
        h_exp = Fraction(-1, m + p + 4)
    else:
        # m = 4 shares the m <= 3 exponents (its rate carries an extra log N)
        regime = "m_eq_4" if m == 4 else "m_le_3"
        k_exp = Fraction(p + 4, p + 8)
        h_exp = Fraction(-1, p + 8)
    return Schedule(regime=regime, k_exponent=k_exp, h_exponent=h_exp)


def schedule(m: int, p: int, n_rows: int, c_k: float = 1.0, c_h: float = 1.0) -> tuple[int, float]:
    """Concrete (k, h) for a table of n_rows rows: the finite multipliers
    c_k and c_h times the schedule powers of N, k clamped into [1, N-1]
    before rounding, so that a product beyond the float range is N-1."""
    n_rows = int(n_rows)
    if n_rows < 2:
        raise InvalidArgumentError("n_rows must be >= 2")
    if not (0 < c_k < math.inf and 0 < c_h < math.inf):
        raise InvalidArgumentError("multipliers c_k and c_h must be finite and > 0")
    sched = resolve_schedule(m, p)
    k = c_k * n_rows ** float(sched.k_exponent)
    k = n_rows - 1 if k >= n_rows else max(1, min(n_rows - 1, round_half_up(k)))
    h = c_h * n_rows ** float(sched.h_exponent)
    return k, h


# the "auto" bandwidth is a sample standard deviation: it needs this many rows
AUTO_MIN_ROWS = 2


def check_bandwidth(h):
    """The checked bandwidth request: "auto" or a finite positive float."""
    if not isinstance(h, str):
        h = float(h)
    if not (h == "auto" or isinstance(h, float) and 0 < h < math.inf):
        raise InvalidArgumentError("h must be a positive number or 'auto'")
    return h


def check_auto_rows(h, rows: int) -> None:
    """An error when the checked bandwidth request ``h`` is "auto" and
    ``rows`` accepted rows are too few to give it a spread."""
    if h == "auto" and rows < AUTO_MIN_ROWS:
        raise KnnAbcError(f"auto bandwidth needs at least {AUTO_MIN_ROWS} accepted rows")


def resolve_bandwidth(h, thetas: np.ndarray, m: int, p: int, n_rows: int) -> float:
    """The bandwidth ``h`` asks for (:func:`check_bandwidth`): a number as
    given, or "auto", the accepted thetas' standard deviation times the
    schedule power of N."""
    h = check_bandwidth(h)
    if h != "auto":
        return h
    check_auto_rows(h, thetas.shape[0])
    spread = float(np.std(thetas, ddof=1))
    return spread * n_rows ** float(resolve_schedule(m, p).h_exponent)


# ---------------------------------------------------------------------------
# local mass ratio xi0

def xi0_from_marginal_cdf(marginal_cdf, s0: float, L_diam: float) -> float:
    """Deterministic xi0 for m = 1 models with a closed-form marginal CDF:
    the least ball mass over radius, on 4096 radii from L * 1e-9 to L."""
    s0 = float(np.asarray(s0, dtype=float).reshape(-1)[0])
    deltas = np.geomspace(L_diam * 1e-9, L_diam, 4096)
    mass = np.asarray(marginal_cdf(s0 + deltas)) - np.asarray(marginal_cdf(s0 - deltas))
    return float((mass / deltas).min())


# ---------------------------------------------------------------------------
# distance-moment bounds

def _power(base: float, exponent) -> float:
    """base**exponent for base > 0, +inf where it is beyond the float range."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def check_bound_inputs(m: int, xi0: float, L_diam: float, order: int) -> tuple[int, int]:
    """The checked (m, order) of a distance-moment bound: order 2 or 4,
    m >= 1, and xi0 and L_diam positive.  The order is tested as given,
    so 4.0 passes and 2.5 fails where int() would truncate it."""
    m = int(m)
    if order not in (2, 4):  # False and True equal 0 and 1, so they fail too
        raise InvalidArgumentError("order must be 2 or 4")
    order = int(order)
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    if not (xi0 > 0 and L_diam > 0):
        raise InvalidArgumentError("xi0 and L_diam must be > 0")
    return m, order


def distance_moment_bound(m: int, k: int, n_rows: int, xi0: float, L_diam: float,
                          order: int) -> float:
    """Plug-in upper bound for E[d_(k+1)^order], order in {2, 4}.

    Valid only while (k+1)/(N+1) <= xi0 * L^m; outside that regime a
    BoundHypothesisError is raised rather than returning a number that
    bounds nothing.  The m = order case uses the logarithmic form.  Finite
    positive inputs raise nothing else: a power beyond the float range is
    +inf, so an L^m beyond it meets the hypothesis, and a bound whose terms
    leave the float range saturates to +inf, which bounds anything.
    """
    m, order = check_bound_inputs(m, xi0, L_diam, order)
    ratio = (int(k) + 1) / (int(n_rows) + 1)
    cap = xi0 * _power(L_diam, m)
    if ratio > cap:
        raise BoundHypothesisError(
            f"(k+1)/(N+1) = {ratio:.6g} exceeds xi0 * L^m = {cap:.6g}")
    try:
        if m == order:
            bound = (1.0 / xi0) * (1.0 + math.log(cap * (1.0 / ratio))) * ratio
        else:
            lead = m / (_power(xi0, order / m) * (m - order)) * _power(ratio, order / m)
            tail = _power(L_diam, order - m) / (xi0 * (m / order - 1.0)) * ratio
            bound = lead - tail
    except ZeroDivisionError:  # a divisor below the float range
        return math.inf
    # the bound is positive under the hypothesis, so NaN or a negative value
    # means that its terms overflowed
    return bound if bound >= 0 else math.inf


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


def mise_rate_quantities(model: Model, s0, kernel: KernelSpec) -> TheoreticalQuantities:
    """Compute the curvature functionals Phi_1..Phi_3 by adaptive trapezoid
    quadrature of the analytic joint density's second derivatives, and xi0
    from the marginal CDF (:func:`xi0_from_marginal_cdf`).

    phi_1 folds the kernel's second moment into the theta-Laplacian;
    phi_2 and phi_3 are the summary-Laplacians of the joint and marginal
    scaled by 1/(2m+4).  Requires a p = 1 model with analytic derivatives
    and a closed-form marginal CDF.
    """
    if model.analytic is None:
        raise UnsupportedModelError(
            f"model '{model.model_id}' exposes no analytic joint density")
    if kernel.dim != model.p:
        raise InvalidArgumentError("kernel dimension must equal the parameter dimension")
    if model.p != 1:
        raise UnsupportedModelError("quadrature of the rate constants is implemented for p = 1")
    analytic = model.analytic
    if analytic.marginal_cdf is None:
        raise UnsupportedModelError(
            f"model '{model.model_id}' has no closed-form marginal CDF to compute xi0 from")
    s0 = check_s0(s0, model.m)
    xi0 = xi0_from_marginal_cdf(analytic.marginal_cdf, s0, model.support_diameter)

    mu2 = kernel.second_moment
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
    big_phi1 = adaptive_trapezoid(lambda t: phi1(t) ** 2, -half, half) / fbar**2
    big_phi2 = adaptive_trapezoid(lambda t: bracket(t) ** 2, -half, half) / fbar**4
    big_phi3 = 2.0 * adaptive_trapezoid(lambda t: phi1(t) * bracket(t), -half, half) / fbar**3

    return TheoreticalQuantities(
        xi0=xi0,
        L_diam=float(model.support_diameter),
        Phi1=big_phi1, Phi2=big_phi2, Phi3=big_phi3,
        kernel_sq_integral=kernel.square_integral,
        m=model.m, p=model.p,
    )


def mise_prediction(tq: TheoreticalQuantities, n_rows: int, k: int, h: float) -> float:
    """Leading-order MISE prediction at the quantities' (m, p):
    Phi1*h^4 + Phi2*(4th-moment term) + Phi3*h^2*(2nd-moment term) + intK^2/(k h^p).

    The moment terms are the plug-in bounds of
    :func:`distance_moment_bound` (logarithmic variants at m = 2 / m = 4),
    so the prediction inherits their looseness; see
    :func:`mise_prediction_exact_moments` for the same display with
    externally supplied moments.
    """
    return mise_prediction_exact_moments(
        tq, k, h,
        distance_moment_bound(tq.m, k, n_rows, tq.xi0, tq.L_diam, order=2),
        distance_moment_bound(tq.m, k, n_rows, tq.xi0, tq.L_diam, order=4))


def mise_prediction_exact_moments(tq: TheoreticalQuantities, k: int, h: float,
                                  d2_moment: float, d4_moment: float) -> float:
    """Same leading-order display at the quantities' p, with true (or
    estimated) values of E[d_(k+1)^2] and E[d_(k+1)^4] in place of the
    plug-in bounds."""
    h = float(h)
    if not (h > 0 and k >= 1):
        raise InvalidArgumentError("need h > 0 and k >= 1")
    return (tq.Phi1 * h**4
            + tq.Phi2 * d4_moment
            + tq.Phi3 * h**2 * d2_moment
            + tq.kernel_sq_integral / (k * h**tq.p))
