"""Generative test models: prior + summary simulator + closed-form posterior.

Every built-in bundles a prior over R^p, a simulator for the summary
statistic S in R^m, and (where available) an exact posterior oracle used
as ground truth by the validation suite.  Gaussian components are
truncated to +/- 5 per coordinate and renormalized so the summary
marginal has compact support; oracles account for the truncation exactly,
so Bayes-rule identities hold to quadrature precision.  Every oracle is a
density on the window of theta that s0 allows (``_window_oracle``), and
raises where that window is empty: outside the summary's support.

Each builder states its rows' word layout once: its theta and summary
transforms and its ``summary_bounds`` index the same word columns of a
row, side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError
from .numerics import is_finite
from .rng import ndtr, truncated_normal_bins, truncated_normal_from_uniform, uniform_bins

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


@dataclass(frozen=True)
class PosteriorOracle:
    """Closed-form posterior g(theta | s0) for a conjugate test model.

    ``pdf`` accepts theta0 of shape (G, p) or (p,) and returns the (G,)
    densities, G = 1 for one point; ``mean`` and ``variance`` return a
    (p,) vector and a (p, p) matrix.
    """

    pdf: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    mean: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    variance: Callable[[np.ndarray], np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class AnalyticJoint:
    """Closed-form joint density and the second derivatives the rate
    machinery needs.

    All callables are vectorized over theta points of shape (G, p) with a
    fixed summary point s of shape (m,).  The Laplacians are sums of pure
    second partials (d^2 f / d theta_i^2 summed over i, and d^2 f / d s_j^2
    summed over j).
    """

    joint_pdf: Callable = field(repr=False)
    marginal_pdf: Callable = field(repr=False)
    theta_laplacian: Callable = field(repr=False)
    summary_laplacian: Callable = field(repr=False)
    marginal_summary_laplacian: Callable = field(repr=False)
    theta_halfwidth: float
    marginal_cdf: Optional[Callable] = field(default=None, repr=False)


@dataclass(frozen=True)
class Model:
    """Immutable model descriptor.

    Sampling enters only through explicit uniforms, so draws are a pure
    function of the random words handed in; descriptors are safe to share
    across threads.  A row reads ``words`` word columns, and n rows hand
    their (n, words) uniforms ``u`` to both transforms whole:
    ``thetas_from_uniforms(u, out)`` writes the (n, p) thetas and
    ``summaries_from_uniforms(thetas, u, out)`` the (n, m) summaries, each
    from the columns of ``u`` it names.  Both act on each row alone, and
    the summaries may overwrite ``u``.

    ``summary_bounds(j, gather, lo, hi)`` writes into the (n,) ``lo`` and
    ``hi`` bounds on summary entry j of n rows, as computed, from the bins
    of their words alone (``rng.word_bins``).  ``gather(c, table)`` puts
    the (lo, hi) pair of bin tables at each row's bin of word column c
    into ``lo`` and ``hi``, and ``gather(c, table, add=True)`` adds them.
    Bounds that follow the summary's own operations on the table entries
    hold by monotone rounding.  The bounds pass tries the entries from the
    last to the first, so an entry whose bounds read the most words goes first.
    """

    model_id: str
    params: Mapping[str, float]
    p: int
    m: int
    words: int
    thetas_from_uniforms: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    summaries_from_uniforms: Callable = field(repr=False)
    summary_bounds: Callable = field(repr=False)
    support_diameter: float
    oracle: Optional[PosteriorOracle] = field(default=None, repr=False)
    analytic: Optional[AnalyticJoint] = field(default=None, repr=False)
    summary_map: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if self.p < 1 or self.m < 1:
            raise InvalidArgumentError("model dimensions p and m must be >= 1")


# ---------------------------------------------------------------------------
# truncated-normal helpers (exact posterior under +/- bound truncation)

def _truncated_normal_moments(mu, sigma, a, b):
    # past 40 sd the normal cdf is 0 or 1 and its density 0 as doubles: the
    # clip changes no value, but keeps a huge bound's alpha^2 finite
    alpha, beta = (min(max((x - mu) / sigma, -40.0), 40.0) for x in (a, b))
    z = ndtr(beta) - ndtr(alpha)
    if not z > 0.0:
        raise InvalidArgumentError("the window of theta that s0 allows holds no normal mass"
                                   " in double precision")
    pa, pb = _norm_pdf(alpha), _norm_pdf(beta)
    mean = mu + sigma * (pa - pb) / z
    var = sigma * sigma * (1.0 + (alpha * pa - beta * pb) / z - ((pa - pb) / z) ** 2)
    return mean, var, z


def _theta_points(theta0, p: int) -> np.ndarray:
    pts = np.asarray(theta0, dtype=float)
    if pts.ndim <= 1:
        pts = pts.reshape(1, -1) if pts.size == p else pts.reshape(-1, 1)
    if pts.shape[1] != p:
        raise InvalidArgumentError(f"theta0 must have {p} coordinates per point")
    return pts


def _window_oracle(window, density, moments) -> PosteriorOracle:
    """The posterior of a p = 1 model whose theta, given s = s0[0], lies in
    ``window(s)`` = (a, b): ``density(t, s, a, b)`` on [a, b], 0 elsewhere,
    with ``moments(s, a, b)`` = (mean, variance).  It exists only where the
    summary marginal is positive, where a < b; every callable raises elsewhere.
    """

    def support(s0):
        s = float(np.asarray(s0, dtype=float).reshape(-1)[0])
        a, b = window(s)
        if not a < b:
            raise InvalidArgumentError("s0 outside the support of the summary marginal")
        return s, a, b

    def pdf(theta0, s0):
        s, a, b = support(s0)
        t = _theta_points(theta0, 1)[:, 0]
        return np.where((t >= a) & (t <= b), density(t, s, a, b), 0.0)

    return PosteriorOracle(pdf=pdf, mean=lambda s0: np.array([moments(*support(s0))[0]]),
                           variance=lambda s0: np.array([[moments(*support(s0))[1]]]))


def _conjugate_oracle(bound: float) -> PosteriorOracle:
    """N(s / 2, 1 / 2), the posterior of prior N(0,1) and summary entry
    theta + N(0,1), on the theta that both cuts at +/- bound allow."""
    sigma = math.sqrt(0.5)

    def density(t, s, a, b):
        z = _truncated_normal_moments(s / 2.0, sigma, a, b)[2]
        return _norm_pdf((t - s / 2.0) / sigma) / (sigma * z)

    return _window_oracle(
        lambda s: (max(-bound, s - bound), min(bound, s + bound)), density,
        lambda s, a, b: _truncated_normal_moments(s / 2.0, sigma, a, b)[:2])


def _uniform_oracle(window) -> PosteriorOracle:
    """The uniform posterior on the window of theta that s allows."""
    return _window_oracle(window, lambda t, s, a, b: 1.0 / (b - a),
                          lambda s, a, b: (0.5 * (a + b), (b - a) ** 2 / 12.0))


# ---------------------------------------------------------------------------
# built-in models

def _thetas_truncated_normal(bound: float):
    """Transform of a prior N(0,1) truncated to [-bound, bound], from word column 0."""
    def thetas(u, out):
        return truncated_normal_from_uniform(u[:, :1], bound, out=out)
    return thetas


def _conjugate(model_id: str, m: int, bound: float = 5.0) -> Model:
    """Prior N(0,1) and summary (theta + eps_1, eps_2, ..., eps_m) with iid
    N(0,1) eps, every draw truncated to [-bound, bound].  Entries 2..m are
    ancillary noise: they factor out of the joint density, so the posterior
    is that of the m = 1 model (``gaussian_conjugate_1d``)."""

    def summaries(thetas_, u, out):
        # entry j is the draw of word column j + 1, and entry 0 adds theta
        truncated_normal_from_uniform(u[:, 1:], bound, out=out)
        np.add(out[:, 0], thetas_[:, 0], out=out[:, 0])
        return out

    def summary_bounds(j, gather, lo, hi):
        # entry 0 reads two words, the others one: the pass tries it last
        table = truncated_normal_bins(bound)
        gather(j + 1, table)
        if j == 0:
            gather(0, table, add=True)

    def _tail_factor(s):
        # density of the ancillary entries; 1.0 at m = 1
        return float(np.prod(_norm_pdf(np.asarray(s, dtype=float)[1:])))

    def _ancillary(s):
        # their share of a summary Laplacian over the density; 0.0 at m = 1
        return float(np.sum(np.asarray(s, dtype=float)[1:] ** 2 - 1.0))

    def joint_pdf(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        return _norm_pdf(t) * _norm_pdf(float(s[0]) - t) * _tail_factor(s)

    def marginal_pdf(s):
        return math.exp(-float(s[0]) ** 2 / 4.0) / math.sqrt(4.0 * math.pi) * _tail_factor(s)

    def theta_laplacian(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        return joint_pdf(theta, s) * ((float(s[0]) - 2.0 * t) ** 2 - 2.0)

    def summary_laplacian(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        f = joint_pdf(theta, s)
        return f * (((t - float(s[0])) ** 2 - 1.0) + _ancillary(s))

    def marginal_summary_laplacian(s):
        s1 = float(s[0])
        return marginal_pdf(s) * ((s1 * s1 / 4.0 - 0.5) + _ancillary(s))

    def marginal_cdf(s):
        return ndtr(np.asarray(s, dtype=float) / math.sqrt(2.0))

    return Model(
        model_id=model_id,
        params={"bound": bound},
        p=1, m=m, words=1 + m,
        thetas_from_uniforms=_thetas_truncated_normal(bound),
        summaries_from_uniforms=summaries,
        summary_bounds=summary_bounds,
        # support is [-2b, 2b] x [-b, b]^(m-1); the diameter of that box,
        # sqrt((4b)^2 + (m-1)(2b)^2), written so that no b overflows
        support_diameter=2.0 * bound * math.sqrt(m + 3.0),
        oracle=_conjugate_oracle(bound),
        analytic=AnalyticJoint(
            joint_pdf=joint_pdf,
            marginal_pdf=marginal_pdf,
            theta_laplacian=theta_laplacian,
            summary_laplacian=summary_laplacian,
            marginal_summary_laplacian=marginal_summary_laplacian,
            theta_halfwidth=2.0 * bound,
            marginal_cdf=marginal_cdf if m == 1 else None,
        ),
    )


def _thetas_uniform(u, out):
    """Transform of a prior U[0,1], from word column 0."""
    out[:] = u[:, :1]
    return out


def _uniform_box_1d() -> Model:
    def summaries(thetas_, u, out):
        # summary independent of theta; the marginal of s is exactly U[0,1]
        out[:] = u[:, 1:]
        return out

    def summary_bounds(j, gather, lo, hi):
        gather(1, uniform_bins())

    return Model(
        model_id="uniform_box_1d",
        params={},
        p=1, m=1, words=2,
        thetas_from_uniforms=_thetas_uniform,
        summaries_from_uniforms=summaries,
        summary_bounds=summary_bounds,
        support_diameter=1.0,
        # the posterior is the prior, wherever s0 is in the summary's [0, 1]
        oracle=_uniform_oracle(lambda s: (0.0, 1.0) if 0.0 <= s <= 1.0 else (0.0, 0.0)),
    )


def _uniform_ball_1d(radius: float = 0.1) -> Model:
    def summaries(thetas_, u, out):
        np.multiply(u[:, 1:], 2.0, out=out)
        np.subtract(out, 1.0, out=out)
        np.multiply(out, radius, out=out)
        return np.add(out, thetas_, out=out)

    def summary_bounds(j, gather, lo, hi):
        # the same steps on the bounds: each is increasing, as radius > 0
        gather(1, uniform_bins())
        for bound in (lo, hi):
            np.multiply(bound, 2.0, out=bound)
            np.subtract(bound, 1.0, out=bound)
            np.multiply(bound, radius, out=bound)
        gather(0, uniform_bins(), add=True)

    return Model(
        model_id="uniform_ball_1d",
        params={"radius": radius},
        p=1, m=1, words=2,
        thetas_from_uniforms=_thetas_uniform,
        summaries_from_uniforms=summaries,
        summary_bounds=summary_bounds,
        support_diameter=1.0 + 2.0 * radius,
        oracle=_uniform_oracle(lambda s: (max(0.0, s - radius), min(1.0, s + radius))),
    )


def _gaussian_mean_demo(n_obs: int = 10, bound: float = 5.0) -> Model:
    """Raw-data walkthrough model: y is n_obs iid noisy copies of theta and
    the summary is their mean.  No closed-form oracle is attached (the mean
    of truncated normals has none)."""

    def summaries(thetas_, u, out):
        # the draws of word columns 1..n_obs, shifted by theta, then averaged
        y = truncated_normal_from_uniform(u[:, 1:], bound, out=u[:, 1:])
        np.add(y, thetas_, out=y)
        np.mean(y, axis=1, out=out[:, 0])
        return out

    def summary_bounds(j, gather, lo, hi):
        table = truncated_normal_bins(bound)
        for column in range(1, 1 + n_obs):
            gather(column, table, add=column > 1)
        np.divide(lo, n_obs, out=lo)
        np.divide(hi, n_obs, out=hi)
        gather(0, table, add=True)
        # The mean sums the n_obs draws plus theta in numpy's order, while
        # these bounds sum the draws in column order and add theta once.
        # With every |draw| <= B, the computed mean and these bounds are
        # within (3 n_obs + 4) B 2^-53 of the exact values they follow, so
        # the bounds are widened by more than that.
        slack = (n_obs + 2) * 2.0**-51 * max(-table[0].min(), table[1].max())
        np.subtract(lo, slack, out=lo)
        np.add(hi, slack, out=hi)

    def summary_map(y0):
        y0 = np.asarray(y0, dtype=float).reshape(-1)
        if y0.size != n_obs:
            raise InvalidArgumentError(f"demo model expects raw data of length {n_obs}")
        return np.array([float(y0.mean())])

    return Model(
        model_id="gaussian_mean_demo",
        params={"n_obs": n_obs, "bound": bound},
        p=1, m=1, words=1 + n_obs,
        thetas_from_uniforms=_thetas_truncated_normal(bound),
        summaries_from_uniforms=summaries,
        summary_bounds=summary_bounds,
        support_diameter=4.0 * bound,
        summary_map=summary_map,
    )


_REGISTRY: dict[str, Callable[..., Model]] = {
    "gaussian_conjugate_1d": partial(_conjugate, "gaussian_conjugate_1d", 1),
    "uniform_box_1d": _uniform_box_1d,
    "gauss_5d": partial(_conjugate, "gauss_5d", 5),
    "uniform_ball_1d": _uniform_ball_1d,
    "gaussian_mean_demo": _gaussian_mean_demo,
}


def model_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# The largest n_obs.  A chunk of 2^15 rows then draws 4 ceil((n_obs + 1) / 4)
# Philox words a row, below 2^63 bytes, so a chunk too large to allocate is a
# MemoryError (numpy raises ValueError past 2^63 - 1 bytes).
N_OBS_MAX = 2**44


def _check_params(params: dict):
    """Reject parameter values no built-in model can run with: ``bound``
    and ``radius`` must be finite numbers > 0, ``n_obs`` an integer in
    [1, N_OBS_MAX]."""
    for name, value in params.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if name in ("bound", "radius") and not (number and is_finite(value) and value > 0):
            raise ConfigurationError(f"model.params.{name}: must be a finite number > 0")
        if name == "n_obs" and not (number and isinstance(value, int) and value >= 1):
            raise ConfigurationError(f"model.params.{name}: must be an integer >= 1")
        if name == "n_obs" and value > N_OBS_MAX:
            raise ConfigurationError(f"model.params.{name}: must be <= {N_OBS_MAX}")


def get_model(model_id: str, /, **params) -> Model:
    """Build a registered model from its identifier and parameter map."""
    try:
        builder = _REGISTRY[model_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown model '{model_id}'; available: {', '.join(model_ids())}") from None
    accepted = builder().params
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"model.params: unknown key(s) {', '.join(unknown)} for model '{model_id}';"
            f" accepted keys: {', '.join(accepted) or 'none'}")
    _check_params(params)
    return builder(**params)
