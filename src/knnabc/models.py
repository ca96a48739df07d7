"""Generative test models: prior + summary simulator + closed-form posterior.

Every built-in bundles a prior over R^p, a simulator for the summary
statistic S in R^m, and (where available) an exact posterior oracle used
as ground truth by the validation suite.  Gaussian components are
truncated to +/- 5 per coordinate and renormalized so the summary
marginal has compact support; oracles account for the truncation exactly,
so Bayes-rule identities hold to quadrature precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError, InvalidArgumentError, UnsupportedModelError
from .rng import truncated_normal_from_uniform

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


@dataclass(frozen=True)
class PosteriorOracle:
    """Closed-form posterior g(theta | s0) for a conjugate test model.

    ``pdf`` accepts theta0 of shape (G, p) or (p,) and returns matching
    densities; ``mean`` and ``variance`` return a (p,) vector and a (p, p)
    matrix.
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
    theta_halfwidth: float = 10.0
    marginal_cdf: Optional[Callable] = field(default=None, repr=False)


@dataclass(frozen=True)
class Model:
    """Immutable model descriptor.

    Sampling enters only through explicit uniforms, so draws are a pure
    function of the random words handed in; descriptors are safe to share
    across threads.
    """

    model_id: str
    params: Mapping[str, float]
    p: int
    m: int
    prior_spec: str
    summary_spec: str
    theta_words: int
    summary_words: int
    thetas_from_uniforms: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    summaries_from_uniforms: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    support_diameter: Optional[float] = None
    oracle: Optional[PosteriorOracle] = field(default=None, repr=False)
    analytic: Optional[AnalyticJoint] = field(default=None, repr=False)
    summary_map: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if self.p < 1 or self.m < 1:
            raise InvalidArgumentError("model dimensions p and m must be >= 1")


# ---------------------------------------------------------------------------
# operations

def oracle_posterior_pdf(model: Model, theta0, s0) -> float:
    """Exact posterior density g(theta0 | s0) at the single point theta0,
    for oracle-bearing models."""
    if model.oracle is None:
        raise UnsupportedModelError(f"model '{model.model_id}' has no posterior oracle")
    value = np.asarray(model.oracle.pdf(np.asarray(theta0, dtype=float),
                                        np.asarray(s0, dtype=float)))
    if value.size != 1:
        raise InvalidArgumentError(
            f"theta0 must be one point, got {value.size}; use model.oracle.pdf for several")
    return float(value.item())


# ---------------------------------------------------------------------------
# truncated-normal helpers (exact posterior under +/- bound truncation)

def _trunc_conj_window(s: float, bound: float, noise_scale: float = 1.0):
    """Feasible theta range once both prior and noise are cut at +/- bound."""
    return max(-bound, s - bound * noise_scale), min(bound, s + bound * noise_scale)


def _truncated_normal_moments(mu, sigma, a, b):
    alpha = (a - mu) / sigma
    beta = (b - mu) / sigma
    z = ndtr(beta) - ndtr(alpha)
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


def _conjugate_oracle(bound: float, noise_var: float, s_index: int = 0) -> PosteriorOracle:
    """Posterior for prior N(0,1) and summary noise N(0, noise_var), both
    truncated at +/- bound, conditioning on coordinate ``s_index`` of s.

    The truncated-model posterior is the untruncated conjugate normal
    restricted to the feasible window and renormalized.
    """
    noise_scale = math.sqrt(noise_var)
    post_var = noise_var / (1.0 + noise_var)

    def _window(s0):
        s = float(np.asarray(s0, dtype=float).reshape(-1)[s_index])
        mu = s / (1.0 + noise_var)
        return s, mu, _trunc_conj_window(s, bound, noise_scale)

    def pdf(theta0, s0):
        _, mu, (a, b) = _window(s0)
        sigma = math.sqrt(post_var)
        _, _, z = _truncated_normal_moments(mu, sigma, a, b)
        t = _theta_points(theta0, 1)[:, 0]
        dens = _norm_pdf((t - mu) / sigma) / (sigma * z)
        dens = np.where((t >= a) & (t <= b), dens, 0.0)
        return dens if dens.size > 1 else float(dens[0])

    def mean(s0):
        _, mu, (a, b) = _window(s0)
        m, _, _ = _truncated_normal_moments(mu, math.sqrt(post_var), a, b)
        return np.array([m])

    def variance(s0):
        _, mu, (a, b) = _window(s0)
        _, v, _ = _truncated_normal_moments(mu, math.sqrt(post_var), a, b)
        return np.array([[v]])

    return PosteriorOracle(pdf=pdf, mean=mean, variance=variance)


# ---------------------------------------------------------------------------
# built-in models

def _gaussian_conjugate_1d(bound: float = 5.0) -> Model:
    def thetas(u):
        return truncated_normal_from_uniform(u[:, :1], bound)

    def summaries(thetas_, u):
        return thetas_ + truncated_normal_from_uniform(u[:, :1], bound)

    def joint_pdf(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        return _norm_pdf(t) * _norm_pdf(float(s[0]) - t)

    def marginal_pdf(s):
        return math.exp(-float(s[0]) ** 2 / 4.0) / math.sqrt(4.0 * math.pi)

    def theta_laplacian(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        f = joint_pdf(theta, s)
        return f * ((float(s[0]) - 2.0 * t) ** 2 - 2.0)

    def summary_laplacian(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        f = joint_pdf(theta, s)
        return f * ((t - float(s[0])) ** 2 - 1.0)

    def marginal_summary_laplacian(s):
        s1 = float(s[0])
        return marginal_pdf(s) * (s1 * s1 / 4.0 - 0.5)

    def marginal_cdf(s):
        return ndtr(np.asarray(s, dtype=float) / math.sqrt(2.0))

    return Model(
        model_id="gaussian_conjugate_1d",
        params={"bound": bound},
        p=1, m=1,
        prior_spec=f"N(0,1) truncated to [-{bound},{bound}]",
        summary_spec=f"theta + N(0,1) truncated to [-{bound},{bound}]",
        theta_words=1, summary_words=1,
        thetas_from_uniforms=thetas,
        summaries_from_uniforms=summaries,
        support_diameter=4.0 * bound,
        oracle=_conjugate_oracle(bound, noise_var=1.0),
        analytic=AnalyticJoint(
            joint_pdf=joint_pdf,
            marginal_pdf=marginal_pdf,
            theta_laplacian=theta_laplacian,
            summary_laplacian=summary_laplacian,
            marginal_summary_laplacian=marginal_summary_laplacian,
            theta_halfwidth=2.0 * bound,
            marginal_cdf=marginal_cdf,
        ),
    )


def _uniform_box_1d() -> Model:
    def thetas(u):
        return u[:, :1].copy()

    def summaries(thetas_, u):
        # summary independent of theta; the marginal of s is exactly U[0,1]
        return u[:, :1].copy()

    def pdf(theta0, s0):
        t = _theta_points(theta0, 1)[:, 0]
        dens = np.where((t >= 0.0) & (t <= 1.0), 1.0, 0.0)
        return dens if dens.size > 1 else float(dens[0])

    oracle = PosteriorOracle(
        pdf=pdf,
        mean=lambda s0: np.array([0.5]),
        variance=lambda s0: np.array([[1.0 / 12.0]]),
    )
    return Model(
        model_id="uniform_box_1d",
        params={},
        p=1, m=1,
        prior_spec="U[0,1]",
        summary_spec="U[0,1], independent of theta",
        theta_words=1, summary_words=1,
        thetas_from_uniforms=thetas,
        summaries_from_uniforms=summaries,
        support_diameter=1.0,
        oracle=oracle,
    )


def _gauss_5d(bound: float = 5.0) -> Model:
    m_dim = 5

    def thetas(u):
        return truncated_normal_from_uniform(u[:, :1], bound)

    def summaries(thetas_, u):
        s = truncated_normal_from_uniform(u[:, :m_dim], bound)
        s[:, 0] += thetas_[:, 0]
        return s

    def _tail_factor(s):
        return float(np.prod(_norm_pdf(np.asarray(s, dtype=float)[1:])))

    def joint_pdf(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        return _norm_pdf(t) * _norm_pdf(float(s[0]) - t) * _tail_factor(s)

    def marginal_pdf(s):
        s1 = float(s[0])
        return math.exp(-s1 * s1 / 4.0) / math.sqrt(4.0 * math.pi) * _tail_factor(s)

    def theta_laplacian(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        return joint_pdf(theta, s) * ((float(s[0]) - 2.0 * t) ** 2 - 2.0)

    def summary_laplacian(theta, s):
        t = _theta_points(theta, 1)[:, 0]
        s = np.asarray(s, dtype=float)
        f = joint_pdf(theta, s)
        ancillary = float(np.sum(s[1:] ** 2 - 1.0))
        return f * (((t - s[0]) ** 2 - 1.0) + ancillary)

    def marginal_summary_laplacian(s):
        s = np.asarray(s, dtype=float)
        ancillary = float(np.sum(s[1:] ** 2 - 1.0))
        return marginal_pdf(s) * ((s[0] ** 2 / 4.0 - 0.5) + ancillary)

    # support is [-2b, 2b] x [-b, b]^4; diameter of that box
    diameter = math.sqrt((4.0 * bound) ** 2 + 4.0 * (2.0 * bound) ** 2)

    return Model(
        model_id="gauss_5d",
        params={"bound": bound},
        p=1, m=m_dim,
        prior_spec=f"N(0,1) truncated to [-{bound},{bound}]",
        summary_spec="(theta + eps1, eps2..eps5) with iid truncated N(0,1) eps",
        theta_words=1, summary_words=m_dim,
        thetas_from_uniforms=thetas,
        summaries_from_uniforms=summaries,
        support_diameter=diameter,
        oracle=_conjugate_oracle(bound, noise_var=1.0, s_index=0),
        analytic=AnalyticJoint(
            joint_pdf=joint_pdf,
            marginal_pdf=marginal_pdf,
            theta_laplacian=theta_laplacian,
            summary_laplacian=summary_laplacian,
            marginal_summary_laplacian=marginal_summary_laplacian,
            theta_halfwidth=2.0 * bound,
        ),
    )


def _uniform_ball_1d(radius: float = 0.1) -> Model:
    if radius <= 0:
        raise ConfigurationError("uniform_ball_1d requires radius > 0")

    def thetas(u):
        return u[:, :1].copy()

    def summaries(thetas_, u):
        return thetas_ + radius * (2.0 * u[:, :1] - 1.0)

    def _window(s0):
        s = float(np.asarray(s0, dtype=float).reshape(-1)[0])
        a, b = max(0.0, s - radius), min(1.0, s + radius)
        if b <= a:
            raise InvalidArgumentError("s0 outside the support of the summary marginal")
        return a, b

    def pdf(theta0, s0):
        a, b = _window(s0)
        t = _theta_points(theta0, 1)[:, 0]
        dens = np.where((t >= a) & (t <= b), 1.0 / (b - a), 0.0)
        return dens if dens.size > 1 else float(dens[0])

    oracle = PosteriorOracle(
        pdf=pdf,
        mean=lambda s0: np.array([0.5 * sum(_window(s0))]),
        variance=lambda s0: np.array([[(_window(s0)[1] - _window(s0)[0]) ** 2 / 12.0]]),
    )
    return Model(
        model_id="uniform_ball_1d",
        params={"radius": radius},
        p=1, m=1,
        prior_spec="U[0,1]",
        summary_spec=f"theta + U[-{radius},{radius}]",
        theta_words=1, summary_words=1,
        thetas_from_uniforms=thetas,
        summaries_from_uniforms=summaries,
        support_diameter=1.0 + 2.0 * radius,
        oracle=oracle,
    )


def _gaussian_mean_demo(n_obs: int = 10, bound: float = 5.0) -> Model:
    """Raw-data walkthrough model: y is n_obs iid noisy copies of theta and
    the summary is their mean.  No closed-form oracle is attached (the mean
    of truncated normals has none)."""
    n_obs = int(n_obs)
    if n_obs < 1:
        raise ConfigurationError("gaussian_mean_demo requires n_obs >= 1")

    def thetas(u):
        return truncated_normal_from_uniform(u[:, :1], bound)

    def summaries(thetas_, u):
        noise = truncated_normal_from_uniform(u[:, :n_obs], bound)
        y = thetas_ + noise
        return y.mean(axis=1, keepdims=True)

    def summary_map(y0):
        y0 = np.asarray(y0, dtype=float).reshape(-1)
        if y0.size != n_obs:
            raise InvalidArgumentError(f"demo model expects raw data of length {n_obs}")
        return np.array([float(y0.mean())])

    return Model(
        model_id="gaussian_mean_demo",
        params={"n_obs": n_obs, "bound": bound},
        p=1, m=1,
        prior_spec=f"N(0,1) truncated to [-{bound},{bound}]",
        summary_spec=f"mean of {n_obs} iid theta + truncated N(0,1) observations",
        theta_words=1, summary_words=n_obs,
        thetas_from_uniforms=thetas,
        summaries_from_uniforms=summaries,
        support_diameter=4.0 * bound,
        summary_map=summary_map,
    )


_REGISTRY: dict[str, Callable[..., Model]] = {
    "gaussian_conjugate_1d": _gaussian_conjugate_1d,
    "uniform_box_1d": _uniform_box_1d,
    "gauss_5d": _gauss_5d,
    "uniform_ball_1d": _uniform_ball_1d,
    "gaussian_mean_demo": _gaussian_mean_demo,
}


def model_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_model(model_id: str, **params) -> Model:
    """Build a registered model from its identifier and parameter map."""
    try:
        builder = _REGISTRY[model_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown model '{model_id}'; available: {', '.join(model_ids())}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for model '{model_id}': {exc}") from None
