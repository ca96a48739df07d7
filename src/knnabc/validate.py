"""Monte Carlo verification suite.

Every report here is a pure function of (model, parameters, seed):
replicate r always gets the sub-seed derived from (seed, purpose, r), and
aggregation runs in replicate order, so reruns are bit-identical at any
worker count.  The MISE, moment and Proposition 1 loops run on one engine,
``_replicates``, which checks the replicate count, derives every sub-seed
in one vectorised pass and maps the replicates over the workers;
``bound_check`` also derives its tables' sub-seeds in one pass, and runs
the tables in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import core, estimators, tuning
from .errors import BoundHypothesisError, InvalidArgumentError, UnsupportedModelError
from .models import Model
from .numerics import ols_slope, parallel_map, trapezoid_nd
from .rng import derive_seed, derive_seeds

_MIN_KS_K = 20
_PROP1_LEVEL = 0.05


@dataclass(frozen=True)
class MiseReport:
    """Replicated integrated-squared-error summary at one (N, k, h)."""

    model_id: str
    n_rows: int
    k: int
    h_mode: str                  # "fixed" or "auto"
    h_mean: float
    kernel: str
    replicates: int
    mise_mean: float
    mise_stderr: float
    grid_spec: dict
    per_replicate: np.ndarray = field(repr=False)
    seed: int = 0


@dataclass(frozen=True)
class RateReport:
    """Log-log regression of MISE against N."""

    Ns: tuple
    mise_points: tuple           # ((log N, log MISE), ...)
    fitted_slope: float
    slope_stderr: float
    theoretical_slope: float
    log_factor_flag: bool        # m = 4 carries an extra log N
    reports: tuple = field(repr=False, default=())


def _replicates(work: Callable[[int], object], seed: int, tag: str, count: int,
                least: int, max_workers: int, what: str = "replicates") -> list:
    """``[work(derive_seed(seed, tag, r)) for r in range(count)]``, with
    every sub-seed derived in one ``derive_seeds`` pass and the work mapped
    over ``max_workers`` threads; the results come in replicate order.
    ``count`` (named ``what``) must be at least ``least``."""
    count = int(count)
    if count < least:
        raise InvalidArgumentError(f"{what} must be >= {least}")
    return parallel_map(work, derive_seeds(seed, tag, count=count).tolist(), max_workers)


def _require_oracle(model: Model, s0) -> np.ndarray:
    """The checked ``s0``, once the model's oracle has a posterior there:
    a model without an oracle, or an s0 outside its summary's support,
    fails here, before any table is simulated."""
    if model.oracle is None:
        raise UnsupportedModelError(f"model '{model.model_id}' has no posterior oracle")
    s0 = core.check_s0(s0, model.m)
    model.oracle.mean(s0)
    return s0


def integrated_squared_error(values: np.ndarray, oracle_values: np.ndarray, axes) -> float:
    """Trapezoid integral of (estimate - oracle)^2 on a tensor grid."""
    diff = np.asarray(values, dtype=float) - np.asarray(oracle_values, dtype=float)
    return trapezoid_nd(diff * diff, axes)


def mise_estimate(model: Model, s0, n_rows: int, k: int, h, kernel: estimators.KernelSpec,
                  replicates: int, seed: int,
                  grid_points: int = estimators.GRID_POINTS_1D,
                  grid_padding: float = estimators.GRID_PADDING,
                  max_workers: int = 1) -> MiseReport:
    """Monte Carlo MISE of the accepted-set estimator against the oracle.

    Each replicate simulates a fresh table's k nearest rows
    (:func:`core.simulate_knn`), evaluates the estimate on the default
    grid, padded by ``grid_padding`` bandwidths, and integrates the
    squared error.  ``h`` is either a fixed bandwidth or "auto"
    (:func:`tuning.resolve_bandwidth`).
    """
    s0 = _require_oracle(model, s0)
    h = tuning.check_bandwidth(h)

    def one(replicate_seed: int):
        accepted = core.simulate_knn(model, n_rows, replicate_seed, s0, k)
        h_r = tuning.resolve_bandwidth(h, accepted.ordered_thetas, model.m, model.p, n_rows)
        axes = estimators.default_grid(accepted, h_r, points=grid_points,
                                       padding=grid_padding)
        est = estimators.estimate_density(accepted, h_r, kernel, axes=axes)
        oracle_vals = model.oracle.pdf(estimators.grid_points(axes), s0)
        return integrated_squared_error(est.values, oracle_vals, axes), h_r

    results = _replicates(one, seed, "mise", replicates, 2, max_workers)
    ise = np.array([r[0] for r in results])
    h_used = np.array([r[1] for r in results])
    return MiseReport(
        model_id=model.model_id, n_rows=int(n_rows), k=int(k),
        h_mode="auto" if isinstance(h, str) else "fixed", h_mean=float(h_used.mean()),
        kernel=kernel.kind, replicates=ise.size,
        mise_mean=float(ise.mean()),
        mise_stderr=float(ise.std(ddof=1) / np.sqrt(ise.size)),
        grid_spec={"points": int(grid_points), "padding": float(grid_padding)},
        per_replicate=ise, seed=int(seed))


def rate_experiment(model: Model, s0, Ns: Sequence[int], kernel: estimators.KernelSpec,
                    replicates: int, seed: int, c_k: float = 1.0,
                    bandwidth="auto", grid_points: int = estimators.GRID_POINTS_1D,
                    grid_padding: float = estimators.GRID_PADDING,
                    max_workers: int = 1) -> RateReport:
    """MISE ladder across N with schedule-tuned (k, h), plus the fitted
    log-log slope and its standard error."""
    s0 = _require_oracle(model, s0)
    Ns = [int(n) for n in Ns]
    if len(Ns) < 3 or len(set(Ns)) < 2:
        raise InvalidArgumentError(
            "need at least 3 table sizes, 2 of them distinct, for a rate fit")
    # every (N, k) is checked before the first table is simulated
    ks = [tuning.schedule(model.m, model.p, n_rows, c_k=c_k)[0] for n_rows in Ns]
    reports = [mise_estimate(model, s0, n_rows, k, bandwidth, kernel, replicates,
                             derive_seed(seed, "rate", i), grid_points=grid_points,
                             grid_padding=grid_padding, max_workers=max_workers)
               for i, (n_rows, k) in enumerate(zip(Ns, ks))]
    log_n = np.log([r.n_rows for r in reports])
    log_mise = np.log([r.mise_mean for r in reports])
    slope, stderr = ols_slope(log_n, log_mise)
    h_exponent = tuning.resolve_schedule(model.m, model.p).h_exponent
    return RateReport(
        Ns=tuple(Ns),
        mise_points=tuple(zip(log_n.tolist(), log_mise.tolist())),
        fitted_slope=slope, slope_stderr=stderr,
        theoretical_slope=4.0 * float(h_exponent),
        log_factor_flag=(model.m == 4),
        reports=tuple(reports))


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sided two-sample KS statistic, in the steps of
    ``scipy.stats.ks_2samp``, bit for bit."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gaps = (np.searchsorted(a, both, side="right") / a.size
            - np.searchsorted(b, both, side="right") / b.size)
    below = np.clip(-gaps[np.argmin(gaps)], 0, 1)
    above = gaps[np.argmax(gaps)]
    return float(below if below > above else above)


def _ks_pvalues(statistics: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """``ks_2samp(..., method="asymp")``'s two-sided p-values of samples of
    sizes n1 and n2 with these statistics, bit for bit: the KS null law is
    evaluated once per distinct statistic, in one vectorised call."""
    # scipy.stats is slow to import and only this test needs it, so the CLI
    # loads it for `validate prop1` alone
    from scipy.stats import kstwo
    distinct, index = np.unique(statistics, return_inverse=True)
    n = np.round(float(n1) * float(n2) / (float(n1) + float(n2)))
    return np.clip(kstwo.sf(distinct, n), 0, 1)[index]


def _check_law_test(model: Model, k: int, oracle_draws: int,
                    oracle_kind: str) -> tuple[int, int]:
    """The checked (k, oracle_draws) of a conditional-law test."""
    k, oracle_draws = int(k), int(oracle_draws)
    if model.p != 1:
        raise InvalidArgumentError("the KS comparison is implemented for p = 1 models")
    if k < _MIN_KS_K:
        raise InvalidArgumentError(
            f"k must be >= {_MIN_KS_K}; a {k}-point sample has no KS power")
    if oracle_draws < 1:
        raise InvalidArgumentError("oracle_draws must be >= 1")
    if oracle_kind not in ("restricted", "unrestricted"):
        raise InvalidArgumentError("oracle_kind must be 'restricted' or 'unrestricted'")
    return k, oracle_draws


def _law_statistic(model: Model, s0, n_rows: int, k: int, oracle_draws: int, seed: int,
                   oracle_kind: str) -> float:
    """The KS statistic of one conditional-law test (its arguments checked)."""
    accepted = core.simulate_knn(model, n_rows, derive_seed(seed, "prop1-table"), s0, k)
    if oracle_kind == "restricted":
        oracle_thetas, _ = core.sample_restricted(
            model, s0, accepted.radius_next, oracle_draws, derive_seed(seed, "prop1-oracle"))
    else:
        aux = core.generate_table(model, max(2, oracle_draws), derive_seed(seed, "prop1-null"))
        oracle_thetas = aux.thetas[:oracle_draws]
    return _ks_statistic(accepted.ordered_thetas[:, 0], oracle_thetas[:, 0])


def conditional_law_test(model: Model, s0, n_rows: int, k: int, oracle_draws: int,
                         seed: int, oracle_kind: str = "restricted") -> tuple[float, float]:
    """Two-sample KS test of the accepted thetas against fresh draws from
    the ball-restricted joint at the realized radius d_(k+1).

    The oracle radius is copied from the run, not redrawn: the accepted
    set's law is an iid sample from the restricted density only
    conditionally on that radius.  ``oracle_kind="unrestricted"``
    substitutes plain prior draws (a deliberate negative control).
    Returns (statistic, asymptotic p-value), those of
    ``scipy.stats.ks_2samp(..., method="asymp")``.
    """
    k, oracle_draws = _check_law_test(model, k, oracle_draws, oracle_kind)
    s0 = core.check_s0(s0, model.m)
    statistic = _law_statistic(model, s0, n_rows, k, oracle_draws, seed, oracle_kind)
    return statistic, float(_ks_pvalues(np.array([statistic]), k, oracle_draws)[0])


def prop1_calibration(model: Model, s0, n_rows: int, k: int, runs: int,
                      oracle_draws: int, seed: int,
                      oracle_kind: str = "restricted", max_workers: int = 1) -> dict:
    """Repeat the conditional-law test over independent runs and report the
    rejection fraction at the 5 % level.  Run r's p-value is that of
    ``conditional_law_test`` with the seed derived from (seed, "prop1-run",
    r); the null law is evaluated once, for all the runs' statistics."""
    k, oracle_draws = _check_law_test(model, k, oracle_draws, oracle_kind)
    s0 = core.check_s0(s0, model.m)
    statistics = _replicates(
        lambda run_seed: _law_statistic(model, s0, n_rows, k, oracle_draws, run_seed, oracle_kind),
        seed, "prop1-run", runs, 1, max_workers, what="runs")
    p_values = _ks_pvalues(np.array(statistics), k, oracle_draws)
    return {
        "runs": p_values.size,
        "level": _PROP1_LEVEL,
        "oracle_kind": oracle_kind,
        "p_values": p_values,
        "rejection_fraction": float((p_values < _PROP1_LEVEL).mean()),
    }


def bound_check(model: Model, s0, Ns_ks: Sequence[tuple[int, int]], xi0: float,
                L_diam: float, order: int, replicates: int, seed: int,
                max_workers: int = 1) -> list[dict]:
    """Empirical E[d_(k+1)^order] over replicate tables against the plug-in
    bound, per (N, k) pair.  Pairs whose bound hypothesis fails are
    flagged ``tested=False`` and excluded rather than evaluated.

    Replicate r of pair j simulates the table ``generate_table`` gives for
    the seed derived from (seed, "bound", j, r).  Every replicate's key is
    derived in one vectorised pass, and the replicates run in blocks
    (:func:`core.kth_distances`); the mean is taken in replicate order, so
    the result is the same at any worker count.
    """
    _, order = tuning.check_bound_inputs(model.m, xi0, L_diam, order)
    replicates = int(replicates)
    if replicates < 1:
        raise InvalidArgumentError("replicates must be >= 1")
    s0 = core.check_s0(s0, model.m)
    # the arguments and every pair are checked before the first table is simulated
    pairs = [(int(n_rows), int(k)) for n_rows, k in Ns_ks]
    for n_rows, k in pairs:
        if n_rows < 2 or not 0 <= k <= n_rows - 1:
            raise InvalidArgumentError(
                f"each (N, k) pair needs N >= 2 and 0 <= k <= N-1, got ({n_rows}, {k})")
    results = []
    for j, (n_rows, k) in enumerate(pairs):
        try:
            bound = tuning.distance_moment_bound(model.m, k, n_rows, xi0, L_diam, order)
        except BoundHypothesisError as exc:
            results.append({"N": n_rows, "k": k, "tested": False,
                            "reason": str(exc), "holds": None})
            continue
        keys = core.table_keys(model, derive_seeds(seed, "bound", j, count=replicates))
        d2_next = core.kth_distances(model, keys, n_rows, s0, k, max_workers)
        moments = np.array([float(v) ** (order / 2) for v in d2_next])
        empirical = float(moments.mean())
        results.append({
            "N": n_rows, "k": k, "tested": True,
            "empirical_moment": empirical,
            "bound": float(bound),
            "holds": bool(empirical <= bound),
        })
    return results


def moment_consistency(model: Model, s0, n_rows: int, k: int,
                       phis: Sequence, replicates: int, seed: int,
                       max_workers: int = 1) -> list[dict]:
    """Average the posterior functionals named in ``phis`` (keys of
    ``estimators.PHIS``) over replicate tables and z-score each against
    its oracle moment.
    """
    s0 = _require_oracle(model, s0)
    mean, var = float(model.oracle.mean(s0)[0]), float(model.oracle.variance(s0)[0, 0])
    resolved = []
    for name in phis:
        if name not in estimators.PHIS:
            raise InvalidArgumentError(
                f"unknown phi '{name}'; registered: {', '.join(sorted(estimators.PHIS))}")
        phi, moment = estimators.PHIS[name]
        resolved.append((name, phi, moment(mean, var)))
    if not resolved:
        raise InvalidArgumentError("phis must name at least one functional")

    def one(replicate_seed: int):
        accepted = core.simulate_knn(model, n_rows, replicate_seed, s0, k)
        return [estimators.posterior_functional(accepted, fn) for _, fn, _ in resolved]

    rows = np.array(_replicates(one, seed, "moment", replicates, 2, max_workers))
    out = []
    for col, (name, _, oracle_value) in enumerate(resolved):
        values = rows[:, col]
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / np.sqrt(len(values)))
        diff = mean - float(oracle_value)
        if stderr > 0.0:
            z = diff / stderr
        else:
            z = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        out.append({"phi": name, "estimate_mean": mean,
                    "oracle_value": float(oracle_value),
                    "stderr": stderr, "z_score": float(z)})
    return out
