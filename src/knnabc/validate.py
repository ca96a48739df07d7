"""Monte Carlo verification suite.

Every report here is a pure function of (model, parameters, seed):
replicate r always gets the sub-seed derived from (seed, purpose, r), and
aggregation runs in replicate order, so reruns are bit-identical.
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
from .rng import derive_seed

_MIN_KS_K = 20


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


def _require_oracle(model: Model):
    if model.oracle is None:
        raise UnsupportedModelError(f"model '{model.model_id}' has no posterior oracle")


def _oracle_on_grid(model: Model, pts: np.ndarray, s0) -> np.ndarray:
    return np.asarray(model.oracle.pdf(pts, np.asarray(s0, dtype=float)),
                      dtype=float).reshape(-1)


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

    Each replicate regenerates a fresh table, accepts the k nearest rows,
    evaluates the estimate on the default grid, padded by ``grid_padding``
    bandwidths, and integrates the squared error.  ``h`` is either a fixed
    bandwidth or "auto" (:func:`tuning.auto_bandwidth`).
    """
    _require_oracle(model)
    replicates = int(replicates)
    if replicates < 2:
        raise InvalidArgumentError("replicates must be >= 2")
    auto = isinstance(h, str)
    if auto and h != "auto":
        raise InvalidArgumentError("h must be a positive number or 'auto'")
    s0 = np.asarray(s0, dtype=float).reshape(-1)

    def one(r: int):
        table = core.generate_table(model, n_rows, derive_seed(seed, "mise", r))
        accepted = core.abc_knn(table, s0, k)
        h_r = (tuning.auto_bandwidth(accepted.ordered_thetas, model.m, model.p, n_rows)
               if auto else float(h))
        axes = estimators.default_grid(accepted, h_r, points=grid_points,
                                       padding=grid_padding)
        est = estimators.estimate_density(accepted, h_r, kernel, axes=axes)
        oracle_vals = _oracle_on_grid(model, est.grid, s0)
        return integrated_squared_error(est.values, oracle_vals, axes), h_r

    results = parallel_map(one, range(replicates), max_workers)
    ise = np.array([r[0] for r in results])
    h_used = np.array([r[1] for r in results])
    return MiseReport(
        model_id=model.model_id, n_rows=int(n_rows), k=int(k),
        h_mode="auto" if auto else "fixed", h_mean=float(h_used.mean()),
        kernel=kernel.kind, replicates=replicates,
        mise_mean=float(ise.mean()),
        mise_stderr=float(ise.std(ddof=1) / np.sqrt(replicates)),
        grid_spec={"points": int(grid_points), "padding": float(grid_padding)},
        per_replicate=ise, seed=int(seed))


def rate_experiment(model: Model, s0, Ns: Sequence[int], kernel: estimators.KernelSpec,
                    replicates: int, seed: int, c_k: float = 1.0,
                    bandwidth="auto", grid_points: int = estimators.GRID_POINTS_1D,
                    grid_padding: float = estimators.GRID_PADDING,
                    max_workers: int = 1) -> RateReport:
    """MISE ladder across N with schedule-tuned (k, h), plus the fitted
    log-log slope and its standard error."""
    _require_oracle(model)
    Ns = [int(n) for n in Ns]
    if len(Ns) < 3:
        raise InvalidArgumentError("need at least 3 table sizes for a rate fit")
    reports = []
    for i, n_rows in enumerate(Ns):
        k, _ = tuning.schedule(model.m, model.p, n_rows, c_k=c_k)
        reports.append(mise_estimate(
            model, s0, n_rows, k, bandwidth, kernel, replicates,
            derive_seed(seed, "rate", i), grid_points=grid_points,
            grid_padding=grid_padding, max_workers=max_workers))
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


def conditional_law_test(model: Model, s0, n_rows: int, k: int, oracle_draws: int,
                         seed: int, oracle_kind: str = "restricted") -> tuple[float, float]:
    """Two-sample KS test of the accepted thetas against fresh draws from
    the ball-restricted joint at the realized radius d_(k+1).

    The oracle radius is copied from the run, not redrawn: the accepted
    set's law is an iid sample from the restricted density only
    conditionally on that radius.  ``oracle_kind="unrestricted"``
    substitutes plain prior draws (a deliberate negative control).
    Returns (statistic, asymptotic p-value).
    """
    if model.p != 1:
        raise InvalidArgumentError("the KS comparison is implemented for p = 1 models")
    k = int(k)
    if k < _MIN_KS_K:
        raise InvalidArgumentError(
            f"k must be >= {_MIN_KS_K}; a {k}-point sample has no KS power")
    if oracle_kind not in ("restricted", "unrestricted"):
        raise InvalidArgumentError("oracle_kind must be 'restricted' or 'unrestricted'")
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    table = core.generate_table(model, n_rows, derive_seed(seed, "prop1-table"))
    accepted = core.abc_knn(table, s0, k)
    if oracle_kind == "restricted":
        oracle_thetas, _ = core.sample_restricted(
            model, s0, accepted.radius_next, oracle_draws, derive_seed(seed, "prop1-oracle"))
    else:
        aux = core.generate_table(model, max(2, int(oracle_draws)),
                                  derive_seed(seed, "prop1-null"))
        oracle_thetas = aux.thetas[:oracle_draws]
    # scipy.stats is slow to import and only this test needs it, so the CLI
    # loads it for `validate prop1` alone
    from scipy.stats import ks_2samp
    result = ks_2samp(accepted.ordered_thetas[:, 0], oracle_thetas[:, 0], method="asymp")
    return float(result.statistic), float(result.pvalue)


def prop1_calibration(model: Model, s0, n_rows: int, k: int, runs: int,
                      oracle_draws: int, seed: int,
                      oracle_kind: str = "restricted", level: float = 0.05,
                      max_workers: int = 1) -> dict:
    """Repeat the conditional-law test over independent runs and report the
    rejection fraction at the given level."""
    runs = int(runs)
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")

    def one(r: int):
        return conditional_law_test(model, s0, n_rows, k, oracle_draws,
                                    derive_seed(seed, "prop1-run", r), oracle_kind)

    results = parallel_map(one, range(runs), max_workers)
    p_values = np.array([pv for _, pv in results])
    return {
        "runs": runs,
        "level": float(level),
        "oracle_kind": oracle_kind,
        "p_values": p_values,
        "rejection_fraction": float((p_values < level).mean()),
    }


def bound_check(model: Model, s0, Ns_ks: Sequence[tuple[int, int]], xi0: float,
                L_diam: float, order: int, replicates: int, seed: int,
                max_workers: int = 1) -> list[dict]:
    """Empirical E[d_(k+1)^order] over replicate tables against the plug-in
    bound, per (N, k) pair.  Pairs whose bound hypothesis fails are
    flagged ``tested=False`` and excluded rather than evaluated."""
    order = int(order)
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    results = []
    for j, (n_rows, k) in enumerate(Ns_ks):
        n_rows, k = int(n_rows), int(k)
        try:
            bound = tuning.distance_moment_bound(model.m, k, n_rows, xi0, L_diam, order)
        except BoundHypothesisError as exc:
            results.append({"N": n_rows, "k": k, "tested": False,
                            "reason": str(exc), "holds": None})
            continue

        def one(r: int, n_rows=n_rows, k=k, j=j):
            table = core.generate_table(model, n_rows, derive_seed(seed, "bound", j, r))
            d2 = core.squared_distances(table.summaries, s0)
            d2_next = float(np.partition(d2, k)[k])
            return d2_next ** (order / 2)

        moments = np.array(parallel_map(one, range(int(replicates)), max_workers))
        empirical = float(moments.mean())
        results.append({
            "N": n_rows, "k": k, "tested": True,
            "empirical_moment": empirical,
            "bound": float(bound),
            "holds": bool(empirical <= bound),
        })
    return results


_PHI_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda thetas: thetas[:, 0],
    "square": lambda thetas: thetas[:, 0] ** 2,
    "one": lambda thetas: np.ones(thetas.shape[0]),
}


def _oracle_moment(model: Model, s0, name: str) -> float:
    mean = float(model.oracle.mean(s0)[0])
    if name == "identity":
        return mean
    if name == "square":
        return float(model.oracle.variance(s0)[0, 0]) + mean * mean
    if name == "one":
        return 1.0
    raise InvalidArgumentError(f"no oracle moment registered for phi '{name}'")


def moment_consistency(model: Model, s0, n_rows: int, k: int,
                       phis: Sequence, replicates: int, seed: int,
                       max_workers: int = 1) -> list[dict]:
    """Average the posterior functional over replicate tables and z-score
    it against the oracle moment.

    ``phis`` entries are either registered names ("identity", "square",
    "one") or (name, callable, oracle_value) triples.
    """
    _require_oracle(model)
    s0 = np.asarray(s0, dtype=float).reshape(-1)
    resolved = []
    for item in phis:
        if isinstance(item, str):
            resolved.append((item, _PHI_REGISTRY[item], _oracle_moment(model, s0, item)))
        else:
            resolved.append(tuple(item))

    def one(r: int):
        table = core.generate_table(model, n_rows, derive_seed(seed, "moment", r))
        accepted = core.abc_knn(table, s0, k)
        return [estimators.posterior_functional(accepted, fn) for _, fn, _ in resolved]

    rows = np.array(parallel_map(one, range(int(replicates)), max_workers))
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
