"""Acceptance suite: one test per exit criterion, at full stated scale.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in failure output) and enforces its runtime envelope.  Criteria are
independent; seeds are fixed so results are reproducible bit for bit.
"""

import json
import time

import numpy as np
import pytest

from knnabc import (abc_knn, abc_tolerance, bound_check, cli, generate_table,
                    get_model, mise_estimate, prop1_calibration, rate_experiment,
                    mise_rate_quantities)
from knnabc.core import ReferenceTable, squared_distances
from knnabc.estimators import default_grid, estimate_density, make_kernel
from knnabc.rng import derive_seed
from knnabc.tuning import mise_prediction, mise_prediction_exact_moments, schedule
from knnabc.validate import moment_consistency


def _report(criterion: str, ok: bool, detail: str):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def _stopwatch(limit_s: float):
    start = time.perf_counter()

    def done():
        elapsed = time.perf_counter() - start
        assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeded {limit_s}s"
        return elapsed

    return done


def _random_table(gen, n, m):
    summaries = gen.normal(0, 1, size=(n, m))
    if n > 4 and gen.random() < 0.4:
        summaries[n // 2] = summaries[0]           # duplicate-row exact tie
    if n > 6 and gen.random() < 0.3:
        summaries[n - 1] = summaries[1]            # another exact tie pair
    return ReferenceTable(thetas=gen.normal(0, 1, size=(n, 1)),
                          summaries=summaries, seed=0, model_id="random")


def test_criterion_01_selection_matches_sort_oracle():
    # the oracle is a full stable sort by (distance, index); it shares the
    # distance arithmetic so that only the selection policy is under test
    done = _stopwatch(10.0)
    gen = np.random.default_rng(101)
    for trial in range(1000):
        n = int(gen.integers(2, 201))
        m = int(gen.integers(1, 4))
        table = _random_table(gen, n, m)
        s0 = np.ones(m) if gen.random() < 0.5 else gen.normal(0, 1, m)
        k = int(gen.integers(1, n))
        d2 = squared_distances(table.summaries, s0)
        expected = np.lexsort((np.arange(n), d2))[:k]
        got = abc_knn(table, s0, k).source_indices
        assert got.tolist() == expected.tolist(), f"trial {trial}"
    # engineered exact ties resolved by ascending index
    tied = ReferenceTable(thetas=np.arange(6, dtype=float)[:, None],
                          summaries=np.array([[0.3], [0.1], [0.1], [0.5], [0.1], [0.9]]),
                          seed=0, model_id="ties")
    assert abc_knn(tied, [0.0], 2).source_indices.tolist() == [1, 2]
    assert abc_knn(tied, [0.0], 3).source_indices.tolist() == [1, 2, 4]
    elapsed = done()
    _report("criterion 1", True, f"1000 tables exact match, ties by index ({elapsed:.1f}s)")


def test_criterion_02_tolerance_knn_duality():
    done = _stopwatch(10.0)
    gen = np.random.default_rng(102)
    for trial in range(1000):
        n = int(gen.integers(2, 201))
        m = int(gen.integers(1, 4))
        table = ReferenceTable(thetas=gen.normal(0, 1, size=(n, 1)),
                               summaries=gen.normal(0, 1, size=(n, m)),
                               seed=0, model_id="random")
        s0 = gen.normal(0, 1, m)
        k = int(gen.integers(1, n))
        knn = abc_knn(table, s0, k)
        tol = abc_tolerance(table, s0, knn.distances[-1])
        assert sorted(tol.source_indices) == sorted(knn.source_indices), f"trial {trial}"
        assert tol.k == k
    elapsed = done()
    _report("criterion 2", True, f"epsilon=d_(k) reproduces the k-nearest set ({elapsed:.1f}s)")


def test_criterion_03_estimator_normalization():
    done = _stopwatch(30.0)
    gen = np.random.default_rng(103)
    worst = 0.0
    checked = 0
    for p, sets, grid_kwargs in ((1, 50, {"points": 4001}),
                                 (2, 50, {"cap": 200_000})):
        for _ in range(sets):
            k = int(gen.integers(20, 121))
            h = float(gen.uniform(0.6, 1.5))
            thetas = gen.normal(0, 1, size=(k, p))
            from knnabc.core import AcceptedSet
            acc = AcceptedSet(ordered_thetas=thetas,
                              ordered_summaries=np.zeros((k, 1)),
                              distances=np.linspace(0.01, 0.4, k),
                              radius_next=0.5,
                              source_indices=np.arange(k, dtype=np.int64))
            for kind in ("naive", "gaussian"):
                est = estimate_density(acc, h, make_kernel(kind, p),
                                       axes=default_grid(acc, h, **grid_kwargs))
                err = abs(est.integral() - 1.0)
                worst = max(worst, err)
                checked += 1
                assert err <= 1e-3, f"p={p} kernel={kind} err={err:.2e}"
    elapsed = done()
    _report("criterion 3", True,
            f"{checked} grids within 1e-3 (worst {worst:.1e}) ({elapsed:.1f}s)")


def test_criterion_04_conditional_law_calibration():
    done = _stopwatch(300.0)
    model = get_model("gaussian_conjugate_1d")
    calib = prop1_calibration(model, [1.0], 2000, 50, runs=200,
                              oracle_draws=500, seed=1000)
    frac = calib["rejection_fraction"]
    null = prop1_calibration(model, [1.0], 2000, 50, runs=200,
                             oracle_draws=500, seed=1000,
                             oracle_kind="unrestricted")
    elapsed = done()
    ok = 0.02 <= frac <= 0.10 and null["rejection_fraction"] > 0.5
    _report("criterion 4", ok,
            f"rejection {frac:.3f} in [0.02,0.10]; negative control "
            f"{null['rejection_fraction']:.2f} > 0.5 ({elapsed:.1f}s)")


def test_criterion_05_posterior_functional_moments():
    done = _stopwatch(120.0)
    model = get_model("gaussian_conjugate_1d")
    k, _ = schedule(1, 1, 100_000)
    rows = moment_consistency(model, [1.0], 100_000, k, ["identity", "square"],
                              50, seed=2000)
    elapsed = done()
    by_name = {row["phi"]: row for row in rows}
    z_mean = by_name["identity"]["z_score"]
    z_square = by_name["square"]["z_score"]
    ok = abs(z_mean) <= 3.0 and abs(z_square) <= 3.0
    assert by_name["identity"]["oracle_value"] == pytest.approx(0.5, abs=1e-6)
    assert by_name["square"]["oracle_value"] == pytest.approx(0.75, abs=1e-6)
    _report("criterion 5", ok,
            f"z(mean)={z_mean:.2f}, z(second moment)={z_square:.2f}, "
            f"k={k} ({elapsed:.1f}s)")


def test_criterion_06_mise_consistency_ladder():
    done = _stopwatch(600.0)
    model = get_model("gaussian_conjugate_1d")
    kernel = make_kernel("gaussian", 1)
    reports = []
    for i, n in enumerate((1_000, 10_000, 100_000)):
        k, _ = schedule(1, 1, n)
        reports.append(mise_estimate(model, [1.0], n, k, "auto", kernel,
                                     50, seed=3000 + i))
    elapsed = done()
    inversions = 0
    for a, b in zip(reports, reports[1:]):
        if not b.mise_mean < a.mise_mean:
            inversions += 1
            # an inversion is tolerated only within one MC standard error
            assert b.mise_mean - a.mise_mean <= np.hypot(a.mise_stderr, b.mise_stderr)
    ok = inversions <= 1
    detail = " > ".join(f"{r.mise_mean:.5f}" for r in reports)
    _report("criterion 6", ok, f"MISE {detail} ({inversions} inversions) ({elapsed:.1f}s)")


def test_criterion_07_convergence_rates():
    done = _stopwatch(1800.0)
    Ns = [1_000, 3_000, 10_000, 30_000, 100_000]
    kernel = make_kernel("gaussian", 1)
    conj = rate_experiment(get_model("gaussian_conjugate_1d"), [1.0], Ns,
                           kernel, 50, seed=4000)
    five = rate_experiment(get_model("gauss_5d"), [1.0, 0, 0, 0, 0], Ns,
                           kernel, 50, seed=4001)
    elapsed = done()
    err_conj = abs(conj.fitted_slope - conj.theoretical_slope)
    err_five = abs(five.fitted_slope - five.theoretical_slope)
    ok = err_conj <= 0.15 and err_five <= 0.15
    assert conj.theoretical_slope == pytest.approx(-4.0 / 9.0)
    assert five.theoretical_slope == pytest.approx(-0.4)
    _report("criterion 7", ok,
            f"slopes {conj.fitted_slope:.3f} (target -0.444) and "
            f"{five.fitted_slope:.3f} (target -0.400), both within 0.15 "
            f"({elapsed:.1f}s)")


def test_criterion_08_distance_moment_bounds():
    done = _stopwatch(300.0)
    model = get_model("uniform_box_1d")
    lines = []
    ok = True
    for order in (2, 4):
        results = bound_check(model, [0.5], [(999, 9), (9999, 99)], xi0=1.0,
                              L_diam=1.0, order=order, replicates=10_000,
                              seed=5000 + order)
        for entry in results:
            ok = ok and entry["tested"] and entry["holds"]
            lines.append(f"d^{order}(N={entry['N']}): "
                         f"{entry['empirical_moment']:.2e}<={entry['bound']:.3g}")
    elapsed = done()
    _report("criterion 8", ok, "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_09a_mise_prediction_factor():
    """Bound-based leading-order MISE prediction vs Monte Carlo MISE.

    The display Phi1*h^4 + Phi2*E[d^4] + Phi3*h^2*E[d^2] + intK^2/(k h^p)
    is fed the paper's distance-moment bounds in place of E[d_(k+1)^2]
    and E[d_(k+1)^4].  Those bounds are worst-case upper bounds (of order
    k/N at m=1, while the true moments are of order (k/N)^2 and (k/N)^4),
    so the method promises one direction only: with Phi2, Phi3 >= 0,
    upper bounds for the moments can only raise the display, and the
    prediction bounds the leading-order MISE from above.  The test checks
    that premise and that direction; the ratio is reported, not bounded.
    The two-sided factor-3 check of the same display, fed the measured
    moments, is test_criterion_09c.
    """
    done = _stopwatch(300.0)
    model = get_model("gaussian_conjugate_1d")
    kernel = make_kernel("gaussian", 1)
    n = 100_000
    k, _ = schedule(1, 1, n)
    empirical = mise_estimate(model, [1.0], n, k, "auto", kernel, 50, seed=6000)
    tq = mise_rate_quantities(model, [1.0], kernel)
    predicted = mise_prediction(tq, n, k, empirical.h_mean)
    elapsed = done()
    ratio = predicted / empirical.mise_mean
    ok = tq.Phi2 >= 0.0 and tq.Phi3 >= 0.0 and predicted >= empirical.mise_mean
    _report("criterion 9a", ok,
            f"Phi2 {tq.Phi2:.3g}, Phi3 {tq.Phi3:.3g} >= 0; prediction {predicted:.4g} "
            f">= empirical {empirical.mise_mean:.4g} (ratio {ratio:.3g}) ({elapsed:.1f}s)")


def test_criterion_09b_curvature_finite_difference():
    done = _stopwatch(60.0)
    model = get_model("gaussian_conjugate_1d")
    analytic = model.analytic
    step = 1e-4
    worst = 0.0
    for theta0, s0 in [(0.2, 1.0), (0.8, 1.0), (-0.4, 0.3), (1.5, -1.0)]:
        pts = np.array([[theta0]])

        def joint(at):
            return float(np.asarray(analytic.joint_pdf(pts, np.array([at])))[0])

        exact = float(np.asarray(analytic.summary_laplacian(pts, np.array([s0])))[0])
        fd = (joint(s0 + step) - 2.0 * joint(s0) + joint(s0 - step)) / step**2
        worst = max(worst, abs(fd - exact) / abs(exact))
    elapsed = done()
    ok = worst <= 1e-5
    _report("criterion 9b", ok,
            f"summary curvature FD agreement {worst:.1e} <= 1e-5 ({elapsed:.1f}s)")


def test_criterion_09c_display_with_true_moments():
    """Companion diagnostic: the same leading-order display with Monte
    Carlo values of the distance moments is within factor 3, isolating the
    9a failure to the plug-in bounds."""
    done = _stopwatch(300.0)
    model = get_model("gaussian_conjugate_1d")
    kernel = make_kernel("gaussian", 1)
    n = 100_000
    k, _ = schedule(1, 1, n)
    empirical = mise_estimate(model, [1.0], n, k, "auto", kernel, 50, seed=6000)
    tq = mise_rate_quantities(model, [1.0], kernel)
    d2s, d4s = [], []
    for r in range(50):
        table = generate_table(model, n, derive_seed(6001, "dmom", r))
        value = float(np.partition(squared_distances(table.summaries, [1.0]), k)[k])
        d2s.append(value)
        d4s.append(value * value)
    predicted = mise_prediction_exact_moments(tq, k, empirical.h_mean,
                                              float(np.mean(d2s)), float(np.mean(d4s)))
    elapsed = done()
    ratio = predicted / empirical.mise_mean
    ok = 1.0 / 3.0 <= ratio <= 3.0
    _report("criterion 9c", ok,
            f"true-moment prediction {predicted:.4g} vs empirical "
            f"{empirical.mise_mean:.4g} (ratio {ratio:.2f}) ({elapsed:.1f}s)")


def test_criterion_10_cli_reproducibility(tmp_path):
    done = _stopwatch(60.0)
    config = {
        "schema": "abc-config/1",
        "model": {"id": "gaussian_conjugate_1d", "params": {}},
        "N": 20_000,
        "seed": 7,
        "s0": [1.0],
        "acceptance": {"percentile": 0.001},
        "bandwidth": "auto",
        "kernel": "gaussian",
        "validate": {
            "moments": {"phis": ["identity", "square"], "replicates": 8},
            "mise": {"replicates": 4},
            "rates": {"Ns": [500, 1000, 2000], "replicates": 4},
            "prop1": {"runs": 8, "oracle_draws": 200},
            "bounds": {"pairs": [[999, 9]], "order": 2, "replicates": 50,
                       "xi0": 0.05, "L": 20.0},
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    commands = (["sample"], ["estimate"], ["validate", "moments"],
                ["validate", "mise"], ["validate", "rates"],
                ["validate", "prop1"], ["validate", "bounds"])

    def run_all(out_dir, threads):
        for argv in commands:
            code = cli.main(argv + ["--config", str(config_path),
                                    "--out", str(out_dir), "--threads", str(threads)])
            assert code == 0
        return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}

    first = run_all(tmp_path / "a", 1)
    second = run_all(tmp_path / "b", 1)
    threaded = run_all(tmp_path / "c", 8)
    elapsed = done()
    ok = first == second == threaded
    _report("criterion 10", ok,
            f"{len(commands)} commands, {len(first)} output files "
            f"byte-identical across reruns and thread counts ({elapsed:.1f}s)")
