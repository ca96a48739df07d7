"""The benchmark's in-process side: imports knnabc from the checkout, builds
one workload's fixtures from its spec, prints READY, then (unless
``--ready-only``) runs the timed loop and prints one JSON result line.

Spawned by run.py; the spec file holds every generated input, so this
process never sees the workload seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import common
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import knnabc
    if not Path(knnabc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"knnabc was imported from {knnabc.__file__}, not from {SRC}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats(values) -> list:
    return [float(v) for v in values]


# ---------------------------------------------------------------------------
# mc_validate: in-process calls into knnabc.validate

def _mc_call(op: dict, workers: int):
    from knnabc import estimators, models, validate
    model = models.get_model(op["model"])
    kind = op["kind"]
    if kind == "mise":
        kernel = estimators.make_kernel(op["kernel"], model.p)
        report = validate.mise_estimate(model, op["s0"], op["N"], op["k"], "auto", kernel,
                                        op["replicates"], op["seed"], max_workers=workers)
        return {"exact": {"k": report.k, "h_mean": report.h_mean},
                "close": {"mise_mean": report.mise_mean,
                          "per_replicate": _floats(report.per_replicate)}}
    if kind == "moments":
        rows = validate.moment_consistency(model, op["s0"], op["N"], op["k"], op["phis"],
                                           op["replicates"], op["seed"], max_workers=workers)
        return {"exact": {"rows": rows}}
    if kind == "prop1":
        result = validate.prop1_calibration(model, op["s0"], op["N"], op["k"], op["runs"],
                                            op["oracle_draws"], op["seed"],
                                            max_workers=workers)
        return {"exact": {"p_values": _floats(result["p_values"]),
                          "rejection_fraction": result["rejection_fraction"]}}
    if kind == "bounds":
        rows = validate.bound_check(model, op["s0"], [tuple(p) for p in op["pairs"]],
                                    op["xi0"], op["L"], op["order"], op["replicates"],
                                    op["seed"], max_workers=workers)
        return {"exact": {"pairs": rows}}
    raise ValueError(f"unknown mc_validate operation kind {kind!r}")


def _pipeline(spec: dict, workers: int) -> dict:
    """Exact simulation and selection outputs of one table."""
    from knnabc import core, models
    model = models.get_model(spec["model"])
    table = core.generate_table(model, spec["N"], spec["seed"], max_workers=workers)
    accepted = core.abc_knn(table, spec["s0"], spec["k"])
    return {"exact": {"table_sha256": _sha256(core.table_to_bytes(table)),
                      "accepted_sha256": _sha256(accepted.source_indices.tobytes()),
                      "k": accepted.k, "d_k_plus_1": accepted.radius_next}}


class McValidate:
    def __init__(self, spec: dict):
        self.spec = spec

    def run_pass(self, checker, tick):
        """Every operation at 1 worker, then every one again at 2."""
        times = []
        for workers in (1, 2):
            for op in self.spec["ops"]:
                start = time.perf_counter()
                try:
                    fingerprint, error = _mc_call(op, workers), None
                except Exception as exc:  # an operation failure is counted, not fatal
                    fingerprint, error = None, f"{type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - start)
                checker.record(op["name"], fingerprint, error)
                tick()
        return times

    def final_checks(self, checker):
        for workers in (1, 2):
            checker.record("pipeline", _pipeline(self.spec["pipeline"], workers))


# ---------------------------------------------------------------------------
# density_grid: estimate_density on synthetic accepted sets

class DensityGrid:
    def __init__(self, spec: dict):
        import numpy as np
        from knnabc.core import AcceptedSet
        self.cases = []
        for case in spec["sets"]:
            k, p = case["k"], case["p"]
            thetas = np.random.default_rng(case["seed"]).normal(0.0, 1.0, size=(k, p))
            accepted = AcceptedSet(ordered_thetas=thetas,
                                   ordered_summaries=np.zeros((k, 1)),
                                   distances=np.linspace(0.01, 0.4, k),
                                   radius_next=0.5,
                                   source_indices=np.arange(k, dtype=np.int64))
            self.cases.append((case, accepted))

    def run_pass(self, checker, tick):
        from knnabc import estimators
        times = []
        for case, accepted in self.cases:
            h, p = case["h"], case["p"]
            axes = estimators.default_grid(accepted, h, **case["grid"])
            for kind in case["kernels"]:
                name = f"{case['name']}/{kind}"
                start = time.perf_counter()
                try:
                    est = estimators.estimate_density(accepted, h,
                                                      estimators.make_kernel(kind, p), axes=axes)
                    error = None
                except Exception as exc:  # an operation failure is counted, not fatal
                    est, error = None, f"{type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - start)
                checker.record(name, None if est is None else _density_fingerprint(est), error)
                tick()
        return times

    def final_checks(self, checker):
        pass


def _density_fingerprint(est) -> dict:
    values = est.values
    axes = b"".join(a.tobytes() for a in est.axes)
    return {"exact": {"k": est.meta["k"], "h": est.meta["h"],
                      "grid_shape": est.meta["grid_shape"], "axes_sha256": _sha256(axes)},
            "close": {"sample": _floats(common.spaced_sample(values)),
                      "sum": float(values.sum())},
            "integrals": [est.integral()]}


# ---------------------------------------------------------------------------

def _cli_ready(spec: dict):
    """CLI workloads: the set-up a command pays before its pipeline runs,
    the import of knnabc.cli and the parsing of each generated config."""
    from knnabc import cli
    for op in spec["ops"]:
        cli.validate_config(json.dumps(op["config"]))


WORKLOADS = {"mc_validate": McValidate, "density_grid": DensityGrid}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ready-only", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    _import_program()
    if spec["workload"] in WORKLOADS:
        workload = WORKLOADS[spec["workload"]](spec)
    else:
        _cli_ready(spec)
    print("READY", flush=True)
    if args.ready_only:
        return 0

    checker = common.Checker(spec.get("pins"))
    tracer = Tracer()

    def run_pass(traced, tick):
        if not traced:
            return workload.run_pass(checker, tick)
        tracer.install()
        try:
            return workload.run_pass(checker, tick)
        finally:
            tracer.uninstall()

    passes = common.timed_passes(run_pass, args.seconds, bool(args.trace))
    workload.final_checks(checker)
    traced_passes = sum(1 for traced, *_ in passes if traced)
    print(json.dumps({
        "passes": passes,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "fingerprints": checker.first,
        "layers": layer_metrics(tracer.spans, traced_passes) if traced_passes else None,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
