"""Configuration-driven command line: sample, estimate, schedule, validate.

A run is described by a JSON config (schema "abc-config/1"); data outputs
(CSV, report JSON) are written atomically under --out and are byte
identical for a fixed config+seed at any --threads value.  A one-line JSON
run summary (which includes the wall-clock runtime) goes to stdout;
machine-readable errors go to stderr.  Exit codes: 0 ok, 2 config error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, core, estimators, tuning, validate
from .errors import ConfigurationError, KnnAbcError
from .fileio import (atomic_write_bytes, dumps_json, jsonify, write_csv,
                     write_json)
from .models import Model, get_model, model_ids

SCHEMA_ID = "abc-config/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_ACCEPTANCE_KEYS = ("k", "percentile", "epsilon")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description (defaults applied)."""

    model_id: str
    model_params: dict
    n_rows: int
    seed: int
    acceptance_mode: str          # "k" | "percentile" | "epsilon"
    acceptance_value: float
    bandwidth: object             # positive float or "auto"
    kernel: str
    s0: Optional[tuple] = None
    y0: Optional[tuple] = None
    grid_points: int = estimators.GRID_POINTS_1D
    grid_padding: float = estimators.GRID_PADDING
    blocks: dict = field(default_factory=dict)   # per-command option blocks

    def to_dict(self) -> dict:
        acceptance = {self.acceptance_mode: self.acceptance_value}
        out = {
            "schema": SCHEMA_ID,
            "model": {"id": self.model_id, "params": dict(self.model_params)},
            "N": self.n_rows,
            "seed": self.seed,
            "acceptance": acceptance,
            "bandwidth": self.bandwidth,
            "kernel": self.kernel,
            "grid": {"points": self.grid_points, "padding": self.grid_padding},
        }
        if self.s0 is not None:
            out["s0"] = list(self.s0)
        if self.y0 is not None:
            out["y0"] = list(self.y0)
        if self.blocks:
            out["validate"] = {k: dict(v) for k, v in self.blocks.items()}
        return out


def serialize(config: RunConfig) -> str:
    return dumps_json(config.to_dict())


class _Checker:
    """Collects path-qualified validation errors."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}" if path else message)

    def reject_unknown(self, obj: dict, allowed, path: str):
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")


def _check_number(checker, obj, key, path, *, integer=False, required=False,
                  minimum=None, maximum=None, exclusive_min=None, exclusive_max=None):
    if key not in obj:
        if required:
            checker.fail(f"{path}{key}", "is required")
        return None
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        checker.fail(f"{path}{key}", "must be a number")
        return None
    if integer and not isinstance(value, int):
        checker.fail(f"{path}{key}", "must be an integer")
        return None
    if minimum is not None and value < minimum:
        checker.fail(f"{path}{key}", f"must be >= {minimum}")
        return None
    if maximum is not None and value > maximum:
        checker.fail(f"{path}{key}", f"must be <= {maximum}")
        return None
    if exclusive_min is not None and not value > exclusive_min:
        checker.fail(f"{path}{key}", f"must be > {exclusive_min}")
        return None
    if exclusive_max is not None and not value < exclusive_max:
        checker.fail(f"{path}{key}", f"must be < {exclusive_max}")
        return None
    return value


def _check_seed(checker, obj):
    return _check_number(checker, obj, "seed", "", integer=True, required=True,
                         minimum=0, maximum=core.SEED_MAX)


_TOP_KEYS = {"schema", "model", "N", "seed", "acceptance", "bandwidth",
             "kernel", "s0", "y0", "grid", "validate"}
_VALIDATE_BLOCKS = {"mise", "rates", "prop1", "bounds", "moments"}


def validate_config(config_text: str) -> RunConfig:
    """Parse and fully validate a JSON config, reporting every problem at
    once; unknown keys anywhere are rejected."""
    checker = _Checker()
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError([f"config is not valid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigurationError(["config must be a JSON object"])

    checker.reject_unknown(raw, _TOP_KEYS, "")
    if raw.get("schema") != SCHEMA_ID:
        checker.fail("schema", f"must be '{SCHEMA_ID}'")

    model_id, model_params = "", {}
    model = raw.get("model")
    if not isinstance(model, dict):
        checker.fail("model", "is required and must be an object")
    else:
        checker.reject_unknown(model, {"id", "params"}, "model")
        if not isinstance(model.get("id"), str):
            checker.fail("model.id", "is required and must be a string")
        else:
            model_id = model["id"]
            if model_id not in model_ids():
                checker.fail("model.id", f"unknown model; available: {', '.join(model_ids())}")
        params = model.get("params", {})
        if not isinstance(params, dict):
            checker.fail("model.params", "must be an object")
        else:
            model_params = params

    n_rows = _check_number(checker, raw, "N", "", integer=True, required=True)
    if n_rows is not None and n_rows < 2:
        checker.fail("N", "must be >= 2 (the k-nearest rule needs 1 <= k <= N-1)")
    # seed is mandatory: a wall-clock default would break reproducibility
    seed = _check_seed(checker, raw)

    acceptance_mode, acceptance_value = "", 0.0
    acceptance = raw.get("acceptance")
    if not isinstance(acceptance, dict):
        checker.fail("acceptance", "is required and must be an object")
    else:
        checker.reject_unknown(acceptance, set(_ACCEPTANCE_KEYS), "acceptance")
        present = [key for key in _ACCEPTANCE_KEYS if key in acceptance]
        if len(present) != 1:
            checker.fail("acceptance",
                         f"exactly one of {'/'.join(_ACCEPTANCE_KEYS)} must be present")
        else:
            acceptance_mode = present[0]
            if acceptance_mode == "k":
                value = _check_number(checker, acceptance, "k", "acceptance.",
                                      integer=True, minimum=1)
            elif acceptance_mode == "percentile":
                value = _check_number(checker, acceptance, "percentile", "acceptance.")
                if value is not None and not 0.0 < value < 1.0:
                    checker.fail("acceptance.percentile", "must be in (0,1)")
                    value = None
            else:
                value = _check_number(checker, acceptance, "epsilon", "acceptance.",
                                      minimum=0.0)
            if value is not None:
                acceptance_value = value

    bandwidth = raw.get("bandwidth", "auto")
    if bandwidth != "auto":
        if isinstance(bandwidth, bool) or not isinstance(bandwidth, (int, float)) \
                or not bandwidth > 0:
            checker.fail("bandwidth", "must be a positive number or 'auto'")
            bandwidth = "auto"
        else:
            bandwidth = float(bandwidth)

    kernel = raw.get("kernel", "gaussian")
    if kernel not in estimators.KERNEL_KINDS:
        checker.fail("kernel", f"must be one of {'/'.join(estimators.KERNEL_KINDS)}")

    def _vector(key):
        if key not in raw:
            return None
        value = raw[key]
        if not isinstance(value, list) or not value or \
                any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
            checker.fail(key, "must be a non-empty array of numbers")
            return None
        return tuple(float(v) for v in value)

    s0 = _vector("s0")
    y0 = _vector("y0")
    if s0 is None and y0 is None:
        checker.fail("s0", "either s0 or y0 (demo model) is required")
    if s0 is not None and y0 is not None:
        checker.fail("s0", "give s0 or y0, not both")

    grid_points, grid_padding = estimators.GRID_POINTS_1D, estimators.GRID_PADDING
    grid = raw.get("grid")
    if grid is not None:
        if not isinstance(grid, dict):
            checker.fail("grid", "must be an object")
        else:
            checker.reject_unknown(grid, {"points", "padding"}, "grid")
            gp = _check_number(checker, grid, "points", "grid.", integer=True, minimum=2)
            pad = _check_number(checker, grid, "padding", "grid.", exclusive_min=0.0)
            grid_points = gp if gp is not None else grid_points
            grid_padding = float(pad) if pad is not None else grid_padding

    blocks: dict = {}
    vblocks = raw.get("validate")
    if vblocks is not None:
        if not isinstance(vblocks, dict):
            checker.fail("validate", "must be an object")
        else:
            checker.reject_unknown(vblocks, _VALIDATE_BLOCKS, "validate")
            for name, block in vblocks.items():
                if name not in _VALIDATE_BLOCKS:
                    continue
                if not isinstance(block, dict):
                    checker.fail(f"validate.{name}", "must be an object")
                    continue
                blocks[name] = _validate_block(checker, name, block)

    if (acceptance_mode == "k" and n_rows is not None
            and acceptance_value > n_rows - 1):
        checker.fail("acceptance.k", "must be <= N-1")

    if checker.errors:
        raise ConfigurationError(checker.errors)
    return RunConfig(
        model_id=model_id, model_params=model_params, n_rows=int(n_rows),
        seed=int(seed), acceptance_mode=acceptance_mode,
        acceptance_value=acceptance_value, bandwidth=bandwidth, kernel=kernel,
        s0=s0, y0=y0, grid_points=int(grid_points), grid_padding=float(grid_padding),
        blocks=blocks)


_BLOCK_KEYS = {
    "mise": {"replicates"},
    "rates": {"Ns", "replicates", "c_k"},
    "prop1": {"runs", "oracle_draws", "negative_control"},
    "bounds": {"pairs", "order", "replicates", "xi0", "L"},
    "moments": {"phis", "replicates"},
}


def _validate_block(checker: _Checker, name: str, block: dict) -> dict:
    path = f"validate.{name}"
    checker.reject_unknown(block, _BLOCK_KEYS[name], path)
    out = dict(block)
    if name == "mise":
        _check_number(checker, block, "replicates", path + ".", integer=True,
                      required=True, minimum=2)
    elif name == "rates":
        ns = block.get("Ns")
        if not isinstance(ns, list) or len(ns) < 3 or \
                any(isinstance(v, bool) or not isinstance(v, int) or v < 2 for v in ns):
            checker.fail(path + ".Ns", "must be an array of at least 3 integers >= 2")
        _check_number(checker, block, "replicates", path + ".", integer=True,
                      required=True, minimum=2)
        _check_number(checker, block, "c_k", path + ".", exclusive_min=0.0)
    elif name == "prop1":
        _check_number(checker, block, "runs", path + ".", integer=True,
                      required=True, minimum=1)
        _check_number(checker, block, "oracle_draws", path + ".", integer=True,
                      required=True, minimum=1)
        if "negative_control" in block and not isinstance(block["negative_control"], bool):
            checker.fail(path + ".negative_control", "must be a boolean")
    elif name == "bounds":
        pairs = block.get("pairs")
        ok = isinstance(pairs, list) and pairs and all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
            for pair in pairs)
        if not ok:
            checker.fail(path + ".pairs", "must be an array of [N, k] integer pairs")
        order = block.get("order", 2)
        if order not in (2, 4):
            checker.fail(path + ".order", "must be 2 or 4")
        out["order"] = order
        _check_number(checker, block, "replicates", path + ".", integer=True,
                      required=True, minimum=1)
        _check_number(checker, block, "xi0", path + ".", required=True, exclusive_min=0.0)
        _check_number(checker, block, "L", path + ".", required=True, exclusive_min=0.0)
    elif name == "moments":
        phis = block.get("phis", ["identity", "square"])
        if not isinstance(phis, list) or not phis or \
                any(p not in validate._PHI_REGISTRY for p in phis):
            checker.fail(path + ".phis",
                         f"must be a non-empty array from {sorted(validate._PHI_REGISTRY)}")
        out["phis"] = phis
        _check_number(checker, block, "replicates", path + ".", integer=True,
                      required=True, minimum=2)
    return out


# ---------------------------------------------------------------------------
# command execution

def _resolve_s0(config: RunConfig, model: Model) -> np.ndarray:
    if config.s0 is not None:
        s0 = np.asarray(config.s0, dtype=float)
        if s0.shape != (model.m,):
            raise ConfigurationError([f"s0: must have dimension m={model.m}"])
        return s0
    if model.summary_map is None:
        raise ConfigurationError(
            [f"y0: model '{model.model_id}' takes no raw data; give s0 instead"])
    return model.summary_map(np.asarray(config.y0, dtype=float))


def _k_for(config: RunConfig) -> int:
    if config.acceptance_mode == "k":
        return int(config.acceptance_value)
    if config.acceptance_mode == "percentile":
        return core.percentile_to_k(config.n_rows, config.acceptance_value)
    raise ConfigurationError(["acceptance: validate commands need k or percentile"])


def _accept(config: RunConfig, table: core.ReferenceTable, s0):
    """Resolve the acceptance block into an AcceptedSet plus bookkeeping."""
    info = {}
    if config.acceptance_mode == "epsilon":
        info["epsilon"] = float(config.acceptance_value)
        accepted = core.abc_tolerance(table, s0, config.acceptance_value)
    else:
        accepted = core.abc_knn(table, s0, _k_for(config))
    info["k"] = accepted.k
    info["d_k_plus_1"] = accepted.radius_next
    return accepted, info


def run(config: RunConfig, command: str, out_dir, threads: int = 1,
        subcommand: Optional[str] = None) -> dict:
    """Execute one pipeline command; returns the stdout summary dict."""
    started = time.perf_counter()
    out_dir = Path(out_dir)
    model = get_model(config.model_id, **config.model_params)
    s0 = _resolve_s0(config, model)
    summary = {
        "version": __version__,
        "command": command if subcommand is None else f"{command} {subcommand}",
        "model_id": model.model_id,
        "N": config.n_rows,
        "seed": config.seed,
        "s0": s0.tolist(),
        "outputs": [],
    }

    def emit_csv(name, header, columns):
        path = write_csv(out_dir / name, header, columns)
        summary["outputs"].append(str(path))

    def emit_json(name, obj):
        path = write_json(out_dir / name, obj)
        summary["outputs"].append(str(path))

    if command == "sample":
        table = core.generate_table(model, config.n_rows, config.seed, max_workers=threads)
        path = atomic_write_bytes(out_dir / "table.bin", core.table_to_bytes(table))
        summary["outputs"].append(str(path))
        p, m = table.thetas.shape[1], table.summaries.shape[1]
        emit_csv("table.csv",
                 [f"theta_{j}" for j in range(p)] + [f"s_{j}" for j in range(m)],
                 [*table.thetas.T, *table.summaries.T])
    elif command == "estimate":
        table = core.generate_table(model, config.n_rows, config.seed, max_workers=threads)
        accepted, info = _accept(config, table, s0)
        summary.update(info)
        if accepted.k == 0:
            raise KnnAbcError("tolerance accepted zero rows; no estimate is defined")
        if config.bandwidth == "auto":
            h = tuning.auto_bandwidth(accepted.ordered_thetas, model.m, model.p,
                                      config.n_rows)
        else:
            h = float(config.bandwidth)
        summary["h"] = h
        kernel = estimators.make_kernel(config.kernel, model.p)
        axes = estimators.default_grid(accepted, h, points=config.grid_points,
                                       padding=config.grid_padding)
        est = estimators.estimate_density(
            accepted, h, kernel, axes=axes,
            meta={"N": config.n_rows, "seed": config.seed, "s0": s0.tolist(),
                  "model_id": model.model_id})
        emit_csv("density.csv", [f"theta_{j}" for j in range(model.p)] + ["g_hat"],
                 [*est.grid.T, est.values])
        emit_json("density_meta.json", est.meta)
    elif command == "validate":
        _run_validate(config, model, s0, subcommand, threads, summary, emit_csv, emit_json)
    else:
        raise ConfigurationError([f"unknown command '{command}'"])

    summary["runtime_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return summary


def _run_validate(config, model, s0, sub, threads, summary, emit_csv, emit_json):
    if sub not in _VALIDATE_BLOCKS:
        raise ConfigurationError(
            ["validate: subcommand must be one of mise/rates/prop1/bounds/moments"])
    block = config.blocks.get(sub)
    if block is None:
        raise ConfigurationError([f"validate.{sub}: block is required for this command"])
    if sub == "mise":
        k = _k_for(config)
        report = validate.mise_estimate(
            model, s0, config.n_rows, k, config.bandwidth,
            estimators.make_kernel(config.kernel, model.p), block["replicates"],
            config.seed, grid_points=config.grid_points, grid_padding=config.grid_padding,
            max_workers=threads)
        summary.update({"k": k, "h": report.h_mean})
        emit_json("mise_report.json", _mise_report_dict(report))
        emit_csv("mise_replicates.csv", ["replicate", "ise"],
                 [np.arange(len(report.per_replicate)), report.per_replicate])
    elif sub == "rates":
        report = validate.rate_experiment(
            model, s0, block["Ns"], estimators.make_kernel(config.kernel, model.p),
            block["replicates"], config.seed, c_k=block.get("c_k", 1.0),
            bandwidth=config.bandwidth, grid_points=config.grid_points,
            grid_padding=config.grid_padding, max_workers=threads)
        emit_json("rate_report.json", {
            "Ns": list(report.Ns),
            "mise_points": [list(pt) for pt in report.mise_points],
            "fitted_slope": report.fitted_slope,
            "slope_stderr": report.slope_stderr,
            "theoretical_slope": report.theoretical_slope,
            "log_factor_flag": report.log_factor_flag,
            "per_N": [_mise_report_dict(r) for r in report.reports],
        })
        emit_csv("rate_points.csv", ["N", "mise_mean", "mise_stderr"],
                 [[r.n_rows for r in report.reports],
                  [r.mise_mean for r in report.reports],
                  [r.mise_stderr for r in report.reports]])
    elif sub == "prop1":
        k = _k_for(config)
        kind = "unrestricted" if block.get("negative_control") else "restricted"
        result = validate.prop1_calibration(
            model, s0, config.n_rows, k, block["runs"], block["oracle_draws"],
            config.seed, oracle_kind=kind, max_workers=threads)
        summary["k"] = k
        emit_json("prop1_report.json", {key: val for key, val in result.items()
                                        if key != "p_values"})
        emit_csv("prop1_pvalues.csv", ["run", "p_value"],
                 [np.arange(len(result["p_values"])), result["p_values"]])
    elif sub == "bounds":
        results = validate.bound_check(
            model, s0, [tuple(pair) for pair in block["pairs"]], block["xi0"],
            block["L"], block["order"], block["replicates"], config.seed,
            max_workers=threads)
        emit_json("bounds_report.json", {"order": block["order"], "pairs": results})
    else:
        k = _k_for(config)
        results = validate.moment_consistency(
            model, s0, config.n_rows, k, block["phis"], block["replicates"],
            config.seed, max_workers=threads)
        summary["k"] = k
        emit_json("moments_report.json", {"phis": results})


def _mise_report_dict(report: validate.MiseReport) -> dict:
    return {
        "model_id": report.model_id,
        "N": report.n_rows,
        "k": report.k,
        "h_mode": report.h_mode,
        "h_mean": report.h_mean,
        "kernel": report.kernel,
        "replicates": report.replicates,
        "mise_mean": report.mise_mean,
        "mise_stderr": report.mise_stderr,
        "grid_spec": report.grid_spec,
        "seed": report.seed,
    }


# ---------------------------------------------------------------------------
# argument parsing and entry point

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abc",
        description="Likelihood-free inference via nearest-neighbor acceptance")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--threads", type=int, default=1, help="worker cap (results identical)")

    common(sub.add_parser("sample", help="generate and persist a reference table"))
    common(sub.add_parser("estimate", help="accepted-set density estimate on a grid"))

    sched = sub.add_parser("schedule", help="rate-optimal (k, h) for given dimensions")
    sched.add_argument("--m", type=int, required=True)
    sched.add_argument("--p", type=int, required=True)
    sched.add_argument("--N", type=int, required=True)
    sched.add_argument("--ck", type=float, default=1.0)
    sched.add_argument("--ch", type=float, default=1.0)

    val = sub.add_parser("validate", help="Monte Carlo verification reports")
    val.add_argument("what", choices=["mise", "rates", "prop1", "bounds", "moments"])
    common(val)
    return parser


def _error_json(kind: str, exc: Exception) -> str:
    payload = {"error": kind, "type": type(exc).__name__}
    if isinstance(exc, ConfigurationError):
        payload["messages"] = exc.messages
    else:
        payload["message"] = str(exc)
    return json.dumps(jsonify(payload), sort_keys=True)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "schedule":
        try:
            k, h = tuning.schedule(args.m, args.p, args.N, args.ck, args.ch)
            sched = tuning.resolve_schedule(args.m, args.p, args.ck, args.ch)
        except KnnAbcError as exc:
            print(_error_json("config", exc), file=sys.stderr)
            return EXIT_CONFIG
        print(json.dumps({
            "k": k, "h": h, "regime": sched.regime,
            "exponents": {"k": str(sched.k_exponent), "h": str(sched.h_exponent)},
        }, sort_keys=True))
        return EXIT_OK

    try:
        config_text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(_error_json("config", ConfigurationError([f"config: {exc}"])), file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = validate_config(config_text)
        if args.seed is not None:
            checker = _Checker()
            if _check_seed(checker, {"seed": args.seed}) is None:
                raise ConfigurationError(checker.errors)
            config = dataclasses.replace(config, seed=int(args.seed))
    except ConfigurationError as exc:
        print(_error_json("config", exc), file=sys.stderr)
        return EXIT_CONFIG

    subcommand = getattr(args, "what", None)
    try:
        summary = run(config, args.command, args.out, threads=max(1, args.threads),
                      subcommand=subcommand)
    except ConfigurationError as exc:
        print(_error_json("config", exc), file=sys.stderr)
        return EXIT_CONFIG
    except KnnAbcError as exc:
        print(_error_json("runtime", exc), file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps(jsonify(summary), sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
