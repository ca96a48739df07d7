"""Configuration-driven command line: sample, estimate, schedule, validate.

A run is described by a JSON config (schema "abc-config/1"); data outputs
(CSV, report JSON) are written atomically under --out and are byte
identical for a fixed config+seed at any --threads value.  A one-line JSON
run summary (which includes the wall-clock runtime) goes to stdout;
machine-readable errors go to stderr.  Exit codes: 0 ok, 2 config error,
3 runtime error (also an output that cannot be written or an allocation
that fails).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

# tuning and validate are imported by the commands that use them, so that
# `abc sample` loads neither (nor tuning's fractions)
from . import __version__, core, estimators
from .errors import (ConfigurationError, InvalidArgumentError, KnnAbcError,
                     UnsupportedModelError)
from .fileio import (atomic_files, atomic_write_bytes, csv_header, json_bytes,
                     jsonify, write_csv, write_csv_rows)
from .models import Model, get_model, model_ids
from .numerics import is_finite

SCHEMA_ID = "abc-config/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


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


# The rule of a number key: an integer or any finite number, required or
# not, and bounds ``low`` and ``high``, inclusive or, when ``open``,
# exclusive; ``why`` follows the message of a failed lower bound.
class _Number(NamedTuple):
    integer: bool = False
    required: bool = False
    low: object = None
    high: object = None
    open: bool = False
    why: str = ""


# The largest count a config may give: N, each N of rates.Ns and of
# bounds.pairs, and the replicate and draw counts.  These counts size float64
# arrays of at most six columns, which stay below 2^59 bytes, so a count too
# large to allocate is a MemoryError (numpy raises ValueError past 2^63 - 1
# bytes); and N stays exact as a float in percentile_to_k and tuning.schedule.
COUNT_MAX = 2**53

# Every number key of a config, by JSON path.  With _OTHER_KEYS these
# paths are also the keys each object accepts.
_NUMBERS = {
    "N": _Number(integer=True, required=True, low=2, high=COUNT_MAX,
                 why=" (the k-nearest rule needs 1 <= k <= N-1)"),
    # seed is mandatory: a wall-clock default would break reproducibility
    "seed": _Number(integer=True, required=True, low=0, high=core.SEED_MAX),
    "acceptance.k": _Number(integer=True, low=1),
    "acceptance.percentile": _Number(low=0, high=1, open=True),
    "acceptance.epsilon": _Number(low=0.0),
    "grid.points": _Number(integer=True, low=2, high=estimators.GRID_CAP),
    "grid.padding": _Number(low=0.0, open=True),
    "validate.mise.replicates": _Number(integer=True, required=True, low=2, high=COUNT_MAX),
    "validate.rates.replicates": _Number(integer=True, required=True, low=2, high=COUNT_MAX),
    "validate.rates.c_k": _Number(low=0.0, open=True),
    "validate.prop1.runs": _Number(integer=True, required=True, low=1, high=COUNT_MAX),
    "validate.prop1.oracle_draws": _Number(integer=True, required=True, low=1, high=COUNT_MAX),
    "validate.bounds.replicates": _Number(integer=True, required=True, low=1, high=COUNT_MAX),
    "validate.bounds.xi0": _Number(required=True, low=0.0, open=True),
    "validate.bounds.L": _Number(required=True, low=0.0, open=True),
    "validate.moments.replicates": _Number(integer=True, required=True, low=2, high=COUNT_MAX),
}
# the keys that are not numbers, checked in validate_config and _validate_block
_OTHER_KEYS = ("schema", "model.id", "model.params", "bandwidth", "kernel", "s0", "y0",
               "validate.rates.Ns", "validate.prop1.negative_control",
               "validate.bounds.pairs", "validate.bounds.order", "validate.moments.phis")


def _keys(path: str) -> tuple:
    """The keys the object at ``path`` ("" for the top level) accepts."""
    prefix = f"{path}." if path else ""
    return tuple(dict.fromkeys(
        key[len(prefix):].split(".")[0]
        for key in (*_NUMBERS, *_OTHER_KEYS) if key.startswith(prefix)))


def _object(errors: list, value, path: str, required: bool = False) -> bool:
    """Whether ``value``, found at ``path``, is an object; its unknown keys
    are reported."""
    if not isinstance(value, dict):
        errors.append(f"{path}: is required and must be an object" if required
                      else f"{path}: must be an object")
        return False
    allowed = _keys(path)
    errors.extend(f"{path}.{key}: unknown key" if path else f"{key}: unknown key"
                  for key in value if key not in allowed)
    return True


def _check_number(errors: list, obj: dict, path: str):
    """Apply the rule of ``path`` to its key in ``obj``: the value if it
    passes, else None with the failure appended to ``errors``."""
    rule = _NUMBERS[path]
    key = path.rpartition(".")[2]
    if key not in obj:
        if rule.required:
            errors.append(f"{path}: is required")
        return None
    value = obj[key]
    low, high = rule.low, rule.high
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = "must be a number"
    # an integer key keeps any int exactly; its bounds are checked below
    elif not (rule.integer and isinstance(value, int)) and not is_finite(value):
        problem = "must be a finite number"
    elif rule.integer and not isinstance(value, int):
        problem = "must be an integer"
    elif rule.open and not (low < value and (high is None or value < high)):
        problem = f"must be > {low}" if high is None else f"must be in ({low},{high})"
    elif not rule.open and low is not None and value < low:
        problem = f"must be >= {low}{rule.why}"
    elif not rule.open and high is not None and value > high:
        problem = f"must be <= {high}"
    else:
        return value
    errors.append(f"{path}: {problem}")
    return None


def _numbers(errors: list, obj: dict, path: str) -> dict:
    """Check every number key of the object at ``path``; map each key to
    its value, or to None where it is absent or fails."""
    prefix = f"{path}." if path else ""
    return {key: _check_number(errors, obj, prefix + key)
            for key in _keys(path) if prefix + key in _NUMBERS}


def validate_config(config_text: str) -> RunConfig:
    """Parse and fully validate a JSON config, reporting every problem at
    once; unknown keys anywhere are rejected."""
    errors: list[str] = []
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError([f"config is not valid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigurationError(["config must be a JSON object"])

    _object(errors, raw, "")
    if raw.get("schema") != SCHEMA_ID:
        errors.append(f"schema: must be '{SCHEMA_ID}'")

    model = raw.get("model")
    if _object(errors, model, "model", required=True):
        model_id = model.get("id")
        if not isinstance(model_id, str):
            errors.append("model.id: is required and must be a string")
        elif model_id not in model_ids():
            errors.append(f"model.id: unknown model; available: {', '.join(model_ids())}")
        model_params = model.get("params", {})
        if not isinstance(model_params, dict):
            errors.append("model.params: must be an object")

    top = _numbers(errors, raw, "")
    n_rows, seed = top["N"], top["seed"]

    acceptance_mode, acceptance_value = "", 0.0
    acceptance = raw.get("acceptance")
    if _object(errors, acceptance, "acceptance", required=True):
        modes = _keys("acceptance")
        present = [key for key in modes if key in acceptance]
        if len(present) != 1:
            errors.append(f"acceptance: exactly one of {'/'.join(modes)} must be present")
        else:
            acceptance_mode = present[0]
            value = _check_number(errors, acceptance, f"acceptance.{acceptance_mode}")
            if value is not None:
                acceptance_value = value

    bandwidth = raw.get("bandwidth", "auto")
    if bandwidth != "auto":
        is_number = not isinstance(bandwidth, bool) and isinstance(bandwidth, (int, float))
        if is_number and not is_finite(bandwidth):
            errors.append("bandwidth: must be a finite number")
        elif not (is_number and bandwidth > 0):
            errors.append("bandwidth: must be a positive number or 'auto'")
        else:
            bandwidth = float(bandwidth)

    kernel = raw.get("kernel", "gaussian")
    if kernel not in estimators.KERNEL_KINDS:
        errors.append(f"kernel: must be one of {'/'.join(estimators.KERNEL_KINDS)}")

    def _vector(key):
        if key not in raw:
            return None
        value = raw[key]
        if not isinstance(value, list) or not value or \
                any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
            errors.append(f"{key}: must be a non-empty array of numbers")
            return None
        if not all(map(is_finite, value)):
            errors.append(f"{key}: must contain only finite numbers")
            return tuple(value)  # present, so not also reported as missing
        return tuple(float(v) for v in value)

    s0 = _vector("s0")
    y0 = _vector("y0")
    if s0 is None and y0 is None:
        errors.append("s0: either s0 or y0 (demo model) is required")
    if s0 is not None and y0 is not None:
        errors.append("s0: give s0 or y0, not both")

    grid_points, grid_padding = estimators.GRID_POINTS_1D, estimators.GRID_PADDING
    grid = raw.get("grid")
    if grid is not None and _object(errors, grid, "grid"):
        checked = _numbers(errors, grid, "grid")
        # a valid count or padding is never 0, so `or` keeps the default
        grid_points = checked["points"] or grid_points
        grid_padding = checked["padding"] or grid_padding

    blocks: dict = {}
    vblocks = raw.get("validate")
    if vblocks is not None and _object(errors, vblocks, "validate"):
        for name, block in vblocks.items():
            path = f"validate.{name}"
            if name in _keys("validate") and _object(errors, block, path):
                blocks[name] = _validate_block(errors, name, block)
                _numbers(errors, block, path)

    # k <= N-1 is checked against any integer N, also one its rule rejects
    raw_n = raw.get("N")
    if (acceptance_mode == "k" and isinstance(raw_n, int) and not isinstance(raw_n, bool)
            and acceptance_value > raw_n - 1):
        errors.append("acceptance.k: must be <= N-1")

    if errors:
        raise ConfigurationError(errors)
    return RunConfig(
        model_id=model_id, model_params=model_params, n_rows=int(n_rows),
        seed=int(seed), acceptance_mode=acceptance_mode,
        acceptance_value=acceptance_value, bandwidth=bandwidth, kernel=kernel,
        s0=s0, y0=y0, grid_points=int(grid_points), grid_padding=float(grid_padding),
        blocks=blocks)


def _validate_block(errors: list, name: str, block: dict) -> dict:
    """Check the keys of a validate block that are not numbers, and fill
    in their defaults."""
    path = f"validate.{name}"
    out = dict(block)
    if name == "rates":
        ns = block.get("Ns")
        if not isinstance(ns, list) or len(ns) < 3 or \
                any(isinstance(v, bool) or not isinstance(v, int) or not 2 <= v <= COUNT_MAX
                    for v in ns):
            errors.append(f"{path}.Ns: must be an array of at least 3 integers "
                          f"in [2, {COUNT_MAX}]")
        elif len(set(ns)) < 2:
            # a slope needs two sizes
            errors.append(f"{path}.Ns: must hold at least 2 distinct sizes")
    elif name == "prop1":
        if "negative_control" in block and not isinstance(block["negative_control"], bool):
            errors.append(f"{path}.negative_control: must be a boolean")
    elif name == "bounds":
        pairs = block.get("pairs")
        ok = isinstance(pairs, list) and pairs and all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
            for pair in pairs)
        if not ok:
            errors.append(f"{path}.pairs: must be an array of [N, k] integer pairs")
        elif any(n < 2 or not 0 <= k <= n - 1 for n, k in pairs):
            errors.append(f"{path}.pairs: each [N, k] pair needs N >= 2 and 0 <= k <= N-1")
        elif any(n > COUNT_MAX for n, _ in pairs):
            errors.append(f"{path}.pairs: each N must be <= {COUNT_MAX}")
        order = block.get("order", 2)
        if isinstance(order, bool) or not isinstance(order, int) or order not in (2, 4):
            errors.append(f"{path}.order: must be 2 or 4")
        out["order"] = order
    elif name == "moments":
        phis = block.get("phis", ["identity", "square"])
        if not isinstance(phis, list) or not phis or any(
                not isinstance(p, str) or p not in estimators.PHIS for p in phis):
            errors.append(f"{path}.phis: must be a non-empty array from "
                          f"{sorted(estimators.PHIS)}")
        out["phis"] = phis
    return out


# ---------------------------------------------------------------------------
# command execution

def _resolve_s0(config: RunConfig, model: Model) -> np.ndarray:
    key = "s0" if config.s0 is not None else "y0"
    if key == "y0" and model.summary_map is None:
        raise ConfigurationError(
            [f"y0: model '{model.model_id}' takes no raw data; give s0 instead"])
    try:
        # a y0 whose mean is beyond the float range is check_s0's to reject
        with np.errstate(over="ignore", invalid="ignore"):
            s0 = config.s0 if key == "s0" else model.summary_map(np.asarray(config.y0, float))
        return core.check_s0(s0, model.m)
    except InvalidArgumentError as exc:
        raise ConfigurationError([f"{key}: {exc}"]) from None


def _k_for(config: RunConfig) -> int:
    if config.acceptance_mode == "k":
        return int(config.acceptance_value)
    if config.acceptance_mode == "percentile":
        return core.percentile_to_k(config.n_rows, config.acceptance_value)
    raise ConfigurationError(["acceptance: validate commands need k or percentile"])


def _check_auto_k(config: RunConfig, k: int, key: str, where: str = "") -> None:
    """A config error when the "auto" bandwidth would smooth fewer than
    ``tuning.AUTO_MIN_ROWS`` accepted rows: the config alone fixes k, so
    this is found before any simulation starts."""
    from . import tuning
    if config.bandwidth == "auto" and k < tuning.AUTO_MIN_ROWS:
        raise ConfigurationError(
            [f"{key}: bandwidth 'auto' needs k >= {tuning.AUTO_MIN_ROWS}, got k = {k}{where}"])


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
        path = atomic_write_bytes(out_dir / name, json_bytes(obj))
        summary["outputs"].append(str(path))

    if command == "sample":
        paths = out_dir / "table.bin", out_dir / "table.csv"
        with atomic_files(*paths) as (table_bin, table_csv):
            table_csv.write(csv_header([f"theta_{j}" for j in range(model.p)]
                                       + [f"s_{j}" for j in range(model.m)]))
            core.write_table(
                model, config.n_rows, config.seed, table_bin,
                lambda thetas, summaries: write_csv_rows(table_csv, [*thetas.T, *summaries.T]),
                max_workers=threads)
        summary["outputs"].extend(map(str, paths))
    elif command == "estimate":
        if config.acceptance_mode == "epsilon":
            summary["epsilon"] = float(config.acceptance_value)
            accepted = core.simulate_tolerance(model, config.n_rows, config.seed, s0,
                                               config.acceptance_value, max_workers=threads)
        else:
            k = _k_for(config)
            _check_auto_k(config, k, "acceptance")
            accepted = core.simulate_knn(model, config.n_rows, config.seed, s0, k,
                                         max_workers=threads)
        summary["k"] = accepted.k
        summary["d_k_plus_1"] = accepted.radius_next
        if accepted.k == 0:
            raise KnnAbcError("tolerance accepted zero rows; no estimate is defined")
        from . import tuning
        h = tuning.resolve_bandwidth(config.bandwidth, accepted.ordered_thetas, model.m,
                                     model.p, config.n_rows)
        summary["h"] = h
        kernel = estimators.make_kernel(config.kernel, model.p)
        axes = estimators.default_grid(accepted, h, points=config.grid_points,
                                       padding=config.grid_padding)
        est = estimators.estimate_density(accepted, h, kernel, axes=axes)
        emit_csv("density.csv", [f"theta_{j}" for j in range(model.p)] + ["g_hat"],
                 [*estimators.grid_points(est.axes).T, est.values])
        emit_json("density_meta.json", {**est.meta, "N": config.n_rows, "seed": config.seed,
                                        "s0": s0.tolist(), "model_id": model.model_id})
    elif command == "validate":
        _run_validate(config, model, s0, subcommand, threads, summary, emit_csv, emit_json)
    else:
        raise ConfigurationError([f"unknown command '{command}'"])

    summary["runtime_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return summary


def _run_validate(config, model, s0, sub, threads, summary, emit_csv, emit_json):
    from . import tuning, validate
    block = config.blocks.get(sub)
    if block is None:
        raise ConfigurationError([f"validate.{sub}: block is required for this command"])
    if sub in ("mise", "rates", "moments"):
        # the model and s0 come from the config, so an oracle they cannot
        # use is a config error, found before any table is simulated
        try:
            validate._require_oracle(model, s0)
        except UnsupportedModelError as exc:
            raise ConfigurationError([f"model.id: {exc}"]) from None
        except InvalidArgumentError as exc:
            raise ConfigurationError([f"s0: {exc}"]) from None
    if sub == "mise":
        k = _k_for(config)
        _check_auto_k(config, k, "acceptance")
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
        c_k = block.get("c_k", 1.0)
        k, n_rows = min((tuning.schedule(model.m, model.p, n, c_k=c_k)[0], n) for n in block["Ns"])
        _check_auto_k(config, k, "validate.rates.Ns", f" at N = {n_rows}")
        report = validate.rate_experiment(
            model, s0, block["Ns"], estimators.make_kernel(config.kernel, model.p),
            block["replicates"], config.seed, c_k=c_k,
            bandwidth=config.bandwidth, grid_points=config.grid_points,
            grid_padding=config.grid_padding, max_workers=threads)
        emit_json("rate_report.json", {
            **_report_fields(report, drop="reports"),
            "per_N": [_mise_report_dict(r) for r in report.reports]})
        emit_csv("rate_points.csv", ["N", "mise_mean", "mise_stderr"],
                 [[r.n_rows for r in report.reports],
                  [r.mise_mean for r in report.reports],
                  [r.mise_stderr for r in report.reports]])
    elif sub == "prop1":
        k = _k_for(config)
        if k < validate._MIN_KS_K:
            raise ConfigurationError(
                [f"acceptance: validate prop1 needs k >= {validate._MIN_KS_K}, got k = {k}"])
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


def _report_fields(report, drop: str) -> dict:
    """A report's fields but ``drop``, which goes to its own output."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
            if f.name != drop}


def _mise_report_dict(report) -> dict:
    out = _report_fields(report, drop="per_replicate")
    out["N"] = out.pop("n_rows")
    return out


# ---------------------------------------------------------------------------
# argument parsing and entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad flag is a config error, reported as JSON like the others
        print(_error_json("config", ConfigurationError([message])), file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    val.add_argument("what", choices=_keys("validate"))
    common(val)
    return parser


def _error_json(kind: str, exc: Exception) -> str:
    payload = {"error": kind, "type": type(exc).__name__}
    if isinstance(exc, ConfigurationError):
        payload["messages"] = exc.messages
    else:
        payload["message"] = str(exc)
    return json.dumps(jsonify(payload), sort_keys=True)


def _check_flag(path: str, value):
    """``value`` if it passes the rule of the config key ``path``, else a
    config error."""
    errors: list[str] = []
    if _check_number(errors, {path: value}, path) is None:
        raise ConfigurationError(errors)
    return value


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "schedule":
        from . import tuning
        try:
            k, h = tuning.schedule(args.m, args.p, _check_flag("N", args.N), args.ck, args.ch)
            sched = tuning.resolve_schedule(args.m, args.p)
        except KnnAbcError as exc:
            print(_error_json("config", exc), file=sys.stderr)
            return EXIT_CONFIG
        print(json.dumps({
            "k": k, "h": h, "regime": sched.regime,
            "exponents": {"k": str(sched.k_exponent), "h": str(sched.h_exponent)},
        }, sort_keys=True))
        return EXIT_OK

    try:
        try:
            config_text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError([f"config: {exc}"]) from None
        config = validate_config(config_text)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=_check_flag("seed", args.seed))
        summary = run(config, args.command, args.out, threads=max(1, args.threads),
                      subcommand=getattr(args, "what", None))
    except ConfigurationError as exc:
        print(_error_json("config", exc), file=sys.stderr)
        return EXIT_CONFIG
    except (KnnAbcError, OSError, MemoryError) as exc:
        # OSError: an output that cannot be written (a path through a
        # file, a full disk); the config file's own errors are config errors.
        # MemoryError: a table or a draw too large to allocate
        print(_error_json("runtime", exc), file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps(jsonify(summary), sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
