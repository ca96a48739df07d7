"""knnabc benchmark driver.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The workload's inputs are generated from
--seed; the program receives only those inputs.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  The line before
it records the machine, sample counts and any failed checks.

Workloads (see README.md for why each exists):
  cli_estimate  sequential `python -m knnabc.cli estimate` subprocesses
  cli_sample    sequential `python -m knnabc.cli sample` subprocesses
  mc_validate   in-process knnabc.validate calls at 1 then 2 workers
  density_grid  in-process estimate_density on synthetic accepted sets

`--pin` records the outputs of the default seed as the expected outputs
(perfbench/expected.json) instead of checking against them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import common
from tracer import LAYER_METRICS, layer_metrics, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "expected.json"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("cli_estimate", "cli_sample", "mc_validate", "density_grid")
CLI_WORKLOADS = ("cli_estimate", "cli_sample")
SETUP_REPEATS = 3
OP_TIMEOUT_S = 90.0


# ---------------------------------------------------------------------------
# inputs, generated from the workload seed

def _config(rng, model_id, n_rows, percentile, kernel, **params) -> dict:
    config = {"schema": "abc-config/1", "model": {"id": model_id, "params": params},
              "N": n_rows, "seed": rng.getrandbits(63),
              "acceptance": {"percentile": percentile},
              "bandwidth": "auto", "kernel": kernel}
    if model_id == "gaussian_mean_demo":
        config["y0"] = [round(rng.gauss(1.0, 0.3), 6) for _ in range(params["n_obs"])]
    elif model_id == "gauss_5d":
        config["s0"] = [round(rng.uniform(0.5, 1.5), 6)] + [
            round(rng.uniform(-0.5, 0.5), 6) for _ in range(4)]
    else:
        config["s0"] = [round(rng.uniform(0.5, 1.5), 6)]
    return config


def make_spec(workload: str, seed: int) -> dict:
    """Every input of one run.  Sizes are fixed; the seed moves only the
    draws, so that a run's cost does not depend on its seed."""
    rng = random.Random(f"{workload}/{seed}")
    spec = {"workload": workload}
    if workload == "cli_estimate":
        spec["ops"] = [
            {"name": "conjugate_1d", "command": "estimate",
             "config": _config(rng, "gaussian_conjugate_1d", 1_000_000, 0.01, "gaussian")},
            {"name": "gauss_5d", "command": "estimate",
             "config": _config(rng, "gauss_5d", 1_000_000, 0.001, "gaussian")},
            {"name": "mean_demo", "command": "estimate",
             "config": _config(rng, "gaussian_mean_demo", 1_000_000, 0.001, "naive", n_obs=10)},
        ]
        # criterion 3's p=1 grid: on the default 512 points the trapezoid
        # integral of a naive-kernel estimate misses 1 by up to ~1.1e-3
        spec["ops"][2]["config"]["grid"] = {"points": 4001, "padding": 4.0}
    elif workload == "cli_sample":
        spec["ops"] = [
            {"name": "conjugate_1d", "command": "sample",
             "config": _config(rng, "gaussian_conjugate_1d", 100_000, 0.01, "gaussian")},
            {"name": "gauss_5d", "command": "sample",
             "config": _config(rng, "gauss_5d", 20_000, 0.01, "gaussian")},
        ]
    elif workload == "mc_validate":
        s0 = [round(rng.uniform(0.5, 1.5), 6)]
        s0_5d = s0 + [round(rng.uniform(-0.5, 0.5), 6) for _ in range(4)]
        box_s0 = [round(rng.uniform(0.3, 0.7), 6)]
        conj = "gaussian_conjugate_1d"
        spec["ops"] = [
            {"name": "mise_conjugate", "kind": "mise", "model": conj, "s0": s0,
             "N": 100_000, "k": 599, "kernel": "gaussian", "replicates": 20},
            {"name": "mise_gauss_5d", "kind": "mise", "model": "gauss_5d", "s0": s0_5d,
             "N": 100_000, "k": 316, "kernel": "gaussian", "replicates": 10},
            {"name": "moments", "kind": "moments", "model": conj, "s0": s0,
             "N": 100_000, "k": 599, "phis": ["identity", "square"], "replicates": 20},
            {"name": "prop1", "kind": "prop1", "model": conj, "s0": s0,
             "N": 2000, "k": 50, "runs": 100, "oracle_draws": 500},
        ] + [
            {"name": f"bounds_order{order}", "kind": "bounds", "model": "uniform_box_1d",
             "s0": box_s0, "pairs": [[999, 9], [9999, 99]], "order": order,
             "replicates": 500, "xi0": 1.0, "L": 1.0}
            for order in (2, 4)]
        for op in spec["ops"]:
            op["seed"] = rng.getrandbits(63)
        spec["pipeline"] = {"model": conj, "s0": s0, "N": 100_000, "k": 599,
                            "seed": rng.getrandbits(63)}
    elif workload == "density_grid":
        both = ["naive", "gaussian"]
        spec["sets"] = [
            # criterion-3-shaped p=2 sets near the 200 000-point cap
            {"name": "crit3_p2_k60", "p": 2, "k": 60, "h": rng.uniform(0.6, 1.5),
             "grid": {"cap": 200_000}, "kernels": both},
            {"name": "crit3_p2_k110", "p": 2, "k": 110, "h": rng.uniform(0.6, 1.5),
             "grid": {"cap": 200_000}, "kernels": both},
            {"name": "p1_k2000", "p": 1, "k": 2000, "h": rng.uniform(0.05, 0.15),
             "grid": {"points": 4001}, "kernels": both},
            {"name": "p1_k3000", "p": 1, "k": 3000, "h": rng.uniform(0.05, 0.15),
             "grid": {"points": 4001}, "kernels": both},
            # the default 100 000-point grid at a large k
            {"name": "p2_k1000", "p": 2, "k": 1000, "h": rng.uniform(0.25, 0.4),
             "grid": {}, "kernels": ["gaussian"]},
        ]
        for case in spec["sets"]:
            case["seed"] = rng.getrandbits(63)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


# ---------------------------------------------------------------------------
# processes

def _env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn_worker(spec_path: Path, seconds: float, trace: int, ready_only: bool):
    """Start worker.py; returns (seconds from spawn to READY, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ready_only:
        cmd.append("--ready-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    watchdog = threading.Timer(seconds + 120.0, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"benchmark worker failed (exit {code})")
    return ready, (None if ready_only else json.loads(rest.splitlines()[-1]))


def import_times() -> tuple[float, float]:
    """Seconds to import knnabc.cli and, within it, scipy.stats, from
    ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import knnabc.cli"],
                          capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=OP_TIMEOUT_S, check=True)
    knnabc_us = scipy_stats_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        top_level = not name[1:].startswith(" ")
        name = name.strip()
        if top_level and (name == "knnabc" or name.startswith("knnabc.")):
            knnabc_us += int(cumulative)
        elif name == "scipy.stats":
            scipy_stats_us = int(cumulative)
    if not knnabc_us:
        raise RuntimeError("no knnabc import found in the -X importtime output")
    return knnabc_us / 1e6, scipy_stats_us / 1e6


# ---------------------------------------------------------------------------
# command-line workloads

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trapezoid(xs, ys) -> float:
    return math.fsum((x1 - x0) * (y0 + y1) / 2
                     for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))


def _estimate_fingerprint(out: Path, stdout: str) -> dict:
    summary = json.loads(stdout.splitlines()[-1])
    meta = json.loads((out / "density_meta.json").read_text(encoding="utf-8"))
    header, *lines = (out / "density.csv").read_bytes().decode("utf-8").split("\r\n")
    if header.count(",") != 1:
        raise ValueError("density.csv: expected one theta column")
    rows = [line.split(",") for line in lines if line]
    xs = [float(row[0]) for row in rows]
    values = [float(row[1]) for row in rows]
    return {"exact": {"k": summary["k"], "h": summary["h"],
                      "d_k_plus_1": summary["d_k_plus_1"], "meta": meta,
                      "grid_sha256": hashlib.sha256(
                          "\n".join(row[0] for row in rows).encode()).hexdigest()},
            "close": {"sample": common.spaced_sample(values), "sum": math.fsum(values)},
            "integrals": [_trapezoid(xs, values)],
            "files": {name: _sha256(out / name) for name in ("density.csv", "density_meta.json")}}


def _sample_fingerprint(out: Path, stdout: str) -> dict:
    return {"exact": {name: _sha256(out / name) for name in ("table.bin", "table.csv")}}


class CliWorkload:
    """Closed loop, one client: each operation is one `abc` subprocess,
    started after the previous one exits."""

    def __init__(self, spec: dict, work: Path, checker: common.Checker):
        self.ops = spec["ops"]
        self.work = work
        self.checker = checker
        self.fingerprint = (_estimate_fingerprint if spec["workload"] == "cli_estimate"
                            else _sample_fingerprint)
        self.span_files: list[Path] = []
        for op in self.ops:
            (work / f"{op['name']}.json").write_text(json.dumps(op["config"]), encoding="utf-8")

    def run_op(self, op: dict, threads: int, traced: bool) -> float:
        out = self.work / "out" / op["name"]
        shutil.rmtree(out, ignore_errors=True)
        argv = [op["command"], "--config", str(self.work / f"{op['name']}.json"),
                "--out", str(out), "--threads", str(threads)]
        spans = self.work / f"spans_{len(self.span_files)}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "launch.py"), "--spans", str(spans), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "knnabc.cli", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.checker.record(op["name"], None, f"timed out after {OP_TIMEOUT_S} s")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self.checker.record(op["name"], None, f"exit code {proc.returncode}")
            return elapsed
        if traced:
            self.span_files.append(spans)
        try:
            fingerprint, error = self.fingerprint(out, proc.stdout), None
        except (OSError, ValueError, KeyError, IndexError) as exc:
            fingerprint, error = None, f"unreadable output: {exc}"
        self.checker.record(op["name"], fingerprint, error)
        return elapsed

    def run_pass(self, traced: bool, tick) -> list[float]:
        times = []
        for op in self.ops:
            times.append(self.run_op(op, 1, traced))
            tick()
        return times

    def final_checks(self, seed: int):
        """One operation again at 2 threads; its files must not change."""
        self.run_op(self.ops[seed % len(self.ops)], 2, False)


# ---------------------------------------------------------------------------

def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    if caches:
        info["llc_size"] = caches[max(caches)]
    return info


def _load_pins(workload: str, seed: int, pin: bool):
    if pin or seed != common.DEFAULT_SEED or not PINS.is_file():
        return None
    return json.loads(PINS.read_text(encoding="utf-8")).get(workload)


def _save_pins(workload: str, fingerprints: dict):
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    pins[workload] = fingerprints
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run(workload: str, seed: int, seconds: float, trace: int, pin: bool, work: Path):
    spec = make_spec(workload, seed)
    spec["pins"] = _load_pins(workload, seed, pin)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    meter = common.Speedometer(interval=0.0)
    meter.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(spawn_worker(spec_path, seconds, trace, ready_only=True)[0])
        meter.sample()
    setup_speed = meter.factor()
    if workload in CLI_WORKLOADS:
        checker = common.Checker(spec["pins"])
        cli = CliWorkload(spec, work, checker)
        passes = common.timed_passes(cli.run_pass, seconds, bool(trace))
        cli.final_checks(seed)
        traced = sum(1 for is_traced, *_ in passes if is_traced)
        layers = layer_metrics(load_spans(cli.span_files), traced) if traced else None
        attempted, failed, problems = checker.attempted, checker.failed, checker.problems
        fingerprints = checker.first
    else:
        result = spawn_worker(spec_path, seconds, trace, ready_only=False)[1]
        passes, layers = result["passes"], result["layers"]
        attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
        fingerprints = result["fingerprints"]
    if pin:
        _save_pins(workload, fingerprints)

    summary = common.pass_summary(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if trace:
        imports = [import_times() for _ in range(SETUP_REPEATS)]
        layers["startup.import_knnabc_s"] = common.median(t[0] for t in imports)
        layers["startup.import_scipy_stats_s"] = common.median(t[1] for t in imports)
        layers["trace.overhead_frac"] = summary["trace_overhead_frac"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": common.median(setups) * setup_speed, "unit": "s"},
            "wall_s": {"value": summary["wall_s"], "unit": "s"},
            "op_p50_s": {"value": summary["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine(), "raw_setup_samples_s": setups, "setup_speed_factor": setup_speed,
            "peak_rss_mb": peak_rss_mb,
            "problems": problems[:20], **summary}
    return info, {"correct": failed == 0 and attempted > 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's outputs as the expected outputs")
    args = parser.parse_args(argv)
    if args.pin and args.seed != common.DEFAULT_SEED:
        parser.error(f"--pin records the default seed ({common.DEFAULT_SEED}) only")
    if not (SRC / "knnabc" / "__init__.py").is_file():
        print(f"run.py: no knnabc sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace, args.pin, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
