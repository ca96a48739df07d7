"""Helpers shared by the benchmark driver and its worker: the timed pass
loop, speed calibration, order statistics, and output fingerprints.
Standard library only, except that :func:`calibrate` imports numpy."""

from __future__ import annotations

import time

DEFAULT_SEED = 1
REL_TOL = 1e-9        # floats downstream of kernel sums; allows exact reordering
INTEGRAL_TOL = 1e-3   # every density estimate integrates to 1 within this


def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail_percentile(values, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it, as
    (value, quantile level); None when there are too few samples."""
    xs = sorted(values)
    i = len(xs) - beyond - 1
    if i < 0:
        return None
    return xs[i], (i + 1) / len(xs)


# calibrate() takes about this long on the 2-vCPU Xeon host the bounds
# were set on; reported times are scaled to that speed.
CALIBRATION_REF_S = 0.035

_CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    c = [a * j + b for j in range(10)]\n    return sum(c) / len(c)\n"
    for i in range(300))


def calibrate(samples: int = 3) -> float:
    """Median time of a fixed kernel mixing what the workloads spend time
    on: numpy vector arithmetic, the interpreter loop, and compiling
    source, as an import does.  The kernel runs no knnabc code, so a
    change to the program never changes it."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 200_000)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(3):
            np.exp(-0.5 * x * x).sum()
        total = 0
        for i in range(30_000):
            total += i * i
        compile(_CALIBRATION_SOURCE, "<calibration>", "exec")
        times.append(time.perf_counter() - start)
    return median(times)


class Speedometer:
    """Samples the host's speed between operations.

    Shared hosts drift in speed by 10-20 % over seconds to minutes.
    Sampling :func:`calibrate` at most once a ``interval`` between
    operations, and dividing a period's times by the mean of its samples,
    cancels most of that drift.
    """

    def __init__(self, interval: float = 1.0):
        self.interval = interval
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self):
        self.samples.append(calibrate())
        self.last = time.perf_counter()

    def tick(self):
        """Call between operations; samples if ``interval`` has passed."""
        if time.perf_counter() - self.last >= self.interval:
            self.sample()

    def factor(self) -> float:
        """Scale from measured times to times at the reference speed for
        the period since the last call; its final sample starts the next."""
        factor = CALIBRATION_REF_S * len(self.samples) / sum(self.samples)
        self.samples = self.samples[-1:]
        return factor


def timed_passes(run_pass, seconds: float, traced: bool) -> list:
    """Run passes of a workload's fixed operation list for about
    ``seconds``; a pass starts only if at least half of it fits.

    ``run_pass(traced, tick)`` returns the pass's per-operation times and
    calls ``tick()`` between operations.  Traced runs alternate untraced
    and traced passes and make at least one of each, so that the tracing
    overhead is measured in the same run.
    Returns [(traced, op_times, speed factor), ...].
    """
    passes = []
    meter = Speedometer()
    start = time.perf_counter()
    meter.sample()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        op_times = run_pass(trace_this, meter.tick)
        meter.sample()
        passes.append((trace_this, op_times, meter.factor()))
        elapsed = time.perf_counter() - start
        if traced and len(passes) < 2:
            continue
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes


def pass_summary(passes) -> dict:
    """Wall and operation statistics of the untraced passes at the
    reference speed, and the traced-over-untraced wall ratio when both
    kinds ran."""
    plain = [(ops, f) for traced, ops, f in passes if not traced]
    traced = [sum(ops) * f for is_traced, ops, f in passes if is_traced]
    op_times = [t * f for ops, f in plain for t in ops]
    out = {
        "passes": len(plain),
        "ops": len(op_times),
        "raw_pass_walls_s": [sum(ops) for ops, _ in plain],
        "speed_factors": [f for _, f in plain],
        "wall_s": median(sum(ops) * f for ops, f in plain),
        "op_p50_s": median(op_times),
    }
    tail = tail_percentile(op_times)
    if tail is not None:
        out["op_tail_s"], out["op_tail_quantile"] = tail
    if traced:
        out["trace_overhead_frac"] = median(traced) / out["wall_s"] - 1.0
    return out


def _close(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w) for g, w in zip(got, want))
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def check_fingerprint(got: dict, first: dict | None, pinned: dict | None) -> list[str]:
    """Problems with one operation's output fingerprint.

    A fingerprint is {"exact": {...}, "close": {...}, "integrals": [...]}.
    Repeats of an operation (other passes, other worker counts) must match
    its first output exactly; against the pinned output, "exact" entries
    must be equal and "close" entries agree to a relative ``REL_TOL``.
    """
    problems = [f"density integral {value!r} is not within {INTEGRAL_TOL} of 1"
                for value in got.get("integrals", ())
                if not abs(value - 1.0) <= INTEGRAL_TOL]
    if first is not None and got != first:
        problems.append("output differs from the first run of the same operation")
    if pinned is not None:
        for key, want in pinned.get("exact", {}).items():
            if got.get("exact", {}).get(key) != want:
                problems.append(f"{key} differs from the pinned output")
        for key, want in pinned.get("close", {}).items():
            if not _close(got.get("close", {}).get(key), want):
                problems.append(f"{key} is not within {REL_TOL} of the pinned output")
    return problems


class Checker:
    """Counts attempted and failed operations; an operation fails when it
    raises, exits nonzero, or its output fails a check."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, fingerprint: dict | None, error: str | None = None):
        self.attempted += 1
        if fingerprint is None:
            problems = [error or "no output"]
        else:
            pinned = self.pins.get(name) if self.pins else None
            problems = check_fingerprint(fingerprint, self.first.get(name), pinned)
            self.first.setdefault(name, fingerprint)
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def spaced_sample(values, count: int = 64) -> list:
    """``count`` values at evenly spaced positions, ends included."""
    n = len(values)
    if n <= count:
        return list(values)
    return [values[round(i * (n - 1) / (count - 1))] for i in range(count)]
