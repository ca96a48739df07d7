"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``knnabc`` under the names their
callers look up (``knnabc.core.generate_table``, ``knnabc.cli.write_csv``,
...), so the program's own source stays untouched.  Spans live in memory,
on thread-local stacks, and are written out when the traced process ends.
A span that opens with no parent inside a pool thread is parented to the
pooled ``parallel_map`` span open at that moment.

This module imports nothing from ``knnabc`` or numpy at import time, so
the benchmark driver can use :func:`layer_metrics` without paying for
either.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric; README.md says which
# end-to-end metric each should move, and on which workload.
LAYER_METRICS = (
    ("startup.import_knnabc_s", "s", "lower"),
    ("startup.import_scipy_stats_s", "s", "lower"),
    ("core.generate_table_s", "s", "lower"),
    ("core.generate_table.calls", "count", "lower"),
    ("core.generate_table.rows", "count", "lower"),
    ("core.generate_table.ns_per_row", "ns", "lower"),
    ("rng.row_words_s", "s", "lower"),
    ("rng.uniform01_s", "s", "lower"),
    ("models.inverse_cdf_s", "s", "lower"),
    ("rng.derive_key_calls", "count", "lower"),
    ("rng.derive_key_s", "s", "lower"),
    ("numerics.parallel_map_s", "s", "lower"),
    ("numerics.parallel_map.busy_frac", "ratio", "higher"),
    ("core.abc_knn_s", "s", "lower"),
    ("core.abc_knn.ns_per_row", "ns", "lower"),
    ("core.squared_distances_s", "s", "lower"),
    ("core.sample_restricted_s", "s", "lower"),
    ("core.sample_restricted.rows_drawn", "count", "lower"),
    ("core.sample_restricted.accept_ratio", "ratio", "higher"),
    ("estimators.estimate_density_s", "s", "lower"),
    ("estimators.g_hat_many_s", "s", "lower"),
    ("estimators.kernel_evals", "count", "lower"),
    ("estimators.kernel_evals_per_s", "1/s", "higher"),
    ("estimators.temp_bytes_computed", "bytes", "lower"),
    ("validate.mise_estimate.self_s", "s", "lower"),
    ("models.oracle_pdf_s", "s", "lower"),
    ("validate.conditional_law_test.self_s", "s", "lower"),
    ("validate.bound_check_s", "s", "lower"),
    ("validate.moment_consistency_s", "s", "lower"),
    ("fileio.write_csv.self_s", "s", "lower"),
    ("fileio.atomic_write_bytes_s", "s", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("fileio.write_mb_per_s", "MB/s", "higher"),
    ("core.table_to_bytes_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

PMAP = "numerics.parallel_map"
G_HAT_CHUNK = 8192  # g_hat_many's default chunk of grid points


@dataclasses.dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)


def _attrs_generate_table(model, n_rows, *args, **kwargs):
    return {"rows": int(n_rows)}


def _attrs_row_words(key, start_row, n_rows, *args, **kwargs):
    return {"rows": int(n_rows)}


def _attrs_abc_knn(table, *args, **kwargs):
    return {"rows": int(table.n_rows)}


def _attrs_sample_restricted(model, s0, radius, count, *args, **kwargs):
    return {"count": int(count)}


def _attrs_g_hat_many(accepted, h, kernel, points, chunk=G_HAT_CHUNK):
    return {"points": int(len(points)), "k": int(accepted.k),
            "p": int(accepted.ordered_thetas.shape[1]), "chunk": int(chunk)}


def _attrs_write(path, data):
    return {"bytes": len(data)}


# (module, attribute, span name, attribute hook)
_TARGETS = (
    ("knnabc.core", "generate_table", "core.generate_table", _attrs_generate_table),
    ("knnabc.core", "row_words", "rng.row_words", _attrs_row_words),
    ("knnabc.core", "uniform01", "rng.uniform01", None),
    ("knnabc.core", "derive_key", "rng.derive_key", None),
    ("knnabc.core", "squared_distances", "core.squared_distances", None),
    ("knnabc.core", "abc_knn", "core.abc_knn", _attrs_abc_knn),
    ("knnabc.core", "sample_restricted", "core.sample_restricted", _attrs_sample_restricted),
    ("knnabc.core", "table_to_bytes", "core.table_to_bytes", None),
    ("knnabc.validate", "derive_seed", "rng.derive_key", None),
    ("knnabc.validate", "mise_estimate", "validate.mise_estimate", None),
    ("knnabc.validate", "conditional_law_test", "validate.conditional_law_test", None),
    ("knnabc.validate", "bound_check", "validate.bound_check", None),
    ("knnabc.validate", "moment_consistency", "validate.moment_consistency", None),
    ("knnabc.estimators", "estimate_density", "estimators.estimate_density", None),
    ("knnabc.estimators", "g_hat_many", "estimators.g_hat_many", _attrs_g_hat_many),
    ("knnabc.fileio", "atomic_write_bytes", "fileio.atomic_write_bytes", _attrs_write),
    ("knnabc.cli", "atomic_write_bytes", "fileio.atomic_write_bytes", _attrs_write),
    ("knnabc.cli", "write_csv", "fileio.write_csv", None),
)
_PMAP_OWNERS = ("knnabc.core", "knnabc.validate")
_MODEL_OWNERS = ("knnabc.models", "knnabc.cli")


class Tracer:
    """Records spans around calls into knnabc while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pools: list[Span] = []      # open pooled parallel_map spans
        self._patches: list[tuple] = []   # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            with self._lock:
                parent = self._pools[-1].sid if self._pools else None
        span = Span(next(self._ids), parent, name, time.perf_counter(), attrs=attrs or {})
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.t1 = time.perf_counter()
        self._stack().pop()

    def traced(self, fn, name: str, attrs_hook=None):
        """``fn`` wrapped in a span named ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, attrs_hook(*args, **kwargs) if attrs_hook else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def _traced_parallel_map(self, original):
        @functools.wraps(original)
        def wrapper(fn, items, max_workers=1):
            items = list(items)
            workers = min(max_workers, len(items)) if max_workers > 1 and len(items) > 1 else 1
            span = self.open(PMAP, {"workers": workers})
            busy = []

            def timed(item):
                start = time.perf_counter()
                try:
                    return fn(item)
                finally:
                    busy.append(time.perf_counter() - start)

            if workers > 1:
                with self._lock:
                    self._pools.append(span)
            try:
                return original(timed, items, max_workers)
            finally:
                if workers > 1:
                    with self._lock:
                        self._pools.remove(span)
                span.attrs["busy_s"] = sum(busy)
                self.close(span)
        return wrapper

    def _traced_get_model(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            model = original(*args, **kwargs)
            changes = {
                "thetas_from_uniforms": self.traced(model.thetas_from_uniforms,
                                                    "models.inverse_cdf"),
                "summaries_from_uniforms": self.traced(model.summaries_from_uniforms,
                                                       "models.inverse_cdf"),
            }
            if model.oracle is not None:
                changes["oracle"] = dataclasses.replace(
                    model.oracle, pdf=self.traced(model.oracle.pdf, "models.oracle_pdf"))
            return dataclasses.replace(model, **changes)
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make):
        owner = importlib.import_module(module_name)
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every traced name; undo with :meth:`uninstall`."""
        for module_name, attr, name, hook in _TARGETS:
            self._patch(module_name, attr,
                        lambda fn, name=name, hook=hook: self.traced(fn, name, hook))
        for module_name in _PMAP_OWNERS:
            self._patch(module_name, "parallel_map", self._traced_parallel_map)
        for module_name in _MODEL_OWNERS:
            self._patch(module_name, "get_model", self._traced_get_model)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.astuple(s) for s in self.spans], fh)


def load_spans(paths) -> list[Span]:
    """Spans from files written by :meth:`Tracer.dump`, with ids renumbered
    so that spans of different processes never collide."""
    spans, offset = [], 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        for sid, parent, name, t0, t1, attrs in rows:
            spans.append(Span(sid + offset, None if parent is None else parent + offset,
                              name, t0, t1, attrs))
        offset += max((row[0] for row in rows), default=0)
    return spans


# ---------------------------------------------------------------------------
# arithmetic over spans

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _children_index(spans) -> dict:
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    return children


def layer_children(span: Span, children: dict) -> list[Span]:
    """Nearest descendants that are layers: parallel_map spans are looked
    through, since their items run the caller's own work."""
    out, todo = [], list(children[span.sid])
    while todo:
        child = todo.pop()
        if child.name == PMAP:
            todo.extend(children[child.sid])
        else:
            out.append(child)
    return out


def self_time(span: Span, children: dict) -> float:
    """Duration minus the part of it that the span's layer children cover;
    children on other threads may overlap each other and count once."""
    covered = union_length((max(c.t0, span.t0), min(c.t1, span.t1))
                           for c in layer_children(span, children))
    return (span.t1 - span.t0) - covered


def _descendants(span: Span, children: dict):
    todo = list(children[span.sid])
    while todo:
        child = todo.pop()
        yield child
        todo.extend(children[child.sid])


def accept_ratio(spans) -> tuple[int, float]:
    """(rows drawn, requested rows over rows drawn) of the restricted
    sampler; the rows drawn are the Philox rows read under its spans."""
    children = _children_index(spans)
    wanted = drawn = 0
    for span in spans:
        if span.name == "core.sample_restricted":
            wanted += span.attrs["count"]
            drawn += sum(d.attrs["rows"] for d in _descendants(span, children)
                         if d.name == "rng.row_words")
    return drawn, (wanted / drawn if drawn else 0.0)


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics of traced spans; totals are per pass."""
    children = _children_index(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def busy(name):
        return sum(s.t1 - s.t0 for s in by_name[name])

    def self_busy(name):
        return sum(self_time(s, children) for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    out = {}
    for name in ("core.generate_table", "rng.row_words", "rng.uniform01",
                 "models.inverse_cdf", "rng.derive_key", "core.abc_knn",
                 "core.squared_distances", "core.sample_restricted",
                 "estimators.estimate_density", "estimators.g_hat_many",
                 "models.oracle_pdf", "validate.bound_check",
                 "validate.moment_consistency", "fileio.atomic_write_bytes",
                 "core.table_to_bytes"):
        out[name + "_s"] = busy(name) / passes
    for name in ("validate.mise_estimate", "validate.conditional_law_test",
                 "fileio.write_csv"):
        out[name + ".self_s"] = self_busy(name) / passes

    rows = attr_sum("core.generate_table", "rows")
    out["core.generate_table.calls"] = len(by_name["core.generate_table"]) / passes
    out["core.generate_table.rows"] = rows / passes
    out["core.generate_table.ns_per_row"] = busy("core.generate_table") / rows * 1e9 if rows else 0.0
    out["rng.derive_key_calls"] = len(by_name["rng.derive_key"]) / passes
    knn_rows = attr_sum("core.abc_knn", "rows")
    out["core.abc_knn.ns_per_row"] = busy("core.abc_knn") / knn_rows * 1e9 if knn_rows else 0.0

    pooled = [s for s in by_name[PMAP] if s.attrs["workers"] > 1]
    pool_wall = sum(s.t1 - s.t0 for s in pooled)
    capacity = sum((s.t1 - s.t0) * s.attrs["workers"] for s in pooled)
    out["numerics.parallel_map_s"] = pool_wall / passes
    out["numerics.parallel_map.busy_frac"] = (
        sum(s.attrs["busy_s"] for s in pooled) / capacity if capacity else 0.0)

    drawn, ratio = accept_ratio(spans)
    out["core.sample_restricted.rows_drawn"] = drawn / passes
    out["core.sample_restricted.accept_ratio"] = ratio

    grids = by_name["estimators.g_hat_many"]
    evals = sum(s.attrs["points"] * s.attrs["k"] for s in grids)
    out["estimators.kernel_evals"] = evals / passes
    out["estimators.kernel_evals_per_s"] = evals / busy("estimators.g_hat_many") if evals else 0.0
    # the dense path's per-chunk temporaries: (chunk, k, p) differences plus
    # (chunk, k) squared norms and kernel values, all float64
    out["estimators.temp_bytes_computed"] = max(
        (min(s.attrs["points"], s.attrs["chunk"]) * s.attrs["k"] * (s.attrs["p"] + 2) * 8
         for s in grids), default=0)

    written = attr_sum("fileio.atomic_write_bytes", "bytes")
    out["fileio.bytes_written"] = written / passes
    # export time: CSV formatting plus every atomic write, each counted once
    export_s = self_busy("fileio.write_csv") + busy("fileio.atomic_write_bytes")
    out["fileio.write_mb_per_s"] = written / 1e6 / export_s if export_s else 0.0
    return out
