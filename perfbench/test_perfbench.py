"""Tests of the benchmark's own arithmetic and tracing.

    python -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import common
import run
from tracer import (LAYER_METRICS, PMAP, Span, Tracer, accept_ratio, layer_metrics,
                    self_time, union_length)
from tracer import _children_index as children_index

ROOT = Path(__file__).resolve().parent.parent


# -- the "at least ten samples beyond" percentile ---------------------------

def test_tail_percentile_needs_eleven_samples():
    assert common.tail_percentile(range(10)) is None
    assert common.tail_percentile(range(11)) == (0, 1 / 11)


def test_tail_percentile_leaves_exactly_ten_beyond():
    values = list(range(100, 0, -1))           # 1..100, unsorted
    value, level = common.tail_percentile(values)
    assert (value, level) == (90, 0.9)
    assert sum(v > value for v in values) == 10


# -- self time --------------------------------------------------------------

def _span(sid, parent, name, t0, t1, **attrs):
    return Span(sid, parent, name, t0, t1, attrs)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == 4
    assert union_length([]) == 0


def test_self_time_with_overlapping_thread_spans():
    # a validate call maps replicates over two pool threads: the children
    # overlap in time, and the pool span itself is looked through
    parent = _span(1, None, "validate.mise_estimate", 0.0, 10.0)
    spans = [
        parent,
        _span(2, 1, PMAP, 1.0, 9.0, workers=2, busy_s=5.0),
        _span(3, 2, "core.generate_table", 1.0, 4.0),       # pool thread 1
        _span(4, 2, "core.generate_table", 3.0, 6.0),       # pool thread 2
        _span(5, 3, "rng.row_words", 1.5, 2.0),             # grandchild: ignored
        _span(6, 1, "core.abc_knn", 9.5, 11.0),             # clipped at the parent's end
    ]
    assert self_time(parent, children_index(spans)) == pytest.approx(10.0 - 5.0 - 0.5)


def test_self_time_of_leaf_is_its_duration():
    leaf = _span(1, None, "fileio.write_csv", 2.0, 3.5)
    assert self_time(leaf, children_index([leaf])) == 1.5


# -- useful outcomes over attempts ------------------------------------------

def test_accept_ratio_counts_rows_drawn_under_the_sampler_only():
    spans = [
        _span(1, None, "core.sample_restricted", 0, 1, count=50),
        _span(2, 1, "rng.row_words", 0, 0.1, rows=16384),
        _span(3, 1, "models.inverse_cdf", 0.1, 0.2),
        _span(4, 3, "rng.row_words", 0.1, 0.2, rows=16384),   # nested deeper
        _span(5, None, "core.generate_table", 1, 2, rows=1000),
        _span(6, 5, "rng.row_words", 1, 2, rows=1000),        # not the sampler's
    ]
    assert accept_ratio(spans) == (32768, 50 / 32768)
    assert accept_ratio(spans[4:]) == (0, 0.0)


def test_layer_metrics_busy_fraction_and_per_pass_totals():
    spans = [
        _span(1, None, PMAP, 0.0, 4.0, workers=2, busy_s=6.0),
        _span(2, 1, "core.generate_table", 0.0, 3.0, rows=300),
        _span(3, 1, "core.generate_table", 0.0, 3.0, rows=300),
        _span(4, None, PMAP, 4.0, 5.0, workers=1, busy_s=1.0),   # serial: not pooled
    ]
    metrics = layer_metrics(spans, passes=2)
    assert metrics["numerics.parallel_map.busy_frac"] == 6.0 / 8.0
    assert metrics["numerics.parallel_map_s"] == 2.0
    assert metrics["core.generate_table_s"] == 3.0
    assert metrics["core.generate_table.rows"] == 300
    assert metrics["core.generate_table.ns_per_row"] == pytest.approx(1e7)


def test_export_rate_counts_each_write_once():
    spans = [
        _span(1, None, "fileio.write_csv", 0.0, 3.0),
        _span(2, 1, "fileio.atomic_write_bytes", 2.0, 3.0, bytes=2_000_000),
        _span(3, None, "fileio.atomic_write_bytes", 3.0, 3.5, bytes=1_000_000),
    ]
    metrics = layer_metrics(spans, passes=1)
    assert metrics["fileio.write_csv.self_s"] == 2.0
    assert metrics["fileio.write_mb_per_s"] == pytest.approx(3.0 / 3.5)


# -- the tracer on the real program -----------------------------------------

def test_pool_thread_spans_are_parented_to_the_open_parallel_map():
    sys.path.insert(0, str(ROOT / "src"))
    from knnabc import numerics

    tracer = Tracer()
    work = tracer.traced(lambda x: x * x, "work")
    pmap = tracer._traced_parallel_map(numerics.parallel_map)
    assert pmap(work, range(8), 2) == [x * x for x in range(8)]
    (pool,) = [s for s in tracer.spans if s.name == PMAP]
    items = [s for s in tracer.spans if s.name == "work"]
    assert len(items) == 8
    assert all(s.parent == pool.sid for s in items)
    assert pool.attrs["workers"] == 2


# -- the benchmark's declared metrics match what it prints -------------------

def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == list(LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_spec_depends_on_the_seed_only():
    for workload in run.WORKLOADS:
        assert run.make_spec(workload, 3) == run.make_spec(workload, 3)
        assert run.make_spec(workload, 3) != run.make_spec(workload, 4)


# -- output checks ----------------------------------------------------------

def test_fingerprint_checks():
    pinned = {"exact": {"k": 10}, "close": {"sum": 1.0}}
    assert common.check_fingerprint({"exact": {"k": 10}, "close": {"sum": 1.0 + 1e-12}},
                                    None, pinned) == []
    problems = common.check_fingerprint(
        {"exact": {"k": 11}, "close": {"sum": 1.0 + 1e-6}, "integrals": [0.99]}, None, pinned)
    assert len(problems) == 3
    first = {"exact": {"k": 10}}
    assert common.check_fingerprint({"exact": {"k": 10}}, first, None) == []
    assert common.check_fingerprint({"exact": {"k": 9}}, first, None) != []
