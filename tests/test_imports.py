"""Every package module uses each name it imports (``__init__`` re-exports),
only ``numerics`` handles threads, every name the benchmark's tracer wraps
exists, and the models the tracer rebuilds simulate as the untraced ones."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import knnabc
from knnabc import core, models

MODULES = sorted(p for p in Path(knnabc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert _unused_imports(source) == ["line 2: path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_public_name_resolves_and_star_import_binds_them():
    # the names load with their modules on first access (PEP 562)
    assert all(getattr(knnabc, name) is not None for name in knnabc.__all__)
    namespace = {}
    exec("from knnabc import *", namespace)
    assert set(knnabc.__all__) <= set(namespace)
    assert namespace["simulate_knn"] is core.simulate_knn
    with pytest.raises(AttributeError, match="no_such_name"):
        knnabc.no_such_name


def _thread_imports(source: str) -> list[str]:
    """The modules of ``threading`` and ``concurrent.futures`` that a source imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return [name for name in names
            if name.split(".")[0] == "threading" or name.startswith("concurrent")]


def test_checker_sees_thread_imports():
    source = ("import threading\nfrom concurrent import futures\n"
              "from concurrent.futures import Future\nimport os\n")
    assert _thread_imports(source) == ["threading", "concurrent.futures",
                                       "concurrent.futures.Future"]


@pytest.mark.parametrize("path", sorted(p for p in Path(knnabc.__file__).parent.glob("*.py")
                                        if p.name != "numerics.py"), ids=lambda p: p.name)
def test_only_numerics_handles_threads(path):
    # threads are started and waited for in numerics' parallel_map and
    # ordered_map alone; no other module holds a lock or a thread
    assert _thread_imports(path.read_text(encoding="utf-8")) == []


def test_benchmark_tracer_wraps_and_restores_every_name(monkeypatch):
    # perfbench/tracer.py wraps knnabc functions by module and name; a name
    # renamed or deleted in knnabc stops `perfbench/run.py --trace 1` with an
    # AttributeError
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched and all(getattr(owner, attr) is not original
                               for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_models_rebuilt_by_the_benchmark_tracer_keep_their_bits(monkeypatch):
    # the tracer rebuilds each model with both transforms wrapped in spans;
    # a change to the model protocol that the wrapped transforms no longer
    # follow shows here, not first in a traced benchmark run.  Each span of
    # the scan calls each transform once; the spans start at
    # max(_RAMP_ROWS, 4(k + 1)) rows and grow 4x up to a chunk.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    n_rows, k = 3 * core._CHUNK_ROWS + 17, 50
    spans, done, rows = 0, 0, max(core._RAMP_ROWS, 4 * (k + 1))
    while done < n_rows:
        done, rows, spans = done + min(rows, core._CHUNK_ROWS), 4 * rows, spans + 1
    assert spans == 6

    def run(model):
        accepted = core.simulate_knn(model, n_rows, 5, np.full(model.m, 0.3), k)
        return ([a.tobytes() for a in (accepted.ordered_thetas, accepted.ordered_summaries,
                                       accepted.distances, accepted.source_indices)],
                accepted.radius_next)

    plain = {model_id: run(models.get_model(model_id)) for model_id in models.model_ids()}
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        for model_id in models.model_ids():
            before = len(tracer.spans)
            assert run(models.get_model(model_id)) == plain[model_id]
            names = [s.name for s in tracer.spans[before:]]
            assert names.count("models.inverse_cdf") == 2 * spans
    finally:
        tracer.uninstall()
