"""Every benchmark workload, one round at its tiny size.

`bench/workloads.py` checks each output against a computation of its own
(dyadic component counts, closed forms, an exact L^p oracle), so running
its operations here puts those independent checks into the test suite.
`bench/tracer.py` names the spans its per-layer metrics read; each must
be a function of the library. Both modules are loaded from their files
and used as they are.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import heislusin
import heislusin.cli  # noqa: F401  (the workloads run the CLI as hl.cli)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    # read-only: no bytecode cache is written next to the benchmark
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_bench("workloads")
tracer = _load_bench("tracer")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_passes(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](
        heislusin, seed, str(tmp_path), **workloads.TINY[name])
    ops = wl.ops()
    assert ops
    for op in ops:
        result = op.call()
        if isinstance(result, workloads.CliResult):
            assert result.status in op.accept, (op.name, result.err)
        if op.check is not None:
            op.check(result)


@pytest.mark.parametrize("span", sorted(tracer._FUNCTIONS.values()))
def test_traced_span_names_a_library_function(span):
    # the per-layer metrics index the traced spans by these names, so a
    # name that no longer resolves fails every traced run
    layer, _, path = span.partition(".")
    module = importlib.import_module("heislusin." + layer)
    obj = module
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__
