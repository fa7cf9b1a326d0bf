"""The benchmark's trace hooks resolve against the package.

Under ``--trace 1``, ``benchmark/workloads.py`` wraps package attributes
by name (``polarization.integrate_radial_angular``, ``decay.monte_carlo_6d``
and so on). A name that the package renames or deletes makes that run
exit 1 while every other test passes, so each in-process workload is
instrumented here. The benchmark's modules are imported without writing
bytecode into their directory.
"""

import os
import sys

import pytest

BENCHMARK_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "benchmark")
MODULES = ("inputs", "spans", "workloads")


@pytest.fixture
def benchmark_modules(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCHMARK_DIR)
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import inputs
    import spans
    import workloads
    yield inputs, spans, workloads
    for name in MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["kernel_scan", "screening", "decay"])
def test_instrumented_names_resolve(benchmark_modules, name):
    inputs, spans, workloads = benchmark_modules
    workload = workloads.WORKLOADS[name](inputs.make_inputs(name, 1),
                                         os.path.dirname(BENCHMARK_DIR))
    tracer = spans.Tracer()
    try:
        workload.instrument(tracer)
    finally:
        tracer.restore()
