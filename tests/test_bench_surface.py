"""The benchmark's traced layers still exist and are still called.

`bench/spans.py` names the functions a traced benchmark run wraps
(`TARGETS`) and the module bindings each workload must call through
(`EXERCISED`).  A name the package no longer has, or a binding a workload
no longer calls, makes a traced run fail only after minutes of work.  The
first checks find a missing name at import time; the last runs each
workload's jobs once under the benchmark's own tracer and applies the
traced run's gates: every exercised binding records a call, and each
facet the `enumerate` and `census` jobs emit is certified by exactly one
`verify_facet` call.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from adjpoly import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def _package_module(short: str):
    return importlib.import_module(f"adjpoly.{short}")


def test_every_target_is_a_function_of_its_module():
    for home, func in spans.TARGETS:
        fn = getattr(_package_module(home), func, None)
        assert inspect.isfunction(fn), f"{home}.{func}"
        assert fn.__module__ == f"adjpoly.{home}", f"{home}.{func}"


def test_every_exercised_binding_is_a_target():
    targets = {
        getattr(_package_module(home), func): f"{home}.{func}"
        for home, func in spans.TARGETS
    }
    for workload, bindings in spans.EXERCISED.items():
        for binding in bindings:
            short, attr = binding.split(".")
            value = getattr(_package_module(short), attr, None)
            assert value in targets, f"{workload}: {binding}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_gates(tmp_path, workload):
    jobs = workloads.build(workload, 1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        results = [cli.run(job.argv) for job in jobs]
    finally:
        tracer.uninstall()
    trace = tracer.take()
    facets = 0
    for job, result in zip(jobs, results):
        assert result.exit_code == 0, result.stderr
        facets += workloads.check(job, result.stdout)
    idle = [b for b in spans.EXERCISED[workload] if not trace["binding_calls"].get(b)]
    assert idle == []
    if workload in ("enumerate", "census"):
        assert trace["calls"]["geometry.verify_facet"] == facets > 0
