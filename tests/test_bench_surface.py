"""The benchmark's traced layers still exist in the package.

`bench/spans.py` names the functions a traced benchmark run wraps
(`TARGETS`) and the module bindings each workload must call through
(`EXERCISED`).  A name the package no longer has makes a traced run fail
only after minutes of work; these checks find it at import time.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


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
