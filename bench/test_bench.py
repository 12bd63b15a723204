"""Checks of the benchmark itself: exact counters and seeded inputs.

Run from the root of a checkout (takes about two minutes):

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_UNITS = ("count", "bytes", "ratio")


def _traced_metrics(seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])["metrics"]


@pytest.fixture(scope="module")
def two_traced_runs():
    return _traced_metrics(3), _traced_metrics(3)


def test_count_metrics_repeat_exactly(two_traced_runs):
    first, second = two_traced_runs
    exact = [
        f"{workload}.{name}"
        for workload in workloads.WORKLOADS
        for name, unit in run.PER_LAYER.items()
        if unit in EXACT_UNITS and name != "trace.overhead_frac"
    ]
    assert [first[k]["value"] for k in exact] == [second[k]["value"] for k in exact]


def test_every_emitted_facet_is_verified_once(two_traced_runs):
    metrics = two_traced_runs[0]
    for workload in ("enumerate", "census"):
        calls = metrics[f"{workload}.geometry.verify_facet.calls"]["value"]
        assert calls == metrics[f"{workload}.cli.facets_emitted"]["value"] > 0


def test_seed_changes_only_the_random_workloads(tmp_path):
    def inputs(seed, tag):
        out = {}
        for workload in workloads.WORKLOADS:
            workdir = tmp_path / f"{workload}-{tag}"
            workdir.mkdir()
            jobs = workloads.build(workload, seed, workdir)
            out[workload] = [(job.argv[0], job.graph.text()) for job in jobs]
        return out

    first, again, other = inputs(1, "a"), inputs(1, "b"), inputs(2, "c")
    assert first == again
    assert first["enumerate"] == other["enumerate"]
    assert first["scan"] == other["scan"]
    assert first["census"] != other["census"]
    assert first["oracle"] != other["oracle"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
