"""End-to-end and per-layer benchmark of the adjpoly command line.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

--workload names one of enumerate, scan, census, oracle, or `all`, which
runs the four with their passes interleaved.  Each workload runs in its
own worker process (bench/worker.py) that calls `adjpoly.cli.run(argv)`
one job at a time on input files generated from --seed.  After an untimed
warm-up pass that checks every output in full, the worker runs timed
passes over its job list until --seconds of measurement per workload are
spent.  Between passes a fresh interpreter is started to time set-up.

With --trace 0 the result line holds the end-to-end metrics; with
--trace 1 traced and untraced passes alternate and the result line holds
the per-layer metrics of the traced ones.  Human-readable reports come
first; the last line of stdout is one JSON object.  The exit code is 0
only if every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
}

# the per-layer metrics of the result line: every exact count, but only
# the times that no workload leaves at zero; the report prints all of them
PER_LAYER = {
    "graphs.parse_edge_list.self_s": "s",
    "graphs.enumerate_maximal_bipartite_subgraphs.self_s": "s",
    "graphs.scan_ns_per_bipartition": "ns",
    "cli.run.self_s": "s",
    "trace.overhead_frac": "ratio",
    **{f"{home}.{func}.calls": "count" for home, func in spans.TARGETS},
    "graphs.bipartitions_scanned": "count",
    "graphs.subgraphs_found": "count",
    "graphs.scan_accept_ratio": "ratio",
    "facets.sign_vectors_found": "count",
    "geometry.oracle_hit_ratio": "ratio",
    "cli.out_bytes": "bytes",
    "cli.facets_emitted": "count",
}

FACET_WORKLOADS = ("enumerate", "census")  # where facets_per_s is reported
MIN_ROUNDS = {False: 3, True: 2}
MIN_PROBES = 9
REPLY_TIMEOUT_S = 150

# set-up probe: a fresh interpreter imports the package and answers one command
PROBE = (
    "import sys; sys.path.insert(0, 'src'); from adjpoly.cli import run; "
    "r = run(['joined-cycles', '2', '2']); "
    "sys.stdout.write(r.stdout); sys.exit(r.exit_code)"
)


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


class Worker:
    """A workload's process and what its passes measured."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(workdir)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.passes = {False: [], True: []}  # traced -> pass replies
        try:
            self.ready = self.receive()  # sent after the warm-up pass
        except BaseException:
            self.kill()
            raise

    def receive(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        if not readable:
            raise BenchError(f"{self.workload}: no reply within {REPLY_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.workload}: worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def run_pass(self, traced: bool) -> None:
        self.passes[traced].append(self.request(op="pass", trace=traced))

    def stop(self) -> None:
        self.peak_rss_mb = self.request(op="stop")["peak_rss_mb"]
        self.proc.wait(timeout=REPLY_TIMEOUT_S)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_probe() -> tuple[float, float, bool]:
    """Wall time and scaled time of one set-up, and whether its answer was right."""
    before = speed.probe()
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True, text=True,
        timeout=REPLY_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    ok = done.returncode == 0 and done.stdout == workloads.joined_cycles_line(2, 2)
    return elapsed, speed.scaled(elapsed, before, speed.probe()), ok


def measure(workers: list[Worker], seconds: float, trace: bool) -> list[tuple]:
    """Interleave passes over the workers for `seconds` each; return probes."""
    budget = seconds * len(workers)
    probes = []
    round_s = []
    start = time.perf_counter()
    while len(round_s) < MIN_ROUNDS[trace] or (
        time.perf_counter() - start + statistics.median(round_s) <= budget
    ):
        r = len(round_s)
        t0 = time.perf_counter()
        for w in workers[r % len(workers):] + workers[: r % len(workers)]:
            if trace:
                # alternate which side goes first so drift hits both alike
                for traced in ((False, True) if r % 2 == 0 else (True, False)):
                    w.run_pass(traced)
            else:
                w.run_pass(False)
        if not trace:
            probes.append(setup_probe())
        round_s.append(time.perf_counter() - t0)
    while not trace and len(probes) < MIN_PROBES:
        probes.append(setup_probe())
    return probes


def end_to_end(w: Worker, probes) -> tuple[dict, list[str]]:
    """Times scaled to the reference speed (speed.py); medians are taken per
    job across passes first, so a burst of contention moves few samples."""
    passes = w.passes[False]
    job_median = [statistics.median(s) for s in zip(*(p["scaled_s"] for p in passes))]
    deciles = statistics.quantiles(job_median, n=10)
    q1, med, q3 = statistics.quantiles([sum(p["job_s"]) for p in passes], n=4)
    values = {
        "setup_s": statistics.median(scaled for _, scaled, _ in probes),
        "pass_s": sum(job_median),
        "job_s.p50": deciles[4],
        "job_s.p90": deciles[8],
        "peak_rss_mb": w.peak_rss_mb,
    }
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    samples = f"over {len(job_median)} per-job medians ({attempted} job samples)"
    lines = [
        f"  setup_s       {values['setup_s']:.4f} s   median of {len(probes)} fresh "
        f"interpreters running `joined-cycles 2 2`; wall "
        f"{statistics.median(wall for wall, _, _ in probes):.4f} s",
        f"  pass_s        {values['pass_s']:.4f} s   sum of per-job medians; wall "
        f"median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} over {len(passes)} passes",
        f"  job_s.p50     {values['job_s.p50']:.4f} s   {samples}",
        f"  job_s.p90     {values['job_s.p90']:.4f} s   {samples}",
    ]
    if w.workload in FACET_WORKLOADS:
        lines.append(
            f"  facets_per_s  {w.ready['facets'] / values['pass_s']:.1f} facets/s   "
            f"{w.ready['facets']} facets per pass"
        )
    lines += [
        f"  peak_rss_mb   {w.peak_rss_mb:.1f} MB",
        f"  failed_frac   {failed / attempted:.4f} ratio   {failed} of {attempted} jobs",
    ]
    return values, lines


def per_layer(w: Worker) -> tuple[dict, list[str], list[str]]:
    """All per-layer metrics of the traced passes, report lines and errors."""
    traces = [p["trace"] for p in w.passes[True]]
    errors = []
    exact = [(t["calls"], t["counts"]) for t in traces]
    if any(e != exact[0] for e in exact):
        errors.append(f"{w.workload}: call or work counts differ between traced passes")
    for t in traces:
        idle = [b for b in spans.EXERCISED[w.workload] if not t["binding_calls"].get(b)]
        if idle:
            errors.append(f"{w.workload}: wrappers recorded no calls: {', '.join(idle)}")
            break
    calls, counts = exact[0]

    values = {}
    names = [f"{home}.{func}" for home, func in spans.TARGETS] + [spans.HARNESS]
    for name in names:
        self_ns = statistics.median(t["self_ns"].get(name, 0) for t in traces)
        values[f"{name}.self_s"] = self_ns / 1e9
        values[f"{name}.calls"] = calls.get(name, 0)
    scanned = counts.get("graphs.bipartitions_scanned", 0)
    found = counts.get("graphs.subgraphs_found", 0)
    verify_calls = calls.get("geometry.verify_facet", 0)
    solve_calls = calls.get("linalg.solve_neg_ones", 0)
    if any(sum(t["self_ns"].values()) != t["root_ns"] for t in traces):
        errors.append(f"{w.workload}: self times do not add up to the traced pass")
    traced_s = statistics.median(t["root_ns"] for t in traces) / 1e9
    # traced and untraced passes of one round ran back to back, so their
    # ratio is taken per round, before host speed can drift
    overhead = statistics.median(
        sum(t["job_s"]) / sum(u["job_s"]) for t, u in zip(w.passes[True], w.passes[False])
    ) - 1
    values.update({
        "graphs.bipartitions_scanned": scanned,
        "graphs.subgraphs_found": found,
        "graphs.scan_accept_ratio": found / scanned if scanned else 0,
        "graphs.scan_ns_per_bipartition": (
            values["graphs.enumerate_maximal_bipartite_subgraphs.self_s"] * 1e9 / scanned
            if scanned else 0
        ),
        "facets.sign_vectors_found": counts.get("facets.sign_vectors_found", 0),
        "geometry.verify_facet.us_per_facet": (
            values["geometry.verify_facet.self_s"] * 1e6 / verify_calls if verify_calls else 0
        ),
        "geometry.oracle_hit_ratio": (
            counts.get("geometry.oracle_facets", 0) / solve_calls if solve_calls else 0
        ),
        "cli.out_bytes": counts.get("cli.out_bytes", 0),
        "cli.facets_emitted": w.ready["facets"],
        "trace.pass_s": traced_s,
        "trace.overhead_frac": overhead,
    })
    lines = [f"  {name:<56} {value:.6g}" for name, value in values.items()]
    lines.append(
        f"  in each of {len(traces)} traced passes the self times add up to its "
        f"pass_s; {len(w.passes[False])} untraced passes interleaved"
    )
    return values, lines, errors


def run(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    workers: list[Worker] = []
    try:
        for name in names:
            workers.append(Worker(name, seed, workdir))
        probes = measure(workers, seconds, trace)
        for w in workers:
            w.stop()
    finally:
        for w in workers:
            w.kill()
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    errors = [e for w in workers for e in w.ready["errors"]]
    if not all(ok for _, _, ok in probes):
        errors.append("set-up probe `joined-cycles 2 2` failed or printed a wrong answer")
    metrics = {}
    attempted = failed = 0
    for w in workers:
        passes = w.passes[False] + w.passes[True]
        attempted += sum(len(p["job_s"]) for p in passes)
        failed += sum(p["failed"] for p in passes)
        if trace:
            values, lines, trace_errors = per_layer(w)
            errors += trace_errors
            units = PER_LAYER
        else:
            values, lines = end_to_end(w, probes)
            units = END_TO_END
        print(f"workload {w.workload} (seed {seed}, {'traced' if trace else 'untraced'}):")
        print("\n".join(lines))
        prefix = f"{w.workload}." if len(workers) > 1 else ""
        metrics.update(
            {prefix + k: {"value": values[k], "unit": unit} for k, unit in units.items()}
        )
    for error in errors:
        print(f"check failed: {error}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "adjpoly" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        return run(names, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
