"""One workload's process: runs passes over its jobs on request.

Usage: worker.py WORKLOAD SEED WORKDIR.  The worker imports the package
from the checkout's src/, writes the workload's input files into WORKDIR,
runs an untimed warm-up pass that checks every output in full, and then
answers one JSON line per request read from stdin:

  {"op": "pass", "trace": false|true}  run one timed pass
  {"op": "stop"}                       report peak RSS and exit

A timed pass checks each job by its exit code and by comparing its stdout
with the warm-up pass byte for byte, so a timed pass pays only for hashing.
An untraced pass also runs the host speed probe (speed.py) before the
first job and after each job, to scale each job's time.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def warm_up(cli, jobs) -> dict:
    """Run and fully check every job once; remember each correct output."""
    errors = []
    facets = 0
    for job in jobs:
        result = cli.run(job.argv)
        job.digest = _digest(result.stdout)
        try:
            if result.exit_code != 0:
                raise workloads.CheckFailed(
                    f"{' '.join(job.argv)}: exit {result.exit_code}: {result.stderr.strip()}"
                )
            job.facets = workloads.check(job, result.stdout)
            job.ok = True
            facets += job.facets
        except workloads.CheckFailed as exc:
            errors.append(str(exc))
    return {
        "jobs": len(jobs),
        "facets": facets,
        "errors": errors,
    }


def run_pass(cli, jobs, tracer: spans.Tracer | None) -> dict:
    """Time every job once; an untraced pass also probes host speed between jobs."""
    job_s = []
    scaled_s = []
    failed = 0
    if tracer is not None:
        tracer.install()
        tracer.open(spans.HARNESS)
    else:
        before = speed.probe()
    for job in jobs:
        start = time.perf_counter()
        result = cli.run(job.argv)
        elapsed = time.perf_counter() - start
        job_s.append(elapsed)
        if tracer is None:
            after = speed.probe()
            scaled_s.append(speed.scaled(elapsed, before, after))
            before = after
        if result.exit_code != 0 or not job.ok or _digest(result.stdout) != job.digest:
            failed += 1
    reply = {"job_s": job_s, "failed": failed}
    if tracer is None:
        reply["scaled_s"] = scaled_s
    else:
        tracer.close()
        tracer.uninstall()
        reply["trace"] = tracer.take()
    return reply


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from adjpoly import cli

    if Path(cli.__file__).resolve().parent != src / "adjpoly":
        raise SystemExit(f"imported adjpoly from {cli.__file__}, not from {src}")
    jobs = workloads.build(workload, seed, workdir)

    def reply(doc: dict) -> None:
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    reply(warm_up(cli, jobs))
    tracer = spans.Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "stop":
            break
        reply(run_pass(cli, jobs, tracer if request["trace"] else None))
    reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})


if __name__ == "__main__":
    main()
