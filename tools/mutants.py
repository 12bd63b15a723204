"""Mutation gate: apply each listed mutant to a copy of the repo and run Tier-1.

Run from the root of a checkout:

    python3 tools/mutants.py

Each entry of tools/mutants.json names a file, an exact old text, the new
text that replaces it, and an expectation:

- "killed": some Tier-1 test must fail on the mutant;
- "equivalent", with a "reason": the mutant keeps every behaviour the
  tests can see, so no test may fail on it;
- "open": a known survivor, reported but not gated.

The tree is copied once to a temporary directory.  For each mutant the
file is rewritten there, `python -m pytest -x -q` runs with that copy's
src/ first on the path, and the file is restored.  tests/test_mutants.py
is left out of those runs: it checks this list's anchors, so it would
fail on every mutant.  The exit code is 1 if an anchor does not occur
exactly once in its file, a "killed" mutant survives, an "equivalent"
one is killed, or pytest ends in any other way than pass or fail (a
collection error, or a run past TIMEOUT_S); else 0.  Only the standard
library is used.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = Path(__file__).resolve().with_suffix(".json")
EXPECTATIONS = ("killed", "equivalent", "open")
TIMEOUT_S = 900  # per mutant; a whole suite run takes under a minute
# left behind by builds and test runs; nothing the tests read
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_work", "*.egg-info")
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def load(path: Path = LIST) -> list[dict]:
    """The mutant list, each entry checked for its keys and expectation."""
    mutants = json.loads(path.read_text(encoding="utf-8"))
    names = set()
    for m in mutants:
        missing = {"name", "file", "old", "new", "expect"} - m.keys()
        if missing:
            raise ValueError(f"mutant {m.get('name')!r} lacks {sorted(missing)}")
        if m["expect"] not in EXPECTATIONS:
            raise ValueError(f"mutant {m['name']!r}: expect is {m['expect']!r}")
        if m["expect"] == "equivalent" and not m.get("reason"):
            raise ValueError(f"equivalent mutant {m['name']!r} gives no reason")
        if m["name"] in names:
            raise ValueError(f"mutant name {m['name']!r} is used twice")
        names.add(m["name"])
    return mutants


def anchor_problems(root: Path, mutants: list[dict]) -> list[str]:
    """One line per mutant whose old text is not in its file exactly once."""
    problems = []
    for m in mutants:
        path = root / m["file"]
        count = path.read_text(encoding="utf-8").count(m["old"]) if path.is_file() else 0
        if count != 1 or m["old"] == m["new"]:
            problems.append(f"{m['name']}: anchor occurs {count} times in {m['file']}")
    return problems


def run_one(copy: Path, m: dict) -> tuple[str, str]:
    """Apply m in copy, run the tests, restore the file; (outcome, detail).

    outcome is "killed", "survived", or "error" for any other end.
    """
    path = copy / m["file"]
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(m["old"], m["new"]), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--ignore", str(Path("tests", "test_mutants.py")),
    ]
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "error", f"no result within {TIMEOUT_S} s"
    finally:
        path.write_text(original, encoding="utf-8")
    if done.returncode == 0:
        return "survived", ""
    failure = FIRST_FAILURE.search(done.stdout)
    if done.returncode == 1 and failure:
        return "killed", failure.group(1)
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return "error", f"pytest exit {done.returncode}: {' '.join(tail)}"


def main() -> int:
    mutants = load()
    problems = anchor_problems(ROOT, mutants)
    for line in problems:
        print(f"anchor   {line}")
    if problems:
        return 1

    failures = 0
    with tempfile.TemporaryDirectory(prefix="adjpoly-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        for m in mutants:
            start = time.perf_counter()
            outcome, detail = run_one(copy, m)
            seconds = time.perf_counter() - start
            wrong = outcome == "error" or (
                {"killed": "survived", "equivalent": "killed"}.get(m["expect"]) == outcome
            )
            failures += wrong
            flag = "FAIL" if wrong else "ok"
            print(
                f"{flag:4} {outcome:8} (expect {m['expect']}) {m['name']} "
                f"[{seconds:.0f} s] {detail}".rstrip(),
                flush=True,
            )
    print(f"{len(mutants)} mutants, {failures} not as listed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
