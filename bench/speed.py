"""Host speed probe that scales measured times to a fixed reference speed.

On a shared 2-vCPU VM, the program's speed changes by up to 1.8x from
one minute to the next, driven by load outside the process. A fixed,
allocation-heavy pure-Python task slows down in step with the program:
over four minutes of `scan` jobs the ratio of job time to probe time
stayed within 2% while the job times moved by 40%. So a
time t measured between probes that took r1 and r2 is reported as
t * REFERENCE_S / ((r1 + r2) / 2): the time it would take at the speed at
which the probe takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.004  # about the probe's time on that VM when it is quiet
_ITEMS = 4000


def probe() -> float:
    """Wall time of the fixed reference task, in seconds.

    The cyclic garbage collector is paused meanwhile: a collection would
    cost time that depends on what the jobs before left on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        keys = [frozenset((i, i + 1, 3 * i)) for i in range(_ITEMS)]
        table = {tuple(sorted(k)): i for i, k in enumerate(keys)}
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if len(table) != _ITEMS:
        raise RuntimeError("reference task computed a wrong result")
    return elapsed


def scaled(seconds: float, before: float, after: float) -> float:
    """A time measured between two probes, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
