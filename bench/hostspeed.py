"""Host speed: a fixed calibration kernel, timed around every operation.

The 2-CPU host this benchmark was built on shares its cores with other
machines' work, and runs the same code up to half again slower for
seconds to minutes at a time (one process took 1.8 s for 31 warm
queries, the next 2.6 s).  Such a slowdown stretches everything that
runs on the CPU alike, so the benchmark times a small kernel of its own
— fixed, not part of the program, a mix of interpreter work and NumPy
like the program's — just before and just after each operation it
times, while the program is idle, and reports the operation at the
host's reference speed::

    seconds * REFERENCE_S / kernel_s

where ``kernel_s`` is the kernel's time around the operation and
``REFERENCE_S`` the kernel's time on the host when it is not slowed.
A change to the program moves this figure as it moves wall time; a
busy neighbour does not.  ``host.kernel_us`` (per-layer) reports the
kernel's own median time, the host's speed during the run.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: The kernel's time on the reference host (2-CPU Xeon at 2.1 GHz,
#: Python 3.11, quiet).  Only a unit: every run divides by the same one.
REFERENCE_S = 0.0003
#: Kernel runs per sample; a sample is their median.
REPEATS = 3

_KEYS = [f"key{i}" for i in range(400)]
_VALUES = np.random.default_rng(0).random(4000)


def _kernel() -> int:
    counts: dict[str, int] = {}
    for i, key in enumerate(_KEYS):
        counts[key] = counts.get(key, 0) + i % 7
    ordered = sorted((value, key) for key, value in counts.items())
    total = 0
    for value, key in ordered:
        total += value * len(key)
    order = np.argsort(_VALUES)
    return total + int(order[0])


def sample(repeats: int = REPEATS) -> float:
    """The kernel's time now: the median of ``repeats`` runs.

    The collector is off while the kernel runs: a collection there would
    cost time in proportion to the program's heap, and the kernel is to
    time the host, not the program.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def at_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at the
    host's reference speed."""
    return seconds * REFERENCE_S / kernel_s
