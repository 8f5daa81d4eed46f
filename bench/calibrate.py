"""Host-speed calibration: a fixed kernel timed next to the workload.

On a shared machine the speed of the CPU this process gets drifts by tens
of percent over seconds to minutes, for reasons outside the program. Every
reported item time is therefore scaled to a reference speed:

    reported = measured * reference_s / kernel_s

where ``kernel_s`` is the mean of the kernel's times measured right before
and right after the item. The kernel is benchmark code, never package code,
so no change to the program can move it. Contention slows the three kinds
of work the package does by different amounts, so the kernel has a part for
each: interpreted complex arithmetic, many small numpy calls, and dense
complex products. A workload is scaled by the parts that follow its speed
best (``workloads.KERNELS``; the comparison is in bench/README.md).
"""

from __future__ import annotations

import time

import numpy as np

#: Each part's fastest time on the 2-vCPU Xeon VM (2.0 GHz) where the first
#: baseline was recorded. Scaled times read as seconds on that machine at
#: its fastest.
REFERENCE_S = {"interpreted": 0.0022, "small-calls": 0.0019, "dense": 0.0052}
#: Every part of the kernel.
ALL = tuple(REFERENCE_S)
#: Back-to-back runs of each part per measurement; the fastest is taken, so
#: one interruption does not skew the scale.
REPEATS = 3

_rng = np.random.default_rng(0)
_DENSE = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))
_VECTORS = [_rng.standard_normal(64) + 1j * _rng.standard_normal(64) for _ in range(4)]


def _interpreted():
    a, b = 1 + 0j, 0j
    alpha, beta, lam, delta = 0.99 + 0.01j, 0.1j, -0.1j, 0.98 + 0.02j
    for _ in range(12_000):
        a, b = alpha * a + lam * b, beta * a + delta * b
    return a, b


def _small_calls():
    """Gram systems of four short vectors, as a decomposition step builds them."""
    for _ in range(60):
        gram = np.array([[v.conj() @ w for w in _VECTORS] for v in _VECTORS])
        x = np.linalg.solve(gram, np.array([v.conj() @ _VECTORS[0] for v in _VECTORS]))
    return x


def _dense():
    x = _DENSE @ _DENSE
    return x @ _DENSE


_PARTS = {"interpreted": _interpreted, "small-calls": _small_calls, "dense": _dense}


def kernel_seconds(parts):
    """The kernel's time: the sum over ``parts`` of the fastest of REPEATS runs."""
    total = 0.0
    for name in parts:
        part = _PARTS[name]
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def scale(parts, before, after):
    """Factor that turns a time measured between two timings of the kernel
    made of ``parts`` into a reference-speed time."""
    return 2 * sum(REFERENCE_S[name] for name in parts) / (before + after)
