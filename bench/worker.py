"""Run one workload in this process and print its raw measurements as JSON.

run.py starts this script in a fresh child process with the BLAS thread
count pinned, so that the peak resident set it reports belongs to the
workload alone. It can also be run by hand from the repository root:

    PYTHONPATH=src python3 bench/worker.py --workload verify --seed 1 --seconds 5 --trace 0

Untraced (``--trace 0``): one warm-up cycle, then whole cycles until
``--seconds`` have passed and at least MIN_CYCLES are done; every item's
latency is reported with the host-speed scale measured around it
(calibrate.py). Traced (``--trace 1``): whole cycles for half the time
untraced, then the same cycles again with spans recorded; the per-layer
metrics, the tracing overhead and whether both passes gave identical
outputs are reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import calibrate
import tracing
import workloads

#: Every item kind runs at least this often, so that the latency tail (ten
#: samples beyond it) falls inside the slowest kind, not between kinds.
MIN_CYCLES = 11


def _feed(h, obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for value in obj:
            _feed(h, value)
        h.update(b"]")
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, complex):
        h.update(f"{obj.real.hex()},{obj.imag.hex()}".encode())
    elif isinstance(obj, (str, int, bool)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj}|".encode())
    else:
        raise TypeError(f"cannot fingerprint a {type(obj).__name__}")


def fingerprint(obj):
    """A digest of an item's output that changes with any bit of it."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def run_cycle(workload, kernel, seed, index, failures, digests=None):
    """Run every item of one cycle.

    Returns the item latencies in seconds and, per item, the host-speed
    scale from the calibration kernel made of the parts ``kernel``, timed
    right before and right after it.
    An item that raises, or whose output fails its check, is appended to
    ``failures``; it never stops the run.
    """
    latencies, scales = [], []
    before = calibrate.kernel_seconds(kernel)
    for case in workload(seed, index):
        start = time.perf_counter()
        raised = False
        try:
            out = case.run()
        except Exception:
            raised = True
            failures.append(f"{case.kind} (cycle {index}) raised: "
                            f"{traceback.format_exc(limit=-2).strip()}")
        latencies.append(time.perf_counter() - start)
        after = calibrate.kernel_seconds(kernel)
        scales.append(calibrate.scale(kernel, before, after))
        before = after
        if raised:
            if digests is not None:
                digests.append(None)
            continue
        try:
            case.check(out)
        except workloads.Mismatch as exc:
            failures.append(f"{case.kind} (cycle {index}): {exc}")
        except Exception:
            failures.append(f"{case.kind} (cycle {index}) check raised: "
                            f"{traceback.format_exc(limit=-2).strip()}")
        if digests is not None:
            digests.append(fingerprint(out))
    return latencies, scales


def untraced(name, seed, seconds):
    workload, kernel = workloads.WORKLOADS[name], workloads.KERNELS[name]
    failures = []
    warmup = len(run_cycle(workload, kernel, seed, 0, failures)[0])
    latencies, scales = [], []
    start = time.perf_counter()
    index = 0
    while index < MIN_CYCLES or time.perf_counter() - start < seconds:
        index += 1
        cycle, cycle_scales = run_cycle(workload, kernel, seed, index, failures)
        latencies.extend(cycle)
        scales.extend(cycle_scales)
    return {
        "latencies_s": latencies,
        "scales": scales,
        "attempted": warmup + len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "cycles": index,
    }


def traced(name, seed, seconds):
    workload, kernel = workloads.WORKLOADS[name], workloads.KERNELS[name]
    failures = []
    warmup = len(run_cycle(workload, kernel, seed, 0, failures)[0])
    plain_digests, plain_s = [], 0.0
    start = time.perf_counter()
    cycles = 0
    while cycles < 1 or time.perf_counter() - start < seconds / 2:
        cycles += 1
        cycle, scales = run_cycle(workload, kernel, seed, cycles, failures, plain_digests)
        plain_s += sum(x * s for x, s in zip(cycle, scales))
    tracer = tracing.Tracer()
    traced_digests, traced_s, traced_scales = [], 0.0, []
    tracer.install()
    try:
        for index in range(1, cycles + 1):
            cycle, scales = run_cycle(workload, kernel, seed, index, failures, traced_digests)
            traced_s += sum(x * s for x, s in zip(cycle, scales))
            traced_scales.extend(scales)
    finally:
        tracer.restore()
    differ = [i for i, (a, b) in enumerate(zip(plain_digests, traced_digests)) if a != b]
    if differ or len(plain_digests) != len(traced_digests):
        failures.append(f"traced outputs differ from untraced ones at items {differ[:10]}")
    items = len(plain_digests)
    metrics, silent = tracing.layer_metrics(
        tracer.spans, name, cycles, items, statistics.median(traced_scales))
    if silent:
        failures.append(f"no calls recorded on {name} for {', '.join(silent)}")
    metrics["trace.overhead_s"] = {"value": (traced_s - plain_s) / cycles, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": (traced_s - plain_s) / plain_s, "unit": "ratio"}
    return {
        "metrics": metrics,
        "attempted": warmup + 2 * items,
        "failed": len(failures),
        "failures": failures[:10],
        "cycles": cycles,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": tracer.spans,
    }


def environment():
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = traced if args.trace else untraced
    result = run(args.workload, args.seed, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
