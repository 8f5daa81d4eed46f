"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run it from the repository root. It imports the package from ``src/``, times
set-up as fresh interpreters importing ``phasematch.cli``, runs the workload
in a fresh child process (bench/worker.py) with BLAS and OpenMP pinned to
BLAS_THREADS threads, writes a results file under bench/results/, prints the
metrics by name and unit, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (bench/README.md).
Times are scaled to a reference host speed (calibrate.py, setup_seconds);
the results file keeps the unscaled figures next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Threads BLAS and OpenMP may use, here and in the workload's process; one
#: keeps timings steady on a shared machine and is never more than nproc.
BLAS_THREADS = 1
# The child processes inherit them through child_env().
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "verify", "oracle-scale", "long-trajectory")
#: Fresh interpreters timed for setup_s, each next to one of the set-up kernel.
SETUP_SAMPLES = 10
#: The set-up kernel: a fresh interpreter importing numpy. It is fixed and
#: owned by the benchmark, and does the kind of work set-up does (process
#: start, imports read from disk), so its fastest time follows host speed.
SETUP_KERNEL = "import numpy"
#: The set-up kernel's fastest time on the machine of calibrate.REFERENCE_S.
SETUP_REFERENCE_S = 0.105
#: The tail is the latency with this many samples beyond it.
TAIL_BEYOND = 10
#: The whole run, child included, must end within this many seconds.
DEADLINE_S = 170


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(env):
    """Seconds from a fresh interpreter to ``import phasematch.cli`` done.

    Returns the samples and, timed alternately with them, the set-up
    kernel's samples.
    """
    cmd = [sys.executable, "-c", "import phasematch.cli"]
    kernel = [sys.executable, "-c", SETUP_KERNEL]
    # The first import writes the bytecode caches; users pay that once, not per call.
    subprocess.run(cmd, env=env, check=True)
    subprocess.run(kernel, env=env, check=True)
    samples, kernel_samples = [], []
    for _ in range(SETUP_SAMPLES):
        for argv, times in ((kernel, kernel_samples), (cmd, samples)):
            # No timeout: with one, subprocess polls for the exit in steps of
            # up to 50 ms, which would quantize the samples.
            start = time.perf_counter()
            subprocess.run(argv, env=env, check=True)
            times.append(time.perf_counter() - start)
    return samples, kernel_samples


def setup_seconds(samples, kernel_samples):
    """The fastest set-up, scaled by the set-up kernel's fastest time.

    A floor statistic: slow samples are the host's stalls, not the program's.
    """
    return min(samples) * SETUP_REFERENCE_S / min(kernel_samples)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def latency_tail(latencies):
    """The latency with TAIL_BEYOND samples beyond it, its percentile, the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def timings(latencies, setup_s, peak_rss_mb):
    tail, percentile, n = latency_tail(latencies)
    metrics = {
        "items_per_s": {"value": len(latencies) / sum(latencies), "unit": "items/s"},
        "item_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "item_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return metrics, percentile, n


def end_to_end(raw, setup_samples, kernel_samples):
    latencies = [x * s for x, s in zip(raw["latencies_s"], raw["scales"])]
    setup_s = setup_seconds(setup_samples, kernel_samples)
    metrics, percentile, n = timings(latencies, setup_s, raw["peak_rss_mb"])
    unscaled, _, _ = timings(raw["latencies_s"], min(setup_samples), raw["peak_rss_mb"])
    summary = {
        "item_latency_ms": quartiles([x * 1e3 for x in latencies]),
        "item_tail": {"percentile": percentile, "samples": n, "beyond": TAIL_BEYOND},
        "setup_samples_s": quartiles(setup_samples),
        "setup_kernel_s": quartiles(kernel_samples),
        "measured_s": sum(latencies),
        "cycles": raw["cycles"],
        "host_scale": quartiles(raw["scales"]),
        "unscaled": unscaled,
    }
    notes = {
        "item_tail_ms": f"p{percentile:.1f} of {n} items, {TAIL_BEYOND} beyond",
        "setup_s": f"fastest of {len(setup_samples)}, scaled by the set-up kernel",
    }
    return metrics, summary, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phasematch" / "__init__.py").is_file():
        print(f"bench: no phasematch package under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = child_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup = None if args.trace else measure_setup(env)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.CalledProcessError as exc:
        print(f"bench: importing phasematch failed with exit code {exc.returncode}",
              file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print(f"bench: no result within {DEADLINE_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 2
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = raw["metrics"]
        summary = {"cycles": raw["cycles"], "untraced_s": raw["untraced_s"],
                   "traced_s": raw["traced_s"], "spans": raw["spans"]}
        notes = {}
    else:
        metrics, summary, notes = end_to_end(raw, *setup)
    attempted, failed = raw["attempted"], raw["failed"]
    env_record = dict(raw["env"], blas_threads=BLAS_THREADS, commit=commit())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "failures": raw["failures"],
        "metrics": metrics, "summary": summary,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {env_record['commit'][:12]}  blas_threads {BLAS_THREADS}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(f"  {'fail_frac':<40} {failed / attempted:>16.6g} ratio  ({failed} of {attempted} items)")
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
