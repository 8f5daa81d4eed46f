"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads sweep,verify] [--trace 0]
                            [--seconds 15] [--out bench/trajectory/<label>.json]

For every workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median, next to a third of the metric's bound in
BENCHMARK.json (a run set is steady when the spread stays below it). With
``--out`` it also writes those figures, with every value and the
environment, as one point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text):
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--seconds", type=int, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}
    seeds = parse_seeds(args.seeds)

    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                              if k in bounds and bounds[k] is not None)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
            if "env" not in doc:
                record = HERE / "results" / f"{workload}-seed{seed}-trace{args.trace}.json"
                doc["env"] = json.loads(record.read_text())["env"]
        summary = {"seeds": seeds, "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = dict(spread(values), unit=metric["unit"], values=values)
            summary["metrics"][name] = stats
            bound = bounds.get(name)
            if bound is None:
                continue
            ok = stats["spread"] < bound / 3
            steady = steady and ok
            print(f"  {workload:<16} {name:<14} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f}) {'ok' if ok else 'WIDE'}")
        steady = steady and summary["correct"]
        doc["workloads"][workload] = summary
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
