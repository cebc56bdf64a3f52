"""Steadiness check: run one workload N times, each in a fresh process and
with its own seed (1..N), and print each end-to-end metric's spread.

    python3 perfbench/steady.py --workload binary --runs 10

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the interquartile
range as a share of the median and (max - min) / median, next to the
metric's bound from BENCHMARK.json, and flags an interquartile spread at
or above a third of the bound.  Each run lasts BENCHMARK.json's
run_seconds.  ``--out`` stores the same summary, with
every run's values, under the workload's name in a JSON file, keeping the
other workloads already recorded there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median,
            "range_frac": (max(values) - min(values)) / median,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, seconds)
        print("seed %d: %.1f s wall, correct=%s" % (seed, result["wall_s"], result["correct"]),
              flush=True)
        results.append(result)

    summary = {"workload": args.workload, "runs": args.runs, "seconds": seconds,
               "all_correct": all(r["correct"] for r in results),
               "max_wall_s": max(r["wall_s"] for r in results), "metrics": {}}
    print("%-38s %12s %12s %12s %8s %8s %6s" % ("metric", "median", "q1", "q3",
                                                 "iqr/med", "rng/med", "bound"))
    for name, first in results[0]["metrics"].items():
        stats = summarize([r["metrics"][name]["value"] for r in results])
        stats["unit"] = first["unit"]
        summary["metrics"][name] = stats
        bound = bounds[name]
        flag = "  <-- spread >= bound/3" if stats["iqr_frac"] >= bound / 3 else ""
        print("%-38s %12.6g %12.6g %12.6g %8.4f %8.4f %6s%s"
              % (name, stats["median"], stats["q1"], stats["q3"], stats["iqr_frac"],
                 stats["range_frac"], bound, flag))
    print("max wall per run: %.1f s" % summary["max_wall_s"])
    if args.out:
        recorded = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                recorded = json.load(fh)
        recorded[args.workload] = summary
        with open(args.out, "w") as fh:
            json.dump(recorded, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
