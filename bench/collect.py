"""Repeat ``run.py`` over several seeds and summarise the spread.

    python3 bench/collect.py --workload grid-pcf --seeds 1-10 [--trace 0]
        [--seconds 20] [--out FILE]

For every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the interquartile distance as a share of the
median, next to the bound from ``BENCHMARK.json``. Runs go one after another,
never in parallel, so they do not disturb each other's timings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = args.seconds or declared["run_seconds"]
    bounds = {m["name"]: m.get("bound")
              for m in declared["end_to_end"] + declared["per_layer"]}
    runs = []
    for seed in seed_list(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, time.monotonic() - t0
        runs.append(result)
        print(f"seed {seed}: exit {proc.returncode}, {result['wall_s']:.1f} s, "
              f"correct {result['correct']}, {result['failed']}/"
              f"{result['attempted']} failed", file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        stats = summarise([r["metrics"][name]["value"] for r in runs])
        stats["bound"] = bounds.get(name)
        summary[name] = stats
        spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
        print(f"{name:36s} median {stats['median']:.6g}  spread {spread}"
              f"  bound {stats['bound']}")
    if args.out:
        from run import provenance

        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": seconds, "provenance": provenance(),
                       "runs": runs, "summary": summary}, fh, indent=2)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
