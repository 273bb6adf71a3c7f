"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Each run is a fresh ``run.py`` process.  For every metric the report gives
the median over the seeds and the spread, the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median.  Without ``--workload`` every workload in BENCHMARK.json runs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from run import environment

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seeds": args.seeds, "seconds": bench["run_seconds"],
              "environment": dict(environment(), cpu_model=cpu_model()),
              "workloads": {}}
    for name in names:
        runs, walls = [], []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            t0 = perf_counter()
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(perf_counter() - t0)
            if r.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (name, seed, r.stderr[-2000:]))
            line = json.loads(r.stdout.strip().splitlines()[-1])
            runs.append(line)
            print("%s seed %d: %.1fs correct=%s attempted=%d %s" % (
                name, seed, walls[-1], line["correct"], line["attempted"],
                " ".join("%s=%.6g" % (k, v["value"])
                         for k, v in line["metrics"].items())), flush=True)
        summary = {"correct": all(x["correct"] for x in runs),
                   "attempted": [x["attempted"] for x in runs],
                   "run_wall_s": walls, "metrics": {}}
        for metric in runs[0]["metrics"]:
            values = [x["metrics"][metric]["value"] for x in runs]
            med, sp = spread(values)
            summary["metrics"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": med,
                "spread": sp, "bound": bounds.get(metric), "values": values}
            if metric in bounds:
                flag = "" if sp is None or sp < bounds[metric] / 3 else "  <-- above bound/3"
                print("  %-14s median %-12.6g spread %s%s" % (
                    metric, med, "n/a" if sp is None else "%.4f" % sp, flag))
        report["workloads"][name] = summary
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
