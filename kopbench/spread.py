#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
named workload and prints, per metric, the median and the distance
between the first and third quartile as a share of the median (the
figure each metric's bound is checked against), next to that bound.

    python3 kopbench/spread.py --workloads tx fwd --seeds 10 --seconds 10

Run it from the repository root after one build. Exits 1 if any run
reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    notes = [l for l in lines if l.startswith("note ")]
    return json.loads(lines[-1]), notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--notes", action="store_true", help="print each run's notes")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            res, notes = run_once(bench["command"], w, seed, seconds, a.trace)
            ok &= res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if a.notes:
                for n in notes:
                    print(f"  {w} seed={seed} {n}")
        print(f"== {w} ({a.seeds} seeds, {seconds} s)")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:16} median {med:14.6g}  iqr/median {spread:7.4f}  {flag}")
            print(f"  {'':16} {' '.join(f'{x:.6g}' for x in v)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
