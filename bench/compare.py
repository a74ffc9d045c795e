#!/usr/bin/env python3
"""Compare a change with its parent from the committed benchmark trajectory.

Reads bench/trajectory.jsonl (one kopbench run per line, format in
EXPERIMENTS.md, "Benchmark trajectory") and, for one parent revision
REV and its change `REV+`, prints per workload, trace mode and run
length:

  * per metric, the median and the first-to-third quartile range of
    each side;
  * pair wins: runs of the two sides with the same seed form a pair,
    and the change wins a pair when its value is better in the
    direction BENCHMARK.json declares;
  * a flag on any median move larger than the metric's bound in
    BENCHMARK.json (`WORSE` or `better`).

    python3 bench/compare.py                 # the last REV with a REV+ partner
    python3 bench/compare.py --rev 8b4f136d3c0e
    python3 bench/compare.py --metrics vm.promoted_ops interp.inline_ratio

By default the metrics are BENCHMARK.json's end-to-end ones plus
`fail_frac` (failed / attempted operations). Traced runs (`--trace 1`)
carry per-layer metrics only; name them with --metrics. Run it from the
repository root. Exits 1 if a flagged median moved the wrong way or a
run reported incorrect output.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def last_pair_rev(runs):
    revs = {r["rev"] for r in runs}
    paired = [r["rev"] for r in runs if r["rev"] + "+" in revs]
    if not paired:
        sys.exit("no revision with a `+` partner in the trajectory")
    return paired[-1]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q3


def value(run, name):
    if name == "fail_frac" and "fail_frac" not in run["metrics"]:
        return run["failed"] / run["attempted"] if run["attempted"] else 0.0
    return run["metrics"].get(name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", help="parent revision (default: the last one with a `+` partner)")
    ap.add_argument("--trajectory", default="bench/trajectory.jsonl")
    ap.add_argument("--metrics", nargs="+", help="metric names (default: the end-to-end ones)")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    names = a.metrics or [m["name"] for m in bench["end_to_end"]] + ["fail_frac"]

    runs = load(a.trajectory)
    rev = a.rev or last_pair_rev(runs)
    sides = {rev: "parent", rev + "+": "change"}
    groups = {}
    for r in runs:
        if r["rev"] in sides:
            key = (r["workload"], r["trace"], r["seconds"])
            groups.setdefault(key, {"parent": {}, "change": {}})[sides[r["rev"]]][r["seed"]] = r

    ok = True
    print(f"parent {rev}  change {rev}+")
    for (workload, trace, seconds), g in groups.items():
        par, chg = g["parent"], g["change"]
        ok &= all(r["correct"] for r in list(par.values()) + list(chg.values()))
        seeds = sorted(set(par) & set(chg))
        print(f"== {workload} trace={trace} {seconds} s: {len(par)} parent, "
              f"{len(chg)} change runs, {len(seeds)} pairs")
        for name in names:
            pv = [value(r, name) for r in par.values()]
            cv = [value(r, name) for r in chg.values()]
            pv, cv = [x for x in pv if x is not None], [x for x in cv if x is not None]
            if not pv or not cv:
                continue
            lower = declared.get(name, {}).get("better", "lower") == "lower"
            bound = declared.get(name, {}).get("bound")
            pm, cm = statistics.median(pv), statistics.median(cv)
            (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
            pairs = [(value(par[s], name), value(chg[s], name)) for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            move = (cm - pm) / pm if pm else 0.0
            flag = ""
            if bound is not None and abs(move) > bound:
                worse = move > 0 if lower else move < 0
                flag = "WORSE beyond bound" if worse else "better beyond bound"
                ok &= not worse
            print(f"  {name:22} parent {pm:12.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:12.6g} [{c1:.6g}, {c3:.6g}]  {move:+7.1%}  "
                  f"wins {wins}/{len(pairs)}"
                  + (f"  bound {bound:.2f}" if bound is not None else "")
                  + (f"  {flag}" if flag else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
