"""Spread and repeatability of benchmark results.

    python3 perfbench/prove.py --set A --seeds 0-9     # runs, records
    python3 perfbench/compare.py .perfbench_out/sets/A [.perfbench_out/sets/B]

For each workload and end-to-end metric of one set: median and the
quartile spread (q3 - q1) / median over the runs, with statistics.quantiles
(n=4), against the metric's bound; a spread over a third of the bound is
flagged, one over the bound fails (setup_s is exempt from the spread rule).
Given a second set: each median may not be worse than the first set's by
more than the bound, and the exact per-operation counts of the traced runs
must be identical for every workload and seed present in both.  Exits 1 on
any failure.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = [load_set(d) for d in argv[1:3]]
    if not sets or not sets[0]:
        sys.exit(__doc__)
    problems = []
    for label, runs in zip("AB", sets):
        for r in runs:
            if not r["correct"]:
                problems.append(f"set {label}: {r['workload']} seed {r['seed']} "
                                f"trace {r['trace']} not correct")
    medians = []
    for label, runs in zip("AB", sets):
        meds = {}
        for w in spec["workloads"]:
            rs = [r for r in runs if r["workload"] == w["name"] and r["trace"] == 0]
            if not rs:
                continue
            for m in spec["end_to_end"]:
                vals = [r["metrics"][m["name"]] for r in rs]
                med, sp = spread(vals)
                meds[(w["name"], m["name"])] = med
                flag = ""
                if m["name"] != "setup_s" and sp > m["bound"]:
                    flag = "  FAIL: spread over bound"
                    problems.append(f"set {label}: {w['name']} {m['name']} spread {sp:.4f}")
                elif m["name"] != "setup_s" and sp > m["bound"] / 3:
                    flag = "  (spread over a third of the bound)"
                print(f"set {label} {w['name']:19s} {m['name']:21s} n={len(vals):2d} "
                      f"median {med:.6g} {m['unit']}  spread {sp:.4f} "
                      f"(bound {m['bound']}){flag}")
        medians.append(meds)
    if len(sets) == 2:
        for m in spec["end_to_end"]:
            for w in spec["workloads"]:
                key = (w["name"], m["name"])
                if key not in medians[0] or key not in medians[1]:
                    continue
                a, b = medians[0][key], medians[1][key]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                ok = worse <= m["bound"]
                print(f"B vs A {w['name']:19s} {m['name']:21s} {a:.6g} -> {b:.6g} "
                      f"worse by {worse:+.4f} (bound {m['bound']}) "
                      f"{'ok' if ok else 'FAIL'}")
                if not ok:
                    problems.append(f"B vs A: {key} worse by {worse:.4f}")
        exact = [{(r["workload"], r["seed"]): r["exact_counts"]
                  for r in runs if r["trace"] == 1} for runs in sets]
        for key in sorted(set(exact[0]) & set(exact[1])):
            same = exact[0][key] == exact[1][key]
            print(f"exact counts {key[0]} seed {key[1]}: "
                  f"{'identical' if same else 'DIFFER'} {exact[1][key]}")
            if not same:
                problems.append(f"exact counts differ for {key}: "
                                f"{exact[0][key]} vs {exact[1][key]}")
    for p in problems:
        print("problem:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
