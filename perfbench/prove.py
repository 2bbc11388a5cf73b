"""Run the benchmark the way a regression check does: one fresh process per
workload and seed, run_seconds from BENCHMARK.json, results kept per set.

    python3 perfbench/prove.py --set A --seeds 0-9 [--workloads desk_run ...]
        [--trace-seeds 0]

Untraced runs for every seed, traced runs for --trace-seeds.  Records go to
.perfbench_out/sets/<set>/ for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--set", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--trace-seeds", type=seeds_arg, default=[])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args()
    out = os.path.join(ROOT, ".perfbench_out", "sets", args.set)
    plan = [(w, s, 0) for w in args.workloads for s in args.seeds]
    plan += [(w, s, 1) for w in args.workloads for s in args.trace_seeds]
    for w, s, t in plan:
        cmd = spec["command"] + ["--workload", w, "--seed", str(s),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(t), "--results-dir", out]
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
        print(f"{w} seed {s} trace {t}: exit {res.returncode} in "
              f"{time.perf_counter() - t0:.1f} s: {last[:300]}", flush=True)
        if res.returncode != 0:
            print(res.stderr[-2000:], file=sys.stderr)


if __name__ == "__main__":
    main()
