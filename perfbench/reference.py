"""Reference report values and seed-range evidence for the benchmark.

    python3 perfbench/reference.py write --seeds 0-23
        one gated operation per workload and seed; stores every report's
        check values in perfbench/reference.json, which run.py compares
        against for those seeds

    python3 perfbench/reference.py sweep
        gated operations at the ends and on a grid of the seed-varied
        inputs (datum amplitude, audit slice v); prints the largest
        value/tolerance ratio of every report

Run from the root of a checkout, on the commit whose values are to become
the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run as bench
import workloads as wl
from calibration import Calibrator, Clock
from prove import seeds_arg
from tracing import Capture

REFERENCE = os.path.join(bench.ROOT, "perfbench", "reference.json")
REL_TOL = 1e-12


def load_vm():
    sys.path.insert(0, os.path.join(bench.ROOT, "src"))
    import vmcone
    import vmcone.cli
    return vmcone


def gated_op(vm, capture, workload, inputs):
    os.makedirs(bench.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ref-", dir=bench.WORK_DIR)
    capture.clear()
    op = wl.Operation(vm.cli, vm.io_utils, capture, None, workdir,
                      Clock(Calibrator()))
    try:
        workload.run_op(op, inputs)
    finally:
        capture.clear()
        shutil.rmtree(workdir, ignore_errors=True)
    return op


def worst_ratios(op) -> str:
    """Largest value/tolerance ratio in each report of an operation."""
    parts = []
    for kind, doc in op.reports.items():
        ratio, name = max((c["value"] / c["tolerance"] if c["tolerance"] > 0
                           else (0.0 if c["value"] <= 0 else float("inf")),
                           c["name"]) for c in doc["checks"])
        parts.append(f"{kind} worst {name} at {ratio:.3f}")
    return "; ".join(parts)


def cmd_write(args, vm, capture):
    doc = {"rel_tol": REL_TOL, "seeds": {}}
    for name in args.workloads:
        workload = wl.WORKLOADS[name]
        for seed in args.seeds:
            op = gated_op(vm, capture, workload, wl.seed_inputs(seed))
            print(f"{name} seed {seed}: failures {op.failures}; "
                  f"{worst_ratios(op)} of tolerance", flush=True)
            if op.failures:
                sys.exit(f"seed {seed} of {name} fails the gate; no reference written")
            doc["seeds"].setdefault(name, {})[str(seed)] = {
                kind: wl.report_values(rep) for kind, rep in op.reports.items()}
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_sweep(args, vm, capture):
    lo_a, hi_a = wl.AMPLITUDE_RANGE
    lo_v, hi_v = wl.AUDIT_V_RANGE
    amps = [lo_a + (hi_a - lo_a) * i / 20 for i in range(21)]
    vs = [lo_v + (hi_v - lo_v) * i / 4 for i in range(5)]
    cases = [("desk_run", a, 0.0, 0) for a in (lo_a, 0.5 * (lo_a + hi_a), hi_a)]
    cases += [("artifact_roundtrip", a, v, 0) for a in (lo_a, hi_a) for v in vs]
    cases += [("artifact_roundtrip", amps[i], vs[i % 5], 0) for i in range(1, 20)]
    cases += [("jacobian_orbits", 0.0, 0.0, s) for s in range(32)]
    for name, a, v, s in cases:
        if name not in args.workloads:
            continue
        inputs = {"seed": None, "amplitude": a, "audit_v": v, "orbit_seed": s}
        op = gated_op(vm, capture, wl.WORKLOADS[name], inputs)
        print(f"{name} amplitude {a:g} audit v {v:g} orbit seed {s}: "
              f"{'FAIL ' + str(op.failures) if op.failures else 'pass'}; "
              f"{worst_ratios(op)} of tolerance", flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("action", choices=("write", "sweep"))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-23"))
    p.add_argument("--workloads", nargs="+", default=sorted(wl.WORKLOADS))
    args = p.parse_args()
    vm = load_vm()
    capture = Capture()
    bench.install_capture(capture, vm)
    (cmd_write if args.action == "write" else cmd_sweep)(args, vm, capture)


if __name__ == "__main__":
    main()
