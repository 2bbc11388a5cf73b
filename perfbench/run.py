"""vmcone benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload desk_run --seed 3 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  After set-up and one warm-up operation, operations repeat
until ``--seconds`` have passed, each timed between calibration bursts (see
calibration.py) and each checked by the gate in workloads.py.  ``--trace 0``
prints the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
metrics, taken from traced operations that alternate with untraced ones.
Per-run records, spans and the criterion-13 state go to ``.perfbench_out/``
in the checkout; see README.md.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))
# pin BLAS/OpenMP pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(int(os.environ.get(_var, NPROC)), NPROC))

import argparse
import gc
import hashlib
import inspect
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time

import workloads as wl
from calibration import Calibrator, Clock, speed_factor
from tracing import Capture, Tracer

SETUP_REPEATS = 5
IMPORT_REPEATS = 9
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# per-operation counts that must repeat exactly for the same seed and code
EXACT_COUNTS = ("radial_field.eval_field.calls",
                "characteristics.integrate_reduced.calls",
                "characteristics.char_rhs_cartesian.calls",
                "constraint_audit.audit.calls",
                "cone_diagnostics.functional_series.calls",
                "io_utils.emit_history.bytes")

# span groups whose share of the traced operation shows which layers a
# workload stresses (printed, and kept in the run record)
COVERAGE = {
    "push_and_deposit": ("characteristics.integrate_reduced",
                         "radial_field.deposit"),
    "integrate_reduced": ("characteristics.integrate_reduced",),
    "io_diagnose_audit": ("io_utils.emit_history", "io_utils.load_history",
                        "io_utils.save_grid", "io_utils.load_grid",
                        "report.diagnose_report", "report.audit_report",
                        "constraint_audit.embed_symmetric_solution",
                        "constraint_audit.audit"),
    "flow_jacobian_det": ("characteristics.flow_jacobian_det",),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC, "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def import_seconds():
    """Median wall time of ``import vmcone.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import vmcone.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            fail(f"cannot import vmcone from src/: {res.stderr.strip()[-300:]}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return median(times)


def code_digest():
    """Hash of the program and benchmark sources, keying criterion-13 state."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        top = os.path.join(ROOT, sub)
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# layer hooks

def install_capture(capture, vm):
    capture.add(vm.cone_evolver, "run", "run")
    capture.add(vm.io_utils, "load_history", "load_history")
    capture.add(vm.constraint_audit, "embed_symmetric_solution", "embed")
    capture.add(vm.report, "jacobian_report", "jacobian")


def install_spans(tracer, vm):
    """Spans around each layer's public functions, under the names the
    calling modules bind."""
    ce, io_, rp = vm.cone_evolver, vm.io_utils, vm.report
    cd, ca, ch = vm.cone_diagnostics, vm.constraint_audit, vm.characteristics
    sig_int = inspect.signature(ch.integrate_reduced)

    def particle_stages(args, kwargs, out):
        a = sig_int.bind(*args, **kwargs)
        a.apply_defaults()
        p = a.arguments
        span = abs(p["v_to"] - p["v_from"])
        steps = max(1, math.ceil(span / p["step"] - 1e-12)) if span else 0
        stages = {"rk4": 4, "midpoint": 2}[p["scheme"]]
        return {"particle_stages": len(p["r"]) * steps * stages}

    def emitted_bytes(args, kwargs, out):
        d = args[1] if len(args) > 1 else kwargs["directory"]
        return {"bytes": sum(e.stat().st_size for e in os.scandir(d)
                             if e.is_file())}

    span = tracer.span
    span(ce, "run", "cone_evolver.run")
    span(ce, "sample_particles", "phase_model.sample_particles",
         lambda a, k, out: {"particles": len(out)})
    span(ce, "step", "cone_evolver.step")
    span(ce, "deposit", "radial_field.deposit",
         lambda a, k, out: {"particles": len(a[0])})
    span(ce, "solve_field", "radial_field.solve_field")
    span(ce, "integrate_reduced", "characteristics.integrate_reduced",
         particle_stages)
    span(ce, "eval_field", "radial_field.eval_field")
    span(io_, "emit_history", "io_utils.emit_history", emitted_bytes)
    span(io_, "load_history", "io_utils.load_history")
    span(io_, "save_grid", "io_utils.save_grid")
    span(io_, "load_grid", "io_utils.load_grid")
    span(rp, "diagnose_report", "report.diagnose_report")
    span(cd, "functional_series", "cone_diagnostics.functional_series")
    span(cd, "momentum_support_bound", "cone_diagnostics.momentum_support_bound")
    span(cd, "flux_derivative_checks", "cone_diagnostics.flux_derivative_checks")
    span(ca, "embed_symmetric_solution", "constraint_audit.embed_symmetric_solution")
    span(rp, "audit_report", "report.audit_report")
    span(ca, "audit", "constraint_audit.audit",
         lambda a, k, out: {"nodes": a[0].n ** 3})
    span(rp, "jacobian_report", "report.jacobian_report")
    span(rp, "flow_jacobian_det", "characteristics.flow_jacobian_det")
    span(rp, "phase_divergence_fd", "characteristics.phase_divergence_fd")
    tracer.count(ch, "integrate_cartesian", "characteristics.integrate_cartesian")
    tracer.count(ch, "char_rhs_cartesian", "characteristics.char_rhs_cartesian")


def layer_metrics(tracer, traced_ops, op_walls, op_checks):
    """Per-operation layer figures from the spans of the traced operations."""
    n = max(len(traced_ops), 1)
    ops = set(traced_ops)
    selfs = tracer.self_times()
    agg, per_op, step_ms = {}, {}, []
    for rec, self_s in zip(tracer.spans, selfs):
        name, t0, t1, _, op, work = rec
        if op not in ops:
            continue
        a = agg.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        a["s"] += t1 - t0
        a["self_s"] += self_s
        a["calls"] += 1
        for k, v in (work or {}).items():
            a[k] = a.get(k, 0) + v
            per_op.setdefault((name, k), {}).setdefault(op, 0)
            per_op[(name, k)][op] += v
        per_op.setdefault((name, "calls"), {}).setdefault(op, 0)
        per_op[(name, "calls")][op] += 1
        if name == "cone_evolver.step":
            step_ms.append(1e3 * (t1 - t0))
    for (name, op), c in tracer.counts.items():
        if op in ops:
            agg.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg[name]["calls"] += c
            per_op.setdefault((name, "calls"), {})[op] = c

    def g(name, key="s"):
        return agg.get(name, {}).get(key, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    step_ms.sort()
    m = {
        "phase_model.sample_particles.s": g("phase_model.sample_particles"),
        "phase_model.particles": ratio(g("phase_model.sample_particles", "particles"),
                                       g("phase_model.sample_particles", "calls")),
        "characteristics.integrate_reduced.s": g("characteristics.integrate_reduced"),
        "characteristics.integrate_reduced.calls": g("characteristics.integrate_reduced", "calls"),
        "characteristics.integrate_reduced.ns_per_particle_stage": 1e9 * ratio(
            g("characteristics.integrate_reduced"),
            g("characteristics.integrate_reduced", "particle_stages")),
        "radial_field.eval_field.s": g("radial_field.eval_field"),
        "radial_field.eval_field.calls": g("radial_field.eval_field", "calls"),
        "radial_field.deposit.s": g("radial_field.deposit"),
        "radial_field.deposit.calls": g("radial_field.deposit", "calls"),
        "radial_field.deposit.ns_per_particle": 1e9 * ratio(
            g("radial_field.deposit"), g("radial_field.deposit", "particles")),
        "radial_field.solve_field.s": g("radial_field.solve_field"),
        "radial_field.solve_field.calls": g("radial_field.solve_field", "calls"),
        "cone_evolver.step.s": g("cone_evolver.step"),
        "cone_evolver.step.self_s": g("cone_evolver.step", "self_s"),
        "cone_evolver.step.p50_ms": _pct(step_ms, 50),
        "cone_evolver.step.p99_ms": _pct(step_ms, 99),
        "cone_evolver.run.s": g("cone_evolver.run"),
        "cone_evolver.run.self_s": g("cone_evolver.run", "self_s"),
        "io_utils.emit_history.s": g("io_utils.emit_history"),
        "io_utils.emit_history.bytes": g("io_utils.emit_history", "bytes"),
        "io_utils.load_history.s": g("io_utils.load_history"),
        "io_utils.save_grid.s": g("io_utils.save_grid"),
        "io_utils.load_grid.s": g("io_utils.load_grid"),
        "report.diagnose_report.s": g("report.diagnose_report"),
        "report.diagnose_report.checks_in_memory": median(
            [c.get("diagnose_in_memory", 0) for c in op_checks]),
        "report.diagnose_report.checks_reloaded": median(
            [c.get("diagnose_reloaded", 0) for c in op_checks]),
        "cone_diagnostics.functional_series.s": g("cone_diagnostics.functional_series"),
        "cone_diagnostics.functional_series.calls": g("cone_diagnostics.functional_series", "calls"),
        "cone_diagnostics.momentum_support_bound.s": g("cone_diagnostics.momentum_support_bound"),
        "cone_diagnostics.flux_derivative_checks.s": g("cone_diagnostics.flux_derivative_checks"),
        "constraint_audit.embed_symmetric_solution.s": g("constraint_audit.embed_symmetric_solution"),
        "report.audit_report.s": g("report.audit_report"),
        "constraint_audit.audit.s": g("constraint_audit.audit"),
        "constraint_audit.audit.calls": g("constraint_audit.audit", "calls"),
        "constraint_audit.audit.nodes_per_s": ratio(
            g("constraint_audit.audit", "nodes"), g("constraint_audit.audit")),
        "characteristics.flow_jacobian_det.s": g("characteristics.flow_jacobian_det"),
        "characteristics.flow_jacobian_det.calls": g("characteristics.flow_jacobian_det", "calls"),
        "characteristics.integrate_cartesian.calls": g("characteristics.integrate_cartesian", "calls"),
        "characteristics.char_rhs_cartesian.calls": g("characteristics.char_rhs_cartesian", "calls"),
        "characteristics.phase_divergence_fd.s": g("characteristics.phase_divergence_fd"),
    }
    # exact counts: the value of each traced operation, which must agree
    exact = {}
    for key in EXACT_COUNTS:
        name, field = key.rsplit(".", 1)
        exact[key] = sorted({per_op.get((name, field), {}).get(op, 0)
                             for op in traced_ops})
    coverage = {label: median([tracer.covered(names, op) / op_walls[op]
                               for op in traced_ops])
                for label, names in COVERAGE.items()}
    return m, exact, coverage


def _pct(sorted_xs, q):
    if not sorted_xs:
        return 0.0
    k = (len(sorted_xs) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (k - lo)


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--results-dir", default=os.path.join(OUT_DIR, "results"),
                   help="where the full run record is written")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vmcone", "cli.py")):
        fail(f"no vmcone sources under {os.path.join(ROOT, 'src')}; "
             "run from the root of a vmcone checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    inputs = wl.seed_inputs(args.seed)
    env = environment()

    # set-up is timed between calibration bursts as well: the import in
    # fresh interpreters, then the in-process set-ups
    cal = Calibrator()
    cal.burst()
    import_s = import_seconds()
    import_speed = speed_factor(cal.bursts[-1], cal.burst())
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import vmcone
    import vmcone.cli
    vm = vmcone
    os.makedirs(WORK_DIR, exist_ok=True)

    # set-up: config parse, datum, sampling and grid (or the orbit draw),
    # i.e. everything `run` does before its first step
    setup_times = []
    for _ in range(SETUP_REPEATS):
        d = tempfile.mkdtemp(prefix="setup-", dir=WORK_DIR)
        try:
            t0 = time.perf_counter()
            workload.setup(vm, inputs, d)
            setup_times.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(d, ignore_errors=True)
    setup_speed = speed_factor(cal.bursts[-1], cal.burst())
    setup_s = import_s / import_speed + median(setup_times) / setup_speed

    reference = _load_json(os.path.join(ROOT, "perfbench", "reference.json"))
    ref = reference.get("seeds", {}).get(workload.name, {}).get(str(args.seed))
    state_path = os.path.join(OUT_DIR, "state",
                              f"{workload.name}-seed{args.seed}-{code_digest()}.json")
    previous = _load_json(state_path) or None

    capture = Capture()
    install_capture(capture, vm)
    tracer = Tracer() if args.trace else None
    ops = []
    peak_rss_mb = None

    def run_one(kind):
        nonlocal previous, peak_rss_mb
        op_id = len(ops)
        workdir = tempfile.mkdtemp(prefix="op-", dir=WORK_DIR)
        capture.clear()
        gc.collect()
        root = None
        if kind == "traced":
            tracer.op = op_id
            install_spans(tracer, vm)
            root = tracer.open("operation")
        clock = Clock(cal)
        op = wl.Operation(vm.cli, vm.io_utils, capture,
                          tracer if kind == "traced" else None, workdir, clock)
        try:
            out = workload.run_op(op, inputs)
        except Exception as exc:   # a gate step itself broke: fail the op
            out = None
            op.failures.append(f"benchmark: {exc.__class__.__name__}: {exc}")
        finally:
            clock.split()
            if root is not None:
                tracer.close(root)
                tracer.hooks.restore()
                tracer.op = None
        rec = {"op": op_id, "kind": kind, "wall_s": clock.raw_s,
               "norm_wall_s": clock.norm_s, "speeds": clock.speeds,
               "checks": {k: len(d["checks"]) for k, d in op.reports.items()},
               "values": {k: wl.report_values(d) for k, d in op.reports.items()},
               "failures": op.failures}
        if not op.failures:
            rec["particle_steps"], rec["run_s"], stretch = op.work
            rec["norm_run_s"] = rec["run_s"] / clock.speeds[stretch]
            if out is not None:
                rec["hashes"] = wl.artifact_hashes(out)
        capture.clear()
        shutil.rmtree(workdir, ignore_errors=True)
        if kind == "untraced" and peak_rss_mb is None:
            # high-water mark after set-up, warm-up and one operation: later
            # operations in the same process only add heap fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if kind != "warmup":
            _gate_against(rec, ref, reference.get("rel_tol", 1e-12),
                          previous)
            if not rec["failures"]:
                previous = {k: rec.get(k) for k in ("hashes", "values")}
        ops.append(rec)
        return rec

    run_one("warmup")
    t_start = time.perf_counter()
    while True:
        if args.trace:
            n_tr = sum(o["kind"] == "traced" for o in ops)
            n_un = sum(o["kind"] == "untraced" for o in ops)
            kind = "traced" if n_tr < n_un else "untraced"
        else:
            kind = "untraced"
        run_one(kind)
        done = time.perf_counter() - t_start >= args.seconds
        if args.trace:
            done = done and any(o["kind"] == "traced" for o in ops)
        if done:
            break
    if not os.listdir(WORK_DIR):
        os.rmdir(WORK_DIR)

    timed = [o for o in ops if o["kind"] == "untraced" and not o["failures"]]
    traced = [o for o in ops if o["kind"] == "traced" and not o["failures"]]
    failed = sum(bool(o["failures"]) for o in ops)
    run_failures = []
    if args.trace:
        walls = {o["op"]: o["wall_s"] for o in traced}
        checks = [o["checks"] for o in traced]
        layers, exact, coverage = layer_metrics(
            tracer, [o["op"] for o in traced], walls, checks)
        layers["trace_overhead_frac"] = (
            median([o["norm_wall_s"] for o in traced])
            / median([o["norm_wall_s"] for o in timed]) - 1.0
            if traced and timed else 0.0)
        for key, vals in exact.items():
            if len(vals) > 1:
                run_failures.append(f"{key} differs between operations: {vals}")
        exact = {k: v[0] if v else 0 for k, v in exact.items()}
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        exact, coverage = {}, {}
        e2e = {
            "norm_wall_s": median([o["norm_wall_s"] for o in timed]),
            "setup_s": setup_s,
            "norm_particle_steps_per_s": median(
                [o["particle_steps"] / o["norm_run_s"] for o in timed]),
            "peak_rss_mb": peak_rss_mb,
            "checks_run": median([sum(o["checks"].values()) for o in timed]),
        }
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    if not (timed if not args.trace else traced):
        run_failures.append("no operation passed the gate")
    correct = failed == 0 and not run_failures

    if correct:
        last = [o for o in ops if o["kind"] != "warmup"][-1]
        _write_json(state_path, {k: last.get(k) for k in ("hashes", "values")})
    stamp = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
              "environment": env, "import_s": import_s,
              "import_speed": import_speed, "setup_times": setup_times,
              "setup_speed": setup_speed, "calibration_bursts": cal.bursts,
              "raw_wall_s": median([o["wall_s"] for o in timed]),
              "ops": ops, "metrics": metrics,
              "exact_counts": exact, "coverage": coverage,
              "run_failures": run_failures, "correct": correct}
    _write_json(os.path.join(args.results_dir, stamp + ".json"), record)
    if tracer is not None:
        _write_json(os.path.join(OUT_DIR, "traces", stamp + ".json"),
                    tracer.to_json())

    _summary(record, env, failed, len(ops))
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _gate_against(rec, ref, rel_tol, previous):
    """Reference values (for seeds that have one) and criterion 13: same
    bytes and report values as the previous operation of this seed."""
    if rec["failures"]:
        return
    if ref is not None:
        for kind, want in ref.items():
            bad = wl.reference_mismatches(rec["values"].get(kind, {}), want,
                                          rel_tol)
            if bad:
                rec["failures"].append(f"{kind} vs reference: {bad[:3]}")
    if previous is not None:
        if previous.get("hashes") != rec.get("hashes"):
            rec["failures"].append("emitted CSV/meta.json bytes differ from "
                                   "the previous operation of this seed")
        if previous.get("values") != rec["values"]:
            rec["failures"].append("report values differ from the previous "
                                   "operation of this seed")


def _summary(record, env, failed, attempted):
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: amplitude {record['inputs']['amplitude']:.6g}, "
          f"audit v {record['inputs']['audit_v']:.6g}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for o in record["ops"]:
        speeds = " ".join(f"{x:.3f}" for x in o["speeds"])
        line = (f"  op {o['op']} {o['kind']:8s} {o['wall_s']:.3f} s, speed "
                f"factors {speeds}, {o['norm_wall_s']:.3f} s normalised; "
                f"checks {o['checks']}")
        if o["failures"]:
            line += f" FAILED {o['failures']}"
        print(line)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted}; "
          "the warm-up operation counts as attempted)")
    for k, v in record["coverage"].items():
        print(f"  share of traced operation in {k}: {v:.3f}")
    for k, v in record["exact_counts"].items():
        print(f"  exact count {k}: {v}")
    for msg in record["run_failures"]:
        print(f"  run check failed: {msg}")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
