"""The three benchmark workloads: inputs drawn from the seed, the command
sequence of one operation, and the correctness gate applied to it.

Each operation drives ``vmcone.cli.main`` in-process with the arguments a
user would type, writing into its own temporary directory.  A small capture
hook (see tracing.Capture) keeps the in-memory history, the reloaded history
and the embedded audit grid, so the gate can compare them bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np

# Seeds vary only these three inputs, inside ranges shown to pass at the
# commit that introduced the benchmark (see README.md, "Seed ranges").
AMPLITUDE_RANGE = (6.0, 8.0)
AUDIT_V_RANGE = (0.0, 1.5)

DESK_DATUM = {"r_support": [0.3, 0.6], "w_max": 0.06,
              "q_support": [0.0004, 0.0008]}
N_WEDGE_DRIFT_MAX = 1e-10

JACOBIAN_ORBITS = 10
JACOBIAN_DURATION = 0.5
JACOBIAN_STEP = 0.01
# flow_jacobian_det integrates 12 perturbed trajectories and
# flow_jacobian_exact one more per orbit
TRAJECTORIES_PER_ORBIT = 13

# arrays load_history rebuilds from the emitted files; I, R_slice_min and
# particles_initial are not persisted today and are left out
PERSISTED_ARRAYS = ("vs", "g_plus", "g_minus", "h_plus", "h_minus", "E",
                    "N_wedge", "M_wedge", "P_wedge", "R_slice_max",
                    "R_min_run", "probe_radii", "flux_j", "flux_p")
PERSISTED_SCALARS = ("R0", "F", "f_inf_norm", "dv", "r_turn_violations",
                     "min_dw")
PARTICLE_FIELDS = ("r", "w", "q", "weight", "f_value")
GRID_ARRAYS = ("E", "B", "rho", "j")


def seed_inputs(seed: int) -> dict:
    rnd = random.Random(seed)
    return {"seed": seed,
            "amplitude": rnd.uniform(*AMPLITUDE_RANGE),
            "audit_v": rnd.uniform(*AUDIT_V_RANGE),
            "orbit_seed": seed}


def run_config(amplitude, resolution, n_shells, v_final):
    return {"datum": {"name": "shell_polynomial",
                      "params": dict(DESK_DATUM, amplitude=amplitude)},
            "sampling": {"resolution": [resolution] * 3},
            "grid": {"n_shells": n_shells},
            "time": {"dv": 0.005, "v_final": v_final}}


def _write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def artifact_hashes(directory) -> dict:
    """sha256 of every emitted CSV and meta.json (criterion 13 files)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv") or name == "meta.json":
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def history_mismatches(mem, loaded) -> list:
    """Names of persisted fields whose reloaded value is not bit-equal."""
    bad = [k for k in PERSISTED_ARRAYS
           if _bits(getattr(mem, k)) != _bits(getattr(loaded, k))]
    bad += [k for k in PERSISTED_SCALARS
            if _bits(np.float64(getattr(mem, k)))
            != _bits(np.float64(getattr(loaded, k)))]
    if mem.grid != loaded.grid:
        bad.append("grid")
    pm, pl = mem.particles_final, loaded.particles_final
    if (pm is None) != (pl is None):
        bad.append("particles_final")
    elif pm is not None:
        bad += [f"particles_final.{k}" for k in PARTICLE_FIELDS
                if _bits(getattr(pm, k)) != _bits(getattr(pl, k))]
    return bad


def grid_mismatches(a, b) -> list:
    bad = [k for k in GRID_ARRAYS if _bits(getattr(a, k)) != _bits(getattr(b, k))]
    bad += [k for k in ("n", "extent", "r_cut") if getattr(a, k) != getattr(b, k)]
    return bad


def report_values(doc) -> dict:
    return {c["name"]: c["value"] for c in doc["checks"]}


def reference_mismatches(values, ref, rel) -> list:
    """Checks that are missing or differ from the stored reference by more
    than ``rel`` relative to max(|a|, |b|, 1).  Report values are residuals
    already normalised by N0, M0 or O(1) quantities, so below magnitude 1
    the rule is absolute.  Extra checks are allowed: they show as a higher
    checks_run, not as a failure."""
    bad = []
    for name, want in ref.items():
        got = values.get(name)
        if got is None:
            bad.append(f"{name}: missing")
        elif not abs(got - want) <= rel * max(abs(got), abs(want), 1.0):
            bad.append(f"{name}: {got!r} != reference {want!r}")
    return bad


class Operation:
    """One run of a workload's command sequence in a private directory.

    ``clock`` (calibration.Clock) is split before every command but the
    first, so that each command is timed between calibration bursts."""

    def __init__(self, cli, io_utils, capture, tracer, workdir, clock):
        self.cli = cli
        self.io_utils = io_utils
        self.capture = capture
        self.tracer = tracer
        self.workdir = workdir
        self.clock = clock
        self.commands = 0
        self.failures = []
        self.reports = {}
        # (particle steps, seconds of the solver call, index of the clock
        # stretch that holds the call)
        self.work = None

    def path(self, name):
        return os.path.join(self.workdir, name)

    def command(self, argv) -> bool:
        """vmcone.cli.main(argv); a nonzero exit or an exception fails the
        operation.  The CLI's own report printout is discarded.  Returns
        whether the command ran to its end, so that a failed report is
        still read and its failing checks named."""
        if self.commands:
            self.clock.split()
        self.commands += 1
        idx = self.tracer.open("cli." + argv[0]) if self.tracer else None
        rc = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:   # the gate records any crash of the CLI
            self.failures.append(f"{argv[0]}: raised {exc.__class__.__name__}: {exc}")
            return False
        finally:
            if idx is not None:
                self.tracer.close(idx)
        if rc != 0:
            self.failures.append(f"{argv[0]}: exit status {rc}")
        return True

    def read_report(self, kind, path):
        if not os.path.exists(path):
            self.failures.append(f"{kind} report missing")
            return
        with open(path) as fh:
            doc = json.load(fh)
        self.reports[kind] = doc
        if not doc["passed"]:
            failed = [c["name"] for c in doc["checks"] if not c["passed"]]
            self.failures.append(f"{kind} report failed: {failed}")

    def check_run(self, history):
        """N_wedge drift gate; records particles x steps of the run."""
        self.work = (len(history.particles_final) * (len(history.vs) - 1),
                     self.capture.seconds["run"], len(self.clock.speeds))
        n = history.N_wedge
        drift = float(np.max(np.abs(n - n[0])) / max(abs(float(n[0])), 1e-300))
        if not drift <= N_WEDGE_DRIFT_MAX:
            self.failures.append(f"N_wedge drift {drift:.3e} > {N_WEDGE_DRIFT_MAX:g}")


class Workload:
    name = ""
    resolution = n_shells = v_final = None

    def config(self, inputs):
        return run_config(inputs["amplitude"], self.resolution, self.n_shells,
                          self.v_final)

    def setup(self, vm, inputs, workdir):
        """What `vmcone run` does before its first step: argument and
        config parse, datum, particle sampling, grid and probes."""
        path = _write_config(os.path.join(workdir, "config.json"),
                             self.config(inputs))
        vm.cli.build_parser().parse_args(["run", "--config", path])
        cfg = vm.config.parse_config(path)
        datum = vm.phase_model.builtin_datum(cfg.datum_name, cfg.datum_params)
        parts = vm.phase_model.sample_particles(datum, cfg.resolution)
        vm.phase_model.check_measure_positivity(parts)
        r_max = cfg.r_max or vm.cone_evolver.auto_r_max(datum, cfg.v_final,
                                                        cfg.margin)
        grid = vm.radial_field.ShellGrid(r_max=r_max, n_shells=cfg.n_shells)
        vm.cone_evolver.default_probe_radii(datum, grid)


class DeskRun(Workload):
    """`vmcone run --diagnose` at the tests/conftest.py desk resolution
    (32^3 particles, 512 shells, dv 0.005), for 50 steps."""

    name = "desk_run"
    resolution, n_shells, v_final = 32, 512, 0.25

    def run_op(self, op, inputs):
        cfg = _write_config(op.path("config.json"), self.config(inputs))
        out, rep = op.path("out"), op.path("diagnose.json")
        if op.command(["run", "--config", cfg, "--output", out,
                       "--diagnose", "--report", rep]):
            op.read_report("diagnose_in_memory", rep)
            op.check_run(op.capture.results["run"])
        return out


class ArtifactRoundtrip(Workload):
    """run, then diagnose and audit from the emitted directory."""

    name = "artifact_roundtrip"
    resolution, n_shells, v_final = 16, 1024, 1.5
    nodes = 64

    def run_op(self, op, inputs):
        cap = op.capture
        cfg = _write_config(op.path("config.json"), self.config(inputs))
        out = op.path("out")
        op.command(["run", "--config", cfg, "--output", out])
        if op.failures:
            return out
        mem = cap.results.pop("run")
        op.check_run(mem)
        rep = op.path("diagnose.json")
        if op.command(["diagnose", "--history", out, "--report", rep]):
            op.read_report("diagnose_reloaded", rep)
            bad = history_mismatches(mem, cap.results.pop("load_history"))
            if bad:
                op.failures.append(f"reloaded history differs in {bad}")
        del mem
        rep = op.path("audit.json")
        if op.command(["audit-constraints", "--from-history", out,
                       "--v", repr(inputs["audit_v"]), "--nodes", str(self.nodes),
                       "--report", rep]):
            op.read_report("audit", rep)
            grid = cap.results.pop("embed")
            gpath = op.path("slice.vmgrid")
            op.io_utils.save_grid(grid, gpath)
            bad = grid_mismatches(grid, op.io_utils.load_grid(gpath))
            if bad:
                op.failures.append(f"reloaded .vmgrid differs in {bad}")
        return out


class JacobianOrbits(Workload):
    """`vmcone jacobian-test`: 6D Cartesian characteristics with B != 0."""

    name = "jacobian_orbits"

    def setup(self, vm, inputs, workdir):
        """Argument parse and the orbit draw."""
        vm.cli.build_parser().parse_args(["jacobian-test", "--orbits",
                                          str(JACOBIAN_ORBITS)])
        vm.report.random_states(JACOBIAN_ORBITS, seed=inputs["orbit_seed"])

    def run_op(self, op, inputs):
        rep = op.path("jacobian.json")
        if op.command(["jacobian-test", "--orbits", str(JACOBIAN_ORBITS),
                       "--duration", repr(JACOBIAN_DURATION),
                       "--step", repr(JACOBIAN_STEP),
                       "--seed", str(inputs["orbit_seed"]),
                       "--report", rep]):
            op.read_report("jacobian", rep)
            n = max(1, math.ceil(JACOBIAN_DURATION / JACOBIAN_STEP - 1e-12))
            op.work = (JACOBIAN_ORBITS * TRAJECTORIES_PER_ORBIT * n,
                       op.capture.seconds["jacobian"], len(op.clock.speeds))
        return None


WORKLOADS = {w.name: w for w in (DeskRun(), ArtifactRoundtrip(), JacobianOrbits())}
