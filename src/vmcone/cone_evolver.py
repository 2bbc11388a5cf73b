"""Self-consistent advanced-time loop: deposit, solve field, push particles.

Each slice deposits the four moments, solves the radial field from g_plus
and records both with the particle series into a SliceHistory; the field,
the past-cone mass and energy and the probe fluxes are functions of the
moments and are derived from them.  Each step then integrates the reduced
characteristics with RK4 in the field of the start of the step, and one
Picard correction re-deposits the field source at the predicted endpoint
and re-pushes in the averaged field, giving second-order coupling.

A push holds its field frozen, so each particle's push is independent of
the others.  A run of at least PUSH_WORKER_MIN particles and
PUSH_WORKER_MIN_STEPS steps, in a process whose CPU affinity mask holds at
least two CPUs and on a platform with fork, therefore forks one worker
process that pushes the upper half of the particles while the run pushes
the lower half; everything else, the deposits included, stays in the
run's process.  Every push operation is elementwise, so the result is bit
for bit the serial push.  Elsewhere the serial push runs.

The magnetic field is identically zero in spherical symmetry, so the
incoming and outgoing radiation fluxes vanish structurally; see nirc_flux.
"""

from __future__ import annotations

import copy
import mmap
import os
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .phase_model import (ParticleSet, sample_particles,
                          check_measure_positivity)
from .radial_field import (MOMENTS, ShellGrid, deposit, moment_payloads,
                           cumulative_source, solve_field, node_field,
                           eval_field, radial_integral)
from .characteristics import integrate_reduced
# auto_r_max and default_probe_radii are read here by perfbench's set-up
from .config import RunConfig, auto_r_max, default_probe_radii  # noqa: F401

# particle and step counts from which run pushes half of the particles in
# a forked worker.  Median worker/serial time ratios on 2 CPUs (desk datum,
# 512 shells, dv 0.005, alternating fresh-process pairs): 0.72-0.94 from
# 13,824 particles and 10 steps on; 1.03-1.08 at 5 steps and 13,824 or
# 19,683 particles; 1.04-1.20 at 10 steps and 9,261-12,167 particles.  The
# fork, the reap and two syncs a step cost more than a short or small push
# saves.
PUSH_WORKER_MIN = 13000
PUSH_WORKER_MIN_STEPS = 10


@dataclass
class SliceHistory:
    """Per-step radial profiles and scalar series of one run of config.

    Profile arrays have shape (n_slices, n_nodes); series arrays (n_slices,).
    P_wedge is the running momentum-support radius (non-decreasing by
    construction); R_min_run the running minimum particle radius.  The
    grid, the probe spheres, the datum's constants, dv and the sampled
    particles are fixed by the config and derived from it; E, N_wedge,
    M_wedge, flux_j and flux_p are derived from the moment profiles.
    """

    config: RunConfig
    vs: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    # scalar series
    P_wedge: np.ndarray
    R_slice_max: np.ndarray
    R_min_run: np.ndarray
    particles_final: ParticleSet
    # flow-monotonicity counters (claim: r has at most one local minimum,
    # w is non-decreasing while E.k >= 0)
    r_turn_violations: int
    min_dw: float

    # fixed by the config, and derived from it
    grid = cached_property(lambda self: self.config.grid)
    probe_radii = cached_property(lambda self: self.config.probes)
    R0 = property(lambda self: self.config.datum.R0)
    F = property(lambda self: self.config.datum.F)
    f_inf_norm = property(lambda self: self.config.datum.f_inf_norm)
    dv = property(lambda self: self.config.steps[1])
    particles_initial = cached_property(   # sampled again
        lambda self: sample_particles(self.config.datum,
                                      self.config.resolution))

    @property
    def v_final(self) -> float:
        return float(self.vs[-1])

    @cached_property
    def E(self) -> np.ndarray:
        """E_r on the nodes of every slice: the field solve of g_plus."""
        return node_field(self.grid, cumulative_source(self.grid, self.g_plus))

    @cached_property
    def N_wedge(self) -> np.ndarray:
        """Past-cone mass per slice: the node-volume sum of g_plus, equal to
        the sum of the particle weights (the deposit is conservative)."""
        return np.sum(self.g_plus * self.grid.node_volumes, axis=-1)

    @cached_property
    def M_wedge(self) -> np.ndarray:
        """Past-cone energy per slice: the node-volume sum of h_plus, equal
        to the particle sum of weight * gamma, plus the field energy."""
        return (np.sum(self.h_plus * self.grid.node_volumes, axis=-1)
                + radial_integral(self.grid, 0.5 * self.E**2))

    def _probe_flux(self, plus, minus):
        """4 pi r^2 (plus - minus) / 2 at the probe radii r, every slice."""
        r = self.probe_radii
        return 4.0 * np.pi * r**2 * (0.5 * self.grid.interp(plus - minus, r))

    @cached_property
    def flux_j(self) -> np.ndarray:
        """(n_slices, n_probes) mass flux 4 pi r^2 j.k through the probes."""
        return self._probe_flux(self.g_plus, self.g_minus)

    @cached_property
    def flux_p(self) -> np.ndarray:
        """(n_slices, n_probes) energy flux 4 pi r^2 pflux.k."""
        return self._probe_flux(self.h_plus, self.h_minus)

    def profile_at(self, name: str, v, slope: float = 0.0,
                   j_max: int | None = None) -> np.ndarray:
        """Node values of a stored profile at the times v + slope * r_j,
        linear in time between recorded slices; one row per label of an
        array v.

        slope = 0 reads the past cone, 1 the t = const slice, 2 the future
        cone; j_max keeps only the first j_max + 1 nodes.
        """
        arr = getattr(self, name)
        n = arr.shape[1] if j_max is None else j_max + 1
        if not 0 <= n <= arr.shape[1]:
            raise ValueError(f"j_max {j_max} outside the {arr.shape[1]} nodes")
        width = 1 if slope == 0.0 else n   # past cone: one time per label
        t = np.asarray(v, dtype=float)[..., None] + slope * self.grid.edges[:width]
        vs = self.vs
        lo = float(np.min(t, initial=vs[0]))   # no labels: no times to check
        hi = float(np.max(t, initial=vs[0]))
        # written so that a NaN time fails too
        if not (lo >= vs[0] - 1e-9 and hi <= vs[-1] + 1e-9):
            raise ValueError(
                f"{name} needed at v={hi if hi > vs[-1] else lo:g}, outside "
                f"recorded history [{vs[0]:g}, {vs[-1]:g}]; "
                f"extend time.v_final")
        if len(vs) == 1:   # one recorded slice: every admitted time reads it
            return np.broadcast_to(arr[0, :n], t.shape[:-1] + (n,)).copy()
        idx = np.clip(np.searchsorted(vs, t) - 1, 0, len(vs) - 2)
        theta = np.clip((t - vs[idx]) / (vs[idx + 1] - vs[idx]), 0.0, 1.0)
        rows, cols = ((idx[..., 0], slice(n)) if width == 1
                      else (idx, np.arange(n)))
        return (1.0 - theta) * arr[rows, cols] + theta * arr[rows + 1, cols]


def _push(r, w, q, I, grid, dv, r_floor):
    """(r, w) after one step of the particles (r, w, q) over [0, dv] in the
    field of the cumulative source I, frozen over the step."""
    return integrate_reduced(r, w, q, lambda v, r: eval_field(grid, I, r),
                             0.0, dv, dv, r_floor=r_floor)


class _PushWorker:
    """A forked process that pushes the upper half of the particles while
    the calling process pushes the lower half, in one grid, dv and r_floor.

    The worker's r, w and q, the field source I and its output (r, w) live
    in one anonymous shared mmap made before the fork, so no array is
    pickled: a push is one command byte down a pipe and one status byte
    back.  The worker exits at EOF of the command pipe, or quietly on
    SIGINT; leaving the with block closes the pipe and reaps it.  The fork
    is safe because the worker runs only numpy's elementwise loops and
    np.interp, never a BLAS call, whose threads it does not inherit.

    The split is valid only while the field is frozen over a push.  A push
    that recomputes the field from all particles at every stage, such as a
    shell-sum push with a global sort, cannot be cut in two this way: the
    worker must then be measured again, and deleted if it no longer pays.
    """

    def __init__(self, q, grid, dv, r_floor):
        self.split = len(q) // 2
        n, n_nodes = len(q) - self.split, grid.n_shells + 1
        shared = np.frombuffer(mmap.mmap(-1, 8 * (5 * n + n_nodes)))
        self.state = shared[:5 * n].reshape(5, n)   # r, w, q in; r, w out
        self.state[2] = q[self.split:]
        self.I = shared[5 * n:]
        self.args = (grid, dv, r_floor)
        command, self.command = os.pipe()
        self.reply, reply = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (command, self.command, self.reply, reply):
                os.close(fd)
            raise
        if self.pid == 0:
            self._serve(command, reply)
        os.close(command)
        os.close(reply)

    def _serve(self, command, reply):
        """The worker: push its half at each command byte, reply with a
        zero byte if the push succeeded and a one byte if it raised, and
        exit at EOF."""
        try:
            os.close(self.command)
            os.close(self.reply)
            r, w, q, r_out, w_out = self.state
            while os.read(command, 1):
                try:
                    r_out[:], w_out[:] = _push(r, w, q, self.I, *self.args)
                except Exception:   # the run pushes again and raises it
                    os.write(reply, b"\1")
                else:
                    os.write(reply, b"\0")
        finally:   # EOF, SIGINT or a broken reply pipe: never return
            os._exit(0)

    def push(self, r, w, q, I):
        """(r, w) after the push of all particles in the field of I, bit for
        bit the serial push; an abort in either half raises the serial
        push's exception, and a dead worker a RuntimeError."""
        h = self.split
        self.state[0] = r[h:]
        self.state[1] = w[h:]
        self.I[:] = I
        with suppress(BrokenPipeError):   # a dead worker: the reply says so
            os.write(self.command, b"p")
        try:
            lower = _push(r[:h], w[:h], q[:h], I, *self.args)
        except Exception:
            lower = None
        status = os.read(self.reply, 1)
        if not status:
            pid, self.pid = self.pid, None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise RuntimeError(f"the push worker (pid {pid}) ended during "
                               f"a push with exit code {code}")
        if lower is None or status != b"\0":
            # the serial push meets the abort in its own order and raises
            # it with its type and message
            _push(r, w, q, I, *self.args)
            raise RuntimeError("a half push failed where the serial push "
                               "succeeds")
        r_out, w_out = self.state[3:]
        return (np.concatenate((lower[0], r_out)),
                np.concatenate((lower[1], w_out)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.command)
        os.close(self.reply)
        if self.pid is not None:
            os.waitpid(self.pid, 0)


def step(parts: ParticleSet, grid: ShellGrid, I: np.ndarray, dv: float,
         r_floor: float = 1e-10,
         worker: _PushWorker | None = None) -> ParticleSet:
    """Advance the particles over [v, v + dv] from the cumulative source I
    at v: a push in its field predicts the endpoint, then the push is redone
    in the field of the average of I and the I of the predicted endpoint.
    A worker of the same grid, dv and r_floor pushes half of each push; the
    result is the same bits."""
    def push(I):
        if worker is not None:
            return worker.push(parts.r, parts.w, parts.q, I)
        return _push(parts.r, parts.w, parts.q, I, grid, dv, r_floor)

    r_pred, _ = push(I)
    I_end = solve_field(grid, deposit(r_pred, (parts.weight,), grid)[0])
    r1, w1 = push(0.5 * (I + I_end))
    if np.any(~np.isfinite(r1)) or np.any(~np.isfinite(w1)):
        raise FloatingPointError("non-finite particle state after push")
    return ParticleSet(r1, w1, parts.q, parts.weight, parts.f_value)


class RunAborted(RuntimeError):
    """A run's abort at a step, naming it and its v; __cause__ is the abort."""


@contextmanager
def _naming_step(n: int, v: float):
    """Raise an abort of step n as a RunAborted from it; a RuntimeError
    covers an IntegrationError and a push worker's end."""
    try:
        yield
    except (FloatingPointError, ValueError, RuntimeError,
            AssertionError) as exc:
        raise RunAborted(f"step {n} (v={v:g}): {exc}") from exc


def run(config: RunConfig) -> SliceHistory:
    """Execute the advanced-time loop from v = 0 to v_final, on the datum,
    grid and steps that the config resolves; the history holds a copy of
    the config, which later edits of the caller's config do not reach."""
    config = copy.deepcopy(config)
    grid = config.grid
    n_steps, dv = config.steps

    n_slices = n_steps + 1
    moments = np.zeros((len(MOMENTS), n_slices, grid.n_shells + 1))
    series = {k: np.zeros(n_slices) for k in
              ("P_wedge", "R_slice_max", "R_min_run")}

    parts = sample_particles(config.datum, config.resolution)
    # one |p|^2 and one gamma per slice, shared by every reader
    p_sq = parts.momentum_sq()
    gamma = np.sqrt(1.0 + p_sq)
    p_run = 0.0
    r_run_min = np.inf
    turned_out = np.zeros(len(parts), dtype=bool)
    r_turn_violations = 0
    min_dw = 0.0
    vs = np.linspace(0.0, config.v_final, n_slices)

    forks = (len(parts) >= PUSH_WORKER_MIN and n_steps >= PUSH_WORKER_MIN_STEPS
             and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) >= 2)
    with (_PushWorker(parts.q, grid, dv, config.r_floor) if forks
          else nullcontext()) as worker:
        for n, v in enumerate(vs):
            with _naming_step(n, v):
                moments[:, n] = deposit(parts.r, moment_payloads(parts, gamma),
                                        grid)
                I = solve_field(grid, moments[0, n])
            p_run = max(p_run, float(np.sqrt(np.max(p_sq, initial=0.0))))
            r_run_min = min(r_run_min, float(np.min(parts.r, initial=np.inf)))
            series["R_slice_max"][n] = float(np.max(parts.r, initial=0.0))
            series["P_wedge"][n] = p_run
            series["R_min_run"][n] = (r_run_min if np.isfinite(r_run_min)
                                      else 0.0)
            if n == n_steps:
                break
            with _naming_step(n, v):
                pushed = step(parts, grid, I, dv, config.r_floor, worker)
                p_sq = pushed.momentum_sq()
                gamma = np.sqrt(1.0 + p_sq)
                check_measure_positivity(pushed, p_sq, gamma)
            dr_sign = np.sign(pushed.r - parts.r)
            r_turn_violations += int(np.count_nonzero((dr_sign < 0)
                                                      & turned_out))
            turned_out |= dr_sign > 0
            min_dw = min(min_dw,
                         float(np.min(pushed.w - parts.w, initial=0.0)))
            parts = pushed

    return SliceHistory(
        config=config, vs=vs, **dict(zip(MOMENTS, moments)), **series,
        particles_final=parts, r_turn_violations=r_turn_violations,
        min_dw=min_dw)


def nirc_flux(history: SliceHistory, v1: float, v2: float, r: float) -> float:
    """Incoming Poynting flux through the sphere of radius r on [v1, v2].

    Identically zero: the magnetic field vanishes in spherical symmetry, so
    E x B = 0 and there is neither incoming nor outgoing radiation.  The
    arguments are validated but do not affect the value.
    """
    if v2 < v1:
        raise ValueError("need v1 <= v2")
    if not history.grid.covers(r):
        raise ValueError("r outside grid")
    return 0.0
