"""Self-consistent advanced-time loop: deposit, solve field, push particles.

Each slice deposits the four moments, solves the radial field from g_plus
and records both with the particle series into a SliceHistory; the field,
the past-cone mass and energy and the probe fluxes are functions of the
moments and are derived from them.  Each step then integrates the reduced
characteristics with RK4 in the field of the start of the step, and one
Picard correction re-deposits the field source at the predicted endpoint
and re-pushes in the averaged field, giving second-order coupling.

Every per-particle stage of a step is elementwise, and np.add.at
accumulates each moment row on its own, in particle order.  A run of at
least PUSH_WORKER_MIN particles and PUSH_WORKER_MIN_PARTICLE_STEPS
particle-steps, in a process whose CPU affinity mask holds at least two
CPUs and on a platform with fork, therefore forks one worker process (see
ParticleState) and splits both phases of a step between the two: at the
predictor and at the corrected push the run takes the lower half of the
particles and the worker the upper half, and each half deposits what it
has just moved, the predicted weights or the four moments of the slice
the corrected push reaches, into its own partial rows.  The run adds the
two partials, the lower half's first, and solves the field.  Without a
worker each phase is one call over all particles, whose deposit splits
at n // 2 into the same two partials, so a forked run is bit for bit the
serial run.  The sum of two partials rounds differently from one
np.add.at pass over all particles, by a few ulps of each node.

The magnetic field is identically zero in spherical symmetry, so the
incoming and outgoing radiation fluxes vanish structurally; see nirc_flux.
"""

from __future__ import annotations

import copy
import math
import mmap
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .phase_model import (ParticleSet, sample_particles,
                          check_measure_positivity)
from .radial_field import (MOMENTS, ShellGrid, cic_cells, deposit,
                           moment_payloads, cumulative_source, solve_field,
                           node_field, eval_field, radial_integral)
from .characteristics import integrate_reduced
# auto_r_max and default_probe_radii are read here by perfbench's set-up
from .config import RunConfig, auto_r_max, default_probe_radii  # noqa: F401

# the particle count, and the count of particles times steps, from which
# run forks a worker that runs half of every per-particle stage, fitted on
# 2 CPUs where it took 0.71-0.92 of the serial time from 2,197 to 8,000
# particles at 300 steps.  On 2 vCPUs, with two phases a step, the
# benchmark (30 s of repeated runs per process) ran forked at 1.71x the
# serial particle-steps/s on desk_run and 1.11x on artifact_roundtrip,
# against these floors forced above every run (10 of 10 alternating
# fresh-process runs each), although one run() per fresh process there
# took 1.05-1.47x the serial time from 1,728 to 32,768 particles.
PUSH_WORKER_MIN = 2500
PUSH_WORKER_MIN_PARTICLE_STEPS = 150000


@dataclass
class SliceHistory:
    """Per-step radial profiles and scalar series of one run of config.

    Profile arrays have shape (n_slices, n_nodes); series arrays (n_slices,)
    hold what each slice measures: its largest |p| and its least and largest
    radius, +inf and 0 with no particle.  The running bounds P_wedge (the
    momentum support) and R_min_run are derived from them; the grid,
    probes, datum constants, dv, sampled particles and the final particles'
    q, weight and f_value, constants of the motion, from the config; E,
    N_wedge, M_wedge, flux_j and flux_p from the moments.
    """

    config: RunConfig
    vs: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    # scalar series
    P_slice: np.ndarray
    R_slice_min: np.ndarray
    R_slice_max: np.ndarray
    r_final: np.ndarray
    w_final: np.ndarray
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
    particles_initial = cached_property(   # unless run or load_history set it
        lambda self: sample_particles(self.config.datum,
                                      self.config.resolution))
    particles_final = cached_property(lambda self: replace(
        self.particles_initial, r=self.r_final, w=self.w_final))
    P_wedge = cached_property(lambda self: np.maximum.accumulate(self.P_slice))
    R_min_run = cached_property(
        lambda self: np.minimum.accumulate(self.R_slice_min))

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


class ParticleState:
    """The particles of a run, and the worker process that runs half of
    every phase when fork is true; a failed fork leaves the run serial.

    A phase is a function phase(state, sl) of the particles in the slice
    sl; each(phase) runs it in one call over all particles, or on the lower
    half here while the worker runs the upper half.  Each phase ends in a
    deposit of the radii it has just made, into the partial rows of the
    process that made them: s.partial[0] holds the lower half's, and
    s.partial[1] the upper half's, also after one call over all particles,
    which splits its deposit at n // 2.  Row 0 of a partial is the weights
    at the predicted radii, rows 1 to 4 the MOMENTS of the slice; the run
    adds the partials, the lower half's first.  One anonymous shared mmap
    holds what crosses between the processes: two (r, w) buffers, the
    partial rows, the field of a push, each process's partial reductions
    and the index of the current buffer.  The state records the first
    slice before it forks.  Each phase ends in both processes before the
    next begins, and each process keeps the turned_out flags of its own
    half.  A phase writes the spare buffer and its products, never its own
    input, so one call over all particles meets a failure of either half
    again and raises the serial run's exception.

    A phase is one command byte down a pipe and one status byte back; the
    worker exits at EOF of the command pipe, or quietly on SIGINT, and
    leaving the with block closes the pipe and reaps it.  The fork is safe
    because the worker runs only numpy's elementwise loops, np.add.at and
    np.interp, never a BLAS call, whose threads it does not inherit.  The
    split holds only while the field is frozen over a push: a shell-sum
    push, which recomputes the field from all particles at every stage,
    cannot be cut in two this way, and the worker must then be measured
    again, and deleted if it no longer pays.
    """

    def __init__(self, parts: ParticleSet, grid: ShellGrid, dv: float,
                 r_floor: float = 1e-10, fork: bool = False):
        n, m = len(parts), grid.n_shells + 1
        self.q, self.weight, self.f_value = (parts.q, parts.weight,
                                             parts.f_value)
        self.grid, self.dv, self.r_floor = grid, dv, r_floor
        self.turned_out = np.zeros(n, dtype=bool)
        layout = {"rw": (2, 2, n), "partial": (2, 1 + len(MOMENTS), m),
                  "field": (m,), "reduced": (2, 5), "slot": (1,)}
        block = mmap.mmap(-1, 8 * sum(map(math.prod, layout.values())))
        offset = 0
        for name, shape in layout.items():
            dtype = np.int64 if name == "slot" else np.float64
            setattr(self, name, np.frombuffer(block, dtype, math.prod(shape),
                                              offset).reshape(shape))
            offset += 8 * math.prod(shape)
        self.rw[0] = parts.r, parts.w
        # per process: max |p|^2, min r and max r of the slice, and the turn
        # violations and min dw of the step to it; row 1 is the worker's
        self.reduced[:] = (0.0, np.inf, 0.0, 0, 0.0)
        self.row, self.own = 0, slice(None)
        self.pid = self.command = self.reply = None
        _record(self, slice(None), parts.r, parts.w)   # the first slice
        if not fork:
            return
        command, self.command = os.pipe()
        self.reply, reply = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:   # no process to spare: the serial path, same bits
            for fd in (command, self.command, self.reply, reply):
                os.close(fd)
            self.command = self.reply = None
            return
        if self.pid == 0:
            self._serve(command, reply, slice(n // 2, None))
        os.close(command)
        os.close(reply)
        self.own = slice(None, n // 2)

    def _serve(self, command, reply, own):
        """The worker: run each phase sent on its half, own, reply with a
        zero byte if it succeeded and a one byte if it raised, and exit at
        EOF."""
        try:
            os.close(self.command)
            os.close(self.reply)
            self.row = 1
            while code := os.read(command, 1):
                try:
                    _PHASES[code[0]](self, own)
                except Exception:   # the run meets it again and raises it
                    os.write(reply, b"\1")
                else:
                    os.write(reply, b"\0")
        finally:   # EOF, SIGINT or a broken reply pipe: never return
            os._exit(0)

    def each(self, phase):
        """Run the phase on every particle, bit for bit one call over all of
        them, and raise what that call raises; a worker that ended raises a
        RuntimeError."""
        if self.pid is None:
            return phase(self, slice(None))
        with suppress(BrokenPipeError):   # a dead worker: its reply says so
            os.write(self.command, bytes([_PHASES.index(phase)]))
        try:
            phase(self, self.own)
            failed = False
        except Exception:
            failed = True
        name = phase.__name__[1:]
        if not (status := os.read(self.reply, 1)):
            pid, self.pid = self.pid, None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise RuntimeError(f"the worker (pid {pid}) ended in its {name} "
                               f"phase with exit code {code}")
        if failed or status != b"\0":
            # all particles meet the failure of a half in the serial order
            phase(self, slice(None))
            raise RuntimeError(f"the {name} phase failed in a half but not "
                               f"over all particles")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.command is not None:
            os.close(self.command)
            os.close(self.reply)
        if self.pid is not None:
            os.waitpid(self.pid, 0)


def _push(s, sl):
    """(r, w) of the particles sl after one step over [0, dv] in the field
    of the cumulative source s.field, frozen over the step."""
    r, w = s.rw[s.slot[0], :, sl]
    return integrate_reduced(r, w, s.q[sl],
                             lambda v, r: eval_field(s.grid, s.field, r),
                             0.0, s.dv, s.dv, r_floor=s.r_floor)


def _deposit_partial(s, sl, rows, r, payloads):
    """Deposit the payloads of the particles sl at radii r into the rows of
    their half's partial; all particles, sl = slice(None), split at n // 2
    into both partials, as two halves would."""
    cells = cic_cells(r, s.grid)
    n = len(s.q)
    halves = (((0, slice(None, n // 2)), (1, slice(n // 2, None)))
              if sl == slice(None) else ((s.row, slice(None)),))
    for row, half in halves:
        s.partial[row, rows] = deposit(r[half], [x[half] for x in payloads],
                                       s.grid, [c[half] for c in cells])


def _record(s, sl, r, w):
    """Check the particles sl at (r, w), and deposit the moments and write
    the extremes of their slice."""
    parts = ParticleSet(r, w, s.q[sl], s.weight[sl], s.f_value[sl])
    p_sq, gamma, one_plus = check_measure_positivity(parts)
    _deposit_partial(s, sl, slice(1, None), r,
                     moment_payloads(parts, gamma, one_plus))
    s.reduced[s.row, :3] = (p_sq.max(initial=0.0), r.min(initial=np.inf),
                            r.max(initial=0.0))


def _predict(s, sl):
    """The predictor push in s.field, and the deposit of the weights at the
    radii it reaches."""
    r, _ = _push(s, sl)
    _deposit_partial(s, sl, slice(0, 1), r, (s.weight[sl],))


def _correct(s, sl):
    """The corrected push in s.field, the record of the slice it reaches,
    the flow counters of the step and its (r, w) into the spare buffer."""
    r, w = _push(s, sl)
    if not all(map(math.isfinite, (r.min(initial=0.0), r.max(initial=0.0),
                                   w.min(initial=0.0), w.max(initial=0.0)))):
        raise FloatingPointError("non-finite particle state after push")
    _record(s, sl, r, w)
    r0, w0 = s.rw[s.slot[0], :, sl]
    dr_sign = np.sign(r - r0)
    s.reduced[s.row, 3:] = (
        np.count_nonzero((dr_sign < 0) & s.turned_out[sl]),
        (w - w0).min(initial=0.0))
    s.turned_out[sl] |= dr_sign > 0
    s.rw[1 - s.slot[0], 0, sl], s.rw[1 - s.slot[0], 1, sl] = r, w


# the phases a worker runs, by their command byte
_PHASES = (_predict, _correct)


def step(state: ParticleState) -> None:
    """Advance the particles of state over [v, v + dv] from the cumulative
    source state.field at v: a push in its field predicts the endpoint,
    then the push is redone in the field of the average of it and the
    cumulative source of the predicted weights.  The corrected push also
    deposits the moments of the slice at v + dv.  The state's worker, if
    any, runs half of each push; the result is the same bits."""
    I = state.field.copy()
    state.each(_predict)
    I_end = solve_field(state.grid, state.partial[0, 0] + state.partial[1, 0])
    state.field[:] = 0.5 * (I + I_end)
    state.each(_correct)
    state.slot[0] = 1 - state.slot[0]   # both halves succeeded


class RunAborted(RuntimeError):
    """A run's abort at a step, naming it and its v; __cause__ is the abort."""


@contextmanager
def _naming_step(n: int, v: float):
    """Raise an abort of step n as a RunAborted from it; a RuntimeError
    covers an IntegrationError and a worker's end."""
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
    reduced = np.zeros((n_slices, 2, 5))   # state.reduced of each slice
    vs = np.linspace(0.0, config.v_final, n_slices)

    parts = sample_particles(config.datum, config.resolution)
    fork = (len(parts) >= PUSH_WORKER_MIN
            and len(parts) * n_steps >= PUSH_WORKER_MIN_PARTICLE_STEPS
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)
    with _naming_step(0, 0.0):
        state = ParticleState(parts, grid, dv, config.r_floor, fork)
    with state:
        for n, v in enumerate(vs):
            reduced[n] = state.reduced
            moments[:, n] = state.partial[0, 1:] + state.partial[1, 1:]
            with _naming_step(n, v):
                state.field[:] = solve_field(grid, moments[0, n])
                if n < n_steps:
                    step(state)
        r_final, w_final = state.rw[state.slot[0]].copy()

    p_sq, r_min, r_max, turns, dw = reduced.transpose(2, 0, 1)
    history = SliceHistory(
        config=config, vs=vs, **dict(zip(MOMENTS, moments)),
        P_slice=np.sqrt(p_sq.max(axis=1)), R_slice_min=r_min.min(axis=1),
        R_slice_max=r_max.max(axis=1), r_final=r_final, w_final=w_final,
        r_turn_violations=int(turns.sum()), min_dw=float(dw.min()))
    history.particles_initial = parts   # sampled once
    return history


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
