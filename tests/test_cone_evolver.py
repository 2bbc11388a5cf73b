import dataclasses
import errno
import os
import signal
import sys

import numpy as np
import pytest

from vmcone import (RunConfig, run, step, ParticleState, auto_r_max,
                    IntegrationError, RunAborted, default_probe_radii,
                    nirc_flux, builtin_datum, sample_particles, ShellGrid,
                    ParticleSet, deposit, moment_payloads, solve_field,
                    node_field, eval_field, radial_integral, MOMENTS,
                    check_measure_positivity, kinematics, cone_evolver)
from vmcone import cone_diagnostics as diag
from vmcone.characteristics import char_rhs_reduced
from vmcone.io_utils import emit_history
from conftest import DESK_DATUM_PARAMS, small_config


def test_auto_r_max():
    d = builtin_datum("shell_polynomial")
    assert auto_r_max(d, 4.0, 0.25) == pytest.approx(d.R0 + 2.0 + 0.25)
    # margin never collapses below a minimum slack
    assert auto_r_max(d, 0.0, 0.0) > d.R0


def test_mass_series_exactly_constant(small_history):
    N = small_history.N_wedge
    assert np.max(np.abs(N - N[0])) <= 1e-13 * N[0]


def test_support_and_axis_bounds(small_history):
    h = small_history
    limit = h.R0 + 0.5 * h.vs + h.grid.dr
    assert np.all(h.R_slice_max <= limit)
    lower = np.sqrt(h.F) / h.P_wedge * (1.0 - 1e-6)
    assert np.all(h.R_min_run >= lower)


def test_monotonicity_counters(small_history):
    assert small_history.r_turn_violations == 0
    assert small_history.min_dw >= -1e-9


def test_momentum_support_non_decreasing(small_history):
    assert np.all(np.diff(small_history.P_wedge) >= 0.0)


def test_field_profile_recorded(small_history):
    h = small_history
    assert np.all(h.E >= 0.0)
    assert np.all(h.E[:, 0] == 0.0)
    # the recorded field is the field solve of the recorded moments
    for n in range(len(h.vs)):
        I = solve_field(h.grid, h.g_plus[n])
        assert np.array_equal(h.E[n], node_field(h.grid, I))


def test_derived_series_equal_the_per_slice_formulas(small_history,
                                                      monkeypatch):
    # the past-cone mass and the probe fluxes are functions of the recorded
    # moments, bit for bit the per-slice formulas
    h = small_history
    probes, edges = h.probe_radii, h.grid.edges
    for n in range(len(h.vs)):
        assert h.N_wedge[n] == float(np.sum(h.g_plus[n] * h.grid.node_volumes))
        for flux, plus, minus in ((h.flux_j, h.g_plus, h.g_minus),
                                  (h.flux_p, h.h_plus, h.h_minus)):
            at = 0.5 * np.interp(probes, edges, plus[n] - minus[n])
            assert np.array_equal(flux[n], 4.0 * np.pi * probes**2 * at)
    # the past-cone energy is the particle sum of weight * gamma at each
    # slice, which the conservative deposit of h_plus holds up to rounding,
    # plus the field energy of the slice
    kinetic, real = [], cone_evolver.moment_payloads

    def recording(parts, gamma, one_plus):
        kinetic.append(float(np.sum(parts.weight * gamma)))
        return real(parts, gamma, one_plus)

    monkeypatch.setattr(cone_evolver, "moment_payloads", recording)
    h = run(small_config(v_final=0.5))
    assert len(kinetic) == len(h.vs) > 1
    for n, particles in enumerate(kinetic):
        E = node_field(h.grid, solve_field(h.grid, h.g_plus[n]))
        want = particles + radial_integral(h.grid, 0.5 * E**2)
        assert abs(h.M_wedge[n] - want) <= 1e-15 * want


def test_batched_probe_flux_equals_per_slice_interp(small_history):
    # probes at the first node, between nodes, at an inner node, at r_max
    # and one rounding step past it: every slice equals np.interp
    h, edges = small_history, small_history.grid.edges
    probes = np.array([0.0, 0.5 * (edges[3] + edges[4]), 0.3 * edges[7]
                       + 0.7 * edges[8], edges[100], h.grid.r_max,
                       h.grid.r_max + 1e-13])
    # the run's moments vanish at r_max, so random ones also test the
    # last-node branch and the one past it; an infinite value at the node
    # after the probe at edges[100] tests the exact-node branch
    rng = np.random.default_rng(3)
    noise = {k: rng.uniform(-1.0, 1.0, h.g_plus.shape)
             for k in ("g_plus", "g_minus", "h_plus", "h_minus")}
    noise["g_plus"][:, 101] = np.inf
    for g in (dataclasses.replace(h), dataclasses.replace(h, **noise)):
        g.probe_radii = probes   # no config sets a probe past r_max
        with np.errstate(invalid="ignore"):   # the unused inf * 0 branch
            fluxes = g.flux_j, g.flux_p
        for flux, plus, minus in ((fluxes[0], g.g_plus, g.g_minus),
                                  (fluxes[1], g.h_plus, g.h_minus)):
            at = np.array([np.interp(probes, edges, p - m)
                           for p, m in zip(plus, minus)])
            assert np.array_equal(flux, 4.0 * np.pi * probes**2 * (0.5 * at))


def test_a_history_keeps_the_config_it_ran():
    # an edit of the caller's config after the run reaches none of the
    # values the history derives from its own copy
    args = dict(resolution=(4, 4, 4), n_shells=32, v_final=0.05)
    cfg, want = small_config(**args), small_config(**args)
    h = run(cfg)
    cfg.n_shells, cfg.dv = 64, 0.02
    cfg.datum_params["r_support"] = [0.2, 0.7]
    assert h.config == want and h.config is not cfg
    assert h.grid == want.grid and h.dv == want.steps[1]
    assert np.array_equal(h.probe_radii, want.probes)
    assert h.R0 == want.datum.R0


def test_profile_at_reads_the_one_slice_of_a_single_slice_history(
        small_history):
    # v_final 0 records one slice: every admitted time reads its row, and a
    # time past it is refused with the usual message
    h = small_history
    one = dataclasses.replace(h, vs=h.vs[:1], **{
        name: getattr(h, name)[:1] for name in MOMENTS})
    row = h.g_plus[0]
    assert np.array_equal(one.profile_at("g_plus", 0.0), row)
    assert np.array_equal(one.profile_at("g_plus", np.zeros(3)),
                          np.tile(row, (3, 1)))
    assert np.array_equal(one.profile_at("g_plus", 0.0, j_max=5), row[:6])
    assert np.array_equal(one.profile_at("E", 0.0), h.E[0])
    assert np.array_equal(one.profile_at("h_minus", 0.0, slope=2.0, j_max=0),
                          h.h_minus[0, :1])
    assert one.profile_at("g_plus", np.empty(0)).shape == (0, len(row))
    with np.errstate(all="raise"):
        one.profile_at("g_minus", np.zeros((2, 2)), slope=1.0, j_max=0)
    for v, slope in ((0.1, 0.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match=r"outside recorded history "
                                             r"\[0, 0\]; extend time"):
            one.profile_at("g_plus", v, slope)


def start_field(parts, grid):
    """The cumulative source run() solves at the start of a step: from row 0
    of the moment deposit."""
    payloads = moment_payloads(parts, *check_measure_positivity(parts)[1:])
    return solve_field(grid, deposit(parts.r, payloads, grid)[0])


def rk4(parts, grid, I, dv):
    """One hand-rolled RK4 step of the reduced system in a frozen field."""
    r, w, q = parts.r, parts.w, parts.q

    def rhs(rr, ww):
        return char_rhs_reduced(0.0, rr, ww, q, eval_field(grid, I, rr))

    k1r, k1w = rhs(r, w)
    k2r, k2w = rhs(r + 0.5 * dv * k1r, w + 0.5 * dv * k1w)
    k3r, k3w = rhs(r + 0.5 * dv * k2r, w + 0.5 * dv * k2w)
    k4r, k4w = rhs(r + dv * k3r, w + dv * k3w)
    return (r + dv / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r),
            w + dv / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w))


def predictor_corrector(parts, grid, I, dv):
    """RK4 in the start field, a deposit of the weights at the predicted
    end, then RK4 from the start in the averaged I."""
    r_pred, _ = rk4(parts, grid, I, dv)
    I_end = solve_field(grid, deposit(r_pred, (parts.weight,), grid)[0])
    return rk4(parts, grid, 0.5 * (I + I_end), dv)


def advance(parts, grid, I, dv):
    """The particles after one step from the cumulative source I."""
    with ParticleState(parts, grid, dv) as state:
        state.field[:] = I
        step(state)
        r, w = state.rw[state.slot[0]].copy()
    return dataclasses.replace(parts, r=r, w=w)


def test_step_zero_dv_is_identity():
    parts = sample_particles(builtin_datum("shell_polynomial"), 8)
    grid = ShellGrid(r_max=2.0, n_shells=64)
    out = advance(parts, grid, start_field(parts, grid), 0.0)
    assert np.array_equal(out.r, parts.r)
    assert np.array_equal(out.w, parts.w)


def test_step_against_manual_push():
    # the step must equal a hand-rolled predictor-corrector built on the
    # same start-of-step field
    parts = sample_particles(builtin_datum("shell_polynomial"), 6)
    grid = ShellGrid(r_max=2.0, n_shells=128)
    dv = 1e-3
    I = start_field(parts, grid)
    pushed = advance(parts, grid, I, dv)
    r1, w1 = predictor_corrector(parts, grid, I, dv)
    assert np.allclose(pushed.r, r1, rtol=1e-14, atol=0.0)
    assert np.allclose(pushed.w, w1, rtol=1e-14, atol=0.0)


def test_ten_step_hand_integration_single_particle():
    # a single macroparticle feels the field of its own deposited shell;
    # re-integrate by hand for 10 steps of 1e-3 and compare
    grid = ShellGrid(r_max=2.0, n_shells=64)
    parts = ParticleSet(r=np.array([0.8]), w=np.array([0.1]),
                        q=np.array([0.02]), weight=np.array([0.5]),
                        f_value=np.array([1.0]))
    dv = 1e-3
    evolved = parts
    manual = dataclasses.replace(parts)
    for _ in range(10):
        evolved = advance(evolved, grid, start_field(evolved, grid), dv)
        I = solve_field(grid, deposit(manual.r, (manual.weight,), grid)[0])
        manual.r, manual.w = predictor_corrector(manual, grid, I, dv)
    assert np.allclose(evolved.r, manual.r, rtol=1e-13)
    assert np.allclose(evolved.w, manual.w, rtol=1e-13)


def test_field_off_run_is_free_streaming(monkeypatch):
    # the push sees no field
    monkeypatch.setattr(cone_evolver, "eval_field",
                        lambda grid, I, r: np.zeros_like(r))
    h = run(small_config(v_final=1.0, resolution=(6, 6, 6)))
    # momentum support cannot grow without a field
    assert h.P_wedge[-1] == pytest.approx(h.P_wedge[0], rel=1e-12)


def test_eval_field_extends_beyond_grid():
    # beyond r_max the source is exhausted: E_r = I(r_max) / r^2, continuous
    # at r_max
    parts = sample_particles(builtin_datum("shell_polynomial"), 8)
    grid = ShellGrid(r_max=2.0, n_shells=64)
    I = start_field(parts, grid)
    E = eval_field(grid, I, np.array([1.9, 2.0, 4.0]))
    assert E[0] == float(np.interp(1.9, grid.edges, I)) / 1.9**2
    assert E[1] == node_field(grid, I)[-1]
    assert E[2] == float(I[-1]) / 16.0


def test_run_aborts_name_step_and_v():
    # an r_max inside the reach of the matter, set past the parse-time
    # check: the deposit after the first particle leaves the grid fails
    cfg = small_config(v_final=0.5, resolution=(6, 6, 6))
    cfg.r_max = 0.59
    with pytest.raises(RunAborted,
                       match=r"^step \d+ \(v=[0-9.]+\): particle \d+ at r="
                       ) as abort:
        run(cfg)
    assert type(abort.value.__cause__) is ValueError
    # a floor above the inner edge of the support: the first push crosses it
    cfg = small_config(r_floor=0.4, v_final=0.5, resolution=(6, 6, 6))
    with pytest.raises(RunAborted,
                       match=r"^step 0 \(v=0\): trajectory") as abort:
        run(cfg)
    assert type(abort.value.__cause__) is IntegrationError


def test_measure_positivity_abort_names_step_and_v(monkeypatch):
    # a corrupt momentum from the corrected push of step 2 fails the
    # positivity bound, which that push's phase checks
    real_step, real_push = cone_evolver.step, cone_evolver.integrate_reduced
    steps, pushes = [], []

    def counting(*args):
        steps.append(1)
        return real_step(*args)

    def corrupting(*args, **kwargs):
        r, w = real_push(*args, **kwargs)
        pushes.append(1)
        if len(pushes) == 6:   # predictor and corrector of steps 0, 1, 2
            w[0] = -1e9
        return r, w

    monkeypatch.setattr(cone_evolver, "step", counting)
    monkeypatch.setattr(cone_evolver, "integrate_reduced", corrupting)
    with pytest.raises(RunAborted, match=r"^step 2 \(v=0\.0[0-9]*\): "
                                         r"measure positivity violated "
                                         r"at particle 0: ") as abort:
        run(small_config(resolution=(6, 6, 6), v_final=0.1))
    assert type(abort.value.__cause__) is AssertionError
    assert len(steps) == 3 and len(pushes) == 6


@pytest.fixture
def force_worker(monkeypatch):
    """force_worker(on) runs half of every run's particles in a worker
    whatever the particle, step and CPU counts (on), never (False), or as
    the fork rule decides on two CPUs (None), and returns the list of
    forks made.  A test that waits on a worker for 60 s fails with a
    TimeoutError instead of stalling the suite."""
    rule = {name: getattr(cone_evolver, name) for name in (
        "PUSH_WORKER_MIN", "PUSH_WORKER_MIN_PARTICLE_STEPS")}

    def force(on):
        if on is not False and not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        floors = rule if on is None else dict.fromkeys(
            rule, 0 if on else sys.maxsize)
        for name, floor in floors.items():
            monkeypatch.setattr(cone_evolver, name, floor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        forks, real = [], os.fork
        if on is not False:
            monkeypatch.setattr(os, "fork",
                                lambda: forks.append(1) or real())
        return forks

    def hung(*_):
        raise TimeoutError("run waited 60 s on its worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield force
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def reorder(monkeypatch, reverse):
    """Sample the run's particles in reverse order if reverse: the radii
    grow with the index, so the inner particles become the upper half."""
    real = cone_evolver.sample_particles

    def ordered(*args):
        parts = real(*args)
        if not reverse:
            return parts
        return ParticleSet(*(a[::-1].copy() for a in (
            parts.r, parts.w, parts.q, parts.weight, parts.f_value)))

    monkeypatch.setattr(cone_evolver, "sample_particles", ordered)


def test_worker_push_gives_the_serial_bytes(monkeypatch, tmp_path,
                                            force_worker):
    # an odd particle count, so the halves differ in size; in the sampled
    # order the largest radius lies in the worker's upper half and in the
    # reversed order the smallest and the largest momentum do.  A field
    # that pulls the outer particles inwards makes r turn and w fall there,
    # so the flow counters of the worker's half are not zero
    cfg = small_config(resolution=(11, 11, 11), v_final=0.5)
    real = cone_evolver.eval_field
    monkeypatch.setattr(cone_evolver, "eval_field", lambda grid, I, r: (
        real(grid, I, r) - np.where(r > 0.45, 0.5, 0.0)))
    for reverse in (False, True):
        reorder(monkeypatch, reverse)
        parts = cone_evolver.sample_particles(cfg.datum, cfg.resolution)
        upper = np.arange(len(parts)) >= len(parts) // 2
        p_sq = kinematics(parts.r, parts.w, parts.q)[0]
        assert upper[np.argmax(parts.r)] != reverse
        assert upper[np.argmin(parts.r)] == upper[np.argmax(p_sq)] == reverse
        files, histories = {}, {}
        for on in (False, True):
            forks = force_worker(on)
            histories[on] = h = run(cfg)
            assert len(forks) == on
            assert_no_child_left()
            emit_history(h, tmp_path / f"{reverse}{on}")
            files[on] = {f.name: f.read_bytes()
                         for f in (tmp_path / f"{reverse}{on}").iterdir()}
        assert len(parts) % 2 == 1 and len(files[True]) > 1
        assert files[True] == files[False]
        serial, worker = histories[False], histories[True]
        assert serial.r_turn_violations > 0 and serial.min_dw < 0.0
        for field in dataclasses.fields(serial):
            a, b = getattr(worker, field.name), getattr(serial, field.name)
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert type(a) is type(b) and a == b, field.name


def test_g_plus_is_the_sum_of_the_half_deposits(small_history):
    # each half of the particles deposits its own weights, and the run adds
    # the lower half's partial to the upper half's: bit for bit that sum at
    # the first and the last slice, and one deposit of all particles up to
    # the rounding of the sum
    h = small_history
    for k, parts in ((0, h.particles_initial), (-1, h.particles_final)):
        half = len(parts) // 2
        lower, upper = (deposit(parts.r[sl], (parts.weight[sl],), h.grid)[0]
                        for sl in (slice(None, half), slice(half, None)))
        assert (lower + upper).tobytes() == h.g_plus[k].tobytes()
        np.testing.assert_allclose(
            h.g_plus[k], deposit(parts.r, (parts.weight,), h.grid)[0],
            rtol=1e-15, atol=0.0)


def test_h_plus_is_the_sum_of_the_half_deposits_of_omega_gamma(
        small_history):
    # the first slice's h_plus is the deposit of omega gamma, gamma^2 summed
    # as (1 + w^2) + q/r^2 like the push sums it, split at n // 2 as the run
    # splits it: bit for bit
    h, parts = small_history, small_history.particles_initial
    gamma = np.sqrt(1.0 + parts.w**2 + parts.q / parts.r**2)
    half = len(parts) // 2
    lower, upper = (deposit(parts.r[sl], (parts.weight[sl] * gamma[sl],),
                            h.grid)[0]
                    for sl in (slice(None, half), slice(half, None)))
    assert (lower + upper).tobytes() == h.h_plus[0].tobytes()


def test_a_forked_step_is_two_round_trips(monkeypatch, force_worker):
    # the run writes one command byte to its worker per phase, and a step
    # is two phases: the predictor and the corrected push
    pipes, writes, parent = [], [], os.getpid()
    real_pipe, real_write = os.pipe, os.write
    monkeypatch.setattr(os, "pipe", lambda: pipes.extend(real_pipe())
                        or tuple(pipes[-2:]))
    monkeypatch.setattr(os, "write", lambda fd, data: (
        os.getpid() == parent and writes.append((fd, data)))
        or real_write(fd, data))
    forks = force_worker(True)
    h = run(small_config(resolution=(6, 6, 6), v_final=0.1))
    assert len(forks) == 1 and len(h.vs) == 11
    assert_no_child_left()
    assert writes == [(pipes[1], bytes([code])) for code in (0, 1) * 10]


def history_files(h, directory):
    """{name: bytes} of every file that emit_history writes for h."""
    emit_history(h, directory)
    return {f.name: f.read_bytes() for f in directory.iterdir()}


def test_the_fork_rule_boundary(tmp_path, force_worker):
    # a run forks from PUSH_WORKER_MIN particles and
    # PUSH_WORKER_MIN_PARTICLE_STEPS particle-steps: below either the fork,
    # the reap and the syncs of each step cost more than the worker saves.
    # 14^3 particles pass the particle floor; 13^3 do not, however long the
    # run.  A run that the rule keeps serial writes the serial bytes
    few, many = 13**3, 14**3
    assert few < cone_evolver.PUSH_WORKER_MIN <= many
    last_serial = -(-cone_evolver.PUSH_WORKER_MIN_PARTICLE_STEPS // many) - 1
    files = {}
    for on, res, steps in ((False, 14, last_serial), (None, 14, last_serial),
                           (None, 14, last_serial + 1), (None, 13, 300)):
        forks = force_worker(on)
        h = run(small_config(resolution=(res,) * 3, v_final=0.01 * steps))
        n = len(h.particles_final.r)
        assert len(h.vs) == steps + 1 and n == res**3
        assert len(forks) == (on is None and n * steps >= cone_evolver.
                              PUSH_WORKER_MIN_PARTICLE_STEPS
                              and n >= cone_evolver.PUSH_WORKER_MIN)
        assert_no_child_left()
        if steps == last_serial:
            files[on] = history_files(h, tmp_path / str(on))
    assert len(files[None]) > 1 and files[None] == files[False]


def test_a_long_run_of_4096_particles_forks(tmp_path, force_worker):
    # the round-trip size, 16^3 particles and 300 steps, pays for the
    # worker; the forked run writes the serial bytes
    files = {}
    for on in (False, None):
        forks = force_worker(on)
        h = run(small_config(resolution=(16, 16, 16)))
        assert len(h.particles_final.r) == 4096 and len(h.vs) == 301
        assert len(forks) == (on is None)
        assert_no_child_left()
        files[on] = history_files(h, tmp_path / str(on))
    assert len(files[None]) > 1 and files[None] == files[False]


def test_a_failed_fork_runs_serially(monkeypatch, tmp_path, force_worker):
    # a process limit makes fork fail with EAGAIN: the run closes its pipes
    # and goes on serially, with the serial bytes and no child
    cfg = small_config(resolution=(11, 11, 11), v_final=0.5)
    files, real_pipe = {}, os.pipe
    for on in (False, True):
        force_worker(on)
        pipes = []
        monkeypatch.setattr(os, "pipe", lambda: pipes.extend(real_pipe())
                            or tuple(pipes[-2:]))
        if on:
            def failing():
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            monkeypatch.setattr(os, "fork", failing)
        h = run(cfg)
        assert len(pipes) == 4 * on
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert_no_child_left()
        files[on] = history_files(h, tmp_path / str(on))
    assert len(files[True]) > 1 and files[True] == files[False]


def test_a_nan_radius_aborts_naming_its_particle(monkeypatch, force_worker):
    # the predictor push of step 0 puts particle k, in the worker's half,
    # at r = NaN; the cells of the predicted radii refuse it, by its index
    # in the run, on both paths
    cfg = small_config(resolution=(6, 6, 6), v_final=0.1)
    parts = cone_evolver.sample_particles(cfg.datum, cfg.resolution)
    k, real = len(parts) - 3, cone_evolver.integrate_reduced
    at_k = lambda r, w, q: (r == parts.r[k]) & (w == parts.w[k]) & (
        q == parts.q[k])

    def corrupting(r, w, q, *args, **kwargs):
        r_end, w_end = real(r, w, q, *args, **kwargs)
        r_end[at_k(r, w, q)] = np.nan
        return r_end, w_end

    monkeypatch.setattr(cone_evolver, "integrate_reduced", corrupting)
    errors = {}
    for on in (False, True):
        forks = force_worker(on)
        with pytest.raises(RunAborted) as errors[on]:
            run(cfg)
        assert len(forks) == on
        assert_no_child_left()
        assert type(errors[on].value.__cause__) is ValueError
    assert str(errors[True].value) == str(errors[False].value) == (
        f"step 0 (v=0): particle {k} at r=nan outside shell grid "
        f"[0, {cfg.grid.r_max:g}); enlarge r_max")


def test_a_flipped_strong_push_names_the_trajectory_past_the_axis(
        monkeypatch, force_worker):
    # the strong datum (amplitude 1e4) pushed in its own field flipped in
    # sign falls through the axis; the field lookup of the RK4 stage that
    # first reaches r < 0 names the first such particle by its index in
    # the run, with its r, on both paths: the worker's run redoes the phase
    # over all particles, so it names the index among all 216, not a half's
    cfg = small_config(resolution=(6, 6, 6), datum_params=dict(
        DESK_DATUM_PARAMS, amplitude=1e4))
    real = cone_evolver.eval_field
    monkeypatch.setattr(cone_evolver, "eval_field",
                        lambda grid, I, r: -real(grid, I, r))
    errors = {}
    for on in (False, True):
        forks = force_worker(on)
        with pytest.raises(RunAborted) as errors[on]:
            run(cfg)
        assert len(forks) == on
        assert_no_child_left()
        assert type(errors[on].value.__cause__) is ValueError
    assert str(errors[True].value) == str(errors[False].value) == (
        "step 156 (v=1.56): trajectory 78 (of 216) reached r=-0.0320305: "
        "field evaluation outside r >= 0")


@pytest.mark.parametrize("case", ["lower", "upper", "correct", "solve"])
def test_worker_abort_is_the_serial_abort(monkeypatch, force_worker, case):
    # lower, upper: r_floor 0.4 lies inside the support, whose radii grow
    # with the index; reversed, the particles that cross it in the
    # predictor push are the worker's upper half.  correct: the corrected
    # push gives particle k, index k - n // 2 of the worker's half, a
    # momentum that the positivity check refuses (the predictor keeps only
    # r), so only the redo over all particles names k.  solve: a negative
    # weight of particle k makes g_plus negative, and the field solve of
    # the run's half of the first deposit refuses it
    reorder(monkeypatch, case == "upper")
    floor = {"r_floor": 0.4} if case in ("lower", "upper") else {}
    cfg = small_config(v_final=0.5, resolution=(6, 6, 6), **floor)
    parts = cone_evolver.sample_particles(cfg.datum, cfg.resolution)
    half, k = len(parts) // 2, len(parts) - 3
    real_push, real_sample = (cone_evolver.integrate_reduced,
                              cone_evolver.sample_particles)
    at_k = lambda r, w, q: (r == parts.r[k]) & (w == parts.w[k]) & (
        q == parts.q[k])
    assert np.flatnonzero(at_k(parts.r, parts.w, parts.q)).tolist() == [k]

    def corrupting(r, w, q, *args, **kwargs):
        r_end, w_end = real_push(r, w, q, *args, **kwargs)
        w_end[at_k(r, w, q)] = -1e9   # the start of step 0 finds k
        return r_end, w_end

    def negative(*args):
        parts = real_sample(*args)
        weight = parts.weight.copy()
        weight[k] = -1e3 * np.sum(weight)
        return dataclasses.replace(parts, weight=weight)

    if case in ("lower", "upper"):
        outer = parts.r[half:] if case == "lower" else parts.r[:half]
        assert np.min(outer) > 0.44
        # the redo over all particles names the first one inside the floor
        # by its index in run order, in the upper case one of the worker's
        i = np.flatnonzero(parts.r <= 0.4)[0]
        assert (i >= half) == (case == "upper")
        cause, message = (IntegrationError, f"trajectory {i} (of "
                          f"{len(parts)}) reached r=")
    elif case == "correct":
        monkeypatch.setattr(cone_evolver, "integrate_reduced", corrupting)
        cause, message = (AssertionError,
                          f"measure positivity violated at particle {k}: ")
    else:
        monkeypatch.setattr(cone_evolver, "sample_particles", negative)
        cause, message = (ValueError, "negative g_plus: moment invariant "
                          "violated upstream")
    errors = {}
    for on in (False, True):
        forks = force_worker(on)
        with pytest.raises(RunAborted) as errors[on]:
            run(cfg)
        assert len(forks) == on
        assert_no_child_left()
        assert type(errors[on].value.__cause__) is cause
    assert str(errors[True].value) == str(errors[False].value)
    assert str(errors[True].value).startswith("step 0 (v=0): " + message)


@pytest.mark.parametrize("signum, code", [(signal.SIGKILL, -signal.SIGKILL),
                                          (signal.SIGINT, 0)])
@pytest.mark.parametrize("case", ["predict", "deposit", "correct",
                                  "first-deposit"])
def test_a_worker_ending_mid_run_raises(monkeypatch, capfd, force_worker,
                                        case, signum, code):
    # the worker ends itself inside one of its phases: at its 20th or 24th
    # field lookup (8 a step: 4 in the predictor push, then 4 in the
    # corrected one, of step 2), at its sixth deposit (2 a step: the
    # predicted weights, then the moments of the slice reached, of step 2)
    # or at its first, of step 0's predictor, after the run recorded slice
    # 0 before the fork; the run must raise, not wait forever
    phase, where, calls, step = {
        "predict": ("predict", "eval_field", 20, r"2 \(v=0\.02\)"),
        "correct": ("correct", "eval_field", 24, r"2 \(v=0\.02\)"),
        "deposit": ("correct", "deposit", 6, r"2 \(v=0\.02\)"),
        "first-deposit": ("predict", "deposit", 1, r"0 \(v=0\)")}[case]
    force_worker(True)
    parent, real, seen = os.getpid(), getattr(cone_evolver, where), []

    def ending(*args):
        if os.getpid() != parent:
            seen.append(1)
            if len(seen) == calls:
                os.kill(os.getpid(), signum)
        return real(*args)

    monkeypatch.setattr(cone_evolver, where, ending)
    with pytest.raises(RunAborted, match=rf"^step {step}: the "
                                         rf"worker \(pid \d+\) ended in its "
                                         rf"{phase} phase with exit code "
                                         rf"{code}$") as abort:
        run(small_config(resolution=(6, 6, 6), v_final=0.1))
    assert type(abort.value.__cause__) is RuntimeError
    assert_no_child_left()
    assert capfd.readouterr().err == ""   # the worker leaves quietly


def test_default_probes_are_grid_nodes():
    d = builtin_datum("shell_polynomial")
    grid = ShellGrid(r_max=3.0, n_shells=300)
    probes = default_probe_radii(d, grid)
    snap = np.round(probes / grid.dr) * grid.dr
    assert np.allclose(probes, snap, atol=1e-12)
    assert np.all(probes <= grid.r_max)


def test_probe_snapped_past_r_max_by_rounding_is_read():
    # r_max 0.975 with 10 shells: the probe at 2 R0 = 1.2 snaps to the last
    # node, 10 * dr, one ulp beyond r_max; every probe reader takes it
    h = run(small_config(resolution=(6, 6, 6), n_shells=10, dv=0.05,
                         v_final=0.25))
    r = float(h.probe_radii[-1])
    assert r > h.grid.r_max and h.grid.covers(r)
    assert nirc_flux(h, 0.0, h.v_final, r) == 0.0
    assert np.isfinite(diag.cone_mass(h, 0.0, r))


def test_empty_run():
    cfg = RunConfig(datum_name="zero", n_shells=16, r_max=1.0,
                    v_final=0.5, dv=0.1)
    h = run(cfg)
    assert np.all(h.N_wedge == 0.0)
    assert np.all(h.E == 0.0)


def test_radiation_fluxes_structurally_zero(small_history):
    h = small_history
    assert nirc_flux(h, 0.0, h.v_final, float(h.probe_radii[0])) == 0.0
    with pytest.raises(ValueError):
        nirc_flux(h, 1.0, 0.5, float(h.probe_radii[0]))
    with pytest.raises(ValueError):
        nirc_flux(h, 0.0, 1.0, -1.0)


def test_history_time_interpolation(small_history):
    h = small_history
    n = len(h.vs) // 3
    v_mid = 0.5 * (h.vs[n] + h.vs[n + 1])
    prof = h.profile_at("g_plus", v_mid)
    assert np.allclose(prof, 0.5 * (h.g_plus[n] + h.g_plus[n + 1]))
    # slope 2 reads node j at the advanced time v + 2 r_j
    cone = h.profile_at("g_minus", v_mid, 2.0, j_max=80)
    expected = [np.interp(v_mid + 2.0 * h.grid.edges[j], h.vs, h.g_minus[:, j])
                for j in range(81)]
    assert cone.shape == (81,)
    assert np.allclose(cone, expected, rtol=1e-12,
                       atol=1e-12 * np.max(h.g_minus))
    with pytest.raises(ValueError, match="outside recorded history"):
        h.profile_at("g_plus", h.v_final + 1.0)
    with pytest.raises(ValueError, match="outside recorded history"):
        h.profile_at("g_minus", h.v_final, 2.0)


def _profile_at_per_node(h, name, v, slope=0.0, j_max=None):
    """profile_at as it read every cone, the past cone included: one time,
    one search and two gathers per (label, node) pair."""
    arr = getattr(h, name)
    cols = np.arange(arr.shape[1] if j_max is None else j_max + 1)
    t = np.asarray(v, dtype=float)[..., None] + slope * h.grid.edges[cols]
    vs = h.vs
    lo = float(np.min(t, initial=vs[0]))
    hi = float(np.max(t, initial=vs[0]))
    if not (lo >= vs[0] - 1e-9 and hi <= vs[-1] + 1e-9):
        raise ValueError(
            f"{name} needed at v={hi if hi > vs[-1] else lo:g}, outside "
            f"recorded history [{vs[0]:g}, {vs[-1]:g}]; "
            f"extend time.v_final")
    idx = np.clip(np.searchsorted(vs, t) - 1, 0, len(vs) - 2)
    theta = np.clip((t - vs[idx]) / (vs[idx + 1] - vs[idx]), 0.0, 1.0)
    return (1.0 - theta) * arr[idx, cols] + theta * arr[idx + 1, cols]


def test_past_cone_rows_equal_the_per_node_read(small_history):
    # slope 0 searches once per label and interpolates whole rows; every
    # value must be the per-node formula's, for every label shape, with and
    # without j_max, on slice times and between them
    h = small_history
    on = h.vs[[0, 7, len(h.vs) // 2, -1]]
    between = 0.5 * (h.vs[3:7] + h.vs[4:8])
    labels = [float(on[1]), float(between[0]), 0.0, h.v_final, on, between,
              np.stack([on, between]), np.empty(0), np.empty((2, 0))]
    for slope in (0.0, 1.0, 2.0):
        # the slices and future cones reach later times: keep to the labels
        # whose cone the history covers
        top = h.v_final - slope * h.grid.edges[40]
        for v in labels:
            v = np.minimum(v, top) if slope else v
            for name in ("g_plus", "E"):
                for j_max in ((None, 0, 40) if slope == 0.0 else (0, 40)):
                    got = h.profile_at(name, v, slope, j_max)
                    want = _profile_at_per_node(h, name, v, slope, j_max)
                    assert got.shape == want.shape, (slope, v, j_max)
                    assert np.array_equal(got, want), (slope, v, j_max)
    for v in (h.v_final + 1.0, -1.0, np.nan, np.array([0.0, np.nan]),
              np.array([[0.5, h.v_final + 0.1]])):
        for j_max in (None, 10):
            with pytest.raises(ValueError) as got:
                h.profile_at("g_minus", v, 0.0, j_max)
            with pytest.raises(ValueError) as want:
                _profile_at_per_node(h, "g_minus", v, 0.0, j_max)
            assert str(got.value) == str(want.value)
    # a j_max past the last node, or below -1 (no node at all), is refused
    # on every surface: the past cone's row slice would quietly cut it
    n_nodes = h.g_plus.shape[1]
    for slope in (0.0, 1.0):
        assert h.profile_at("g_plus", 0.1, slope, -1).shape == (0,)
        assert h.profile_at("g_plus", 0.1, slope, n_nodes - 1).shape == (
            n_nodes,)
        for j_max in (-2, -5, n_nodes, n_nodes + 3):
            with pytest.raises(ValueError, match=rf"j_max {j_max} outside "
                                                 rf"the {n_nodes} nodes"):
                h.profile_at("g_plus", 0.1, slope, j_max)
