import dataclasses
import os
import signal
import sys

import numpy as np
import pytest

from vmcone import (RunConfig, run, step, auto_r_max, IntegrationError,
                    default_probe_radii, nirc_flux, builtin_datum,
                    sample_particles, ShellGrid, ParticleSet, deposit,
                    moment_payloads, solve_field, node_field, eval_field,
                    MOMENTS, cone_evolver)
from vmcone import cone_diagnostics as diag
from vmcone.characteristics import char_rhs_reduced
from vmcone.io_utils import emit_history
from conftest import small_config


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


def test_derived_series_equal_the_per_slice_formulas(small_history):
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
    for g in (dataclasses.replace(h, probe_radii=probes),
              dataclasses.replace(h, probe_radii=probes, **noise)):
        with np.errstate(invalid="ignore"):   # the unused inf * 0 branch
            fluxes = g.flux_j, g.flux_p
        for flux, plus, minus in ((fluxes[0], g.g_plus, g.g_minus),
                                  (fluxes[1], g.h_plus, g.h_minus)):
            at = np.array([np.interp(probes, edges, p - m)
                           for p, m in zip(plus, minus)])
            assert np.array_equal(flux, 4.0 * np.pi * probes**2 * (0.5 * at))


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
    return solve_field(grid, deposit(parts.r, moment_payloads(parts), grid)[0])


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


def test_step_zero_dv_is_identity():
    parts = sample_particles(builtin_datum("shell_polynomial"), 8)
    grid = ShellGrid(r_max=2.0, n_shells=64)
    out = step(parts, grid, start_field(parts, grid), 0.0)
    assert np.array_equal(out.r, parts.r)
    assert np.array_equal(out.w, parts.w)


def test_step_against_manual_push():
    # the step must equal a hand-rolled predictor-corrector built on the
    # same start-of-step field
    parts = sample_particles(builtin_datum("shell_polynomial"), 6)
    grid = ShellGrid(r_max=2.0, n_shells=128)
    dv = 1e-3
    I = start_field(parts, grid)
    pushed = step(parts, grid, I, dv)
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
        evolved = step(evolved, grid, start_field(evolved, grid), dv)
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
    with pytest.raises(ValueError,
                       match=r"^step \d+ \(v=[0-9.]+\): particle \d+ at r="):
        run(cfg)
    # a floor above the inner edge of the support: the first push crosses it
    cfg = small_config(r_floor=0.4, v_final=0.5, resolution=(6, 6, 6))
    with pytest.raises(IntegrationError, match=r"^step 0 \(v=0\): trajectory"):
        run(cfg)


def test_measure_positivity_abort_names_step_and_v(monkeypatch):
    # a corrupt momentum after step 2 fails the positivity bound
    real, steps = cone_evolver.step, []

    def corrupting(parts, *args):
        pushed = real(parts, *args)
        steps.append(pushed)
        if len(steps) == 3:
            pushed.w[0] = -1e9
        return pushed

    monkeypatch.setattr(cone_evolver, "step", corrupting)
    with pytest.raises(AssertionError, match=r"^step 2 \(v=0\.0[0-9]*\): "
                                             r"measure positivity violated "
                                             r"at particle 0: "):
        run(small_config(resolution=(6, 6, 6), v_final=0.1))
    assert len(steps) == 3


def push_worker(monkeypatch, on):
    """Push half of every run's particles in a worker whatever the particle
    and CPU counts (on), or never; returns the list of forks made."""
    if on and not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    monkeypatch.setattr(cone_evolver, "PUSH_WORKER_MIN",
                        0 if on else sys.maxsize)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forks, real = [], os.fork
    if on:
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_push_gives_the_serial_bytes(monkeypatch, tmp_path):
    # an odd particle count, so the halves differ in size
    cfg = small_config(resolution=(11, 11, 11), v_final=0.5)
    files, finals = {}, {}
    for on in (False, True):
        forks = push_worker(monkeypatch, on)
        h = run(cfg)
        assert len(forks) == on
        assert_no_child_left()
        emit_history(h, tmp_path / str(on))
        files[on] = {f.name: f.read_bytes()
                     for f in (tmp_path / str(on)).iterdir()}
        finals[on] = h.particles_final
    assert len(finals[True]) % 2 == 1 and len(files[True]) > 1
    assert files[True] == files[False]
    for name in ("r", "w", "q", "weight", "f_value"):
        assert np.array_equal(getattr(finals[True], name),
                              getattr(finals[False], name))


def test_a_short_run_forks_no_worker(monkeypatch, tmp_path):
    # below PUSH_WORKER_MIN_STEPS the fork and reap cost more than the
    # worker saves: a run forced onto the worker path forks only from that
    # step count, and the short run writes the serial bytes
    n = cone_evolver.PUSH_WORKER_MIN_STEPS
    files = {}
    for on, steps in ((False, n - 1), (True, n - 1), (True, n)):
        forks = push_worker(monkeypatch, on)
        h = run(small_config(resolution=(11, 11, 11), v_final=0.01 * steps))
        assert len(h.vs) == steps + 1
        assert len(forks) == (on and steps >= n)
        assert_no_child_left()
        if steps < n:
            emit_history(h, tmp_path / str(on))
            files[on] = {f.name: f.read_bytes()
                         for f in (tmp_path / str(on)).iterdir()}
    assert len(files[True]) > 1 and files[True] == files[False]


@pytest.mark.parametrize("inner_half", ["lower", "upper"])
def test_worker_abort_is_the_serial_abort(monkeypatch, inner_half):
    # r_floor 0.4 lies inside the support, whose radii grow with the index;
    # reversed, the particles that cross it are the worker's upper half
    real = cone_evolver.sample_particles

    def ordered(*args):
        parts = real(*args)
        if inner_half == "upper":
            parts = ParticleSet(*(a[::-1].copy() for a in (
                parts.r, parts.w, parts.q, parts.weight, parts.f_value)))
        half = len(parts) // 2
        outer = parts.r[half:] if inner_half == "lower" else parts.r[:half]
        assert np.min(outer) > 0.44
        return parts

    monkeypatch.setattr(cone_evolver, "sample_particles", ordered)
    cfg = small_config(r_floor=0.4, v_final=0.5, resolution=(6, 6, 6))
    errors = {}
    for on in (False, True):
        forks = push_worker(monkeypatch, on)
        with pytest.raises(IntegrationError) as errors[on]:
            run(cfg)
        assert len(forks) == on
        assert_no_child_left()
    assert errors[True].type is errors[False].type
    assert str(errors[True].value) == str(errors[False].value)
    assert str(errors[True].value).startswith(
        "step 0 (v=0): trajectory reached r <= r_floor=0.4 at v=0.01")


@pytest.mark.parametrize("signum, code", [(signal.SIGKILL, -signal.SIGKILL),
                                          (signal.SIGINT, 0)])
def test_a_worker_ending_mid_run_raises(monkeypatch, capfd, signum, code):
    # the worker ends itself at its 20th field lookup, in step 2; the run
    # must raise, not wait forever (the alarm turns a hang into a failure)
    push_worker(monkeypatch, True)
    parent, real, calls = os.getpid(), cone_evolver.eval_field, []

    def ending(grid, I, r):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == 20:
                os.kill(os.getpid(), signum)
        return real(grid, I, r)

    def hung(*_):
        raise TimeoutError("run waited on a worker that had ended")

    monkeypatch.setattr(cone_evolver, "eval_field", ending)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match=rf"^step 2 \(v=0\.02\): the "
                                               rf"push worker \(pid \d+\) "
                                               rf"ended during a push with "
                                               rf"exit code {code}$"):
            run(small_config(resolution=(6, 6, 6), v_final=0.1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
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
