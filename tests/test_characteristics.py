import re

import numpy as np
import pytest

from vmcone import (IntegrationError, integrate_reduced, integrate_cartesian,
                    phase_divergence, phase_divergence_fd, flow_jacobian_det,
                    embed_reduced_state, one_plus_phat_k)
from vmcone.characteristics import (char_rhs_cartesian, char_rhs_reduced,
                                     _cross)
from vmcone import (report, builtin_datum, sample_particles, ShellGrid,
                    deposit, solve_field, eval_field)
from vmcone.report import jacobian_report, random_states
from conftest import DESK_DATUM_PARAMS


def radial_field_3d(amplitude=0.3):
    def field(v, x):
        x = np.asarray(x, dtype=float)
        return (amplitude * x * np.exp(-np.vecdot(x, x))[..., None],
                np.zeros_like(x))
    return field


def radial_field_reduced(amplitude=0.3):
    def fn(v, r):
        r = np.asarray(r, dtype=float)
        return amplitude * r * np.exp(-r**2)
    return fn


def general_field(v, x):
    x = np.asarray(x, dtype=float)
    env = np.exp(-np.vecdot(x, x))[..., None]
    const = np.ones(x.shape[:-1])
    E = np.stack([0.4 * x[..., 0] + 0.1, -0.2 * x[..., 1], 0.3 * const],
                 axis=-1) * env
    B = np.stack([-x[..., 1], x[..., 0], 0.7 * const], axis=-1) * env
    return E, B


def test_rhs_rejects_origin():
    with pytest.raises(ValueError, match=r"\|x\| = 0"):
        char_rhs_cartesian(0.0, np.zeros(3), np.ones(3), general_field)
    for out in (None, np.empty((2, 1))):
        with pytest.raises(ValueError, match=r"^reduced characteristic RHS "
                                             r"requires r > 0$"):
            char_rhs_reduced(0.0, np.array([0.0]), np.array([0.1]),
                             np.array([0.01]), 0.0, out)


def test_batched_rhs_rejects_any_row_at_origin():
    x = np.array([[0.5, 0.1, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"\|x\| = 0"):
        char_rhs_cartesian(0.0, x, np.ones((2, 3)), general_field)


def test_batched_r_floor_abort_names_row_v_and_r():
    # the second of three radial orbits falls straight onto the axis
    zero = lambda v, x: (np.zeros_like(x), np.zeros_like(x))
    x = np.array([[1.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.8, 0.0]])
    p = np.array([[0.1, 0.2, 0.0], [-0.3, 0.0, 0.0], [0.0, 0.1, 0.3]])
    with pytest.raises(IntegrationError,
                       match=r"trajectory 1 \(of 3\) reached r=0\.0\d+ "
                             r"<= r_floor=0\.05 at v=0\.\d+"):
        integrate_cartesian(x, p, zero, 0.0, 1.0, 0.01, r_floor=0.05)


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    docs = []
    for orbits in (1, 7, report.CHUNK_ORBITS):
        monkeypatch.setattr(report, "CHUNK_ORBITS", orbits)
        docs.append(jacobian_report(n_orbits=50, duration=0.1, seed=7))
    assert docs[0] == docs[1] == docs[2]


def test_random_states_keep_the_per_orbit_draw_order():
    # the draw of the list-of-tuples form: per orbit a direction, a radius
    # and a momentum from one generator
    rng = np.random.default_rng(9)
    want = []
    for _ in range(40):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        want.append((u * rng.uniform(0.4, 1.6), rng.normal(scale=0.6, size=3)))
    x, p = random_states(40, seed=9)
    assert x.tobytes() == np.array([a for a, _ in want]).tobytes()
    assert p.tobytes() == np.array([b for _, b in want]).tobytes()


def test_jacobian_report_peak_memory_is_flat_in_the_orbit_count():
    # the orbits are drawn and checked a chunk at a time: of what grows
    # with the count, only the two error vectors stay
    import tracemalloc

    jacobian_report(n_orbits=1, duration=0.05)
    peaks = []
    for n in (1000, 4000):
        tracemalloc.start()
        try:
            jacobian_report(n_orbits=n, duration=0.05)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.5e6, peaks


def test_cross_is_np_cross_bit_for_bit():
    x, p = random_states(50, seed=7)
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2, 17, 17, 17, 3))
    c = rng.normal(size=3)
    for u, w in ((x, p), (p, x), (a, b), (c, a), (a, c), (c, x)):
        got, want = _cross(u, w), np.cross(u, w)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _old_test_field(amplitude=0.4, b_amplitude=0.3):
    """report._test_field as written with np.stack and np.full."""
    def field(v, x):
        x = np.asarray(x, dtype=float)
        env = np.exp(-np.vecdot(x, x))[..., None]
        E = amplitude * (1.0 + 0.3 * np.sin(1.7 * v)) * x * env
        B = b_amplitude * np.stack(
            [-x[..., 1], x[..., 0], np.full(x.shape[:-1], 0.5)], axis=-1) * env
        return E, B
    return field


def test_test_field_is_the_stacked_field_bit_for_bit():
    rng = np.random.default_rng(2)
    new, old = report._test_field(), _old_test_field()
    for x in (rng.normal(size=(40, 13, 3)), rng.normal(size=3)):
        for v in (0.0, 0.37, 1.5, -2.0):
            for got, want in zip(new(v, x), old(v, x)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_batched_calls_equal_row_by_row_calls():
    # every row of a batched call computes exactly what a (3,) call does
    x, p = random_states(50, seed=7)
    x1, p1 = integrate_cartesian(x, p, general_field, 0.0, 0.3, 0.01)
    det, exact = flow_jacobian_det(x, p, general_field, 0.0, 0.3, 0.01)
    rows = [integrate_cartesian(a, b, general_field, 0.0, 0.3, 0.01)
            for a, b in zip(x, p)]
    assert np.array_equal(x1, np.array([r[0] for r in rows]))
    assert np.array_equal(p1, np.array([r[1] for r in rows]))
    singles = [flow_jacobian_det(a, b, general_field, 0.0, 0.3, 0.01)
               for a, b in zip(x, p)]
    assert np.array_equal(det, [d for d, _ in singles])
    assert np.array_equal(exact, [e for _, e in singles])
    # the base state stacked as row 12 follows the unperturbed flow exactly
    assert np.array_equal(exact,
                          one_plus_phat_k(x, p) / one_plus_phat_k(x1, p1))
    for fn in (phase_divergence, phase_divergence_fd):
        assert np.array_equal(fn(0.3, x, p, general_field),
                              [fn(0.3, a, b, general_field)
                               for a, b in zip(x, p)])
    assert np.array_equal(one_plus_phat_k(x, p),
                          [one_plus_phat_k(a, b) for a, b in zip(x, p)])


@pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, "7", None])
def test_jacobian_report_refuses_a_bad_seed_before_drawing(seed, monkeypatch):
    monkeypatch.setattr(report, "_draw", None)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"seed must be a non-negative integer, got {seed!r}") + "$"):
        jacobian_report(n_orbits=1, seed=seed)


def test_jacobian_report_reference_values():
    doc = jacobian_report(n_orbits=10, seed=0)
    values = {c["name"]: c["value"] for c in doc["checks"]}
    assert abs(values["flow_jacobian_determinant"]
               - 1.8117387635963045e-07) <= 1e-12
    assert abs(values["phase_divergence_closed_form"]
               - 5.653049806042532e-09) <= 1e-12


def test_jacobian_report_names_the_worst_orbits():
    doc = jacobian_report(n_orbits=12, seed=5)
    x, p = random_states(12, seed=5)
    field = report._test_field()
    det, exact = flow_jacobian_det(x, p, field, 0.0, 0.5, 0.01)
    det_err = np.abs(det - exact)
    div_err = np.abs(phase_divergence(0.0, x, p, field)
                     - phase_divergence_fd(0.0, x, p, field))
    values = {c["name"]: c["value"] for c in doc["checks"]}
    assert doc["worst_det_orbit"] == int(np.argmax(det_err))
    assert doc["worst_div_orbit"] == int(np.argmax(div_err))
    assert values["flow_jacobian_determinant"] == det_err[doc["worst_det_orbit"]]
    assert values["phase_divergence_closed_form"] == div_err[doc["worst_div_orbit"]]


def test_jacobian_report_500_orbits_passes():
    doc = jacobian_report(n_orbits=500)
    assert doc["passed"] and doc["orbits"] == 500


def test_free_streaming_is_linear_in_x():
    # with E = B = 0, dx/dv = p/p0 is constant so x(v) is a straight line
    x0 = np.array([0.7, -0.2, 0.4])
    p0 = np.array([0.3, 0.1, -0.2])
    zero = lambda v, x: (np.zeros(3), np.zeros(3))
    x1, p1 = integrate_cartesian(x0, p0, zero, 0.0, 2.0, 0.05)
    k0 = x0 / np.linalg.norm(x0)
    denom = np.sqrt(1.0 + np.dot(p0, p0)) + np.dot(p0, k0)
    # p0 factor varies along the orbit, but p itself is constant
    assert np.allclose(p1, p0, atol=1e-12)
    # verify against a tiny-step reference instead of a closed form
    x_ref, _ = integrate_cartesian(x0, p0, zero, 0.0, 2.0, 0.001)
    assert np.allclose(x1, x_ref, atol=1e-9)
    assert denom > 0.0


def test_reduced_matches_cartesian_in_radial_field():
    r0, w0, q0 = 0.8, 0.15, 0.02
    x0, p0 = embed_reduced_state(r0, w0, q0)
    assert np.isclose(np.dot(np.cross(x0, p0), np.cross(x0, p0)), q0)

    fr, f3 = radial_field_reduced(), radial_field_3d()
    r1, w1 = integrate_reduced(r0, w0, q0, fr, 0.0, 1.5, 0.005)
    x1, p1 = integrate_cartesian(x0, p0, f3, 0.0, 1.5, 0.005)
    k1 = x1 / np.linalg.norm(x1)
    assert np.isclose(np.linalg.norm(x1), r1[0], atol=1e-8)
    assert np.isclose(np.dot(p1, k1), w1[0], atol=1e-8)


def test_angular_momentum_conserved_in_radial_field():
    x0, p0 = embed_reduced_state(0.9, -0.1, 0.03)
    x1, p1 = integrate_cartesian(x0, p0, radial_field_3d(), 0.0, 2.0, 0.01)
    L0 = np.cross(x0, p0)
    L1 = np.cross(x1, p1)
    assert np.allclose(np.dot(L0, L0), np.dot(L1, L1), rtol=1e-10)


def test_kinetic_energy_identity_along_trajectory():
    # d/dv gamma = (w/p0) E_r along reduced characteristics; quadrature of
    # the right side over the trajectory, sampled one step at a time,
    # reproduces Delta gamma
    r0, w0, q0 = 0.6, 0.2, 0.01
    fn = radial_field_reduced(0.5)
    vs = np.linspace(0.0, 1.0, 1001)
    rs, ws = np.empty_like(vs), np.empty_like(vs)
    rs[0], ws[0] = r0, w0
    for i in range(1000):
        r1, w1 = integrate_reduced(rs[i], ws[i], q0, fn, vs[i], vs[i + 1],
                                   1e-3)
        rs[i + 1], ws[i + 1] = r1[0], w1[0]
    Es = fn(vs, rs)
    gamma = np.sqrt(1.0 + ws**2 + q0 / rs**2)
    p0 = gamma + ws
    integrand = ws / p0 * Es
    lhs = gamma[-1] - gamma[0]
    rhs = np.trapezoid(integrand, vs)
    assert np.isclose(lhs, rhs, atol=1e-8)


def test_integrator_schemes_and_order():
    # RK4 is the one scheme: fourth order on the reduced system, and every
    # other scheme name is refused
    r0, w0, q0 = 0.7, 0.1, 0.02
    fn = radial_field_reduced()
    ref, _ = integrate_reduced(r0, w0, q0, fn, 0.0, 1.0, 1e-3)
    errs = {}
    for step in (0.1, 0.05):
        out, _ = integrate_reduced(r0, w0, q0, fn, 0.0, 1.0, step)
        errs[step] = abs(out[0] - ref[0])
    order = np.log2(errs[0.1] / errs[0.05])
    assert 3.5 < order < 4.5
    for scheme in ("midpoint", "euler"):
        with pytest.raises(ValueError, match="unknown scheme"):
            integrate_reduced(r0, w0, q0, fn, 0.0, 1.0, 0.1, scheme=scheme)
    with pytest.raises(ValueError, match="step must be positive"):
        integrate_reduced(r0, w0, q0, fn, 0.0, 1.0, -0.1)


@pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.1])
def test_bad_step_names_the_step(step):
    fn = radial_field_reduced()
    with pytest.raises(ValueError, match="step must be positive and finite"):
        integrate_reduced(0.5, 0.1, 0.01, fn, 0.0, 1.0, step)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        jacobian_report(n_orbits=2, step=step)


@pytest.mark.parametrize("v_to", [float("nan"), float("inf")])
def test_non_finite_span_names_the_span(v_to):
    fn = radial_field_reduced()
    with pytest.raises(ValueError, match=r"span v=0 -> v_to=(nan|inf) is "
                                         r"not finite"):
        integrate_reduced(0.5, 0.1, 0.01, fn, 0.0, v_to, 0.1)
    with pytest.raises(ValueError, match=r"span v=0 -> v_to=(nan|inf) is "
                                         r"not finite"):
        jacobian_report(n_orbits=2, duration=v_to)


def test_a_step_count_past_the_floats_names_the_step_and_span():
    # 1e300 / 1e-300 overflows to inf: a ValueError, not the OverflowError
    # of int(inf), and both integrators refuse it
    message = r"^span 1e\+300 / step 1e-300 overflows the step count$"
    with pytest.raises(ValueError, match=message):
        integrate_reduced(0.5, 0.1, 0.01, radial_field_reduced(), 0.0, 1e300,
                          1e-300)
    with pytest.raises(ValueError, match=message):
        integrate_cartesian(np.ones(3), np.zeros(3), radial_field_3d(), 0.0,
                            1e300, 1e-300)


@pytest.mark.parametrize("v, v_to, step, span", [
    (0.0, 1e200, 1e-100, "v=0 -> v_to=1e+200"),     # v_to - dv == v_to
    (1e20, 2e20, 1.0, "v=1e+20 -> v_to=2e+20"),     # v + dv == v
    (2e20, 1e20, 1.0, "v=2e+20 -> v_to=1e+20")])
def test_a_step_below_the_time_resolution_names_the_step_and_span(
        v, v_to, step, span):
    # such a step cannot move v: refused before any stage, by both
    # integrators, where it would otherwise run 1e300 or 1e20 steps
    message = re.escape(f"step {step:g} is below the time resolution of the "
                        f"span {span}")
    with pytest.raises(ValueError, match=message):
        integrate_reduced(0.5, 0.1, 0.01, None, v, v_to, step)
    with pytest.raises(ValueError, match=message):
        integrate_cartesian(np.ones(3), np.zeros(3), None, v, v_to, step)


def test_zero_span_is_identity():
    r1, w1 = integrate_reduced(0.5, 0.1, 0.01, radial_field_reduced(),
                               1.0, 1.0, 0.1)
    assert r1[0] == 0.5 and w1[0] == 0.1


def test_r_floor_abort():
    # steady inward drift with negligible angular momentum crosses the floor
    fn = lambda v, r: np.zeros_like(np.asarray(r, dtype=float))
    # the abort names the trajectory, its r and the floor, not the push's
    # own time, which is not a run's v
    with pytest.raises(IntegrationError,
                       match=r"^trajectory 0 \(of 1\) reached r=0\.0467805 "
                             r"<= r_floor=0\.05$"):
        integrate_reduced(0.2, -0.3, 1e-12, fn, 0.0, 5.0, 0.01,
                          r_floor=0.05)


def _allocating_push(r, w, q, grid, I, dv, n):
    """The push as written before the fused stepper: a stacked state, a
    field lookup that fills zeros through a boolean index, the reduced RHS
    in its textbook form and an RK4 step that allocates every stage."""
    def E_of(r):
        out = np.zeros_like(r)
        pos = r > 0.0
        I_r = np.interp(r, grid.edges, I)
        out[pos] = I_r[pos] / r[pos] ** 2
        return out

    def rhs(v, y):
        r, w = y[0], y[1]
        gamma = np.sqrt(1.0 + w**2 + q / r**2)
        p0 = gamma + w
        return np.stack([w / p0, (gamma * E_of(r) + (q / r**2) / r) / p0])

    y, v = np.stack([r, w]), 0.0
    for _ in range(n):
        k1 = rhs(v, y)
        k2 = rhs(v + 0.5 * dv, y + 0.5 * dv * k1)
        k3 = rhs(v + 0.5 * dv, y + 0.5 * dv * k2)
        k4 = rhs(v + dv, y + dv * k3)
        y = y + (dv / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v += dv
    return y


@pytest.fixture(scope="module")
def desk_particles_in_field():
    parts = sample_particles(builtin_datum("shell_polynomial",
                                           DESK_DATUM_PARAMS), (32, 32, 32))
    grid = ShellGrid(1.2, 512)
    return parts, grid, solve_field(grid, deposit(parts.r, (parts.weight,),
                                                  grid)[0])


def test_fused_push_equals_allocating_push(desk_particles_in_field):
    parts, grid, I = desk_particles_in_field
    r1, w1 = integrate_reduced(parts.r, parts.w, parts.q,
                               lambda v, r: eval_field(grid, I, r), 0.0, 0.02,
                               0.005)
    ref = _allocating_push(parts.r, parts.w, parts.q, grid, I, 0.005, 4)
    assert len(parts) > 10000
    assert np.array_equal(r1, ref[0]) and np.array_equal(w1, ref[1])


def test_push_only_reads_the_field_arrays(desk_particles_in_field):
    parts, grid, I = desk_particles_in_field
    returned = []

    def field_fn(v, r):
        E = eval_field(grid, I, r)
        returned.append((E, E.copy()))
        return E

    r0, w0 = parts.r.copy(), parts.w.copy()
    integrate_reduced(parts.r, parts.w, parts.q, field_fn, 0.0, 0.01, 0.005)
    assert len(returned) == 8
    assert all(np.array_equal(E, kept) for E, kept in returned)
    assert np.array_equal(parts.r, r0) and np.array_equal(parts.w, w0)


def test_phase_divergence_matches_fd():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.normal(size=3)
        x = u / np.linalg.norm(u) * rng.uniform(0.5, 1.5)
        p = rng.normal(scale=0.8, size=3)
        a = phase_divergence(0.3, x, p, general_field)
        b = phase_divergence_fd(0.3, x, p, general_field)
        assert abs(a - b) < 1e-6


def test_phase_divergence_free_streaming_sign():
    # without fields the divergence is -|phat x k|^2 / (r (1+phat.k)^2) <= 0
    zero = lambda v, x: (np.zeros(3), np.zeros(3))
    x, p = embed_reduced_state(1.0, 0.1, 0.05)
    val = phase_divergence(0.0, x, p, zero)
    k = x / np.linalg.norm(x)
    phat = p / np.sqrt(1.0 + np.dot(p, p))
    cross = np.cross(phat, k)
    expected = -np.dot(cross, cross) / (1.0 + np.dot(phat, k)) ** 2
    assert val <= 0.0
    assert np.isclose(val, expected)


def test_jacobian_identity_on_tangential_orbit():
    # mostly tangential orbit in a fixed external radial field
    x, p = embed_reduced_state(1.0, 0.02, 0.09)
    field = radial_field_3d()
    det_fd, det_exact = flow_jacobian_det(x, p, field, 0.0, 0.4, 1e-3)
    assert abs(det_fd - det_exact) <= 1e-5


def test_jacobian_zero_span_is_one():
    x, p = embed_reduced_state(0.8, 0.1, 0.02)
    det, exact = flow_jacobian_det(x, p, radial_field_3d(), 0.5, 0.5, 1e-3)
    assert np.isclose(det, 1.0, atol=1e-12)
    assert exact == 1.0


def test_jacobian_identity_with_magnetic_field():
    x = np.array([0.9, 0.3, -0.2])
    p = np.array([0.2, -0.4, 0.1])
    det_fd, det_exact = flow_jacobian_det(x, p, general_field, 0.0, 0.5, 1e-3)
    assert abs(det_fd - det_exact) <= 1e-5


def test_one_plus_phat_k_range():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.normal(size=3)
        if np.linalg.norm(x) < 1e-3:
            continue
        p = rng.normal(scale=3.0, size=3)
        val = one_plus_phat_k(x, p)
        assert 0.0 < val < 2.0
