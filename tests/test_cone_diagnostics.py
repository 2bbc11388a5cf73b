import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from vmcone import ShellGrid, ParticleSet, SliceHistory
from vmcone import cone_diagnostics as diag
from vmcone.radial_field import radial_integral
from vmcone.report import diagnose_report


def test_radial_integral_against_quadrature(small_history):
    grid = ShellGrid(r_max=1.0, n_shells=1000)
    values = np.exp(-2.0 * grid.edges)
    for r in (0.3137, 0.75, 1.0):
        ref, _ = quad(lambda s: np.exp(-2.0 * s) * s**2, 0.0, r)
        got = radial_integral(grid, values, r)
        assert got == pytest.approx(4.0 * np.pi * ref, abs=1e-6)
    assert radial_integral(grid, values, 0.0) == 0.0
    assert radial_integral(grid, values) == radial_integral(grid, values, 1.0)
    with pytest.raises(ValueError, match="outside"):
        radial_integral(grid, values, 1.5)


def test_radial_integral_equals_whole_grid_trapezoid(small_history):
    # the field energy and the L^{4/3} norm are the plain whole-grid
    # trapezoid sums, bit for bit, on every recorded slice
    grid = small_history.grid
    r2 = grid.edges**2
    for E, g in zip(small_history.E, small_history.g_plus):
        energy = float(4.0 * np.pi * np.trapezoid(0.5 * E**2 * r2,
                                                  dx=grid.dr))
        assert radial_integral(grid, 0.5 * E**2) == energy
        l43 = 4.0 * np.pi * np.trapezoid(np.abs(g) ** (4.0 / 3.0) * r2,
                                         dx=grid.dr)
        assert diag.l43_norm(grid, g) == float(l43 ** 0.75)


def test_past_cone_mass_variants(small_history):
    # the trapezoid past-cone mass over the whole grid stays within the
    # deposition error of the node-volume sum recorded as N_wedge
    h = small_history
    n = len(h.vs) // 2
    cont = diag.cone_mass(h, float(h.vs[n]), h.grid.r_max)
    assert cont == pytest.approx(float(h.N_wedge[n]), rel=2e-3)


def _per_surface_integral(h, v, slope, r, combine):
    """Reference: a slice or future-cone integral written out for one
    surface, with its own integrand ``combine``."""
    grid = h.grid
    j_max = min(int(np.searchsorted(grid.edges, float(r), side="right")),
                grid.n_shells)
    f = {name: h.profile_at(name, v, slope, j_max)
         for name in ("g_plus", "g_minus", "h_plus", "h_minus", "E")}
    padded = np.zeros(grid.n_shells + 1)
    padded[:j_max + 1] = combine(f)
    return radial_integral(grid, padded, r)


def test_cone_functionals_equal_the_per_surface_formulas(small_history):
    h = small_history
    _, r_eval = diag.evaluable_window(h, 2.0)
    for r in (r_eval, float(h.probe_radii[0]), 0.4137):
        for v in (0.0, 0.37, 1.0):
            assert diag.cone_mass(h, v, r) == radial_integral(
                h.grid, h.profile_at("g_plus", v), r)
            assert diag.cone_mass(h, v, r, 1.0) == _per_surface_integral(
                h, v, 1.0, r, lambda f: 0.5 * (f["g_plus"] + f["g_minus"]))
            assert diag.cone_mass(h, v, r, 2.0) == _per_surface_integral(
                h, v, 2.0, r, lambda f: f["g_minus"])
            assert diag.cone_energy(h, v, r, 1.0) == _per_surface_integral(
                h, v, 1.0, r, lambda f: 0.5 * (f["h_plus"] + f["h_minus"])
                + 0.5 * f["E"] ** 2)
            assert diag.cone_energy(h, v, r, 2.0) == _per_surface_integral(
                h, v, 2.0, r, lambda f: f["h_minus"] + 0.5 * f["E"] ** 2)
            # the past-cone energy is one integral of h_plus + E^2/2, not
            # the sum of two, so it agrees to rounding only
            two = (radial_integral(h.grid, h.profile_at("h_plus", v), r)
                   + radial_integral(h.grid,
                                     0.5 * h.profile_at("E", v) ** 2, r))
            assert diag.cone_energy(h, v, r) == pytest.approx(two, rel=1e-13)


def test_evaluable_window(small_history):
    h = small_history
    v_max, r_eval = diag.evaluable_window(h, 2.0)
    assert r_eval >= float(np.max(h.R_slice_max))
    assert 0.0 < v_max < h.v_final
    # slope 1 window is wider than slope 2
    v_max1, _ = diag.evaluable_window(h, 1.0)
    assert v_max1 > v_max
    with pytest.raises(ValueError, match="slope"):
        diag.evaluable_window(h, 0.0)


def test_shifted_series_agree_with_past_cone(small_history):
    h = small_history
    N0 = float(h.N_wedge[0])
    for which, norm in (("N_slice", N0), ("N_vee", N0)):
        vs, vals, r_eval = diag.functional_series(h, which)
        ref = diag.cone_mass(h, 0.0, r_eval)
        assert np.max(np.abs(vals - ref)) / norm < 5e-3
    with pytest.raises(KeyError):
        diag.functional_series(h, "bogus")


def test_energy_functionals_positive(small_history):
    h = small_history
    v = 0.5
    r = float(np.max(h.R_slice_max)) + 2.0 * h.grid.dr
    for slope in (0.0, 1.0, 2.0):
        assert diag.cone_energy(h, v, r, slope) > 0.0
    # kinetic energy dominates the rest mass: m <= e pointwise
    assert diag.cone_energy(h, v, r) >= diag.cone_mass(h, v, r)


def test_flux_identities_small_scale(small_history):
    h = small_history
    N0 = float(h.N_wedge[0])
    for v in (0.0, 0.5, 1.0):
        assert abs(diag.mass_identity_residual(h, v, 0)) < 5e-3 * N0
    assert abs(diag.mass_identity_residual(h, 0.0, 0, 2.0)) < 5e-3 * N0


def test_flux_derivative_checks(small_history):
    out = diag.flux_derivative_checks(small_history)
    assert out["mass_flux_residual"] < 0.05
    assert out["energy_flux_residual"] < 0.05
    assert out["min_outgoing_integrand"] >= 0.0


def test_l43_norm_closed_form():
    grid = ShellGrid(r_max=1.5, n_shells=600)
    c = 0.7
    g = np.full(grid.n_shells + 1, c)
    expected = (4.0 * np.pi * c ** (4.0 / 3.0) * 1.5**3 / 3.0) ** 0.75
    assert diag.l43_norm(grid, g) == pytest.approx(expected, rel=1e-5)


def test_explicit_constants_frozen_values():
    # frozen oracle values of the two explicit constants at sample inputs
    K = diag.l43_bound_constant(2.0, 0.5)
    assert K == pytest.approx((8.0 * np.pi / 3.0 + 1.0)
                              * 2.0**0.25 * 0.5**0.75)
    assert K == pytest.approx(6.6309507, rel=1e-6)
    C_E = diag.field_bound_constant(2.0, 0.5)
    expected = ((K ** (4.0 / 3.0) / (4.0 * np.pi)) ** (1.0 / 3.0)
                * (8.0 * np.pi / 3.0 * 2.0) ** (5.0 / 9.0) * 3.0 ** (-2.0 / 3.0))
    assert C_E == pytest.approx(expected, rel=1e-12)
    assert C_E == pytest.approx(2.2947915, rel=1e-6)


def test_momentum_ceiling_properties():
    # with no field constant the ceiling collapses to the initial support
    assert diag.momentum_ceiling(0.4, 0.0, 0.0) == pytest.approx(0.4, abs=1e-10)
    # ceiling solves the scalar equation: phi changes sign there
    P0, N0, C_E = 0.3, 0.01, 2.0
    A = 2.0 * np.sqrt(N0 * C_E)
    P = diag.momentum_ceiling(P0, N0, C_E)

    def phi(x):
        return np.sqrt(1 + x**2) - np.sqrt(1 + P0**2) - A * x ** (5.0 / 6.0)

    assert phi(P * (1 - 1e-6)) <= 0.0 <= phi(P * (1 + 1e-6))
    assert P > P0


def test_momentum_support_bound_report(small_history):
    h = small_history
    out = diag.momentum_support_bound(h)
    assert out["self_consistency_ok"]
    assert out["field_bound_max_margin"] <= 1e-12 * out["N0"]
    assert out["measured_P_final"] <= out["momentum_ceiling"]
    # the array form equals the per-slice loop it replaced
    N0, C_E, P0 = out["N0"], out["field_constant"], float(h.P_wedge[0])
    A = 2.0 * np.sqrt(N0 * C_E)
    margin, ok = -np.inf, True
    for n, P in enumerate(h.P_wedge):
        bound = np.minimum(N0 / h.grid.edges[1:] ** 2, C_E * P ** (5.0 / 3.0))
        margin = max(margin, float(np.max(np.abs(h.E[n][1:]) - bound)))
        lhs = np.sqrt(1.0 + P**2)
        if lhs > np.sqrt(1.0 + P0**2) + A * P ** (5.0 / 6.0) + 1e-12:
            ok = False
    assert out["field_bound_max_margin"] == margin
    assert out["self_consistency_ok"] == ok


def test_l43_bound_check(small_history):
    out = diag.l43_bound_check(small_history)
    assert out["max_norm"] <= out["bound"]


def test_lq_invariant():
    parts = ParticleSet(r=np.array([0.5, 0.7]), w=np.array([0.1, -0.1]),
                        q=np.array([0.01, 0.02]), weight=np.array([2.0, 3.0]),
                        f_value=np.array([0.5, 0.25]))
    assert diag.lq_invariant(parts, 1.0) == pytest.approx(5.0)
    assert diag.lq_invariant(parts, 2.0) == pytest.approx(2.0 * 0.5 + 3.0 * 0.25)
    with pytest.raises(ValueError):
        diag.lq_invariant(parts, 0.5)
    empty = ParticleSet(*(np.empty(0) for _ in range(5)))
    assert diag.lq_invariant(empty, 2.0) == 0.0


def _flux_samples(doc):
    return {c["name"]: c["samples"] for c in doc["checks"] if "samples" in c}


def test_flux_identity_samples_and_skipped_checks(small_history):
    from conftest import desk_config
    from vmcone import run
    from vmcone.report import diagnose_report

    # 50 desk steps (the desk_run benchmark's run): no probe has a window
    # and no shifted series exists, so the identities evaluated nothing and
    # the series checks are skipped; the flux derivatives take a central
    # difference at every inner slice of every probe
    h = run(desk_config(v_final=0.25))
    short = diagnose_report(h)
    inner = len(h.probe_radii) * (len(h.vs) - 2)
    assert inner > 0
    assert _flux_samples(short) == {
        "slice_mass_flux_identity": 0, "future_mass_flux_identity": 0,
        "mass_flux_derivative": inner, "energy_flux_derivative": inner}
    assert [s["name"] for s in short["skipped"]] == [
        "N_slice_constancy", "M_slice_constancy", "N_vee_constancy",
        "N_vee_monotone", "M_vee_constancy", "M_vee_monotone"]
    assert all("needs v_final" in s["reason"] for s in short["skipped"])
    assert not {s["name"] for s in short["skipped"]} & {
        c["name"] for c in short["checks"]}

    # one step records two slices, so no slice has a neighbour on both
    # sides: the flux derivatives pass at 0.0 having checked nothing, and
    # their samples say so
    two = run(desk_config(resolution=(6, 6, 6), dv=0.01, v_final=0.01))
    assert len(two.vs) == 2
    checks = {c["name"]: c for c in diagnose_report(two)["checks"]}
    for name in ("mass_flux_derivative", "energy_flux_derivative"):
        assert checks[name]["value"] == 0.0 and checks[name]["passed"]
        assert checks[name]["samples"] == 0

    full = diagnose_report(small_history)
    samples = _flux_samples(full)
    assert set(samples) == {"slice_mass_flux_identity",
                            "future_mass_flux_identity",
                            "mass_flux_derivative", "energy_flux_derivative"}
    assert all(n > 0 for n in samples.values())
    assert full["skipped"] == []


def test_a_future_cone_window_of_one_label_skips_its_monotone_checks():
    # at v_final 3.30 the future-cone window holds one label, so its series
    # has no increment: both monotone checks are skipped with that reason,
    # never left out; at 3.31 the window holds two labels and both run
    from vmcone import RunConfig, run
    from vmcone.report import diagnose_report

    monotone = {"N_vee_monotone", "M_vee_monotone"}
    names = {}
    for v_final in (3.30, 3.31):
        doc = diagnose_report(run(RunConfig(
            datum_name="shell_polynomial", resolution=(6, 6, 6),
            n_shells=128, dv=0.01, v_final=v_final)))
        ran = {c["name"] for c in doc["checks"]}
        names[v_final] = ran | {s["name"] for s in doc["skipped"]}
        assert len(ran) + len(doc["skipped"]) == 24
        assert {s["name"]: s["reason"] for s in doc["skipped"]} == (
            {} if v_final == 3.31 else dict.fromkeys(
                monotone, "one label in the window, so no increment"))
    assert names[3.30] == names[3.31]


# ---------------------------------------------------------------------------
# batched cone functionals against the per-label forms

def _old_radial_integral(grid, values, r):
    """The per-label quadrature: whole-grid values, np.interp in the
    partial last cell."""
    edges = grid.edges
    integrand = values * edges**2
    j = int(np.searchsorted(edges, r, side="right")) - 1
    total = np.trapezoid(integrand[:j + 1], dx=grid.dr) if j >= 1 else 0.0
    if j < grid.n_shells and r > edges[j]:
        v_r = np.interp(r, edges, values)
        total += 0.5 * (r - edges[j]) * (integrand[j] + v_r * r**2)
    return 4.0 * np.pi * float(total)


def test_batched_radial_integral_equals_the_per_row_calls(small_history):
    grid = small_history.grid
    rows = small_history.g_plus
    for r in (0.0, 0.3 * grid.dr, 0.4137, 40 * grid.dr, grid.r_max):
        batched = radial_integral(grid, rows, r)
        assert batched.shape == rows.shape[:1]
        per_row = [_old_radial_integral(grid, g, r) for g in rows]
        assert np.array_equal(batched, per_row), r
        assert np.array_equal(
            radial_integral(grid, rows.reshape(-1, 7, rows.shape[1]), r),
            np.reshape(per_row, (-1, 7))), r
        # only the nodes up to the first one at or beyond r are needed
        j_max = min(int(np.searchsorted(grid.edges, r, side="right")),
                    grid.n_shells)
        assert np.array_equal(radial_integral(grid, rows[:, :j_max + 1], r),
                              batched), r
        assert radial_integral(grid, rows[3], r) == per_row[3]
    assert np.array_equal(radial_integral(grid, rows),
                          radial_integral(grid, rows, grid.r_max))


def test_batched_cone_functionals_equal_the_per_label_calls(small_history):
    h = small_history
    covered = set()
    for slope in (0.0, 1.0, 2.0):
        for r in (0.4137, h.grid.r_max):
            top = diag.window_top(h, slope, r)
            if top < 0.0:   # the future cone out to r_max is not recorded
                continue
            covered.add((slope, r))
            vs = np.linspace(0.0, top, 12)
            for fn in (diag.cone_mass, diag.cone_energy):
                batched = fn(h, vs, r, slope)
                assert batched.shape == vs.shape
                assert np.array_equal(
                    batched, [fn(h, float(v), r, slope) for v in vs])
                assert np.array_equal(fn(h, vs.reshape(3, 4), r, slope),
                                      batched.reshape(3, 4))
            j_max = min(int(np.searchsorted(h.grid.edges, r, side="right")),
                        h.grid.n_shells)
            for name in ("g_plus", "h_minus", "E"):
                rows = h.profile_at(name, vs.reshape(3, 4), slope, j_max)
                assert rows.shape == (3, 4, j_max + 1)
                assert np.array_equal(rows.reshape(12, -1), [
                    h.profile_at(name, float(v), slope, j_max) for v in vs])
    assert len(covered) == 5
    # the range guard and its message hold for a batch as for one label
    with pytest.raises(ValueError, match=r"g_plus needed at v=.*outside "
                                         r"recorded history"):
        h.profile_at("g_plus", np.array([0.0, h.v_final]), 1.0)
    with pytest.raises(ValueError, match="outside recorded history"):
        h.profile_at("g_plus", np.array([0.0, np.nan]))


def _old_flux_time_integral(history, series, v1, v2):
    """The per-label flux integral: trapezoid over v1, the slices between
    and v2."""
    vs = history.vs
    inner = (vs > v1) & (vs < v2)
    ts = np.concatenate([[v1], vs[inner], [v2]])
    return float(np.trapezoid(np.interp(ts, vs, series), ts))


def test_batched_checks_equal_their_per_label_loops(small_history):
    h = small_history
    vs, N0, M0 = h.vs, float(h.N_wedge[0]), float(h.M_wedge[0])
    # flux_derivative_checks, one label pair at a time
    stride = max(1, len(vs) // 64)
    res_n = res_m = 0.0
    for col, r_p in enumerate(h.probe_radii):
        r_p = float(r_p)
        for i in np.arange(stride, len(vs) - stride, stride):
            dt = vs[i + stride] - vs[i - stride]
            dn = (diag.cone_mass(h, vs[i + stride], r_p)
                  - diag.cone_mass(h, vs[i - stride], r_p)) / dt
            dm = (diag.cone_energy(h, vs[i + stride], r_p)
                  - diag.cone_energy(h, vs[i - stride], r_p)) / dt
            res_n = max(res_n, abs(dn + h.flux_j[i, col]) / N0)
            res_m = max(res_m, abs(dm + h.flux_p[i, col]) / M0)
    fd = diag.flux_derivative_checks(h)
    assert fd["mass_flux_residual"] == res_n > 0.0
    assert fd["energy_flux_residual"] == res_m > 0.0
    # l43_bound_check, one slice at a time
    norms = [diag.l43_norm(h.grid, g) for g in h.g_plus]
    assert diag.l43_bound_check(h)["max_norm"] == max(norms)
    # the mass flux identity, one label at a time; the cumulative flux
    # integral reassociates the trapezoid sum, so it agrees to rounding
    samples = 0
    for slope in (1.0, 2.0):
        for col, r_p in enumerate(h.probe_radii):
            r_p = float(r_p)
            top = diag.window_top(h, slope, r_p)
            if top < 0.0:
                continue
            labels = np.linspace(0.0, top, 9)
            batched = diag.mass_identity_residual(h, labels, col, slope)
            for v, got in zip(labels, batched):
                v = float(v)
                old = (diag.cone_mass(h, v, r_p, slope)
                       - diag.cone_mass(h, v, r_p)
                       + _old_flux_time_integral(h, h.flux_j[:, col], v,
                                                 v + slope * r_p))
                assert abs(got - old) <= 1e-15 * N0, (slope, r_p, v)
                assert diag.mass_identity_residual(h, v, col, slope) == got
                samples += 1
    assert samples > 9


def test_profile_reads_per_report_do_not_grow_with_slices(small_history,
                                                          monkeypatch):
    from dataclasses import replace
    from vmcone.cone_evolver import SliceHistory
    from vmcone.report import diagnose_report

    h = small_history
    # the same run recorded at every other slice
    half = replace(h, **{name: getattr(h, name)[::2] for name in (
        "vs", "g_plus", "g_minus", "h_plus", "h_minus", "P_slice",
        "R_slice_min", "R_slice_max")})
    assert 2 * len(half.vs) - 1 == len(h.vs)
    calls = []
    read = SliceHistory.profile_at
    monkeypatch.setattr(SliceHistory, "profile_at",
                        lambda self, *a, **k: calls.append(1) or read(
                            self, *a, **k))
    counts = []
    for history in (half, h):
        calls.clear()
        doc = diagnose_report(history)
        assert doc["skipped"] == []
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_a_nan_profile_fails_the_checks_that_read_it(small_history):
    from dataclasses import replace
    from vmcone.report import diagnose_report

    # one slice of g_minus lost, one the flux derivative samples (every
    # len // 64-th): every check that reads it fails with a NaN value,
    # none drops the NaN label and passes on the others
    g_minus = small_history.g_minus.copy()
    stride = len(g_minus) // 64
    g_minus[stride * (len(g_minus) // (4 * stride))] = np.nan
    doc = diagnose_report(replace(small_history, g_minus=g_minus))
    checks = {c["name"]: c for c in doc["checks"]}
    for name in ("slice_mass_flux_identity", "future_mass_flux_identity",
                 "mass_flux_derivative", "N_slice_constancy"):
        assert np.isnan(checks[name]["value"]), name
        assert not checks[name]["passed"], name
    assert not doc["passed"]


FLUX_CHECKS = ("slice_mass_flux_identity", "future_mass_flux_identity",
               "mass_flux_derivative", "energy_flux_derivative")


def test_the_flux_checks_see_a_flipped_probe_flux(desk_history, desk_report,
                                                  monkeypatch):
    # the default probes hold the datum's matter: the four flux checks pass
    # on the desk run (2.0e-4, 4.4e-4, 9.5e-3, 9.5e-3), and a probe flux of
    # the wrong sign fails each of them (0.14, 0.26, 0.23, 0.23)
    checks = lambda report: {c["name"]: c for c in report["checks"]}
    clean = checks(desk_report)
    assert all(clean[name]["passed"] for name in FLUX_CHECKS)
    real = SliceHistory._probe_flux
    monkeypatch.setattr(SliceHistory, "_probe_flux",
                        lambda self, plus, minus: -real(self, plus, minus))
    h = dataclasses.replace(desk_history)   # a copy without cached fluxes
    h.particles_initial = desk_history.particles_initial
    flipped = checks(diagnose_report(h))
    assert not any(flipped[name]["passed"] for name in FLUX_CHECKS)
