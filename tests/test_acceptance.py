"""Acceptance suite: the thirteen verification criteria at desk scale
(32^3 particles, 512 shells, dv = 0.005, v_final = 5).

Each test prints one pass/fail line; run with -s (or read the -v report)
to see them.
"""

import os

import numpy as np
import pytest

from vmcone import (run, flow_jacobian_det,
                    phase_divergence, phase_divergence_fd,
                    embed_symmetric_solution, check_equivalence,
                    grid_from_functions, audit, emit_history, nirc_flux)
from vmcone import cone_diagnostics as diag
from vmcone.report import random_states

from conftest import desk_config
from test_constraint_audit import random_field_set, smooth_ball_fields


def _verdict(num, label, value, tol, ok=None):
    ok = (value <= tol) if ok is None else ok
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label}): "
          f"value {value:.3e}, tolerance {tol:.3e}")
    assert ok, f"criterion {num} ({label}): {value:.3e} > {tol:.3e}"


def _check_value(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise KeyError(name)


def test_criterion_01_mass_conservation(desk_history, desk_report):
    h = desk_history
    drift = float(np.max(np.abs(h.N_wedge - h.N_wedge[0])) / h.N_wedge[0])
    _verdict(1, "past-cone mass drift", drift, 1e-10)
    c = _check_value(desk_report, "N_slice_constancy")
    _verdict(1, "slice mass equals past-cone mass", c["value"], 1e-3)


def test_criterion_02_support_bound(desk_history):
    h = desk_history
    excess = float(np.max(h.R_slice_max - (h.R0 + 0.5 * h.vs + h.grid.dr)))
    _verdict(2, "support radius below R0 + v/2 + shell", max(excess, 0.0), 0.0)


def test_criterion_03_axis_bound(desk_history):
    h = desk_history
    lower = np.sqrt(h.F) / h.P_wedge * (1.0 - 1e-6)
    deficit = float(np.max(lower - h.R_min_run))
    _verdict(3, "minimal radius above sqrt(F)/P", max(deficit, 0.0), 0.0)


def test_criterion_04_energy_conservation(desk_history, desk_report):
    h = desk_history
    drift = float(np.max(np.abs(h.M_wedge - h.M_wedge[0])) / h.M_wedge[0])
    _verdict(4, "past-cone energy drift", drift, 1e-3)
    worst = max(_check_value(desk_report, name)["value"]
                for name in ("M_slice_constancy", "M_vee_constancy"))
    _verdict(4, "slice/future energies equal past-cone energy", worst, 1e-3)

    # refinement: halving the per-axis particle resolution must increase the
    # deviation; measured order >= 1 in the linear resolution
    coarse = run(desk_config(resolution=(16, 16, 16)))

    def energy_err(hist):
        errs = [float(np.max(np.abs(hist.M_wedge - hist.M_wedge[0]))
                      / hist.M_wedge[0])]
        for which in ("M_slice", "M_vee"):
            _, vals, r_eval = diag.functional_series(hist, which)
            ref = diag.cone_energy(hist, 0.0, r_eval)
            errs.append(float(np.max(np.abs(vals - ref)) / hist.M_wedge[0]))
        return max(errs)

    e_coarse, e_fine = energy_err(coarse), energy_err(h)
    order = float(np.log2(e_coarse / e_fine))
    _verdict(4, "energy error refinement order >= 1", -order, -1.0)


def test_criterion_05_future_cone_monotonicity(desk_history):
    h = desk_history
    worst = 0.0
    for which in ("N_vee", "M_vee"):
        _, vals, _ = diag.functional_series(h, which)
        norm = float(h.N_wedge[0] if which == "N_vee" else h.M_wedge[0])
        worst = max(worst, float(np.max(np.diff(vals))) / norm)
    _verdict(5, "future-cone series non-increasing", max(worst, 0.0), 1e-3)


def test_criterion_06_jacobian_determinant():
    def radial_field(v, x):
        x = np.asarray(x, dtype=float)
        return (0.35 * x * np.exp(-np.vecdot(x, x))[..., None],
                np.zeros_like(x))

    x, p = random_states(20, seed=2024)
    det_fd, det_exact = flow_jacobian_det(x, p, radial_field, 0.0, 0.4, 2e-3)
    worst = float(np.max(np.abs(det_fd - det_exact)))
    _verdict(6, "flow jacobian determinant identity, 20 orbits", worst, 1e-5)


def test_criterion_07_phase_divergence():
    def field(v, x):
        x = np.asarray(x, dtype=float)
        env = np.exp(-np.vecdot(x, x))[..., None]
        const = np.ones(x.shape[:-1])
        E = np.stack([0.4 * x[..., 0] + 0.1, -0.2 * x[..., 1], 0.3 * const],
                     axis=-1) * env
        B = np.stack([-x[..., 1], x[..., 0], 0.7 * const], axis=-1) * env
        return E, B

    x, p = random_states(1000, seed=77)
    worst = float(np.max(np.abs(phase_divergence(0.2, x, p, field)
                                - phase_divergence_fd(0.2, x, p, field))))
    _verdict(7, "phase divergence closed form, 1000 states", worst, 1e-6)


def test_criterion_08_mass_identities(desk_history):
    h = desk_history
    N0 = float(h.N_wedge[0])
    dr = h.grid.dr
    worst = 0.0
    evaluated = 0
    for col, r_p in enumerate(h.probe_radii):
        r_p = float(r_p)
        v1 = h.v_final - r_p - 2.0 * dr
        v2 = h.v_final - 2.0 * (r_p + 2.0 * dr)
        if v1 >= 0.0:
            for v in np.linspace(0.0, v1, 11):
                worst = max(worst, abs(
                    diag.mass_identity_residual(h, float(v), col)))
                evaluated += 1
        if v2 >= 0.0:
            for v in np.linspace(0.0, v2, 11):
                worst = max(worst, abs(
                    diag.mass_identity_residual(h, float(v), col, 2.0)))
                evaluated += 1
    assert evaluated > 20
    _verdict(8, "mass flux identities at probe radii", worst / N0, 1e-3)


def test_criterion_09_interpolation_bound(desk_history):
    norms = diag.l43_norm(desk_history.grid, desk_history.g_plus)
    bound = diag.momentum_support_bound(desk_history)["l43_constant"]
    excess = max(np.max(norms) - bound, 0.0)
    _verdict(9, "L^{4/3} norm below explicit constant", excess, 0.0)


def test_criterion_10_momentum_ceiling(desk_history):
    out = diag.momentum_support_bound(desk_history)
    excess = max(out["measured_P_final"] - out["momentum_ceiling"], 0.0)
    _verdict(10, "momentum support below bisection ceiling", excess, 0.0)
    _verdict(10, "field below min(N/r^2, C_E P^{5/3})",
             max(out["field_bound_max_margin"], 0.0),
             1e-12 * out["N0"])


def test_criterion_11_constraint_audit(desk_history):
    worst_id = 0.0
    for seed in range(100):
        g = random_field_set(n=13, extent=1.0, seed=seed, r_cut=0.4)
        res = audit(g)
        worst_id = max(worst_id, res["identity1_rel"], res["identity2_rel"])
    _verdict(11, "recombination identities on 100 random field sets",
             worst_id, 1e-12)

    res = {}
    for n in (17, 33, 65):
        g = embed_symmetric_solution(desk_history, 1.0, n, 0.7, r_cut=0.2)
        res[n] = audit(g)
    orders = []
    for key in ("W1_l2", "W2_l2", "scalar2_l2"):
        logs = np.log2([res[n][key] for n in (17, 33, 65)])
        hs = np.log2([res[n]["h"] for n in (17, 33, 65)])
        orders.append(float(np.polyfit(hs, logs, 1)[0]))
    worst_dev = max(abs(o - 2.0) for o in orders)
    _verdict(11, "embedded-slice residual convergence order 2.0 +- 0.3",
             worst_dev, 0.3)

    E_fn, B_fn, rho_fn, j_fn = smooth_ball_fields()
    good = grid_from_functions(33, 1.0, 0.25, E_fn, B_fn, rho_fn, j_fn)
    v_good = check_equivalence(good, tol=10.0 * good.h**2)
    bad = grid_from_functions(33, 1.0, 0.25, E_fn, B_fn,
                              lambda x: rho_fn(x) + 0.5, j_fn)
    v_bad = check_equivalence(bad, tol=10.0 * bad.h**2)
    ok = (v_good["coherent"] and v_good["set_full"]
          and v_bad["coherent"] and not v_bad["set_full"])
    _verdict(11, "equivalence verdict coherent on pass and on violation",
             0.0 if ok else 1.0, 0.0)


def test_criterion_12_radiation_fluxes(desk_history):
    h = desk_history
    worst = max(abs(nirc_flux(h, 0.0, h.v_final, float(r)))
                for r in h.probe_radii)
    _verdict(12, "incoming radiation exactly zero", worst, 0.0)


def test_criterion_13_determinism(tmp_path, desk_history):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_history(desk_history, str(a))
    emit_history(run(desk_config()), str(b))
    files = sorted(os.listdir(a))
    identical = files == sorted(os.listdir(b)) and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files)
    _verdict(13, "independent desk runs byte-identical",
             0.0 if identical else 1.0, 0.0)
