"""Check-report assembly: turn a recorded run (or a jacobian test suite)
into a structured list of named checks with residuals and tolerances.

Each check record carries the quantity tested, the measured residual, the
tolerance and a pass flag; a report passes iff every check does.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from . import cone_diagnostics as diag
from .cone_evolver import SliceHistory, nirc_flux
from .characteristics import (flow_jacobian_det, phase_divergence,
                              phase_divergence_fd)

TOL_MASS_DRIFT = 1e-10
TOL_RELATIVE = 1e-3
TOL_FLUX_DERIVATIVE = 5e-2
TOL_W_MONOTONE = 1e-9
TOL_JACOBIAN = 1e-5
TOL_DIVERGENCE = 1e-6


def _check(name, description, value, tolerance):
    return {
        "name": name,
        "description": description,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(float(value) <= float(tolerance)),
    }


def _finish(checks, extra):
    return {"tool": f"vmcone {__version__}", "checks": checks,
            "passed": all(c["passed"] for c in checks), **extra}


def diagnose_report(history: SliceHistory) -> dict:
    """Run every conservation, identity, bound and monotonicity check on a
    recorded history."""
    checks = []
    N0 = max(float(history.N_wedge[0]), 1e-300)
    M0 = max(float(history.M_wedge[0]), 1e-300)
    vs = history.vs
    dr = history.grid.dr

    checks.append(_check(
        "past_cone_mass_drift",
        "max |N(v) - N(0)| / N(0) of the past-cone mass series",
        np.max(np.abs(history.N_wedge - history.N_wedge[0])) / N0,
        TOL_MASS_DRIFT))

    checks.append(_check(
        "past_cone_energy_drift",
        "max |M(v) - M(0)| / M(0) of the past-cone energy series",
        np.max(np.abs(history.M_wedge - history.M_wedge[0])) / M0,
        TOL_RELATIVE))

    support_excess = np.max(history.R_slice_max - (history.R0 + 0.5 * vs + dr))
    checks.append(_check(
        "support_radius_bound",
        "largest excess of the matter radius over R0 + v/2 (one shell slack)",
        max(support_excess, 0.0), 0.0))

    with np.errstate(divide="ignore"):
        clearance = history.R_min_run - np.sqrt(history.F) / np.maximum(
            history.P_wedge, 1e-300)
    checks.append(_check(
        "axis_clearance_bound",
        "largest deficit of the minimal radius under sqrt(min q) / P(v)",
        max(float(np.max(-clearance)), 0.0), 1e-12))

    # shifted-functional constancy over the evaluable windows, against the
    # same functional on the initial past cone; "skipped" names the checks
    # of a series the history is too short for, with the reason
    skipped = []
    for which, norm, label in (("N_slice", N0, "slice mass"),
                               ("M_slice", M0, "slice energy"),
                               ("N_vee", N0, "future-cone mass"),
                               ("M_vee", M0, "future-cone energy")):
        fn, slope = diag.SHIFTED_SERIES[which]
        try:
            vs_w, vals, r_eval = diag.functional_series(history, which)
        except ValueError as exc:
            kinds = ("constancy", "monotone") if slope == 2.0 else (
                "constancy",)
            skipped += [{"name": f"{which}_{kind}", "reason": str(exc)}
                        for kind in kinds]
            continue
        checks.append(_check(
            f"{which}_constancy",
            f"max relative deviation of the {label} series from the initial "
            f"past-cone value (window v <= {vs_w[-1]:.3g}, r = {r_eval:.3g})",
            np.max(np.abs(vals - fn(history, 0.0, r_eval))) / norm,
            TOL_RELATIVE))
        if slope == 2.0 and len(vals) > 1:
            checks.append(_check(
                f"{which}_monotone",
                f"max positive per-step increment of the {label} series "
                "(non-increasing up to tolerance)",
                max(float(np.max(np.diff(vals))) / norm, 0.0),
                TOL_RELATIVE))

    # flux identities between the slice (slope 1) or the future cone
    # (slope 2) and the past cone at the recorded probes, over the window
    # the history covers; "samples" counts the (probe, v) pairs evaluated,
    # 0 when no probe has a window
    for slope, surface, symbol in ((1.0, "slice", "n"),
                                   (2.0, "future", "nfuture")):
        worst, samples = 0.0, 0
        for r_p in history.probe_radii:
            v_top = diag.window_top(history, slope, float(r_p))
            if v_top >= 0.0:
                residuals = diag.mass_identity_residual(
                    history, np.linspace(0.0, v_top, 9), float(r_p), slope)
                worst = np.max(np.abs(residuals), initial=worst)
                samples += residuals.size
        checks.append(dict(_check(
            f"{surface}_mass_flux_identity",
            f"max |{symbol}(v,r) - npast(v,r) + int flux| / N(0) over probes",
            worst / N0, TOL_RELATIVE), samples=samples))

    fd = diag.flux_derivative_checks(history)
    checks.append(_check(
        "mass_flux_derivative",
        "max |d/dv npast + flux| / N(0) at the probes (central differences)",
        fd["mass_flux_residual"], TOL_FLUX_DERIVATIVE))
    checks.append(_check(
        "energy_flux_derivative",
        "max |d/dv mpast + flux| / M(0) at the probes (central differences)",
        fd["energy_flux_residual"], TOL_FLUX_DERIVATIVE))
    checks.append(_check(
        "outgoing_energy_integrand_sign",
        "negative part of the outgoing energy-flux integrand (must vanish)",
        max(-fd["min_outgoing_integrand"], 0.0), 0.0))

    l43 = diag.l43_bound_check(history)
    checks.append(_check(
        "l43_interpolation_bound",
        "excess of the L^{4/3} norm of g_plus over its explicit constant",
        max(l43["max_norm"] - l43["bound"], 0.0), 0.0))

    mom = diag.momentum_support_bound(history)
    checks.append(_check(
        "field_amplitude_bound",
        "excess of |E_r| over min(N0/r^2, C_E P^{5/3}) at any node and time",
        max(mom["field_bound_max_margin"], 0.0), 1e-12 * max(N0, 1e-300)))
    checks.append(_check(
        "momentum_self_consistency",
        "violation of sqrt(1+P^2) <= sqrt(1+P0^2) + 2 sqrt(N0 C_E) P^{5/6}",
        0.0 if mom["self_consistency_ok"] else 1.0, 0.0))
    checks.append(_check(
        "momentum_ceiling",
        "excess of the measured momentum support over the bisection ceiling",
        max(mom["measured_P_final"] - mom["momentum_ceiling"], 0.0), 0.0))

    checks.append(_check(
        "radial_single_turning_point",
        "count of particle steps moving inward after having moved outward",
        history.r_turn_violations, 0.0))
    checks.append(_check(
        "radial_momentum_monotone",
        "negative part of the smallest per-step increment of w = p.k",
        max(-history.min_dw, 0.0), TOL_W_MONOTONE))

    checks.append(_check(
        "no_incoming_radiation",
        "incoming Poynting flux through the outermost probe (structural zero)",
        abs(nirc_flux(history, 0.0, history.v_final,
                      float(history.probe_radii[-1]))), 0.0))

    if (history.particles_initial is not None
            and history.particles_final is not None):
        for q_exp in (1.0, 2.0):
            a = diag.lq_invariant(history.particles_initial, q_exp)
            b = diag.lq_invariant(history.particles_final, q_exp)
            checks.append(_check(
                f"lq_invariant_q{q_exp:g}",
                f"relative drift of the particle L^{q_exp:g} density invariant",
                abs(b - a) / max(abs(a), 1e-300), 1e-14))

    return _finish(checks, {"skipped": skipped,
                            "momentum_bound_detail": mom})


# ---------------------------------------------------------------------------
# jacobian / divergence test suite on random orbits in a smooth test field


def _test_field():
    """Smooth compactly concentrated test field with nonzero curl E x B
    structure: radial-ish electric part, solenoidal magnetic part."""

    def field(v, x):
        x = np.asarray(x, dtype=float)
        env = np.exp(-np.vecdot(x, x))[..., None]
        E = 0.4 * (1.0 + 0.3 * np.sin(1.7 * v)) * x * env
        B = x[..., [1, 0, 0]] * [-0.3, 0.3, 0.0]
        B[..., 2] = 0.15
        B *= env
        return E, B

    return field


def random_states(n, seed=1234):
    """Random phase-space states away from the spatial origin."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x = u * rng.uniform(0.4, 1.6)
        p = rng.normal(scale=0.6, size=3)
        states.append((x, p))
    return states


def jacobian_report(n_orbits=20, duration=0.5, step=0.01, h_fd=1e-4,
                    seed=1234) -> dict:
    """Compare the finite-difference flow jacobian determinant with the
    closed form (1 + phat.k) / (1 + Phat.K) on random orbits, and the
    closed-form phase divergence with its finite-difference value."""
    if n_orbits < 1:
        raise ValueError(f"need at least one orbit, got n_orbits={n_orbits}")
    field = _test_field()
    x, p = np.reshape(random_states(n_orbits, seed=seed),
                      (-1, 2, 3)).swapaxes(0, 1)
    det_fd, det_exact = flow_jacobian_det(x, p, field, 0.0, duration, step,
                                          h_fd=h_fd)
    det_err = np.abs(det_fd - det_exact)
    div_err = np.abs(phase_divergence(0.0, x, p, field)
                     - phase_divergence_fd(0.0, x, p, field))
    checks = [
        _check("flow_jacobian_determinant",
               "max |det(FD) - (1+phat.k)/(1+Phat.K)| over random orbits",
               np.max(det_err), TOL_JACOBIAN),
        _check("phase_divergence_closed_form",
               "max |closed form - finite difference| of the phase divergence",
               np.max(div_err), TOL_DIVERGENCE),
    ]
    # orbit index (into random_states) of each largest error; a NaN error
    # is the one named
    return _finish(checks, {
        "orbits": n_orbits, "duration": duration, "step": step, "h_fd": h_fd,
        "worst_det_orbit": int(np.argmax(det_err)),
        "worst_div_orbit": int(np.argmax(div_err))})


def audit_report(grid, tol=None) -> dict:
    """Constraint-audit report for one gridded field set."""
    from . import constraint_audit as ca

    if tol is None:
        tol = 10.0 * grid.h ** 2 + 1e-8
    verdict = ca.check_equivalence(grid, tol)
    res = verdict["residuals"]
    checks = [
        _check("constraint_W1", "max |W1| over interior nodes",
               res["W1_max"], tol),
        _check("constraint_W2", "max |W2| over interior nodes",
               res["W2_max"], tol),
        _check("scalar_constraint_div_B",
               "max |div B - k.curl E| over interior nodes",
               res["scalar1_max"], verdict["tol_derived"]),
        _check("scalar_constraint_source",
               "max |k.curl B + div E - rho - j.k| over interior nodes",
               res["scalar2_max"], verdict["tol_derived"]),
        _check("recombination_identity_1",
               "relative residual of W1 recombined from W2 (machine level)",
               res["identity1_rel"], 1e-12),
        _check("recombination_identity_2",
               "relative residual of W2 recombined from W1 (machine level)",
               res["identity2_rel"], 1e-12),
        _check("formulation_coherence",
               "0 iff the three equivalent constraint sets agree in verdict",
               0.0 if verdict["coherent"] else 1.0, 0.0),
    ]
    return _finish(checks, {"residuals": res, "equivalence": {
        k: v for k, v in verdict.items() if k != "residuals"}})
