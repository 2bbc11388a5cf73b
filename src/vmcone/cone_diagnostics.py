"""Mass and energy functionals on past cones, future cones and t = const
slices, computed from a recorded SliceHistory, plus the identity, bound and
monotonicity checks that certify a run.

The three surfaces are one family: the cone of slope s reads the history at
the advanced times v + s r' (s = 0 the past cone, 1 the slice t = v, 2 the
future cone), linear between recorded steps.  On it the mass density is

    (1 - s/2) g_plus + (s/2) g_minus,     i.e. g_plus, rho, g_minus,

and the energy density the same combination of h_plus and h_minus plus the
field term E^2/2 (the Poynting part vanishes with the magnetic field).  All
radial integrals are 4 pi int_0^r (.) r'^2 dr'.
"""

from __future__ import annotations

import numpy as np

from .cone_evolver import SliceHistory
from .phase_model import ParticleSet
from .radial_field import radial_integral

EIGHT_PI_3 = 8.0 * np.pi / 3.0


# ---------------------------------------------------------------------------
# cone functionals

def _cone_integral(history, v, r, slope, plus, minus, field_energy=False):
    """Radial integral up to r of the slope-s weighting of the profiles
    ``plus`` and ``minus``, plus E^2/2 if asked, per label; only the nodes up
    to the first one at or beyond r, and profiles of nonzero weight, are read."""
    grid = history.grid
    j_max = min(int(np.searchsorted(grid.edges, float(r), side="right")),
                grid.n_shells)
    values = sum(weight * history.profile_at(name, v, slope, j_max)
                 for weight, name in ((1.0 - 0.5 * slope, plus),
                                      (0.5 * slope, minus)) if weight)
    if field_energy:
        values = values + 0.5 * history.profile_at("E", v, slope, j_max) ** 2
    return radial_integral(grid, values, r)


def cone_mass(history: SliceHistory, v, r: float, slope: float = 0.0):
    """Mass inside radius r on the cone of slope s labelled v: the past cone
    (s = 0), the slice t = v (s = 1) or the future cone (s = 2); v may be an
    array of labels."""
    return _cone_integral(history, v, r, slope, "g_plus", "g_minus")


def cone_energy(history: SliceHistory, v, r: float, slope: float = 0.0):
    """Energy (kinetic moments plus E^2/2) inside radius r on the cone of
    slope s labelled v, per label like cone_mass."""
    return _cone_integral(history, v, r, slope, "h_plus", "h_minus",
                          field_energy=True)


# ---------------------------------------------------------------------------
# evaluable windows and series

def window_top(history: SliceHistory, slope: float, r: float) -> float:
    """Largest label whose cone of slope s, read out to radius r and the
    node beyond it (one shell of slack more), is recorded."""
    return history.v_final - slope * (r + 2.0 * history.grid.dr)


def evaluable_window(history: SliceHistory, slope: float):
    """Largest [0, v_max] on which slope-shifted functionals are complete.

    Returns (v_max, r_eval).  All matter stays inside r_eval = measured
    final support radius + 2 shells: the cone frontier r = (v' - v)/slope
    expands at least as fast as any particle travels (speed < 1/2), so if
    the matter is inside the frontier at the end of the history it was
    captured at all earlier times.
    """
    if slope <= 0.0:
        raise ValueError("slope must be positive")
    r_eval = float(np.max(history.R_slice_max)) + 2.0 * history.grid.dr
    v_max = window_top(history, slope, r_eval)
    if v_max < 0.0:
        raise ValueError(
            "history too short to complete any shifted functional; "
            f"needs v_final > {slope * r_eval:g}")
    return v_max, r_eval


# name -> (functional, slope) of each shifted series
SHIFTED_SERIES = {
    "N_slice": (cone_mass, 1.0),
    "M_slice": (cone_energy, 1.0),
    "N_vee": (cone_mass, 2.0),
    "M_vee": (cone_energy, 2.0),
}


def functional_series(history: SliceHistory, which: str):
    """Series of a shifted functional over its evaluable window.

    which: one of 'N_slice', 'M_slice', 'N_vee', 'M_vee'.
    Returns (vs, values, r_eval).
    """
    fn, slope = SHIFTED_SERIES[which]
    v_max, r_eval = evaluable_window(history, slope)
    vs = history.vs[history.vs <= v_max + 1e-12]
    return vs, fn(history, vs, r_eval, slope), r_eval


# ---------------------------------------------------------------------------
# flux identities

def _flux_time_integral(history: SliceHistory, series, v1, v2):
    """int_v1^v2 of a recorded probe flux series, linear between slices:
    F(v2) - F(v1) of its one cumulative trapezoid F."""
    vs = history.vs
    F = np.concatenate([[0.0], np.cumsum(
        0.5 * np.diff(vs) * (series[:-1] + series[1:]))])
    t = np.stack([v2, v1])
    i = np.clip(np.searchsorted(vs, t, side="right") - 1, 0, len(vs) - 2)
    F_t = F[i] + 0.5 * (t - vs[i]) * (series[i] + np.interp(t, vs, series))
    return F_t[0] - F_t[1]


def mass_identity_residual(history: SliceHistory, v, col: int,
                           slope: float = 1.0):
    """Mass identity between the cone of slope s and the past cone at probe
    col, of radius r = probe_radii[col]: n_s(v,r) - n^(v,r) + int_v^{v+s r}
    flux (s = 1 slice, s = 2 future cone), per label like cone_mass."""
    r = float(history.probe_radii[col])
    return (cone_mass(history, v, r, slope) - cone_mass(history, v, r)
            + _flux_time_integral(history, history.flux_j[:, col], v,
                                  v + slope * r))


def flux_derivative_checks(history: SliceHistory) -> dict:
    """Finite-difference time derivative of the cone functionals at each
    probe against the recorded boundary fluxes, plus the sign condition on
    the outgoing energy-flux integrand.

    Returns max absolute residuals (normalized by the initial mass /
    energy), the number of (probe, v) differences they are taken over and
    the minimum of the e - pflux.k integrand over the run.
    """
    vs = history.vs
    N0 = max(float(history.N_wedge[0]), 1e-300)
    M0 = max(float(history.M_wedge[0]), 1e-300)
    stride = max(1, len(vs) // 64)
    idx = np.arange(stride, len(vs) - stride, stride)
    ends = vs[np.stack([idx + stride, idx - stride])]   # rows: after, before

    def residual(fn, flux, norm):
        """max |d/dv fn + flux| / norm over the probes and the samples."""
        d = np.array([np.subtract(*fn(history, ends, float(r)))
                      for r in history.probe_radii]) / (ends[0] - ends[1])
        return float(np.max(np.abs(d + flux[idx].T) / norm, initial=0.0))

    e_minus = history.h_minus + 0.5 * history.E**2
    return {
        "mass_flux_residual": residual(cone_mass, history.flux_j, N0),
        "energy_flux_residual": residual(cone_energy, history.flux_p, M0),
        "samples": len(history.probe_radii) * len(idx),
        "min_outgoing_integrand": float(np.min(e_minus)),
    }


# ---------------------------------------------------------------------------
# interpolation bound and momentum-support ceiling

def l43_norm(grid, g):
    """L^{4/3} norm of a radial node density over 3-space, along the last
    axis of g."""
    return radial_integral(grid, np.abs(g) ** (4.0 / 3.0)) ** 0.75


def l43_bound_constant(f_inf_norm: float, M0: float) -> float:
    """Explicit constant (8 pi/3 + 1) |f|_inf^{1/4} M0^{3/4} bounding the
    L^{4/3} norm of g_plus at every time."""
    return (EIGHT_PI_3 + 1.0) * f_inf_norm**0.25 * M0**0.75


def field_bound_constant(f_inf_norm: float, M0: float) -> float:
    """Explicit constant C_E with |E_r| <= C_E * P^{5/3}.

    Chain: split the source integral via Hoelder with exponents (3, 3/2),
    bound the L^{4/3} factor by the interpolation constant and the
    remaining factor by the momentum-support volume bound
    g <= (8 pi / 3) |f|_inf P^3.
    """
    K = l43_bound_constant(f_inf_norm, M0)
    return ((K ** (4.0 / 3.0) / (4.0 * np.pi)) ** (1.0 / 3.0)
            * (EIGHT_PI_3 * f_inf_norm) ** (5.0 / 9.0)
            * 3.0 ** (-2.0 / 3.0))


def _momentum_excess(P, P0: float, N0: float, C_E: float):
    """sqrt(1+P^2) - sqrt(1+P0^2) - 2 sqrt(N0 C_E) P^{5/6}, elementwise:
    every momentum P the flow can reach has a non-positive excess."""
    A = 2.0 * np.sqrt(max(N0 * C_E, 0.0))
    return np.sqrt(1.0 + P**2) - np.sqrt(1.0 + P0**2) - A * P ** (5.0 / 6.0)


def momentum_ceiling(P0: float, N0: float, C_E: float) -> float:
    """Largest P with a non-positive _momentum_excess, found by bisection.
    Every momentum the flow can reach sits below it."""
    hi = max(P0, 1.0)
    while _momentum_excess(hi, P0, N0, C_E) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("momentum ceiling bracket failed")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _momentum_excess(mid, P0, N0, C_E) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def momentum_support_bound(history: SliceHistory) -> dict:
    """Assemble the a priori momentum/field bound report for a run.

    Returns the largest excess of |E_r| over both the mass-over-r^2 bound
    and the interpolation-chain bound at every recorded slice and node;
    the largest excess of the running momentum support over the
    self-consistency inequality; and the bisection ceiling with the
    measured final support, which the report compares.
    """
    P = history.P_wedge
    P0, N0 = float(P[0]), float(history.N_wedge[0])
    M0 = float(history.M_wedge[0])
    f_inf = history.f_inf_norm
    C_E = field_bound_constant(f_inf, M0) if f_inf > 0 else 0.0
    bound = np.minimum(N0 / history.grid.edges[1:] ** 2,
                       C_E * P[:, None] ** (5.0 / 3.0))
    max_margin = float(np.max(np.abs(history.E[:, 1:]) - bound))
    excess = float(np.max(_momentum_excess(P, P0, N0, C_E)))
    return {
        "N0": N0, "M0": M0, "f_inf_norm": f_inf,
        "l43_constant": l43_bound_constant(f_inf, M0),
        "field_constant": C_E,
        "field_bound_max_margin": max_margin,
        "self_consistency_excess": excess,
        "momentum_ceiling": momentum_ceiling(P0, N0, C_E),
        "measured_P_final": float(P[-1]),
    }


# ---------------------------------------------------------------------------
# particle-level invariant

def lq_invariant(parts: ParticleSet, q_exp: float) -> float:
    """Particle estimate of int f^q (1 + phat.k) dp dx = sum w_i f_i^{q-1}.

    Exactly constant along the run since weights and carried density
    values are frozen at sampling.
    """
    if q_exp < 1.0:
        raise ValueError("q_exp must be >= 1")
    if len(parts) == 0:
        return 0.0
    return float(np.sum(parts.weight * parts.f_value ** (q_exp - 1.0)))
