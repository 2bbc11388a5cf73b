"""Initial data profiles and deterministic macroparticle sampling.

The reduced phase space is (r, w, q): radius, radial momentum w = p.k and
squared angular momentum q = |x x p|^2.  The invariant measure of the
advanced-time transport operator is f * (1 + phat.k) d3x d3p, which in the
reduced coordinates reads 4 pi^2 f (1 + w / sqrt(1 + w^2 + q/r^2)) dr dw dq.
Macroparticle weights discretize that measure and are exact constants of the
motion, as are the carried density values.  kinematics is the one rule for
|p|^2, gamma and 1 + phat.k, in the rounding of the push.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# volume factor of the (r, w, q) reduction: 4 pi r^2 dr * pi dw dq / r^2
ANGULAR_FACTOR = 4.0 * np.pi**2

# particles with density below this fraction of the sup norm are dropped
PRUNE_FRACTION = 1e-14


def _bump(s):
    """C^1 compactly supported bump: (1 - s^2)^2 on |s| < 1, else 0."""
    s = np.asarray(s, dtype=float)
    out = np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 2, 0.0)
    return out


@dataclass(frozen=True)
class InitialDatum:
    """Closed-form initial density on the cone v = 0 with exact support data.

    density(r, w, q) vanishes for r >= R0, for w^2 + q/r^2 > P0^2 and for
    q < F.  F > 0 is required: it keeps every orbit away from the spatial
    origin.  f_inf_norm bounds the density from above.
    """

    density: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    R0: float
    P0: float
    F: float
    f_inf_norm: float
    # exact bounding box of the support in (r, w, q), used by the sampler
    support_box: tuple

    def __post_init__(self):
        if self.F <= 0.0:
            raise ValueError("angular-momentum floor F must be positive")
        if self.f_inf_norm < 0.0:
            raise ValueError("f_inf_norm must be non-negative")


@dataclass
class ParticleSet:
    """Macroparticle collection (structure of arrays).

    q, weight and f_value are frozen at sampling time and never mutated;
    only (r, w) evolve.
    """

    r: np.ndarray
    w: np.ndarray
    q: np.ndarray
    weight: np.ndarray
    f_value: np.ndarray

    def __len__(self):
        return self.r.size


def kinematics(r, w, q):
    """(|p|^2, gamma, 1 + phat.k) = (w^2 + q/r^2, sqrt((1 + w^2) + q/r^2),
    1 + w/gamma), gamma^2 summed in the order of
    characteristics.char_rhs_reduced, in three allocations."""
    q_r2 = np.multiply(r, r)
    np.divide(q, q_r2, out=q_r2)
    gamma = np.multiply(w, w)
    p_sq = gamma + q_r2
    np.sqrt(np.add(np.add(gamma, 1.0, out=gamma), q_r2, out=gamma), out=gamma)
    return p_sq, gamma, np.add(1.0, np.divide(w, gamma, out=q_r2), out=q_r2)


def _zero_datum() -> InitialDatum:
    def density(r, w, q):
        return np.zeros(np.broadcast(r, w, q).shape)

    return InitialDatum(density=density, R0=0.0, P0=0.0, F=1.0, f_inf_norm=0.0,
                        support_box=((0.0, 0.0), (0.0, 0.0), (1.0, 1.0)))


def _shell_box_datum(amplitude, r_support, w_max, q_support, sharpness=0.0):
    """The bump product on the box, times exp(-sharpness |s|^2) in the box
    coordinates s scaled to [-1, 1]: shell_gaussian's factor, exactly 1 at
    shell_polynomial's sharpness 0."""
    r_lo, r_hi = (float(r_support[0]), float(r_support[1]))
    q_lo, q_hi = (float(q_support[0]), float(q_support[1]))
    w_max, amplitude, c = float(w_max), float(amplitude), float(sharpness)
    if not np.all(np.isfinite([r_lo, r_hi, q_lo, q_hi, w_max, amplitude, c])):
        raise ValueError("shell profile parameters must be finite")
    if not (0.0 < r_lo < r_hi):
        raise ValueError("r_support must satisfy 0 < r_lo < r_hi")
    if q_lo <= 0.0:
        raise ValueError("q_support lower bound must be positive (F > 0)")
    # a negative sharpness would raise the density above f_inf_norm
    if q_hi <= q_lo or w_max <= 0.0 or amplitude < 0.0 or c < 0.0:
        raise ValueError("invalid shell profile parameters")

    rc, rw = 0.5 * (r_lo + r_hi), 0.5 * (r_hi - r_lo)
    qc, qw = 0.5 * (q_lo + q_hi), 0.5 * (q_hi - q_lo)

    def density(r, w, q):
        sr = (np.asarray(r) - rc) / rw
        sw = np.asarray(w) / w_max
        sq = (np.asarray(q) - qc) / qw
        return (amplitude * (_bump(sr) * _bump(sw) * _bump(sq))
                * np.exp(-c * (sr**2 + sw**2 + sq**2)))

    return InitialDatum(
        density=density,
        R0=r_hi,
        P0=float(np.sqrt(w_max**2 + q_hi / r_lo**2)),
        F=q_lo,
        f_inf_norm=amplitude,
        support_box=((r_lo, r_hi), (-w_max, w_max), (q_lo, q_hi)),
    )


_BUILTINS = {"zero", "shell_polynomial", "shell_gaussian"}


def builtin_datum(name: str, params: dict | None = None) -> InitialDatum:
    """Construct one of the built-in initial data profiles.

    Names: ``zero`` (empty plasma), ``shell_polynomial`` (C^1 bump product on
    a box in (r, w, q)) and ``shell_gaussian`` (same box times a Gaussian
    factor peaked at the box center).  Support descriptors are exact.
    """
    params = dict(params or {})
    if name not in _BUILTINS:
        raise ValueError(f"unknown datum name {name!r}; choose from {sorted(_BUILTINS)}")
    if name == "zero":
        if params:
            raise ValueError("zero datum takes no parameters")
        return _zero_datum()

    kwargs = {
        "amplitude": params.pop("amplitude", 1.0),
        "r_support": params.pop("r_support", (0.5, 1.0)),
        "w_max": params.pop("w_max", 0.25),
        "q_support": params.pop("q_support", (0.01, 0.02)),
    }
    if name == "shell_gaussian":
        kwargs["sharpness"] = params.pop("sharpness", 2.0)
    if params:
        raise ValueError(f"unknown datum parameters: {sorted(params)}")
    return _shell_box_datum(**kwargs)


def sample_particles(datum: InitialDatum, resolution) -> ParticleSet:
    """Deterministic midpoint tensor-grid sampling of an initial datum.

    ``resolution`` is one count applied per coordinate or a (n_r, n_w, n_q)
    triple; every count must be a whole number >= 2 (3 or 3.0, not 8.9).
    Each kept particle carries

        weight = f * (1 + w / sqrt(1 + w^2 + q/r^2)) * 4 pi^2 dr dw dq,

    so that sum(weight) converges to the past-cone mass of the datum.
    Cells whose density is below 1e-14 of the sup norm are pruned.
    """
    counts = (resolution,) * 3 if np.isscalar(resolution) else resolution
    if not all(float(n).is_integer() and n >= 2 for n in counts):
        raise ValueError(f"resolution {resolution!r} must be whole numbers "
                         ">= 2 per coordinate")
    n_r, n_w, n_q = map(int, counts)

    (r_lo, r_hi), (w_lo, w_hi), (q_lo, q_hi) = datum.support_box
    empty = ParticleSet(*(np.empty(0) for _ in range(5)))
    if r_hi <= r_lo:
        return empty

    def midpoints(lo, hi, n):
        edges = np.linspace(lo, hi, n + 1)
        return 0.5 * (edges[:-1] + edges[1:]), (hi - lo) / n

    r_mid, dr = midpoints(r_lo, r_hi, n_r)
    w_mid, dw = midpoints(w_lo, w_hi, n_w)
    q_mid, dq = midpoints(q_lo, q_hi, n_q)

    R, W, Q = np.meshgrid(r_mid, w_mid, q_mid, indexing="ij")
    r, w, q = R.ravel(), W.ravel(), Q.ravel()
    f = np.asarray(datum.density(r, w, q), dtype=float)

    keep = f > PRUNE_FRACTION * datum.f_inf_norm
    if not np.any(keep):
        return empty
    r, w, q, f = r[keep], w[keep], q[keep], f[keep]

    parts = ParticleSet(r=r, w=w, q=q, weight=None, f_value=f)
    one_plus = check_measure_positivity(parts)[2]
    parts.weight = f * one_plus * ANGULAR_FACTOR * dr * dw * dq
    return parts


def check_measure_positivity(parts: ParticleSet):
    """Assert 1 + phat.k >= (1/2) / (1 + |p|^2) for every particle, and
    return the kinematics(parts.r, parts.w, parts.q) it checked.

    The lower bound makes the advanced-time parameterization non-degenerate
    on bounded momentum supports; violation indicates a corrupted state.
    """
    p_sq, _, one_plus = kin = kinematics(parts.r, parts.w, parts.q)
    lower = 0.5 / (1.0 + p_sq)
    bad = one_plus < lower * (1.0 - 1e-12)
    if bad.any():
        i = int(np.argmax(bad))
        raise AssertionError(f"measure positivity violated at particle {i}: "
                             f"1+phat.k={one_plus[i]:.3e} < {lower[i]:.3e}")
    return kin
