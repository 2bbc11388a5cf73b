"""Characteristic ODEs of the advanced-time Vlasov transport operator.

Two equivalent forms are provided: the full 6D Cartesian system for phase
points (x, p) of shape (..., 3) in an external field, and the reduced system in
(r, w, q) with a radial electric field.  Both share the factor

    p0 = sqrt(1 + |p|^2) + p.k > 0,

which multiplies the advanced-time derivative.  Also implemented: the
closed-form phase-space divergence of the Cartesian right-hand side and a
finite-difference Jacobian determinant of the flow map, whose exact value
is (1 + phat.k at start) / (1 + phat.k at end).
"""

from __future__ import annotations

import numpy as np


H_FD = 1e-4  # relative step of flow_jacobian_det's central differences


class IntegrationError(RuntimeError):
    """Raised when a trajectory leaves the admissible domain (r <= r_floor)."""


def _norm(x):
    return np.sqrt(np.vecdot(x, x))


def _smallest(r):
    """min(r) over the non-NaN values, inf if none: ``_smallest(r) <= a``
    is ``np.any(r <= a)``, in one reduction."""
    return np.fmin.reduce(r, axis=None, initial=np.inf)


def _trajectory(r, bad):
    """'trajectory i (of n) reached r=r_i': the first index i of r, in its
    flat order, at which the mask bad holds, and its radius."""
    i = int(np.argmax(bad))
    return f"trajectory {i} (of {np.size(r)}) reached r={np.ravel(r)[i]:g}"


def _check_floor(r, r_floor, at=""):
    """Raise an IntegrationError naming the first trajectory, by its index
    in r, whose radius is at or below r_floor; ``at`` ends the message."""
    if _smallest(r) <= r_floor:
        raise IntegrationError(f"{_trajectory(r, r <= r_floor)} <= "
                               f"r_floor={r_floor:g}{at}")


def _kinematics(x, p, what):
    """States as float arrays, with |x|, k = x/|x| and gamma = sqrt(1+|p|^2)
    over the last axis; ``what`` names the quantity undefined at x = 0."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    r = _norm(x)
    if _smallest(r) <= 0.0:
        raise ValueError(f"{what} undefined at |x| = 0")
    return x, p, r, x / r[..., None], np.sqrt(1.0 + np.vecdot(p, p))


def _cross(a, b):
    """np.cross(a, b) over the last axis: its arithmetic, component by
    component, without its moveaxis and astype copies."""
    out = np.empty(a.shape if a.shape == b.shape
                   else np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[..., j] * b[..., k], a[..., k] * b[..., j],
                    out=out[..., i])
    return out


def char_rhs_cartesian(v, x, p, field, out=None):
    """Right-hand side of xdot = p/p0, pdot = (gamma E + p x B)/p0.

    ``field(v, x) -> (E, B)``, all of shape ``(..., 3)`` like the states of
    every function here; each row is computed as for one ``(3,)`` point.
    Returns (dx, dp), the blocks ``out[0]`` and ``out[1]`` of ``out``
    (shape (2, ..., 3)) when it is given.
    """
    x, p, _, k, gamma = _kinematics(x, p, "Cartesian characteristic RHS")
    p0 = (gamma + np.vecdot(p, k))[..., None]
    E, B = field(v, x)
    if out is None:
        out = np.empty((2,) + np.broadcast_shapes(x.shape, p.shape))
    dx, dp = out
    np.divide(p, p0, out=dx)
    np.multiply(gamma[..., None], E, out=dp)
    dp += _cross(p, np.asarray(B, dtype=float))
    dp /= p0
    return dx, dp


def char_rhs_reduced(v, r, w, q, E_r, out=None):
    """Reduced radial system: dr/dv = w/p0, dw/dv = (gamma E_r + q/r^3)/p0.

    q is a constant of the motion and never integrated.  Vectorized over
    particle arrays; E_r is the radial field value(s) at r and is only
    read.  Returns (dr, dw), the rows of ``out`` (shape (2, n)) when it is
    given; they also hold the intermediates, so only q/r^2 is allocated,
    and q/r^3 is taken from it as (q/r^2)/r.  gamma^2 is summed as
    (1 + w^2) + q/r^2, the order of phase_model.kinematics.
    """
    r = np.asarray(r, dtype=float)
    if _smallest(r) <= 0.0:
        raise ValueError(f"{_trajectory(r, r <= 0.0)}: reduced "
                         "characteristic RHS requires r > 0")
    w = np.asarray(w, dtype=float)
    q = np.asarray(q, dtype=float)
    if out is None:
        out = np.empty((2,) + np.broadcast_shapes(r.shape, w.shape, q.shape))
    dr, dw = out[0, ...], out[1, ...]
    # gamma = sqrt(1 + w^2 + q/r^2) and then p0 = gamma + w live in dr,
    # gamma E_r + q/r^3 in dw, and q/r^2 and then q/r^3 in q_r2
    q_r2 = np.multiply(r, r)
    if r.ndim == 0:   # a numpy scalar, which no out= takes
        q_r2 = np.array(q_r2)
    np.divide(q, q_r2, out=q_r2)
    np.add(1.0, np.multiply(w, w, out=dr), out=dr)
    np.sqrt(np.add(dr, q_r2, out=dr), out=dr)
    np.multiply(dr, E_r, out=dw)
    np.add(dr, w, out=dr)
    dw += np.divide(q_r2, r, out=q_r2)
    dw /= dr
    np.divide(w, dr, out=dr)
    return dr, dw


def rk4_steps(v, v_to, step):
    """(n, dv): the n equal RK4 steps dv of at most ``step`` from v to
    v_to, none over a zero span."""
    span = v_to - v
    # written so that a NaN fails too
    if not abs(span) < np.inf:
        raise ValueError(f"span v={v:g} -> v_to={v_to:g} is not finite")
    # a zero span takes no step, but a report still writes the step down
    if not abs(step) < np.inf or (span != 0.0 and not step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step:g}")
    ratio = abs(span) / step if span else 0.0
    if not ratio < np.inf:
        raise ValueError(f"span {span:g} / step {step:g} overflows the "
                         "step count")
    n = max(1, int(np.ceil(ratio - 1e-12))) if span else 0
    dv = span / max(n, 1)
    # a step that cannot move v would have the stages read stalled times
    if span and (v + dv == v or v_to - dv == v_to):
        raise ValueError(f"step {step:g} is below the time resolution of the "
                         f"span v={v:g} -> v_to={v_to:g}")
    return n, dv


def _integrate(rhs, y, v, v_to, step, after_step):
    """Fixed-step RK4 of dy/dv = rhs(v, y, out), advancing y in place from v
    to v_to in rk4_steps and calling after_step(v, y) after every step.
    The four stage buffers are allocated once; each combination keeps the
    association of the textbook formula, so the result is bit for bit that
    of the form that allocates every stage."""
    n, dv = rk4_steps(v, v_to, step)
    k = np.empty((4,) + y.shape)
    ys = np.empty_like(y)
    half = 0.5 * dv
    for _ in range(n):
        rhs(v, y, k[0])
        np.add(y, np.multiply(k[0], half, out=ys), out=ys)
        rhs(v + half, ys, k[1])
        np.add(y, np.multiply(k[1], half, out=ys), out=ys)
        rhs(v + half, ys, k[2])
        np.add(y, np.multiply(k[2], dv, out=ys), out=ys)
        rhs(v + dv, ys, k[3])
        # (dv/6) (((k1 + 2 k2) + 2 k3) + k4)
        np.add(k[0], np.multiply(k[1], 2.0, out=k[1]), out=k[1])
        k[1] += np.multiply(k[2], 2.0, out=k[2])
        k[1] += k[3]
        k[1] *= dv / 6.0
        y += k[1]
        v += dv
        after_step(v, y)


def integrate_reduced(r, w, q, field_fn, v_from, v_to, step,
                      scheme="rk4", r_floor=1e-10):
    """Integrate the reduced system in fixed RK4 steps; vectorized over
    arrays.

    ``field_fn(v, r) -> E_r``; the arrays it returns are only read.
    Reaching ``r <= r_floor`` aborts: with a positive angular-momentum floor
    no admissible orbit approaches the axis, so this signals invalid data or
    a bug, not physics.  ``scheme`` must be "rk4"; it stays because
    ``particle_stages`` in perfbench/run.py binds this signature and reads
    it, and its span records "unmeasured" without it.
    """
    if scheme != "rk4":
        raise ValueError(f"unknown scheme {scheme!r}")
    y = np.stack([np.atleast_1d(np.asarray(r, dtype=float)),
                  np.atleast_1d(np.asarray(w, dtype=float))])
    q = np.atleast_1d(np.asarray(q, dtype=float))

    def rhs(v, y, out):
        char_rhs_reduced(v, y[0], y[1], q, field_fn(v, y[0]), out)

    _integrate(rhs, y, v_from, v_to, step,
               lambda v, y: _check_floor(y[0], r_floor))
    return y[0], y[1]


def integrate_cartesian(x, p, field, v_from, v_to, step, r_floor=1e-10):
    """Integrate the 6D Cartesian system for phase points ``(..., 3)`` as
    one contiguous ``(2, rows, 3)`` block of x and p: no stage reads a
    strided half.  Callers bound the memory by the rows they pass."""
    def rhs(v, y, out):
        char_rhs_cartesian(v, y[0], y[1], field, out)

    y = np.stack([np.asarray(x, float), np.asarray(p, float)])
    _integrate(rhs, y.reshape(2, -1, 3), v_from, v_to, step,
               lambda v, y: _check_floor(_norm(y[0]), r_floor, f" at v={v:g}"))
    return y[0], y[1]


def phase_divergence(v, x, p, field):
    """Closed-form divergence of the Cartesian characteristic RHS.

    Equals -(1+phat.k)^-2 [ |phat x k|^2 / |x|
        + (E.(k - (phat.k) phat) - (phat x k).B) / gamma ].
    """
    x, p, r, k, gamma = _kinematics(x, p, "phase divergence")
    phat = p / gamma[..., None]
    c = np.vecdot(phat, k)
    E, B = field(v, x)
    cross = _cross(phat, k)
    term = (np.vecdot(cross, cross) / r
            + (np.vecdot(E, k - c[..., None] * phat)
               - np.vecdot(cross, B)) / gamma)
    return -term / np.square(1.0 + c)


def phase_divergence_fd(v, x, p, field):
    """Central 1e-5 finite-difference divergence of the Cartesian RHS
    (oracle); the 12 stencil points of every state go through one RHS call."""
    h, xs, ps = 1e-5, [], []
    for e in h * np.eye(3):
        xs += [x + e, x - e, x, x]
        ps += [p, p, p + e, p - e]
    dx, dp = char_rhs_cartesian(v, np.stack(xs, axis=-2),
                                np.stack(ps, axis=-2), field)
    div = 0.0
    for i in range(3):
        div += (dx[..., 4 * i, i] - dx[..., 4 * i + 1, i]) / (2.0 * h)
        div += (dp[..., 4 * i + 2, i] - dp[..., 4 * i + 3, i]) / (2.0 * h)
    return div


def one_plus_phat_k(x, p):
    x, p, _, k, gamma = _kinematics(x, p, "1 + phat.k")
    return 1.0 + np.vecdot(p, k) / gamma


def flow_jacobian_det(x, p, field, v_from, v_to, step):
    """(det, exact): the 6x6 finite-difference Jacobian determinant of the
    flow map and its exact value (1 + phat.k)(start) / (1 + Phat.K)(end),
    which holds for any field, from one integration of 13 stacked rows per
    state: rows 2j and 2j+1 move coordinate j by +-h (relative H_FD) for
    the central differences, and row 12 is the base state.
    """
    z0 = np.concatenate([np.asarray(x, float), np.asarray(p, float)], axis=-1)
    h = H_FD * np.maximum(1.0, np.abs(z0))
    z = np.repeat(z0[..., None, :], 13, axis=-2)
    j = np.arange(6)
    z[..., 2 * j, j] += h
    z[..., 2 * j + 1, j] -= h
    x1, p1 = integrate_cartesian(z[..., :3], z[..., 3:], field, v_from, v_to,
                                 step)
    z1 = np.concatenate([x1, p1], axis=-1)
    J = (z1[..., 0:12:2, :] - z1[..., 1:12:2, :]) / (2.0 * h[..., None])
    det = np.linalg.det(np.swapaxes(J, -1, -2))
    det = float(det) if det.ndim == 0 else det
    return det, (one_plus_phat_k(x, p)
                 / one_plus_phat_k(x1[..., 12, :], p1[..., 12, :]))


def embed_reduced_state(r, w, q):
    """Embed (r, w, q) as x = r e1, p = w e1 + sqrt(q)/r e2."""
    x = np.array([float(r), 0.0, 0.0])
    p = np.array([float(w), np.sqrt(float(q)) / float(r), 0.0])
    return x, p
