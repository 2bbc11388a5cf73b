"""Exact references: the reduced characteristic solver scored against
known solutions, not only against its own identities."""

import numpy as np
import pytest

from vmcone import embed_reduced_state, integrate_reduced


def _free_line(r0, w0, q, s):
    """(v, r, w) of the field-free Cartesian line x(s) = x0 + s p/gamma
    through the reduced state (r0, w0, q) on the cone v = 0, a coordinate
    time s later: t = s - r0, so v = t + |x| = s + |x(s)| - r0, and the
    reduced state is r = |x(s)|, w = p.x(s)/r.  Picking s and computing v
    needs no root finding."""
    x0, p = embed_reduced_state(r0, w0, q)
    x = x0 + s * p / np.sqrt(1.0 + p @ p)
    r = np.linalg.norm(x)
    return s + r - r0, r, (p @ x) / r


# (r0, w0, q, s): outgoing, and two incoming orbits that pass their
# turning point (w = 0) before s
ORBITS = [(0.5, 0.3, 0.01, 1.0), (1.0, -0.5, 0.04, 3.0),
          (0.8, -1.2, 0.2, 1.5)]


@pytest.mark.parametrize("r0, w0, q, s", ORBITS)
def test_free_streaming_is_fourth_order(r0, w0, q, s):
    # with zero field, integrate_reduced from v = 0 to the v of the line
    # converges to its (r, w) at fourth order in dv
    v, r, w = _free_line(r0, w0, q, s)
    errors = []
    for n in (20, 40, 80):
        rr, ww = integrate_reduced(r0, w0, q, lambda v, r: 0.0, 0.0, v, v / n)
        errors.append(max(abs(rr[0] - r), abs(ww[0] - w)))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 3.5), (errors, orders)
    assert errors[-1] < 1e-6 * max(r, abs(w))


def test_the_free_line_starts_on_its_reduced_state():
    # s = 0 is the initial state on v = 0, and q = |x x p|^2 is constant
    for r0, w0, q, s in ORBITS:
        assert _free_line(r0, w0, q, 0.0) == pytest.approx((0.0, r0, w0),
                                                           abs=1e-15)
        x0, p = embed_reduced_state(r0, w0, q)
        x = x0 + s * p / np.sqrt(1.0 + p @ p)
        assert np.sum(np.cross(x, p) ** 2) == pytest.approx(q, rel=1e-12)
