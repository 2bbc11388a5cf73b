"""Every guard of the particle step on its edge inputs: r = 0, negative,
NaN, +-inf, empty arrays and scalars.  Each guard is one reduction; these
cases pin the exception type and message, or the value, that the guards
gave as elementwise compares, except that cic_cells now refuses a NaN
radius (the compares let it through as cell -2**63), char_rhs_reduced
now takes a 0-d radius (it raised a TypeError) and the reduced r_floor
abort names its trajectory and r, as the Cartesian one does, in place of
the push's own time.  The 6D Cartesian guards
(|x| > 0 in the RHS, r > r_floor after each step) gave the same with the
interleaved (rows, 6) state; only the shape of char_rhs_cartesian's out=
changed, to the (2, rows, 3) blocks of x and p.  The radius guards take
the smallest radius with NaN ignored, so a NaN hides no other radius; a
hypothesis test holds each to its elementwise form on drawn radii."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmcone import (ShellGrid, ParticleSet, RunAborted, IntegrationError,
                    check_measure_positivity, cone_evolver,
                    cumulative_source, deposit, eval_field,
                    integrate_reduced, moment_payloads, run, solve_field)
from vmcone.characteristics import (char_rhs_cartesian, char_rhs_reduced,
                                     integrate_cartesian)
from vmcone.report import _test_field
from vmcone.radial_field import cic_cells

from conftest import small_config

GRID = ShellGrid(1.0, 8)
# a cumulative source with I[0] != 0, so that E(0) = 0 is the mask's doing
I = np.linspace(1.0, 2.0, 9)
NAN, INF = np.nan, np.inf
OUTSIDE = "outside shell grid [0, 1); enlarge r_max"


def field_at(r):
    """E_r at positive radii r: the interpolated I over r^2."""
    return np.interp(r, GRID.edges, I) / np.square(r)


def parts(w, q=1e-2):
    """Particles at r = 0.5; a negative q makes a state the check refuses."""
    w = np.asarray(w, dtype=float)
    ones = np.ones_like(w)
    return ParticleSet(0.5 * ones, w, q * ones, ones, ones)


def positivity_message(p, i):
    lhs, lower = p.one_plus_phat_k()[i], 0.5 / (1.0 + p.momentum_sq()[i])
    return (f"measure positivity violated at particle {i}: "
            f"1+phat.k={lhs:.3e} < {lower:.3e}")


def rhs(r):
    r = np.asarray(r, dtype=float)
    return char_rhs_reduced(0.0, r, np.full(r.shape, 0.1),
                            np.full(r.shape, 1e-2), 0.25)


def push(r, w=-1.0):
    r = np.asarray(r, dtype=float)
    return integrate_reduced(r, np.full(r.shape, w), np.full(r.shape, 1e-4),
                             lambda v, r: 0.0, 0.0, 0.1, 0.1, r_floor=0.45)


def cartesian(x, out=None):
    x = np.asarray(x, dtype=float)
    return char_rhs_cartesian(0.0, x, np.full(x.shape, 0.1), _test_field(),
                              out)


def nan_rows(arrays):
    """Which rows of each array hold a NaN."""
    return tuple(np.isnan(a).any(axis=-1).tolist() for a in arrays)


def cartesian_into(out):
    """True iff char_rhs_cartesian returns views of out's two blocks that
    hold the values of the call without out."""
    x = np.array([[0.5, 0.1, 0.0], [0.0, 0.7, 0.2]])
    dx, dp = cartesian(x, out)
    return bool(np.shares_memory(dx, out[0]) and np.shares_memory(dp, out[1])
                and not np.shares_memory(dx, dp)
                and np.array_equal(np.stack((dx, dp)), np.stack(cartesian(x))))


def fall(*starts, n=4099):
    """integrate_cartesian over one step of 0.1 in a zero field: n rows at
    x = e1, but each (row, x0) of starts at x0 and falling towards the axis.
    The message names the row by its index among all n."""
    x = np.tile([1.0, 0.0, 0.0], (n, 1))
    p = np.tile([0.1, 0.2, 0.0], (n, 1))
    for i, x0 in starts:
        x[i], p[i] = x0, [-0.1, 0.0, 0.0]
    return integrate_cartesian(x, p, lambda v, x: (np.zeros_like(x),) * 2,
                               0.0, 0.1, 0.1, r_floor=0.05)


FLOOR = ("trajectory 4097 (of 4099) reached r=0.0489501 <= r_floor=0.05 "
         "at v=0.1")


def same(want):
    """A check that the result equals want bit for bit, NaN at NaN, in type
    and shape too."""
    def check(got):
        assert type(got) is type(want)
        if want is None:
            return
        assert not isinstance(got, tuple) or len(got) == len(want)
        for a, b in zip(*(x if isinstance(x, tuple) else (x,)
                          for x in (got, want))):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True), (a, b)
    return check


CASES = {
    # eval_field: E(0) = 0, a plain divide where every r is positive
    "eval_field-zero": (lambda: eval_field(GRID, I, 0.0), same(0.0)),
    "eval_field-zero-in-array": (
        lambda: eval_field(GRID, I, np.array([0.5, 0.0])),
        same(np.array([field_at(0.5), 0.0]))),
    "eval_field-minus-zero": (lambda: eval_field(GRID, I, -0.0), same(0.0)),
    "eval_field-positive-scalar": (lambda: eval_field(GRID, I, 0.3),
                                   same(float(field_at(0.3)))),
    "eval_field-negative": (lambda: eval_field(GRID, I, np.array([0.5, -1e-300])),
                            (ValueError, "field evaluation outside r >= 0")),
    "eval_field-negative-scalar": (lambda: eval_field(GRID, I, -0.5),
                                   (ValueError,
                                    "field evaluation outside r >= 0")),
    "eval_field-nan": (lambda: eval_field(GRID, I, np.array([0.5, NAN])),
                       same(np.array([field_at(0.5), NAN]))),
    "eval_field-inf": (lambda: eval_field(GRID, I, np.array([INF])),
                       same(np.array([0.0]))),
    "eval_field-minus-inf": (lambda: eval_field(GRID, I, np.array([-INF])),
                             (ValueError, "field evaluation outside r >= 0")),
    "eval_field-empty": (lambda: eval_field(GRID, I, np.empty(0)),
                         same(np.empty(0))),
    # a NaN radius hides no negative one
    "eval_field-nan-and-negative": (
        lambda: eval_field(GRID, I, np.array([NAN, -0.5])),
        (ValueError, "field evaluation outside r >= 0")),
    # char_rhs_reduced
    "rhs-zero": (lambda: rhs(0.0),
                 (ValueError, "reduced characteristic RHS requires r > 0")),
    "rhs-negative": (lambda: rhs([0.5, -0.1]),
                     (ValueError, "reduced characteristic RHS requires r > 0")),
    "rhs-minus-inf": (lambda: rhs([-INF]),
                      (ValueError, "reduced characteristic RHS requires r > 0")),
    "rhs-nan": (lambda: bool(np.isnan(rhs([0.5, NAN])).tolist()
                             == [[False, True], [False, True]]), same(True)),
    "rhs-nan-and-zero": (lambda: rhs([NAN, 0.0]),
                         (ValueError,
                          "reduced characteristic RHS requires r > 0")),
    "rhs-inf": (lambda: bool(np.all(np.isfinite(rhs([INF])))), same(True)),
    "rhs-empty": (lambda: tuple(a.shape for a in rhs(np.empty(0))),
                  same(((0,), (0,)))),
    # a 0-d r gives the values of the one-element call, 0-d
    "rhs-scalar": (lambda: rhs(0.5),
                   same(tuple(a.reshape(()) for a in rhs([0.5])))),
    # integrate_reduced: the r_floor check after each step
    "push-floor": (lambda: push([0.6, 0.5]),
                   (IntegrationError, "trajectory 0 (of 2) reached "
                    "r=0.358712 <= r_floor=0.45")),
    "push-nan": (lambda: bool(np.isnan(push([0.6, NAN], w=0.0)[0][1])),
                 same(True)),
    "push-nan-and-floor": (lambda: push([NAN, 0.46]),
                           (IntegrationError, "trajectory 1 (of 2) reached "
                            "r=0.218887 <= r_floor=0.45")),
    "push-empty": (lambda: tuple(a.shape for a in push(np.empty(0))),
                   same(((0,), (0,)))),
    "push-scalar": (lambda: tuple(a.shape for a in push(0.6, w=0.0)),
                    same(((1,), (1,)))),
    # char_rhs_cartesian: |x| > 0 in every row; a NaN or infinite row
    # passes as NaN
    "cartesian-zero": (lambda: cartesian([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                       (ValueError, "Cartesian characteristic RHS undefined "
                        "at |x| = 0")),
    "cartesian-minus-zero": (lambda: cartesian([-0.0, 0.0, -0.0]),
                             (ValueError, "Cartesian characteristic RHS "
                              "undefined at |x| = 0")),
    "cartesian-nan": (lambda: nan_rows(cartesian([[0.5, 0.0, 0.0],
                                                  [NAN, 0.0, 0.0]])),
                      same(([False, True], [False, True]))),
    # a NaN row hides no row at the origin
    "cartesian-nan-and-zero": (lambda: cartesian([[NAN, 0.0, 0.0],
                                                  [0.0, 0.0, 0.0]]),
                               (ValueError, "Cartesian characteristic RHS "
                                "undefined at |x| = 0")),
    "cartesian-inf": (lambda: nan_rows(cartesian([[0.5, 0.0, 0.0],
                                                  [INF, 0.0, 0.0]])),
                      same(([False, True], [False, True]))),
    "cartesian-minus-inf": (lambda: nan_rows(cartesian([[0.0, -INF, 0.0]])),
                            same(([True], [True]))),
    "cartesian-empty": (lambda: tuple(a.shape
                                      for a in cartesian(np.empty((0, 3)))),
                        same(((0, 3), (0, 3)))),
    "cartesian-out": (lambda: cartesian_into(np.empty((2, 2, 3))), same(True)),
    # integrate_cartesian: the r_floor check after each step names the
    # global row; a NaN radius passes through and hides no other row
    "cartesian-push-floor": (lambda: fall((4097, [0.06, 0.0, 0.0])),
                             (IntegrationError, FLOOR)),
    "cartesian-push-nan": (lambda: nan_rows(fall((4097, [NAN, 0.0, 0.0]))),
                           same(([False] * 4097 + [True, False],) * 2)),
    "cartesian-push-nan-and-floor": (
        lambda: fall((4096, [NAN, 0.0, 0.0]), (4097, [0.06, 0.0, 0.0])),
        (IntegrationError, FLOOR)),
    # cic_cells: every r in [0, r_max), and a NaN is refused
    "cells-zero": (lambda: cic_cells(np.array([0.0, 0.5]), GRID),
                   same((np.array([0, 4]), np.array([0.0, 0.0])))),
    "cells-r_max": (lambda: cic_cells(np.array([0.5, 1.0]), GRID),
                    (ValueError, f"particle 1 at r=1 {OUTSIDE}")),
    "cells-negative": (lambda: cic_cells(np.array([0.5, -0.25]), GRID),
                       (ValueError, f"particle 1 at r=-0.25 {OUTSIDE}")),
    "cells-nan": (lambda: cic_cells(np.array([0.5, NAN]), GRID),
                  (ValueError, f"particle 1 at r=nan {OUTSIDE}")),
    "cells-nan-first": (lambda: cic_cells(np.array([NAN, 2.0]), GRID),
                        (ValueError, f"particle 0 at r=nan {OUTSIDE}")),
    "cells-inf": (lambda: cic_cells(np.array([0.5, 0.5, INF]), GRID),
                  (ValueError, f"particle 2 at r=inf {OUTSIDE}")),
    "cells-minus-inf": (lambda: cic_cells(np.array([-INF]), GRID),
                        (ValueError, f"particle 0 at r=-inf {OUTSIDE}")),
    "cells-empty": (lambda: cic_cells(np.empty(0), GRID),
                    same((np.empty(0, dtype=int), np.empty(0)))),
    "cells-scalar": (lambda: cic_cells(np.float64(0.5625), GRID),
                     same((np.int64(4), np.float64(0.5)))),
    "deposit-nan": (lambda: deposit(np.array([0.5, NAN]), (np.ones(2),), GRID),
                    (ValueError, f"particle 1 at r=nan {OUTSIDE}")),
    # solve_field: finite, and negative only down to -1e-12 of max |g|
    "solve-nan": (lambda: solve_field(GRID, np.r_[np.ones(8), NAN]),
                  (ValueError, "non-finite g_plus passed to field solve")),
    "solve-inf": (lambda: solve_field(GRID, np.r_[np.ones(8), INF]),
                  (ValueError, "non-finite g_plus passed to field solve")),
    "solve-minus-inf": (lambda: solve_field(GRID, np.r_[-INF, np.ones(8)]),
                        (ValueError,
                         "non-finite g_plus passed to field solve")),
    "solve-negative": (lambda: solve_field(GRID, np.r_[np.ones(8), -2e-12]),
                       (ValueError, "negative g_plus: moment invariant "
                        "violated upstream")),
    "solve-negative-scalar": (lambda: solve_field(GRID, -1.0),
                              (ValueError, "negative g_plus: moment "
                               "invariant violated upstream")),
    "solve-negative-scaled": (lambda: solve_field(
                                  GRID, np.r_[1e4, -2e-8, np.zeros(7)]),
                              (ValueError, "negative g_plus: moment "
                               "invariant violated upstream")),
    "solve-all-negative": (lambda: solve_field(GRID, np.full(9, -1.0)),
                           (ValueError, "negative g_plus: moment invariant "
                            "violated upstream")),
    "solve-rounding": (lambda: solve_field(
                           GRID, np.r_[1e4, -9e-9, np.zeros(7)])[1],
                       same(np.float64(0.5 * GRID.dr * (-9e-9 * GRID.dr**2)))),
    "solve-zero": (lambda: solve_field(GRID, np.zeros(9)), same(np.zeros(9))),
    "solve-empty": (lambda: solve_field(GRID, np.empty(0)),
                    (ValueError, "zero-size array to reduction operation "
                     "maximum which has no identity")),
    "solve-scalar": (lambda: solve_field(GRID, 1.0),
                     same(cumulative_source(GRID, np.ones(9)))),
    # check_measure_positivity
    "positivity-bad": (
        lambda: check_measure_positivity(parts([0.0, -1.0], q=-0.125)),
        (AssertionError, positivity_message(parts([0.0, -1.0], q=-0.125), 1))),
    "positivity-nan": (lambda: check_measure_positivity(parts([0.0, NAN])),
                       same(None)),
    # w/gamma is inf/inf, and a NaN compares false
    "positivity-minus-inf": (lambda: check_measure_positivity(parts([-INF])),
                             same(None)),
    "positivity-empty": (lambda: check_measure_positivity(parts([])),
                         same(None)),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", CASES)
def test_guard_gives_what_it_gave(case):
    call, want = CASES[case]
    if callable(want):
        want(call())
        return
    cause, message = want
    with pytest.raises(Exception) as error:
        call()
    assert type(error.value) is cause and str(error.value) == message


def test_positivity_takes_the_step_s_one_plus():
    # the step hands its |p|^2 and 1 + w/gamma to the check and to the
    # payloads; both are the bits of the check's own and the payloads' own
    p = parts([0.0, 0.2, -0.3])
    p_sq, gamma = p.momentum_sq(), p.gamma()
    one_plus = 1.0 + p.w / gamma
    assert one_plus.tobytes() == p.one_plus_phat_k().tobytes()
    check_measure_positivity(p, p_sq, one_plus)
    for a, b in zip(moment_payloads(p, gamma, one_plus),
                    moment_payloads(p, gamma)):
        assert a.tobytes() == b.tobytes()
    bad = parts([0.0, -1.0], q=-0.125)
    with pytest.raises(AssertionError, match="at particle 1: "):
        check_measure_positivity(bad, bad.momentum_sq(),
                                 bad.one_plus_phat_k())


# radii or coordinates: the edge values among ordinary ones, which are
# multiples of 1e-3, so that no square underflows
EDGE = (st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 0.5])
        | st.floats(-2.0, 2.0).map(lambda a: round(a, 3)))


def raised(call):
    """The exception call raises, None if it returns."""
    try:
        with np.errstate(all="ignore"):
            call()
    except (ValueError, IntegrationError) as exc:
        return exc
    return None


def refused(exc, cause):
    """True iff exc is of type cause, or both are None."""
    return type(exc) is cause if cause else exc is None


@settings(max_examples=300, deadline=None)
@given(st.lists(EDGE, max_size=6).map(lambda r: np.array(r, dtype=float)))
def test_radial_guards_refuse_what_the_elementwise_compares_refuse(r):
    assert refused(raised(lambda: eval_field(GRID, I, r)),
                   ValueError if np.any(r < 0.0) else None)
    below_axis = ValueError if np.any(r <= 0.0) else None
    assert refused(raised(lambda: rhs(r)), below_axis)
    # w = q = 0 in no field: every radius stays where it is for the
    # r_floor check, after the RHS has checked r > 0
    stay = lambda: integrate_reduced(r, np.zeros_like(r), np.zeros_like(r),
                                     lambda v, r: 0.0, 0.0, 0.1, 0.1,
                                     r_floor=0.5)
    assert refused(raised(stay), below_axis or (
        IntegrationError if np.any(r <= 0.5) else None))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(EDGE, min_size=3, max_size=3), max_size=4)
       .map(lambda x: np.array(x, dtype=float).reshape(-1, 3)))
def test_cartesian_guards_refuse_what_the_elementwise_compares_refuse(x):
    r = np.linalg.norm(x, axis=-1)
    at_axis = ValueError if np.any(r <= 0.0) else None
    assert refused(raised(lambda: cartesian(x)), at_axis)
    # p = 0 in no field: a finite x stays where it is for the r_floor check
    zero = lambda v, x: (np.zeros_like(x),) * 2
    exc = raised(lambda: integrate_cartesian(x, np.zeros_like(x), zero, 0.0,
                                             0.1, 0.1, r_floor=0.5))
    floor = r <= 0.5
    assert refused(exc, at_axis or (
        IntegrationError if np.any(floor) else None))
    if type(exc) is IntegrationError:
        assert str(exc).startswith(f"trajectory {np.argmax(floor)} "
                                   f"(of {len(x)}) ")


@pytest.mark.parametrize("r, w", [(NAN, 0.0), (INF, 0.0), (0.5, INF),
                                  (0.5, -INF), (0.5, NAN)])
def test_a_non_finite_corrected_push_aborts(monkeypatch, r, w):
    # the corrected push of step 0, the second push, ends with one particle
    # at a non-finite state; the predictor's is clean
    real, pushes = cone_evolver.integrate_reduced, []

    def corrupting(*args, **kwargs):
        r_end, w_end = real(*args, **kwargs)
        pushes.append(1)
        if len(pushes) == 2:
            r_end[3], w_end[3] = r, w
        return r_end, w_end

    monkeypatch.setattr(cone_evolver, "PUSH_WORKER_MIN", sys.maxsize)
    monkeypatch.setattr(cone_evolver, "integrate_reduced", corrupting)
    with pytest.raises(RunAborted, match=r"^step 0 \(v=0\): non-finite "
                                         r"particle state after push$") as abort:
        run(small_config(resolution=(6, 6, 6), v_final=0.1))
    assert type(abort.value.__cause__) is FloatingPointError

