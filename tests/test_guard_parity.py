"""Every guard of the particle step on its edge inputs: r = 0, negative,
NaN, +-inf, empty arrays and scalars.  Each guard is one reduction; these
cases pin the exception type and message, or the value, that the guards
gave as elementwise compares, except that cic_cells now refuses a NaN
radius (the compares let it through as cell -2**63)."""

import sys

import numpy as np
import pytest

from vmcone import (ShellGrid, ParticleSet, RunAborted, IntegrationError,
                    check_measure_positivity, cone_evolver,
                    cumulative_source, deposit, eval_field,
                    integrate_reduced, moment_payloads, run, solve_field)
from vmcone.characteristics import char_rhs_reduced
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
    # char_rhs_reduced
    "rhs-zero": (lambda: rhs(0.0),
                 (ValueError, "reduced characteristic RHS requires r > 0")),
    "rhs-negative": (lambda: rhs([0.5, -0.1]),
                     (ValueError, "reduced characteristic RHS requires r > 0")),
    "rhs-minus-inf": (lambda: rhs([-INF]),
                      (ValueError, "reduced characteristic RHS requires r > 0")),
    "rhs-nan": (lambda: bool(np.isnan(rhs([0.5, NAN])).tolist()
                             == [[False, True], [False, True]]), same(True)),
    "rhs-inf": (lambda: bool(np.all(np.isfinite(rhs([INF])))), same(True)),
    "rhs-empty": (lambda: tuple(a.shape for a in rhs(np.empty(0))),
                  same(((0,), (0,)))),
    # a 0-d r makes q/r^2 a scalar, which no out= takes
    "rhs-scalar": (lambda: rhs(0.5),
                   (TypeError, "return arrays must be of ArrayType")),
    # integrate_reduced: the r_floor check after each step
    "push-floor": (lambda: push([0.6, 0.5]),
                   (IntegrationError, "trajectory reached r <= r_floor=0.45 "
                    "at v=0.1; the axis bound sqrt(F)/P is violated")),
    "push-nan": (lambda: bool(np.isnan(push([0.6, NAN], w=0.0)[0][1])),
                 same(True)),
    "push-empty": (lambda: tuple(a.shape for a in push(np.empty(0))),
                   same(((0,), (0,)))),
    "push-scalar": (lambda: tuple(a.shape for a in push(0.6, w=0.0)),
                    same(((1,), (1,)))),
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

