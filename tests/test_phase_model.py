import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from vmcone import (InitialDatum, builtin_datum, sample_particles,
                    check_measure_positivity, kinematics, ParticleSet,
                    ANGULAR_FACTOR)
from vmcone.characteristics import char_rhs_reduced


def gauss_mass_oracle(datum, n_gauss=48):
    """Tensor Gauss-Legendre quadrature of the sampled measure
    int f (1 + w/gamma) 4 pi^2 dr dw dq over the support box."""
    (r_lo, r_hi), (w_lo, w_hi), (q_lo, q_hi) = datum.support_box
    nodes, weights = leggauss(n_gauss)

    def scaled(lo, hi):
        return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights

    r, wr = scaled(r_lo, r_hi)
    w, ww = scaled(w_lo, w_hi)
    q, wq = scaled(q_lo, q_hi)
    R, W, Q = np.meshgrid(r, w, q, indexing="ij")
    WR, WW, WQ = np.meshgrid(wr, ww, wq, indexing="ij")
    gamma = np.sqrt(1.0 + W**2 + Q / R**2)
    f = datum.density(R, W, Q)
    return float(ANGULAR_FACTOR * np.sum(f * (1.0 + W / gamma) * WR * WW * WQ))


def test_builtin_names():
    for name in ("zero", "shell_polynomial", "shell_gaussian"):
        d = builtin_datum(name)
        assert d.F > 0.0
    with pytest.raises(ValueError, match="unknown datum name"):
        builtin_datum("nope")
    with pytest.raises(ValueError, match="unknown datum parameters"):
        builtin_datum("shell_polynomial", {"amplitdue": 1.0})
    with pytest.raises(ValueError):
        builtin_datum("zero", {"amplitude": 1.0})


def test_zero_datum_samples_empty():
    parts = sample_particles(builtin_datum("zero"), 8)
    assert len(parts) == 0
    assert np.sum(parts.weight) == 0.0


def test_angular_momentum_floor_required():
    with pytest.raises(ValueError, match="F must be positive"):
        InitialDatum(density=lambda r, w, q: 0.0 * r, R0=1.0, P0=1.0,
                     F=0.0, f_inf_norm=1.0,
                     support_box=((0.5, 1.0), (-1.0, 1.0), (0.0, 0.1)))
    with pytest.raises(ValueError, match="q_support lower bound"):
        builtin_datum("shell_polynomial", {"q_support": [0.0, 0.01]})


def test_non_finite_datum_parameters_rejected():
    # a NaN amplitude or sharpness used to pass validation and sample 0
    # particles
    for name, params in (
            ("shell_polynomial", {"amplitude": float("nan")}),
            ("shell_polynomial", {"w_max": float("nan")}),
            ("shell_polynomial", {"q_support": [0.01, float("inf")]}),
            ("shell_gaussian", {"sharpness": float("nan")}),
            ("shell_gaussian", {"sharpness": float("inf")})):
        with pytest.raises(ValueError, match="must be finite"):
            builtin_datum(name, params)


def test_both_shells_are_one_density():
    # shell_polynomial is the shell formula at sharpness 0, bit for bit the
    # bump product alone; shell_gaussian multiplies it by its exponential
    def bump(s):
        return np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 2, 0.0)

    rng = np.random.default_rng(5)
    r = rng.uniform(0.4, 1.1, 500)
    w = rng.uniform(-0.3, 0.3, 500)
    q = rng.uniform(0.005, 0.025, 500)
    # the default box: r in (0.5, 1), |w| < 0.25, q in (0.01, 0.02)
    s = ((r - 0.75) / 0.25, w / 0.25,
         (q - 0.5 * (0.01 + 0.02)) / (0.5 * (0.02 - 0.01)))
    product = 2.5 * (bump(s[0]) * bump(s[1]) * bump(s[2]))
    poly = builtin_datum("shell_polynomial", {"amplitude": 2.5})
    assert np.array_equal(poly.density(r, w, q), product)
    gauss = builtin_datum("shell_gaussian", {"amplitude": 2.5})
    assert np.allclose(gauss.density(r, w, q), product * np.exp(
        -2.0 * (s[0]**2 + s[1]**2 + s[2]**2)), rtol=2e-15, atol=0.0)


def test_support_descriptors_exact():
    d = builtin_datum("shell_polynomial")
    (r_lo, r_hi), (w_lo, w_hi), (q_lo, q_hi) = d.support_box
    assert d.R0 == r_hi
    assert d.F == q_lo
    # density vanishes on and outside the box boundary
    assert d.density(r_hi, 0.0, 0.5 * (q_lo + q_hi)) == 0.0
    assert d.density(0.5 * (r_lo + r_hi), w_hi, 0.5 * (q_lo + q_hi)) == 0.0
    # sup norm attained at the box center
    assert d.density(0.5 * (r_lo + r_hi), 0.0,
                     0.5 * (q_lo + q_hi)) == pytest.approx(d.f_inf_norm)


def test_gaussian_sup_norm_attained():
    d = builtin_datum("shell_gaussian", {"amplitude": 3.0})
    (r_lo, r_hi), _, (q_lo, q_hi) = d.support_box
    assert d.density(0.5 * (r_lo + r_hi), 0.0,
                     0.5 * (q_lo + q_hi)) == pytest.approx(3.0)
    parts = sample_particles(d, 16)
    assert np.max(parts.f_value) <= d.f_inf_norm
    # a negative sharpness would raise the density above f_inf_norm
    with pytest.raises(ValueError, match="invalid shell profile"):
        builtin_datum("shell_gaussian", {"sharpness": -3.0})


def test_sampled_mass_matches_quadrature():
    # total weight reproduces the quadrature mass to 0.5 percent at 32^3
    for name in ("shell_polynomial", "shell_gaussian"):
        d = builtin_datum(name)
        parts = sample_particles(d, 32)
        oracle = gauss_mass_oracle(d)
        assert np.sum(parts.weight) == pytest.approx(oracle, rel=5e-3)


def test_sampling_refinement_converges():
    d = builtin_datum("shell_polynomial")
    oracle = gauss_mass_oracle(d)
    errs = [abs(np.sum(sample_particles(d, n).weight) - oracle)
            for n in (8, 16, 32)]
    assert errs[2] < errs[1] < errs[0]
    # midpoint rule is second order in the per-axis resolution
    order = np.log2(errs[1] / errs[2])
    assert order > 1.5


def test_resolution_validation():
    d = builtin_datum("shell_polynomial")
    with pytest.raises(ValueError, match="resolution"):
        sample_particles(d, 1)
    with pytest.raises(ValueError):
        sample_particles(d, (8, 8, 1))
    # a count the sampler would truncate is refused, naming it; a whole
    # float is a count
    for bad in (8.9, (8, 8, 8.9)):
        with pytest.raises(ValueError, match=r"resolution .*8\.9"):
            sample_particles(d, bad)
    assert np.array_equal(sample_particles(d, (3.0, 3, 3.0)).weight,
                          sample_particles(d, 3).weight)


def test_weights_positive_and_pruned():
    d = builtin_datum("shell_polynomial")
    parts = sample_particles(d, 16)
    assert np.all(parts.weight > 0.0)
    assert np.all(parts.f_value > 1e-14 * d.f_inf_norm)
    assert np.all(parts.q >= d.F)
    assert np.all(parts.r < d.R0)
    p_sq = kinematics(parts.r, parts.w, parts.q)[0]
    assert np.sqrt(np.max(p_sq)) <= d.P0 + 1e-12


def test_particle_set_kinematics():
    rng = np.random.default_rng(7)
    n = 200
    parts = ParticleSet(r=rng.uniform(0.1, 2.0, n),
                        w=rng.normal(scale=2.0, size=n),
                        q=rng.uniform(0.001, 0.5, n),
                        weight=np.ones(n), f_value=np.ones(n))
    p_sq, gamma, one_plus = kinematics(parts.r, parts.w, parts.q)
    assert np.allclose(gamma**2, 1.0 + p_sq)
    assert np.all(one_plus > 0.0)
    assert np.all(one_plus < 2.0)


def test_kinematics_is_the_push_s_gamma():
    # kinematics sums gamma^2 as the push does: the push's dr = w / p0 with
    # p0 = gamma + w is w / (gamma + w) of kinematics' gamma, bit for bit,
    # on drawn states, and so are |p|^2 and 1 + phat.k of that gamma
    rng = np.random.default_rng(5)
    n = 4096
    r = 10.0 ** rng.uniform(-2.0, 1.0, n)
    w = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 1.0, n)
    q = 10.0 ** rng.uniform(-4.0, 1.0, n)
    p_sq, gamma, one_plus = kinematics(r, w, q)
    dr, _ = char_rhs_reduced(0.0, r, w, q, 0.0)
    assert np.array_equal(dr, w / (gamma + w))
    assert np.array_equal(p_sq, w**2 + q / r**2)
    assert np.array_equal(one_plus, 1.0 + w / gamma)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(r=st.floats(1e-3, 1e3), w=st.floats(-1e3, 1e3),
       q=st.floats(1e-6, 1e6))
@settings(max_examples=200, deadline=None)
def test_measure_positivity_bound_property(r, w, q):
    # 1 + w/gamma >= (1/2)/(1 + |p|^2) for every admissible (r, w, q)
    psq = w**2 + q / r**2
    gamma = np.sqrt(1.0 + psq)
    assert 1.0 + w / gamma >= 0.5 / (1.0 + psq) * (1.0 - 1e-12)


def test_measure_positivity_bound():
    # 1 + phat.k >= (1/2)/(1 + |p|^2) holds for arbitrary states
    rng = np.random.default_rng(11)
    n = 5000
    parts = ParticleSet(r=rng.uniform(0.01, 5.0, n),
                        w=rng.normal(scale=5.0, size=n),
                        q=rng.uniform(1e-4, 10.0, n),
                        weight=np.ones(n), f_value=np.ones(n))
    check_measure_positivity(parts)


def test_measure_positivity_rejects_corrupt_state():
    # a negative q, which no physical state has, puts 1 + phat.k below the
    # bound, and the check must flag it
    bad = ParticleSet(r=np.array([0.5]), w=np.array([-1.0]),
                      q=np.array([-0.125]), weight=np.array([1.0]),
                      f_value=np.array([1.0]))
    with pytest.raises(AssertionError, match="measure positivity"):
        check_measure_positivity(bad)
