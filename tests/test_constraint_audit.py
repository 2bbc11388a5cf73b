import numpy as np
import pytest

from vmcone import (GriddedFieldSet, grid_from_functions, ConstraintStencils,
                    eval_W1, eval_W2, eval_scalar_constraints, check_identities,
                    audit, check_equivalence, embed_symmetric_solution,
                    EQUIVALENCE_FACTOR, save_grid, load_grid)


def smooth_ball_fields(charge=1.0, width=0.5):
    """Consistent spherically symmetric data: a smooth charge ball with its
    Coulomb-type field, radial current and zero magnetic field."""
    a = 1.0 / width**2

    def rho_profile(r2):
        return charge * np.exp(-a * r2)

    def cumulative(r):
        # int_0^r rho(s) s^2 ds for the gaussian profile, in closed form
        from scipy.special import erf
        s = np.sqrt(a)
        return charge * (np.sqrt(np.pi) * erf(s * r) / (4.0 * s**3)
                         - r * np.exp(-a * r**2) / (2.0 * a))

    def E_fn(x):
        r = np.sqrt(np.sum(x**2, axis=-1))
        r_safe = np.where(r > 0, r, 1.0)
        mag = np.where(r > 0, cumulative(r_safe) / r_safe**2, 0.0)
        return x * (mag / r_safe)[..., None]

    def B_fn(x):
        return np.zeros_like(x)

    def rho_fn(x):
        return rho_profile(np.sum(x**2, axis=-1))

    def j_fn(x):
        return np.zeros_like(x)

    return E_fn, B_fn, rho_fn, j_fn


def random_field_set(n=17, extent=1.0, seed=0, r_cut=0.3):
    rng = np.random.default_rng(seed)

    def smooth(x, coeffs):
        out = np.zeros(x.shape[:-1])
        for cx, cy, cz, amp, ph in coeffs:
            out += amp * np.sin(cx * x[..., 0] + cy * x[..., 1]
                                + cz * x[..., 2] + ph)
        return out

    def coeffs():
        return [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
                 rng.normal(), rng.uniform(0, 6)) for _ in range(3)]

    cE = [coeffs() for _ in range(3)]
    cB = [coeffs() for _ in range(3)]
    cr = coeffs()
    cj = [coeffs() for _ in range(3)]
    return grid_from_functions(
        n, extent, r_cut=r_cut,
        E_fn=lambda x: np.stack([smooth(x, c) for c in cE], axis=-1),
        B_fn=lambda x: np.stack([smooth(x, c) for c in cB], axis=-1),
        rho_fn=lambda x: smooth(x, cr),
        j_fn=lambda x: np.stack([smooth(x, c) for c in cj], axis=-1))


def test_grid_geometry_and_validation():
    g = random_field_set(n=17)
    assert g.h == pytest.approx(0.125)
    mask = g.interior_mask()
    assert not mask[0].any() and not mask[-1].any()
    assert np.all(g.radius()[mask] >= g.r_cut)
    with pytest.raises(ValueError, match="r_cut"):
        GriddedFieldSet(n=9, extent=1.0, r_cut=0.01,
                        E=np.zeros((9, 9, 9, 3)), B=np.zeros((9, 9, 9, 3)),
                        rho=np.zeros((9, 9, 9)), j=np.zeros((9, 9, 9, 3)))


def test_consistent_ball_satisfies_constraints():
    E_fn, B_fn, rho_fn, j_fn = smooth_ball_fields()
    g = grid_from_functions(33, 1.0, 0.25, E_fn, B_fn, rho_fn, j_fn)
    res = audit(g)
    tol = 10.0 * g.h**2
    assert res["W1_max"] <= tol
    assert res["W2_max"] <= tol
    assert res["scalar1_max"] <= tol
    assert res["scalar2_max"] <= tol


def test_recombination_identities_on_random_fields():
    # the identities are algebraic in the shared stencils, so they hold at
    # machine precision even on constraint-violating data
    for seed in range(5):
        g = random_field_set(seed=seed)
        ids = check_identities(g)
        assert ids["identity1_rel"] <= 1e-12
        assert ids["identity2_rel"] <= 1e-12


def test_shared_stencils_reused():
    g = random_field_set(seed=3)
    st = ConstraintStencils(g)
    assert np.array_equal(eval_W1(g, st), eval_W1(g))
    assert np.array_equal(eval_W2(g, st), eval_W2(g))
    s1a, s2a = eval_scalar_constraints(g, st)
    s1b, s2b = eval_scalar_constraints(g)
    assert np.array_equal(s1a, s1b) and np.array_equal(s2a, s2b)


def test_equivalence_verdict_consistent_data():
    E_fn, B_fn, rho_fn, j_fn = smooth_ball_fields()
    g = grid_from_functions(33, 1.0, 0.25, E_fn, B_fn, rho_fn, j_fn)
    verdict = check_equivalence(g, tol=10.0 * g.h**2)
    assert verdict["coherent"]
    assert verdict["set_full"] and verdict["set_kxW1"] and verdict["set_kxW2"]
    assert verdict["tol_derived"] == pytest.approx(
        EQUIVALENCE_FACTOR * verdict["tol"])


def test_equivalence_verdict_manufactured_violation():
    E_fn, B_fn, rho_fn, j_fn = smooth_ball_fields()

    def rho_bad(x):
        return rho_fn(x) + 0.5  # breaks div E = rho + j.k uniformly

    g = grid_from_functions(33, 1.0, 0.25, E_fn, B_fn, rho_bad, j_fn)
    verdict = check_equivalence(g, tol=10.0 * g.h**2)
    assert verdict["coherent"]
    assert not verdict["set_full"]
    assert not verdict["set_kxW1"]
    assert not verdict["set_kxW2"]


def test_incoherent_verdict_names_the_worst_node(monkeypatch):
    # a tol that the scalar and k x W formulations meet at 3 tol while
    # |W1|, |W2| <= tol fails: the verdicts disagree
    import vmcone.constraint_audit as ca

    g = random_field_set(seed=3)
    res = audit(g)
    tol = max(res[k] for k in ("scalar1_max", "scalar2_max", "kxW1_max",
                               "kxW2_max")) / EQUIVALENCE_FACTOR
    assert max(res["W1_max"], res["W2_max"]) > tol
    W1_mag = np.linalg.norm(eval_W1(g), axis=-1)
    built = []

    class Counted(ca.ConstraintStencils):
        def __init__(self, grid):
            built.append(grid)
            super().__init__(grid)

    monkeypatch.setattr(ca, "ConstraintStencils", Counted)
    verdict = check_equivalence(g, tol)
    assert not verdict["coherent"]
    assert len(built) == 1
    worst = verdict["counterexample"]
    idx = tuple(worst["index"])
    assert g.interior_mask()[idx]
    assert W1_mag[idx] == pytest.approx(np.max(W1_mag[g.interior_mask()]),
                                        rel=1e-15)
    assert worst["W1_mag"] == res["W1_max"]
    assert worst["x"] == [float(g.axes[i]) for i in idx]


def test_embedded_slice_consistency(small_history):
    g = embed_symmetric_solution(small_history, 1.0, 33, 0.6, r_cut=0.15)
    res = audit(g)
    assert res["W1_max"] <= 10.0 * g.h**2
    assert res["W2_max"] <= 10.0 * g.h**2
    assert res["identity1_rel"] <= 1e-12
    # B vanishes identically in the embedding
    assert np.all(g.B == 0.0)


def test_embedded_slice_convergence_order(small_history):
    res = {}
    for n in (17, 33, 65):
        g = embed_symmetric_solution(small_history, 1.0, n, 0.6, r_cut=0.2)
        res[n] = audit(g)
    for key in ("W1_l2", "W2_l2", "scalar2_l2"):
        p = np.log2(res[33][key] / res[65][key])
        assert 1.6 < p < 2.4, (key, p)


def test_embedding_extent_validation(small_history):
    big = small_history.grid.r_max  # cube corner would leave the shell grid
    with pytest.raises(ValueError, match="corner"):
        embed_symmetric_solution(small_history, 1.0, 17, big, r_cut=0.3)


def test_grid_file_round_trip(tmp_path):
    g = random_field_set(seed=9)
    path = tmp_path / "fields.vmgrid"
    save_grid(g, path)
    g2 = load_grid(path)
    assert g2.n == g.n and g2.extent == g.extent and g2.r_cut == g.r_cut
    for name in ("E", "B", "rho", "j"):
        assert np.array_equal(getattr(g2, name), getattr(g, name))
    bad = tmp_path / "bad.vmgrid"
    bad.write_bytes(b"not a grid file at all")
    with pytest.raises(ValueError, match="not a vmcone grid"):
        load_grid(bad)


def test_audit_report_runs_the_audit_once(monkeypatch):
    import vmcone.constraint_audit as ca
    from vmcone.report import audit_report

    calls = []
    real = ca.audit

    def counted(grid):
        calls.append(grid)
        return real(grid)

    monkeypatch.setattr(ca, "audit", counted)
    E_fn, B_fn, rho_fn, j_fn = smooth_ball_fields()
    g = grid_from_functions(17, 1.0, 0.25, E_fn, B_fn, rho_fn, j_fn)
    doc = audit_report(g)
    assert len(calls) == 1
    assert doc["residuals"] == real(g)
    assert doc["equivalence"]["tol"] == 10.0 * g.h**2 + 1e-8
