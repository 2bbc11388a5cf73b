import itertools

import numpy as np
import pytest

from vmcone import (GriddedFieldSet, grid_from_functions, audit,
                    check_equivalence, embed_symmetric_solution,
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


def _zero_fields(n):
    return dict(E=np.zeros((n, n, n, 3)), B=np.zeros((n, n, n, 3)),
                rho=np.zeros((n, n, n)), j=np.zeros((n, n, n, 3)))


def test_grid_geometry_and_validation():
    g = random_field_set(n=17)
    assert g.h == pytest.approx(0.125)
    pts = np.stack(np.meshgrid(g.axes, g.axes, g.axes, indexing="ij"), axis=-1)
    assert pts.shape == (17, 17, 17, 3)
    assert np.array_equal(pts[3, 5, 7], g.axes[[3, 5, 7]])
    mask = g.interior_mask()
    assert not mask[0].any() and not mask[-1].any()
    assert np.all(np.linalg.norm(pts, axis=-1)[mask] >= g.r_cut)
    with pytest.raises(ValueError, match="r_cut"):
        GriddedFieldSet(n=9, extent=1.0, r_cut=0.01, **_zero_fields(9))


@pytest.mark.parametrize("n, extent, r_cut, match", [
    (2, 1.0, 2.0, "at least 3 nodes"),
    (1, 1.0, 2.0, "at least 3 nodes"),
    (9, float("nan"), 0.5, "extent must be positive and finite"),
    (9, float("inf"), 0.5, "extent must be positive and finite"),
    (9, -1.0, 0.5, "extent must be positive and finite"),
    (9, 1.0, float("nan"), "r_cut must be finite"),
    (9, 1.0, float("inf"), "r_cut must be finite"),
    # (extent - h) sqrt(3) = 0.75 sqrt(3) bounds the interior radii
    (9, 1.0, 100.0, "no node would be checked"),
    (9, 1.0, 1.3, "no node would be checked"),
])
def test_grid_rejects_geometry_that_checks_nothing(n, extent, r_cut, match):
    with pytest.raises(ValueError, match=match):
        GriddedFieldSet(n=n, extent=extent, r_cut=r_cut, **_zero_fields(n))


@pytest.mark.parametrize("n, extent", [(9, 1.0), (11, 1.0), (17, 0.7),
                                       (33, 0.6)])
def test_grid_r_cut_limit_is_the_farthest_interior_radius(n, extent):
    # the limit is the largest radius of an interior node, in the
    # arithmetic of the mask: an r_cut there checks the nodes at that
    # radius (up to one per octant; linspace is not exactly symmetric)
    # and the next double up checks none
    x = np.linspace(-extent, extent, n)[1:-1]
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    R = np.sqrt(X**2 + Y**2 + Z**2)
    r_far = np.max(R)
    g = GriddedFieldSet(n=n, extent=extent, r_cut=r_far, **_zero_fields(n))
    assert audit(g)["nodes_checked"] == np.count_nonzero(R == r_far) >= 1
    with pytest.raises(ValueError, match="no node would be checked"):
        GriddedFieldSet(n=n, extent=extent, r_cut=np.nextafter(r_far, 2.0),
                        **_zero_fields(n))


@pytest.mark.parametrize("name, shape", [
    ("E", (9, 9, 9)), ("B", (9, 9, 9, 2)), ("rho", (9, 9, 9, 1)),
    ("j", (8, 9, 9, 3))])
def test_grid_rejects_misshapen_arrays(name, shape):
    fields = _zero_fields(9)
    fields[name] = np.zeros(shape)
    with pytest.raises(ValueError, match=f"{name} has shape"):
        GriddedFieldSet(n=9, extent=1.0, r_cut=0.5, **fields)


# The constraint formulas as they were written before the audit shared one
# derivative pass, over whole-cube fields: the reference whose norms the
# blocked audit must match bit for bit.
def _reference_fields(g):
    ax = np.linspace(-g.extent, g.extent, g.n)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r = np.sqrt(X**2 + Y**2 + Z**2)
    mask = np.zeros((g.n,) * 3, dtype=bool)
    mask[1:-1, 1:-1, 1:-1] = True
    mask &= r >= g.r_cut
    r = np.where(r > 0.0, r, 1.0)
    k = np.stack([X / r, Y / r, Z / r], axis=-1)

    def partials(vec):
        return [[np.gradient(vec[..., j], g.h, axis=i, edge_order=2)
                 for j in range(3)] for i in range(3)]

    def curl(d):
        return np.stack([d[1][2] - d[2][1], d[2][0] - d[0][2],
                         d[0][1] - d[1][0]], axis=-1)

    def dot(a, b):
        return np.einsum("...i,...i->...", a, b)

    dE, dB = partials(g.E), partials(g.B)
    curl_E, curl_B = curl(dE), curl(dB)
    div_E = dE[0][0] + dE[1][1] + dE[2][2]
    div_B = dB[0][0] + dB[1][1] + dB[2][2]
    source = g.rho + dot(g.j, k)
    W1 = (np.cross(k, curl_B) - k * div_B[..., None] + curl_E
          - np.cross(k, g.j))
    W2 = (curl_B + k * div_E[..., None] - np.cross(k, curl_E)
          - g.rho[..., None] * k - g.j)
    fields = {
        "W1": W1, "W2": W2,
        "scalar1": div_B - dot(k, curl_E),
        "scalar2": dot(k, curl_B) + div_E - source,
        "kxW1": np.cross(k, W1), "kxW2": np.cross(k, W2),
        "identity1": W1 - (np.cross(k, W2)
                           + k * (dot(k, curl_E) - div_B)[..., None]),
        "identity2": W2 - (-np.cross(k, W1)
                           + k * (dot(k, curl_B) + div_E - source)[..., None]),
    }
    return fields, mask


def _reference_audit(g):
    fields, mask = _reference_fields(g)

    def norms(field):
        mag = (np.sqrt(np.einsum("...i,...i->...", field, field))
               if field.ndim == 4 else np.abs(field))
        vals = mag[mask]
        return float(np.max(vals)), float(np.sqrt(np.mean(vals**2)))

    out = {}
    for name in ("W1", "W2", "scalar1", "scalar2", "kxW1", "kxW2"):
        out[name + "_max"], out[name + "_l2"] = norms(fields[name])
    W1_mag = np.sqrt(np.einsum("...i,...i->...", fields["W1"], fields["W1"]))
    out["W1_max_node"] = [int(i) for i in np.unravel_index(
        int(np.argmax(np.where(mask, W1_mag, -1.0))), mask.shape)]
    scale = max(out["W1_max"], out["W2_max"], 1e-300)
    for name in ("identity1", "identity2"):
        out[name + "_max"] = norms(fields[name])[0]
        out[name + "_rel"] = out[name + "_max"] / scale
    out["scale"] = scale
    out["h"] = g.h
    out["nodes_checked"] = int(np.count_nonzero(mask))
    return out


def _assert_matches_reference(g):
    assert np.array_equal(g.interior_mask(), _reference_fields(g)[1])
    res, ref = audit(g), _reference_audit(g)
    assert res.keys() == ref.keys()
    for key in ref:
        assert res[key] == ref[key], key
        assert type(res[key]) is type(ref[key]), key


@pytest.mark.parametrize("seed", range(5))
def test_constraint_fields_match_reference_formulas(seed):
    _assert_matches_reference(random_field_set(seed=seed))


def test_constraint_fields_match_reference_on_embedded_slice(small_history):
    _assert_matches_reference(
        embed_symmetric_solution(small_history, 1.0, 33, 0.6, r_cut=0.15))


def test_embedded_audit_report_is_the_np_cross_report(small_history,
                                                       monkeypatch):
    import vmcone.constraint_audit as ca
    from vmcone.report import audit_report

    g = embed_symmetric_solution(small_history, 1.0, 33, 0.6, r_cut=0.15)
    doc = audit_report(g)
    monkeypatch.setattr(ca, "_cross", np.cross)
    assert doc == audit_report(g)


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
        res = audit(random_field_set(seed=seed))
        assert res["identity1_rel"] <= 1e-12
        assert res["identity2_rel"] <= 1e-12


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
    W1_mag = np.linalg.norm(_reference_fields(g)[0]["W1"], axis=-1)
    built = []
    real = ca.audit

    def counted(grid):
        built.append(grid)
        return real(grid)

    monkeypatch.setattr(ca, "audit", counted)
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
    # the body is the arrays' bytes, as a concatenation of copies gives it
    import json
    from vmcone.io_utils import GRID_LAYOUT, GRID_MAGIC
    header = {"n": g.n, "extent": g.extent, "r_cut": g.r_cut, **GRID_LAYOUT}
    assert path.read_bytes() == b"".join(
        [GRID_MAGIC, (json.dumps(header, sort_keys=True) + "\n").encode()]
        + [np.ascontiguousarray(getattr(g, name), dtype="<f8").tobytes()
           for name in ("E", "B", "rho", "j")])
    bad = tmp_path / "bad.vmgrid"
    bad.write_bytes(b"not a grid file at all")
    with pytest.raises(ValueError, match="not a vmcone grid"):
        load_grid(bad)


def _grid_file_parts(tmp_path):
    """(magic, header dict, body) of a saved 9^3 grid file."""
    import json
    from vmcone.io_utils import GRID_MAGIC

    path = tmp_path / "good.vmgrid"
    save_grid(random_field_set(n=9, seed=2, r_cut=0.5), path)
    data = path.read_bytes()
    end = data.index(b"\n", len(GRID_MAGIC))
    return GRID_MAGIC, json.loads(data[len(GRID_MAGIC):end]), data[end + 1:]


def _header_line(header):
    import json
    return json.dumps(header).encode() + b"\n"


@pytest.mark.parametrize("edit, match", [
    (lambda h: h.update(arrays=["E", "B", "rho", "J"]), "arrays"),
    (lambda h: h.update(arrays=["E", "B", "rho"]), "arrays"),
    (lambda h: h.update(arrays=["B", "E", "rho", "j"]), "arrays"),
    (lambda h: h.pop("arrays"), "arrays"),
    (lambda h: h.pop("extent"), "extent"),
    (lambda h: h.pop("r_cut"), "r_cut"),
    (lambda h: h.pop("n"), "header n"),
    (lambda h: h.update(extent="1.0"), "extent"),
    (lambda h: h.update(dtype=">f8"), "dtype"),
    (lambda h: h.update(order="F"), "order"),
    (lambda h: h.update(n=-3), "header n"),
    (lambda h: h.update(n=9.0), "header n"),
    (lambda h: h.update(n=10), "body is"),
    (lambda h: h.update(n=10**9), "body is"),
    (lambda h: h.update(extent=float("nan")), "extent must be"),
    (lambda h: h.update(r_cut=100.0), "no node would be checked"),
])
def test_load_grid_names_the_file_for_a_malformed_header(tmp_path, edit,
                                                         match):
    magic, header, body = _grid_file_parts(tmp_path)
    edit(header)
    bad = tmp_path / "bad.vmgrid"
    bad.write_bytes(magic + _header_line(header) + body)
    with pytest.raises(ValueError, match=match) as exc:
        load_grid(bad)
    assert str(bad) in str(exc.value)


@pytest.mark.parametrize("header_line", [
    b"{garbled\n", b"\xff\xfe\n", b"[1, 2]\n", b"\n"])
def test_load_grid_names_the_file_for_a_garbled_header(tmp_path,
                                                       header_line):
    magic, _, body = _grid_file_parts(tmp_path)
    bad = tmp_path / "bad.vmgrid"
    bad.write_bytes(magic + header_line + body)
    with pytest.raises(ValueError) as exc:
        load_grid(bad)
    assert str(bad) in str(exc.value)


def test_load_grid_rejects_trailing_bytes(tmp_path):
    magic, header, body = _grid_file_parts(tmp_path)
    bad = tmp_path / "bad.vmgrid"
    bad.write_bytes(magic + _header_line(header) + body + b"\0")
    with pytest.raises(ValueError, match="body is") as exc:
        load_grid(bad)
    assert str(bad) in str(exc.value)


def test_load_grid_names_the_file_when_cut_short(tmp_path):
    magic, header, body = _grid_file_parts(tmp_path)
    data = magic + _header_line(header) + body
    body_start = len(data) - len(body)
    cuts = list(range(body_start + 1)) + list(range(body_start + 1,
                                                    len(data), 997))
    cuts.append(len(data) - 1)
    bad = tmp_path / "bad.vmgrid"
    for cut in cuts:
        bad.write_bytes(data[:cut])
        with pytest.raises(ValueError) as exc:
            load_grid(bad)
        assert str(bad) in str(exc.value), cut


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


def _embedding_per_node(history, v, n, extent):
    """The embedded E, rho and j with the splines evaluated at every node."""
    import vmcone.constraint_audit as ca

    t, c = ca._fit_cumulative_sources(history, v)
    ax = np.linspace(-extent, extent, n)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r = np.sqrt(X**2 + Y**2 + Z**2)
    r_safe = np.where(r > 0.0, r, 1.0)
    k = np.stack([X / r_safe, Y / r_safe, Z / r_safe], axis=-1)
    s, ds = (f.reshape(r.shape + (2,)) for f in ca._eval_quintic(t, c,
                                                                  r.ravel()))
    E_r = np.where(r > 0.0, s[..., 0] / r_safe**2, 0.0)
    gp = ds[..., 0] / r_safe**2
    gm = ds[..., 1] / r_safe**2
    return (E_r[..., None] * k, 0.5 * (gp + gm),
            (0.5 * (gp - gm))[..., None] * k, np.unique(r).size)


@pytest.mark.parametrize("n", [33, 64])
def test_embedding_evaluates_each_distinct_radius_once(small_history, n,
                                                       monkeypatch):
    # n = 33 has a node at r = 0 (the E_r = 0 branch), n = 64 has none; the
    # basis is evaluated once at the shell nodes for the fit and once at
    # the distinct radii, and its values are pointwise, so the gathered
    # fields are the per-node evaluation bit for bit
    import vmcone.constraint_audit as ca

    E, rho, j, n_radii = _embedding_per_node(small_history, 1.0, n, 0.6)
    seen = []
    basis = ca._bspline_basis

    def counted(t, x):
        seen.append(np.size(x))
        return basis(t, x)

    monkeypatch.setattr(ca, "_bspline_basis", counted)
    g = embed_symmetric_solution(small_history, 1.0, n, 0.6, r_cut=0.15)
    assert (n_radii < n**3) and seen == [small_history.grid.n_shells + 1,
                                         n_radii]
    assert np.any(g.axes == 0.0) == (n == 33)   # the origin is a node
    assert np.array_equal(g.E, E)
    assert np.array_equal(g.rho, rho)
    assert np.array_equal(g.j, j)
    assert np.array_equal(g.B, np.zeros_like(E))
    assert (g.n, g.extent, g.r_cut) == (n, 0.6, 0.15)


@pytest.mark.parametrize("v", [0.0, 0.5, 1.0, 1.5])
def test_embedding_splines_match_fitpack(small_history, v):
    # the numpy fit solves FITPACK's problem (same knots, nodes and unit
    # weights): S and S' agree with scipy's LSQUnivariateSpline to round-off
    from scipy.interpolate import LSQUnivariateSpline
    import vmcone.constraint_audit as ca
    from vmcone.radial_field import cumulative_source

    grid_r = small_history.grid
    t, c = ca._fit_cumulative_sources(small_history, v)
    x = np.unique(np.concatenate([grid_r.edges,
                                  np.linspace(0.0, grid_r.r_max, 2001)]))
    s, ds = ca._eval_quintic(t, c, x)
    for col, name in enumerate(("g_plus", "g_minus")):
        oracle = LSQUnivariateSpline(
            grid_r.edges,
            cumulative_source(grid_r, small_history.profile_at(name, v)),
            t[ca.QUINTIC + 1:-ca.QUINTIC - 1], k=ca.QUINTIC)
        want, dwant = oracle(x), oracle.derivative()(x)
        assert np.max(np.abs(s[:, col] - want)) <= 1e-12 * np.max(
            np.abs(want)), name
        assert np.max(np.abs(ds[:, col] - dwant)) <= 1e-12 * np.max(
            np.abs(dwant)), name


def test_embedding_refuses_the_corner_before_reading_the_history(
        small_history, monkeypatch):
    from vmcone.cone_evolver import SliceHistory

    def unread(*args, **kwargs):
        raise AssertionError("profiles read before the corner check")

    monkeypatch.setattr(SliceHistory, "profile_at", unread)
    with pytest.raises(ValueError,
                       match="embedding cube corner exceeds the shell grid"):
        embed_symmetric_solution(small_history, 1.0, 17,
                                 small_history.grid.r_max, r_cut=0.3)


def _raw_field_set(n):
    """Random normal fields on n^3 nodes with r_cut 0.  Small n has no node
    outside any valid r_cut, so the set is built without GriddedFieldSet's
    checks; audit reads only the arrays and the geometry."""
    rng = np.random.default_rng(n)
    g = object.__new__(GriddedFieldSet)
    vars(g).update(n=n, extent=1.0, r_cut=0.0,
                   E=rng.normal(size=(n, n, n, 3)),
                   B=rng.normal(size=(n, n, n, 3)),
                   rho=rng.normal(size=(n, n, n)),
                   j=rng.normal(size=(n, n, n, 3)))
    return g


# planes are processed BLOCK_PLANES at a time: fewer planes than one block
# (3), exactly one block (4), a last block of one plane (5, 9, 33, 65), of
# two (6) and of three (7); the derivative halo then reaches a true face
# from a block of 1-3 planes
BLOCK_SIZES = [3, 4, 5, 6, 7, 9, 33, 65]


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_constraint_fields_blocks_match_reference(n):
    import vmcone.constraint_audit as ca

    assert ca.BLOCK_PLANES == 4
    _assert_matches_reference(_raw_field_set(n))


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_block_partials_are_whole_cube_gradients(n):
    # each block's derivatives, stacked in plane order, are np.gradient of
    # the whole cube bit for bit at every plane, true faces included, for
    # blocks as thin as one plane
    import vmcone.constraint_audit as ca

    g = _raw_field_set(n)
    for F, planes in itertools.product((g.E, g.B), (1, 2, ca.BLOCK_PLANES)):
        blocks = [ca._partials(F, g.h, a, min(a + planes, n))
                  for a in range(0, n, planes)]
        for i in range(3):
            whole = np.gradient(F, g.h, axis=i, edge_order=2)
            stacked = np.concatenate([d[i] for d in blocks])
            assert stacked.shape == whole.shape
            assert stacked.tobytes() == whole.tobytes(), (planes, i)


def test_audit_peak_memory_stays_below_three_input_sizes():
    # the residuals are reduced block by block: no residual field is held
    # over the whole cube
    import tracemalloc

    g = random_field_set(n=48)
    inputs = g.E.nbytes + g.B.nbytes + g.rho.nbytes + g.j.nbytes
    tracemalloc.start()
    try:
        audit(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * inputs, peak / inputs


@pytest.mark.parametrize("plane", [1, 4, 7])
def test_a_nan_node_reaches_every_max(plane):
    # a NaN in any block is carried into every max, the streamed identity
    # maxima included, and the report fails at the one tolerance it owns
    from vmcone.report import audit_report

    g = _raw_field_set(9)
    g.E[plane, 4, 4, 0] = np.nan
    res = audit(g)
    assert all(np.isnan(res[key]) for key in res if key.endswith("_max"))
    assert not audit_report(g)["passed"]
    with pytest.raises(TypeError):
        audit_report(g, tol=1e300)


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_peak_memory_stays_below_1_2_input_sizes():
    # derivatives, geometry and residuals are all taken per block of
    # planes: beyond its input the audit holds the six interior-length
    # magnitude vectors that feed the L2 norms and one block's temporaries
    g = random_field_set(n=48)
    inputs = g.E.nbytes + g.B.nbytes + g.rho.nbytes + g.j.nbytes
    peak = _traced_peak(lambda: audit(g))
    assert peak <= 1.2 * inputs, peak / inputs


def test_embedding_peak_memory_stays_below_1_15_output_sizes(small_history):
    # the embedding builds E and j in their final arrays (j in the buffer
    # of k) and drops the node radii once their distinct values are known
    def embed():
        return embed_symmetric_solution(small_history, 1.0, 48, 0.6,
                                        r_cut=0.15)

    g = embed()   # untraced: gives the output sizes
    outputs = g.E.nbytes + g.B.nbytes + g.rho.nbytes + g.j.nbytes
    peak = _traced_peak(embed)
    assert peak <= 1.15 * outputs, peak / outputs
