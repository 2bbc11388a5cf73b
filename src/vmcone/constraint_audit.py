"""Finite-difference audit of the characteristic constraint algebra on
gridded 3D field data.

The two vector constraints are

    W1 = k x (curl B) - k (div B) + curl E - k x j,
    W2 = curl B + k (div E) - k x (curl E) - rho k - j,

with k = x/|x|.  They are algebraically equivalent to the two scalar
constraints

    div B = k . curl E,        k . curl B + div E = rho + j.k,

together with either k x W1 = 0 or k x W2 = 0.  All derivative fields are
computed once with the same second-order central stencils and shared by
every expression, so the recombination identities linking W1 and W2 hold
to machine precision regardless of truncation error.  A ball around the
origin is excluded (k is discontinuous at x = 0) along with a one-node
boundary margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GriddedFieldSet:
    """Uniform Cartesian grid samples of (E, B, rho, j).

    Vector arrays have shape (n, n, n, 3); rho has (n, n, n).  The grid is
    the cube [-extent, extent]^3 with n nodes per axis and spacing h.
    """

    n: int
    extent: float
    E: np.ndarray
    B: np.ndarray
    rho: np.ndarray
    j: np.ndarray
    r_cut: float

    def __post_init__(self):
        if self.r_cut < 2.0 * self.h:
            raise ValueError("r_cut must be at least 2 grid spacings")

    @property
    def h(self) -> float:
        return 2.0 * self.extent / (self.n - 1)

    @property
    def axes(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.n)

    def coords(self):
        ax = self.axes
        return np.meshgrid(ax, ax, ax, indexing="ij")

    def radius(self) -> np.ndarray:
        X, Y, Z = self.coords()
        return np.sqrt(X**2 + Y**2 + Z**2)

    def unit_radial(self) -> np.ndarray:
        X, Y, Z = self.coords()
        r = np.sqrt(X**2 + Y**2 + Z**2)
        r = np.where(r > 0.0, r, 1.0)
        return np.stack([X / r, Y / r, Z / r], axis=-1)

    def interior_mask(self) -> np.ndarray:
        """Nodes where stencils are valid: one-node margin and r >= r_cut."""
        mask = np.zeros((self.n,) * 3, dtype=bool)
        mask[1:-1, 1:-1, 1:-1] = True
        return mask & (self.radius() >= self.r_cut)


def grid_from_functions(n, extent, r_cut, E_fn, B_fn, rho_fn, j_fn):
    """Sample callables E(x), B(x), rho(x), j(x) on the cube grid; each
    callable takes stacked coordinates of shape (..., 3)."""
    ax = np.linspace(-extent, extent, n)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([X, Y, Z], axis=-1)
    return GriddedFieldSet(n=n, extent=extent, r_cut=r_cut,
                           E=np.asarray(E_fn(pts), dtype=float),
                           B=np.asarray(B_fn(pts), dtype=float),
                           rho=np.asarray(rho_fn(pts), dtype=float),
                           j=np.asarray(j_fn(pts), dtype=float))


def _partials(vec, h):
    """d[i][j] = d(vec_j)/d(x_i), central differences."""
    return [[np.gradient(vec[..., j], h, axis=i, edge_order=2)
             for j in range(3)] for i in range(3)]


def _curl(d):
    return np.stack([d[1][2] - d[2][1],
                     d[2][0] - d[0][2],
                     d[0][1] - d[1][0]], axis=-1)


def _div(d):
    return d[0][0] + d[1][1] + d[2][2]


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _cross(a, b):
    return np.cross(a, b)


class ConstraintStencils:
    """All shared finite-difference derivative fields of one field set."""

    def __init__(self, grid: GriddedFieldSet):
        h = grid.h
        self.grid = grid
        self.k = grid.unit_radial()
        dE = _partials(grid.E, h)
        dB = _partials(grid.B, h)
        self.curl_E = _curl(dE)
        self.curl_B = _curl(dB)
        self.div_E = _div(dE)
        self.div_B = _div(dB)
        self.source = grid.rho + _dot(grid.j, self.k)


def eval_W1(grid: GriddedFieldSet, st: ConstraintStencils | None = None):
    st = st or ConstraintStencils(grid)
    k = st.k
    return (_cross(k, st.curl_B) - k * st.div_B[..., None]
            + st.curl_E - _cross(k, grid.j))


def eval_W2(grid: GriddedFieldSet, st: ConstraintStencils | None = None):
    st = st or ConstraintStencils(grid)
    k = st.k
    return (st.curl_B + k * st.div_E[..., None] - _cross(k, st.curl_E)
            - grid.rho[..., None] * k - grid.j)


def eval_scalar_constraints(grid: GriddedFieldSet,
                            st: ConstraintStencils | None = None):
    """Residuals of div B - k.curl E and k.curl B + div E - (rho + j.k)."""
    st = st or ConstraintStencils(grid)
    s1 = st.div_B - _dot(st.k, st.curl_E)
    s2 = _dot(st.k, st.curl_B) + st.div_E - st.source
    return s1, s2


def _norms(field, mask):
    """(max, L2) norms of a scalar or vector residual over masked nodes."""
    if field.ndim == 4:
        mag = np.sqrt(_dot(field, field))
    else:
        mag = np.abs(field)
    vals = mag[mask]
    if vals.size == 0:
        return 0.0, 0.0
    return float(np.max(vals)), float(np.sqrt(np.mean(vals**2)))


def check_identities(grid: GriddedFieldSet,
                     st: ConstraintStencils | None = None,
                     W1=None, W2=None) -> dict:
    """Residuals of the recombination identities between W1 and W2.

    These are exact algebraic consequences of the shared derivative
    fields, so the residuals sit at machine precision for arbitrary data.
    W1 and W2 are evaluated from the stencils unless given.
    """
    st = st or ConstraintStencils(grid)
    k = st.k
    W1 = eval_W1(grid, st) if W1 is None else W1
    W2 = eval_W2(grid, st) if W2 is None else W2
    id1 = W1 - (_cross(k, W2)
                + k * (_dot(k, st.curl_E) - st.div_B)[..., None])
    id2 = W2 - (-_cross(k, W1)
                + k * (_dot(k, st.curl_B) + st.div_E - st.source)[..., None])
    mask = grid.interior_mask()
    scale = max(_norms(W1, mask)[0], _norms(W2, mask)[0], 1e-300)
    return {
        "identity1_max": _norms(id1, mask)[0],
        "identity2_max": _norms(id2, mask)[0],
        "identity1_rel": _norms(id1, mask)[0] / scale,
        "identity2_rel": _norms(id2, mask)[0] / scale,
        "scale": scale,
    }


def audit(grid: GriddedFieldSet) -> dict:
    """All residual norms of one field set (max and L2, interior nodes),
    and the interior node of the largest |W1|."""
    st = ConstraintStencils(grid)
    mask = grid.interior_mask()
    W1 = eval_W1(grid, st)
    W2 = eval_W2(grid, st)
    s1, s2 = eval_scalar_constraints(grid, st)
    kW1 = _cross(st.k, W1)
    kW2 = _cross(st.k, W2)
    W1_mag = np.sqrt(_dot(W1, W1))
    out = {}
    for name, fld in (("W1", W1_mag), ("W2", W2), ("scalar1", s1),
                      ("scalar2", s2), ("kxW1", kW1), ("kxW2", kW2)):
        mx, l2 = _norms(fld, mask)
        out[name + "_max"] = mx
        out[name + "_l2"] = l2
    out["W1_max_node"] = [int(i) for i in np.unravel_index(
        int(np.argmax(np.where(mask, W1_mag, -1.0))), mask.shape)]
    out.update(check_identities(grid, st, W1, W2))
    out["h"] = grid.h
    out["nodes_checked"] = int(np.count_nonzero(mask))
    return out


# equivalence-set constant: each constraint set bounds the others through the
# recombination identities, with vector-algebra constants at most 3
EQUIVALENCE_FACTOR = 3.0


def check_equivalence(grid: GriddedFieldSet, tol: float) -> dict:
    """Verdict on the three equivalent constraint formulations.

    Set A: |W1|, |W2| <= tol.
    Set B: scalar constraints and |k x W1| <= tol' = 3 tol.
    Set C: scalar constraints and |k x W2| <= tol'.
    On consistent data all three pass; on violating data all three fail.
    """
    res = audit(grid)
    tol2 = EQUIVALENCE_FACTOR * tol
    set_a = res["W1_max"] <= tol and res["W2_max"] <= tol
    set_b = (res["scalar1_max"] <= tol2 and res["scalar2_max"] <= tol2
             and res["kxW1_max"] <= tol2)
    set_c = (res["scalar1_max"] <= tol2 and res["scalar2_max"] <= tol2
             and res["kxW2_max"] <= tol2)
    verdict = {
        "tol": tol, "tol_derived": tol2, "factor": EQUIVALENCE_FACTOR,
        "set_full": set_a, "set_kxW1": set_b, "set_kxW2": set_c,
        "coherent": set_a == set_b == set_c,
        "residuals": res,
    }
    if not verdict["coherent"]:
        idx = res["W1_max_node"]
        verdict["counterexample"] = {
            "index": idx, "x": [float(grid.axes[i]) for i in idx],
            "W1_mag": res["W1_max"]}
    return verdict


def embed_symmetric_solution(history, v: float, n: int, extent: float,
                             r_cut: float,
                             knot_spacing: float | None = None) -> GriddedFieldSet:
    """Embed a recorded solver slice into 3D for auditing.

    The radial cumulative source integrals are fitted with wide-knot
    least-squares quintic splines S(r), and the embedded fields are

        E = (S_+ / r^2) k,  rho + j.k = S_+' / r^2,  B = 0,

    so div E = rho + j.k holds analytically whatever the fit: audit
    residuals are pure stencil truncation error, while the fit itself
    carries the O(shell width) deposition error.  The current is embedded
    as purely radial; its tangential part is unobservable in every
    spherically reduced formula.
    """
    from scipy.interpolate import LSQUnivariateSpline
    from .radial_field import cumulative_source

    grid_r = history.grid
    g_plus = history.profile_at("g_plus", v)
    g_minus = history.profile_at("g_minus", v)
    I_plus = cumulative_source(grid_r, g_plus)
    I_minus = cumulative_source(grid_r, g_minus)
    if extent * np.sqrt(3.0) > grid_r.r_max:
        raise ValueError("embedding cube corner exceeds the shell grid")
    if knot_spacing is None:
        knot_spacing = max(20.0 * grid_r.dr, grid_r.r_max / 24.0)
    knots = np.arange(knot_spacing, grid_r.r_max - knot_spacing,
                      knot_spacing)
    sp_p = LSQUnivariateSpline(grid_r.edges, I_plus, knots, k=5)
    sp_m = LSQUnivariateSpline(grid_r.edges, I_minus, knots, k=5)

    ax = np.linspace(-extent, extent, n)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r = np.sqrt(X**2 + Y**2 + Z**2)
    r_safe = np.where(r > 0.0, r, 1.0)
    kx, ky, kz = X / r_safe, Y / r_safe, Z / r_safe

    def ev(spline, rr):
        return spline(rr.ravel()).reshape(rr.shape)

    E_r = np.where(r > 0.0, ev(sp_p, r) / r_safe**2, 0.0)
    gp = ev(sp_p.derivative(), r) / r_safe**2
    gm = ev(sp_m.derivative(), r) / r_safe**2
    rho = 0.5 * (gp + gm)
    j_r = 0.5 * (gp - gm)

    E = np.stack([E_r * kx, E_r * ky, E_r * kz], axis=-1)
    j = np.stack([j_r * kx, j_r * ky, j_r * kz], axis=-1)
    B = np.zeros_like(E)
    return GriddedFieldSet(n=n, extent=extent, r_cut=r_cut,
                           E=E, B=B, rho=rho, j=j)
