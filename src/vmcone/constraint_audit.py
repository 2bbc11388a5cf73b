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

from .characteristics import _cross


BLOCK_PLANES = 4   # planes per block of the pointwise algebra, sized for cache


def _radii(ax):
    """|x| at the nodes of the cube on the axis values ax, as (n, n, n)."""
    return np.sqrt(ax[:, None, None]**2 + ax[None, :, None]**2 + ax**2)


def _cube(n, extent):
    """Radii r (n, n, n) of the nodes of the cube [-extent, extent]^3 and
    their unit radial vectors k (n, n, n, 3), k = 0 at the origin."""
    ax = np.linspace(-extent, extent, n)
    r = _radii(ax)
    r_safe = np.where(r > 0.0, r, 1.0)
    k = np.empty(r.shape + (3,))
    for i, shape in enumerate(((n, 1, 1), (1, n, 1), (1, 1, n))):
        np.divide(ax.reshape(shape), r_safe, out=k[..., i])
    return r, k


@dataclass
class GriddedFieldSet:
    """Uniform Cartesian grid samples of (E, B, rho, j).

    Vector arrays have shape (n, n, n, 3); rho has (n, n, n).  The grid is
    the cube [-extent, extent]^3 with n >= 3 nodes per axis and spacing h.
    Construction fails unless at least one interior node lies outside the
    excluded ball r < r_cut, so an audit never passes by checking nothing.
    """

    n: int
    extent: float
    E: np.ndarray
    B: np.ndarray
    rho: np.ndarray
    j: np.ndarray
    r_cut: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"a grid needs at least 3 nodes per axis, "
                             f"got n = {self.n}")
        if not (np.isfinite(self.extent) and self.extent > 0.0):
            raise ValueError(f"extent must be positive and finite, "
                             f"got {self.extent}")
        if not np.isfinite(self.r_cut):
            raise ValueError(f"r_cut must be finite, got {self.r_cut}")
        vec, sca = (self.n,) * 3 + (3,), (self.n,) * 3
        for name, shape in (("E", vec), ("B", vec), ("rho", sca), ("j", vec)):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} has shape "
                                 f"{np.shape(getattr(self, name))}, "
                                 f"expected {shape}")
        if self.r_cut < 2.0 * self.h:
            raise ValueError("r_cut must be at least 2 grid spacings")
        # the interior node farthest out, in the arithmetic of _cube
        a = max(abs(self.axes[1]), abs(self.axes[-2]))
        r_far = float(np.sqrt(a**2 + a**2 + a**2))
        if self.r_cut > r_far:
            raise ValueError(f"r_cut {self.r_cut:g} exceeds {r_far:g}, the "
                             f"largest interior radius: no node would be "
                             f"checked")

    @property
    def h(self) -> float:
        return 2.0 * self.extent / (self.n - 1)

    @property
    def axes(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.n)

    def interior_mask(self) -> np.ndarray:
        """Nodes where stencils are valid: one-node margin and r >= r_cut."""
        mask = np.zeros((self.n,) * 3, dtype=bool)
        mask[1:-1, 1:-1, 1:-1] = True
        return mask & (_radii(self.axes) >= self.r_cut)


def grid_from_functions(n, extent, r_cut, E_fn, B_fn, rho_fn, j_fn):
    """Sample callables E(x), B(x), rho(x), j(x) on the cube grid; each
    callable takes stacked coordinates of shape (..., 3)."""
    ax = np.linspace(-extent, extent, n)
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    return GriddedFieldSet(n=n, extent=extent, r_cut=r_cut,
                           E=np.asarray(E_fn(pts), dtype=float),
                           B=np.asarray(B_fn(pts), dtype=float),
                           rho=np.asarray(rho_fn(pts), dtype=float),
                           j=np.asarray(j_fn(pts), dtype=float))


def _curl_div(F, h):
    """Curl and divergence of a (n, n, n, 3) field, central differences."""
    # d[i][..., j] = dF_j / dx_i
    d = np.gradient(F, h, axis=(0, 1, 2), edge_order=2)
    curl = np.stack([d[1][..., 2] - d[2][..., 1],
                     d[2][..., 0] - d[0][..., 2],
                     d[0][..., 1] - d[1][..., 0]], axis=-1)
    return curl, d[0][..., 0] + d[1][..., 1] + d[2][..., 2]


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def audit(grid: GriddedFieldSet) -> dict:
    """Norms of the constraint residuals over the interior nodes.

    Max and L2 of W1, W2 (vectors), scalar1 = div B - k.curl E,
    scalar2 = k.curl B + div E - (rho + j.k) and the projections kxW1,
    kxW2; max alone, and relative to the larger of max|W1|, max|W2|, of
    the recombination identity residuals identity1 = W1 - (k x W2 -
    k scalar1) and identity2 = W2 - (-k x W1 + k scalar2); and the interior
    node of the largest |W1|.  Each block of planes is reduced to its
    interior magnitudes as it is computed.
    """
    mask = grid.interior_mask()
    inputs = (_cube(grid.n, grid.extent)[1], *_curl_div(grid.E, grid.h),
              *_curl_div(grid.B, grid.h), grid.rho, grid.j)
    pieces = {}
    for a in range(0, grid.n, BLOCK_PLANES):
        planes = slice(a, a + BLOCK_PLANES)
        k, curl_E, div_E, curl_B, div_B, rho, j = (f[planes] for f in inputs)
        s1 = div_B - _dot(k, curl_E)
        s2 = _dot(k, curl_B) + div_E - (rho + _dot(j, k))
        W1 = (_cross(k, curl_B) - k * div_B[..., None] + curl_E
              - _cross(k, j))
        W2 = (curl_B + k * div_E[..., None] - _cross(k, curl_E)
              - rho[..., None] * k - j)
        kxW1, kxW2 = _cross(k, W1), _cross(k, W2)
        block = {"W1": W1, "W2": W2, "scalar1": s1, "scalar2": s2,
                 "kxW1": kxW1, "kxW2": kxW2,
                 "identity1": W1 - (kxW2 + k * (-s1)[..., None]),
                 "identity2": W2 - (-kxW1 + k * s2[..., None])}
        for name, f in block.items():
            mag = np.sqrt(_dot(f, f)) if f.ndim == 4 else np.abs(f)
            pieces.setdefault(name, []).append(mag[mask[planes]])
    # boolean indexing walks axis 0 slowest: the blocks in order are mag[mask]
    vals = {name: np.concatenate(pieces.pop(name)) for name in list(pieces)}
    out = {}
    for name in ("W1", "W2", "scalar1", "scalar2", "kxW1", "kxW2"):
        out[name + "_max"] = float(np.max(vals[name]))
        out[name + "_l2"] = float(np.sqrt(np.mean(vals[name]**2)))
    node = np.flatnonzero(mask)[np.argmax(vals["W1"])]
    out["W1_max_node"] = [int(i) for i in np.unravel_index(node, mask.shape)]
    scale = max(out["W1_max"], out["W2_max"], 1e-300)
    for name in ("identity1", "identity2"):
        out[name + "_max"] = float(np.max(vals[name]))
        out[name + "_rel"] = out[name + "_max"] / scale
    out["scale"] = scale
    out["h"] = grid.h
    out["nodes_checked"] = int(vals["W1"].size)
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
    scalars = res["scalar1_max"] <= tol2 and res["scalar2_max"] <= tol2
    set_b = scalars and res["kxW1_max"] <= tol2
    set_c = scalars and res["kxW2_max"] <= tol2
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
    if extent * np.sqrt(3.0) > grid_r.r_max:
        raise ValueError("embedding cube corner exceeds the shell grid")
    if knot_spacing is None:
        knot_spacing = max(20.0 * grid_r.dr, grid_r.r_max / 24.0)
    knots = np.arange(knot_spacing, grid_r.r_max - knot_spacing,
                      knot_spacing)
    sp_p, sp_m = (LSQUnivariateSpline(
        grid_r.edges, cumulative_source(grid_r, history.profile_at(name, v)),
        knots, k=5) for name in ("g_plus", "g_minus"))

    r, k = _cube(n, extent)
    # E_r, rho, j_r depend on r alone: evaluate once per distinct radius
    radii, at = np.unique(r, return_inverse=True)
    r_safe = np.where(radii > 0.0, radii, 1.0)
    E_r = np.where(radii > 0.0, sp_p(radii) / r_safe**2, 0.0)[at]
    gp = sp_p.derivative()(radii) / r_safe**2
    gm = sp_m.derivative()(radii) / r_safe**2
    rho = (0.5 * (gp + gm))[at]
    j_r = (0.5 * (gp - gm))[at]

    E = E_r[..., None] * k
    return GriddedFieldSet(n=n, extent=extent, r_cut=r_cut,
                           E=E, B=np.zeros_like(E), rho=rho,
                           j=j_r[..., None] * k)
