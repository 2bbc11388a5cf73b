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

The audit streams the cube in blocks of BLOCK_PLANES planes of axis 0: each
block's derivatives, geometry and residuals are computed and reduced before
the next block, so beyond its input the audit holds only the interior mask
and the interior-length magnitude vectors.  The derivatives along axis 0
read a one-plane halo; np.gradient's stencils act element by element, so
every value is the one a whole-cube pass gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import _cross
from .radial_field import cumulative_source


BLOCK_PLANES = 4   # planes per block of the streamed audit, sized for cache


def _radii(ax, planes=slice(None)):
    """|x| at the nodes of the planes `planes` (of axis 0) of the cube on the
    axis values ax, as (p, n, n)."""
    return np.sqrt(ax[planes, None, None]**2 + ax[None, :, None]**2 + ax**2)


def _cube(ax, planes=slice(None)):
    """Radii r (p, n, n) of the nodes of the planes `planes` of the cube on
    the axis values ax, and their unit radial vectors k (p, n, n, 3), k = 0
    at the origin."""
    r = _radii(ax, planes)
    r_safe = np.where(r > 0.0, r, 1.0)
    k = np.empty(r.shape + (3,))
    for i, a in enumerate((ax[planes, None, None], ax[:, None], ax)):
        np.divide(a, r_safe, out=k[..., i])
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


def _partials(F, h, a, b):
    """d[i][..., j] = dF_j / dx_i of a (n, n, n, 3) field on the planes a:b
    of axis 0: np.gradient(F, h, axis=i, edge_order=2)[a:b], bit for bit.
    Along axis 0 the slab adds a one-plane halo on each side, clipped to the
    cube and at least 3 planes deep, so a block plane is a face of the slab
    only where it is one of the cube."""
    lo = max(min(a - 1, len(F) - 3), 0)
    hi = min(max(b + 1, lo + 3), len(F))
    return (np.gradient(F[lo:hi], h, axis=0, edge_order=2)[a - lo:b - lo],
            *np.gradient(F[a:b], h, axis=(1, 2), edge_order=2))


def _curl_div(F, h, a, b):
    """Curl and divergence of a (n, n, n, 3) field on the planes a:b of
    axis 0, central differences."""
    d = _partials(F, h, a, b)
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
    interior magnitudes as it is computed: the six normed residuals fill
    their slices of interior-length vectors (an L2 of the whole vector keeps
    its bits, a running sum of squares would not), and the identities keep
    a running max.
    """
    mask = grid.interior_mask()
    mags = {name: np.empty(np.count_nonzero(mask))
            for name in ("W1", "W2", "scalar1", "scalar2", "kxW1", "kxW2")}
    peaks = dict.fromkeys(("identity1", "identity2"), -np.inf)
    ax, h, at = grid.axes, grid.h, 0
    for a in range(0, grid.n, BLOCK_PLANES):
        b = min(a + BLOCK_PLANES, grid.n)
        k = _cube(ax, slice(a, b))[1]
        curl_E, div_E = _curl_div(grid.E, h, a, b)
        curl_B, div_B = _curl_div(grid.B, h, a, b)
        rho, j = grid.rho[a:b], grid.j[a:b]
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
        inner = mask[a:b]
        # boolean indexing walks axis 0 slowest: the blocks in order fill
        # each vector with mag[mask]
        end = at + int(np.count_nonzero(inner))
        for name, f in block.items():
            mag = (np.sqrt(_dot(f, f)) if f.ndim == 4 else np.abs(f))[inner]
            if name in mags:
                mags[name][at:end] = mag
            else:   # np.maximum propagates a NaN as np.max does
                peaks[name] = np.maximum(peaks[name],
                                         np.max(mag, initial=-np.inf))
        at = end
    out = {}
    for name, v in mags.items():
        out[name + "_max"] = float(np.max(v))
        out[name + "_l2"] = float(np.sqrt(np.mean(v**2)))
    node = np.flatnonzero(mask)[np.argmax(mags["W1"])]
    out["W1_max_node"] = [int(i) for i in np.unravel_index(node, mask.shape)]
    scale = max(out["W1_max"], out["W2_max"], 1e-300)
    for name, peak in peaks.items():
        out[name + "_max"] = float(peak)
        out[name + "_rel"] = out[name + "_max"] / scale
    out["scale"] = scale
    out["h"] = grid.h
    out["nodes_checked"] = at
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


QUINTIC = 5   # degree of the embedding's least-squares splines


def _bspline_basis(t, x):
    """Cox-de Boor recursion for the quintic B-splines on the knots t.

    Returns the span index mu of each x (t[mu] <= x < t[mu + 1], the last
    nonempty span for x = t[-1]) and the nonzero B-splines at x of degree 4
    and 5, as lists of 5 and 6 arrays: entry i of degree d is
    B_{mu - d + i, d}(x).  Every value is computed pointwise.
    """
    mu = np.clip(np.searchsorted(t, x, side="right") - 1,
                 QUINTIC, len(t) - QUINTIC - 2)
    b = [np.ones_like(x)]
    for d in range(1, QUINTIC + 1):
        lower, b, carry = b, [], 0.0
        for i, value in enumerate(lower):
            t_lo, t_hi = t[mu + i + 1 - d], t[mu + i + 1]
            w = value / (t_hi - t_lo)
            b.append(carry + (t_hi - x) * w)
            carry = (x - t_lo) * w
        b.append(carry)
        if d == QUINTIC - 1:
            quartic = b
    return mu, quartic, b


def _eval_quintic(t, c, x):
    """S(x) and S'(x) of the quintic splines with knots t and coefficient
    columns c, each (len(x), columns).  S' takes the degree-4 stage of the
    one basis evaluation and the differenced coefficients."""
    mu, quartic, quintic = _bspline_basis(t, x)
    dc = (QUINTIC * (c[1:] - c[:-1])
          / (t[QUINTIC + 1:len(c) + QUINTIC] - t[1:len(c)])[:, None])
    s = sum(c[mu - QUINTIC + i] * value[:, None]
            for i, value in enumerate(quintic))
    ds = sum(dc[mu - QUINTIC + i] * value[:, None]
             for i, value in enumerate(quartic))
    return s, ds


def _fit_cumulative_sources(history, v: float):
    """Knots t and coefficients (m, 2) of the least-squares quintic splines
    of the cumulative g_plus and g_minus sources at the node radii, unit
    weights, interior knots max(20 dr, r_max / 24) apart.  A system of rank
    below m is refused: lstsq alone would return a minimum-norm fit."""
    grid_r = history.grid
    edges = grid_r.edges
    spacing = max(20.0 * grid_r.dr, grid_r.r_max / 24.0)
    t = np.concatenate([np.full(QUINTIC + 1, edges[0]),
                        np.arange(spacing, grid_r.r_max - spacing, spacing),
                        np.full(QUINTIC + 1, edges[-1])])
    m = len(t) - QUINTIC - 1
    mu, _, b = _bspline_basis(t, edges)
    design = np.zeros((len(edges), m))
    rows = np.arange(len(edges))
    for i, value in enumerate(b):
        design[rows, mu - QUINTIC + i] = value
    y = np.stack([cumulative_source(grid_r, history.profile_at(name, v))
                  for name in ("g_plus", "g_minus")], axis=-1)
    c, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < m:
        raise ValueError(f"{len(edges)} nodes do not determine the {m} "
                         f"coefficients of the quintic spline fit "
                         f"(rank {rank}); refine grid.n_shells")
    return t, c


def embed_symmetric_solution(history, v: float, n: int, extent: float,
                             r_cut: float) -> GriddedFieldSet:
    """Embed a recorded solver slice into 3D for auditing.

    The radial cumulative source integrals are fitted with wide-knot
    least-squares quintic splines S(r) (a Cox-de Boor B-spline basis at the
    node radii and one numpy least-squares solve for both sources; a fit
    the nodes do not determine is refused), and the embedded fields are

        E = (S_+ / r^2) k,  rho + j.k = S_+' / r^2,  B = 0,

    so div E = rho + j.k holds analytically whatever the fit: audit
    residuals are pure stencil truncation error, while the fit itself
    carries the O(shell width) deposition error.  The current is embedded
    as purely radial; its tangential part is unobservable in every
    spherically reduced formula.
    """
    if extent * np.sqrt(3.0) > history.grid.r_max:
        raise ValueError("embedding cube corner exceeds the shell grid")
    t, c = _fit_cumulative_sources(history, v)

    r, k = _cube(np.linspace(-extent, extent, n))
    # E_r, rho, j_r depend on r alone: evaluate once per distinct radius
    radii, at = np.unique(r, return_inverse=True)
    del r   # the node arrays below are built without it
    r_safe = np.where(radii > 0.0, radii, 1.0)
    s, ds = _eval_quintic(t, c, radii)
    E_r = np.where(radii > 0.0, s[:, 0] / r_safe**2, 0.0)
    gp = ds[:, 0] / r_safe**2
    gm = ds[:, 1] / r_safe**2

    E = E_r[at][..., None] * k
    rho = (0.5 * (gp + gm))[at]
    k *= (0.5 * (gp - gm))[at][..., None]    # j = j_r k, in k's buffer
    del at  # before B is allocated
    return GriddedFieldSet(n=n, extent=extent, r_cut=r_cut,
                           E=E, B=np.zeros_like(E), rho=rho, j=k)
