"""Shell deposition of particle moments and the radial electric field solve.

In spherical symmetry the magnetic field vanishes and the Maxwell system
collapses to a single radial quadrature:

    E_r(v, r) = (1/r^2) * integral_0^r (rho + j.k)(v, r') r'^2 dr'.

Units follow div E = rho, so no 4 pi appears in the solve.  Moments are
node densities on a uniform shell grid; deposition is cloud-in-cell and
conservative: the node masses sum exactly to the particle weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characteristics import _smallest, _trajectory


@dataclass(frozen=True)
class ShellGrid:
    """Uniform radial grid with node radii 0, dr, ..., r_max."""

    r_max: float
    n_shells: int

    def __post_init__(self):
        if self.r_max <= 0.0 or self.n_shells < 2:
            raise ValueError("need r_max > 0 and n_shells >= 2")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_shells

    @cached_property
    def edges(self) -> np.ndarray:
        """Node radii, built once and read-only like the grid itself."""
        edges = np.linspace(0.0, self.r_max, self.n_shells + 1)
        edges.flags.writeable = False
        return edges

    def covers(self, r: float) -> bool:
        """0 <= r <= r_max, up to rounding: a node snapped to the last one
        (n_shells * dr) may exceed r_max by an ulp."""
        return 0.0 <= r <= self.r_max + 1e-12

    @cached_property
    def node_volumes(self) -> np.ndarray:
        """Control volume of each node, read-only; sums to the ball volume."""
        lo = np.maximum(self.edges - 0.5 * self.dr, 0.0)
        hi = np.minimum(self.edges + 0.5 * self.dr, self.r_max)
        volumes = (4.0 * np.pi / 3.0) * (hi**3 - lo**3)
        volumes.flags.writeable = False
        return volumes

    def interp(self, values, r):
        """np.interp(r, edges, row) for every row of values along the last
        axis, bit for bit: the node value at a node or past the end nodes,
        else np.interp's own slope formula in r's cell.  values may stop at
        any node past r."""
        xp = self.edges[:values.shape[-1]]
        x = np.clip(r, xp[0], xp[-1])
        j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
        lo, hi = values[..., j], values[..., j + 1]
        slope = (hi - lo) / (xp[j + 1] - xp[j])
        return np.where(x == xp[j], lo,
                        np.where(x == xp[j + 1], hi, slope * (x - xp[j]) + lo))


# the four scalar moments, in the row order of moment_payloads:
#   g_plus  = rho + j.k            (sources the field; non-negative)
#   g_minus = rho - j.k
#   h_plus  = kinetic part of e + p-flux.k  (the p0-moment; non-negative)
#   h_minus = kinetic part of e - p-flux.k
MOMENTS = ("g_plus", "g_minus", "h_plus", "h_minus")


def moment_payloads(parts, gamma, one_plus) -> tuple:
    """Per-particle contributions to the MOMENTS (omega = weight):
    omega, omega (1 - phat.k) / (1 + phat.k), omega gamma and
    omega (gamma - w) / (1 + phat.k); gamma and one_plus are those of
    phase_model.kinematics, as check_measure_positivity(parts) returns."""
    omega = parts.weight
    one_minus = 1.0 - parts.w / gamma
    return (omega, omega * one_minus / one_plus, omega * gamma,
            omega * (gamma - parts.w) / one_plus)


def cic_cells(r, grid: ShellGrid) -> tuple:
    """(j, frac): the node j below each particle at radii r and its offset
    in cells from it, after checking that every particle lies on the grid.
    Elementwise, so the cells of a part of r are that part of the cells."""
    if not (r.min(initial=0.0) >= 0.0 and r.max(initial=0.0) < grid.r_max):
        # the complement of the grid's range, so that a NaN is refused too
        i = int(np.argmax(~((r >= 0.0) & (r < grid.r_max))))
        raise ValueError(
            f"particle {i} at r={r[i]:.6g} outside shell grid "
            f"[0, {grid.r_max:g}); enlarge r_max")
    s = r / grid.dr
    j = np.minimum(s.astype(int), grid.n_shells - 1)
    return j, s - j


def deposit(r, payloads, grid: ShellGrid, cells=None) -> np.ndarray:
    """Cloud-in-cell deposition of particles at radii r onto the shell grid.

    Returns the (len(payloads), n_shells + 1) node densities, one row per
    per-particle payload; each row's node masses sum to its payload sum.
    cells, when given, is cic_cells(r, grid), and r is not read again.
    """
    j, frac = cic_cells(r, grid) if cells is None else cells
    sums = np.zeros((len(payloads), grid.n_shells + 1))
    rest, above = 1.0 - frac, j + 1
    for row, payload in zip(sums, payloads):
        np.add.at(row, j, payload * rest)
        np.add.at(row, above, payload * frac)
    return sums / grid.node_volumes


def cumulative_source(grid: ShellGrid, g: np.ndarray) -> np.ndarray:
    """Trapezoid cumulative integral I(r_j) = int_0^{r_j} g r'^2 dr' along
    the last axis of g."""
    integrand = g * grid.edges**2
    I = np.zeros_like(integrand)
    I[..., 1:] = np.cumsum(
        0.5 * grid.dr * (integrand[..., :-1] + integrand[..., 1:]), axis=-1)
    return I


def radial_integral(grid: ShellGrid, values: np.ndarray, r=None):
    """4 pi int_0^r values(r') r'^2 dr' along the last axis of values,
    trapezoid with a partial last cell; r = None integrates over the whole
    grid.  values may hold only the nodes up to the first one at or beyond r."""
    r = float(grid.r_max if r is None else r)
    if not grid.covers(r):
        raise ValueError("radius outside shell grid")
    edges = grid.edges
    integrand = values * edges[:values.shape[-1]] ** 2
    j = int(np.searchsorted(edges, r, side="right")) - 1
    total = np.trapezoid(integrand[..., :j + 1], dx=grid.dr, axis=-1)
    if j < grid.n_shells and r > edges[j]:
        total += 0.5 * (r - edges[j]) * (integrand[..., j]
                                         + grid.interp(values, r) * r**2)
    return 4.0 * np.pi * total


def solve_field(grid: ShellGrid, g_plus: np.ndarray) -> np.ndarray:
    """The cumulative source I of the node densities of g_plus, after
    checking that they are finite and non-negative; node_field gives E_r."""
    g_plus = np.asarray(g_plus)
    hi, lo = g_plus.max(), g_plus.min()
    if not -np.inf < lo <= hi < np.inf:   # written so that a NaN fails too
        raise ValueError("non-finite g_plus passed to field solve")
    if lo < -1e-12 * max(1.0, abs(lo), abs(hi)):
        raise ValueError("negative g_plus: moment invariant violated upstream")
    return cumulative_source(grid, g_plus)


def node_field(grid: ShellGrid, I: np.ndarray) -> np.ndarray:
    """E_r(r_j) = I(r_j) / r_j^2 on the nodes, E_r(0) = 0, along the last
    axis of I."""
    E = np.zeros_like(I)
    E[..., 1:] = I[..., 1:] / grid.edges[1:] ** 2
    return E


def eval_field(grid: ShellGrid, I: np.ndarray, r) -> np.ndarray:
    """E_r at radii r >= 0: linear interpolation of I(r), then / r^2.

    Returns 0 at r = 0.  Beyond r_max the source is exhausted and E_r
    continues as I(r_max) / r^2.  Satisfies |E_r(r)| <= N / r^2 with
    N = 4 pi I(r_max) the past-cone mass.
    """
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    r_min = _smallest(r)
    if r_min < 0.0:
        raise ValueError(f"{_trajectory(r, r < 0.0)}: field evaluation "
                         "outside r >= 0")
    # a masked divide, unless every r is positive, leaves r^2 = 0 at r = 0
    E = np.multiply(r, r)
    np.divide(np.interp(r, grid.edges, I), E, out=E,
              where=True if r_min > 0.0 else r > 0.0)
    return float(E[0]) if scalar else E
