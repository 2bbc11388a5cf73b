"""Deposit a particle cloud on the shell grid, solve the radial field and
check the a priori bounds that control it.

In spherical symmetry the Maxwell system reduces to one quadrature:
E_r(r) = I(r)/r^2 with I the cumulative integral of the source moment
g_plus.  Two independent bounds must hold everywhere: the total-mass bound
|E| <= N / (4 pi r^2), and the interpolation-chain bound
|E| <= C_E P^{5/3} built from the L^{4/3} estimate of g_plus.
"""

import numpy as np

from vmcone import (builtin_datum, sample_particles, kinematics, ShellGrid,
                    deposit, solve_field, node_field)
from vmcone import cone_diagnostics as diag

datum = builtin_datum("shell_polynomial",
                      {"amplitude": 10.0, "r_support": [0.3, 0.6],
                       "w_max": 0.06, "q_support": [0.0004, 0.0008]})
parts = sample_particles(datum, 24)
grid = ShellGrid(r_max=2.0, n_shells=400)
g_plus = deposit(parts.r, (parts.weight,), grid)[0]
E = node_field(grid, solve_field(grid, g_plus))

N = float(np.sum(parts.weight))
print(f"particles {len(parts)}, total weight N = {N:.6e}")
print(f"deposited node-volume sum = {np.sum(g_plus * grid.node_volumes):.6e} "
      "(identical by construction)")

r = grid.edges[1:]
coulomb = N / (4.0 * np.pi * r**2)
print(f"max E_r = {np.max(E):.3e} at r = {r[np.argmax(E[1:])]:.3f}")
print(f"mass bound margin: max E / (N / 4 pi r^2) = "
      f"{np.max(E[1:] / coulomb):.3f}  (must be <= 1)")

# interpolation-chain bound
p_sq, gamma, _ = kinematics(parts.r, parts.w, parts.q)
M0 = float(np.sum(parts.weight * gamma))
K = diag.l43_bound_constant(datum.f_inf_norm, M0)
C_E = diag.field_bound_constant(datum.f_inf_norm, M0)
P = float(np.sqrt(np.max(p_sq)))
print(f"L^(4/3) norm of g_plus = {diag.l43_norm(grid, g_plus):.4e} "
      f"<= K = {K:.4e}")
print(f"field bound C_E P^(5/3) = {C_E * P ** (5.0 / 3.0):.3e} "
      f">= max E = {np.max(E):.3e}")
print(f"momentum ceiling from the scalar inequality: "
      f"{diag.momentum_ceiling(P, N, C_E):.4f} (measured support {P:.4f})")
