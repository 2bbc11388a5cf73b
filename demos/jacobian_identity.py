"""The flow map of the advanced-time characteristic system compresses
phase-space volume by exactly (1 + phat.k) / (1 + Phat.K).

This script integrates a handful of orbits in a smooth external field,
computes the 6x6 Jacobian determinant of the flow map by central finite
differences (12 perturbed trajectories per orbit) and compares it with the
closed form.  It also checks the pointwise divergence of the right-hand
side against a finite-difference value.
"""

import numpy as np

from vmcone import (flow_jacobian_det, phase_divergence, phase_divergence_fd,
                    embed_reduced_state)


def field(v, x):
    """Test field on points x of shape (..., 3), as every vmcone field is."""
    x = np.asarray(x, dtype=float)
    env = np.exp(-np.vecdot(x, x))[..., None]
    E = 0.4 * x * env
    B = np.stack([-x[..., 1], x[..., 0], np.full(x.shape[:-1], 0.5)],
                 axis=-1) * env
    return E, B


rng = np.random.default_rng(42)
orbits = [(rng.uniform(0.5, 1.2), rng.uniform(-0.2, 0.3),
           rng.uniform(0.005, 0.05)) for _ in range(6)]
x, p = (np.array(a) for a in zip(*(embed_reduced_state(*o) for o in orbits)))
# all 6 orbits, their 72 perturbed trajectories and the 6 base states in
# one integration
det_fd, det_ex = flow_jacobian_det(x, p, field, 0.0, 0.5, 1e-2)

print("orbit                          det(FD)        det(exact)     |diff|")
for (r, w, q), a, b in zip(orbits, det_fd, det_ex):
    print(f"r={r:.2f} w={w:+.2f} q={q:.3f}      "
          f"{a:.10f}   {b:.10f}   {abs(a - b):.2e}")

print()
print("pointwise divergence of the characteristic RHS, closed form vs FD:")
xs, ps = [], []
for _ in range(200):
    u = rng.normal(size=3)
    xs.append(u / np.linalg.norm(u) * rng.uniform(0.4, 1.5))
    ps.append(rng.normal(scale=0.6, size=3))
x, p = np.array(xs), np.array(ps)
worst = np.max(np.abs(phase_divergence(0.0, x, p, field)
                      - phase_divergence_fd(0.0, x, p, field)))
print(f"max |closed form - FD| over 200 random states: {worst:.2e}")
