import numpy as np
import pytest

from vmcone import (ShellGrid, ParticleSet, MOMENTS, moment_payloads,
                    deposit, cumulative_source, solve_field, node_field,
                    eval_field, radial_integral, builtin_datum,
                    sample_particles)


def make_parts(r, w, q, weight):
    r = np.asarray(r, dtype=float)
    return ParticleSet(r=r, w=np.asarray(w, dtype=float),
                       q=np.asarray(q, dtype=float),
                       weight=np.asarray(weight, dtype=float),
                       f_value=np.ones_like(r))


def moments(parts, grid):
    """{name: node densities} of the four-moment deposit."""
    payloads = moment_payloads(parts, parts.gamma())
    return dict(zip(MOMENTS, deposit(parts.r, payloads, grid)))


def source(parts, grid):
    """g_plus alone: the deposit of the weights."""
    return deposit(parts.r, (parts.weight,), grid)[0]


def test_grid_geometry():
    grid = ShellGrid(r_max=2.0, n_shells=100)
    assert grid.dr == pytest.approx(0.02)
    assert grid.edges[0] == 0.0 and grid.edges[-1] == 2.0
    assert np.sum(grid.node_volumes) == pytest.approx(4.0 * np.pi / 3.0 * 8.0)
    with pytest.raises(ValueError):
        ShellGrid(r_max=-1.0, n_shells=10)
    with pytest.raises(ValueError):
        ShellGrid(r_max=1.0, n_shells=1)


def test_grid_geometry_is_built_once_and_read_only():
    grid = ShellGrid(r_max=2.0, n_shells=100)
    for name in ("edges", "node_volumes"):
        arr = getattr(grid, name)
        assert getattr(grid, name) is arr, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert np.array_equal(grid.edges, np.linspace(0.0, 2.0, 101))
    # equality and hashing still see only r_max and n_shells, not the
    # cached arrays
    fresh = ShellGrid(r_max=2.0, n_shells=100)
    assert fresh == grid and hash(fresh) == hash(grid)
    assert ShellGrid(r_max=2.0, n_shells=101) != grid


def test_deposit_conserves_mass_exactly():
    parts = sample_particles(builtin_datum("shell_polynomial"), 16)
    grid = ShellGrid(r_max=1.5, n_shells=128)
    prof = moments(parts, grid)
    total = np.sum(prof["g_plus"] * grid.node_volumes)
    assert total == pytest.approx(np.sum(parts.weight), rel=1e-14)
    # kinetic moment conserves the gamma-weighted sum the same way
    kin = np.sum(prof["h_plus"] * grid.node_volumes)
    assert kin == pytest.approx(float(np.sum(parts.weight * parts.gamma())),
                                rel=1e-14)


def test_deposit_moment_factors_single_particle():
    # one particle on a node: check the four payload factors directly
    grid = ShellGrid(r_max=1.0, n_shells=10)
    r0 = 0.5
    parts = make_parts([r0], [0.2], [0.01], [3.0])
    gamma = float(parts.gamma()[0])
    one_plus = 1.0 + 0.2 / gamma
    prof = moments(parts, grid)
    j = 5
    vol = grid.node_volumes[j]
    assert prof["g_plus"][j] * vol == pytest.approx(3.0)
    assert prof["g_minus"][j] * vol == pytest.approx(
        3.0 * (1.0 - 0.2 / gamma) / one_plus)
    assert prof["h_plus"][j] * vol == pytest.approx(3.0 * gamma)
    assert prof["h_minus"][j] * vol == pytest.approx(
        3.0 * (gamma - 0.2) / one_plus)


def test_deposit_cic_split():
    grid = ShellGrid(r_max=1.0, n_shells=10)
    parts = make_parts([0.53], [0.0], [0.01], [1.0])
    m = source(parts, grid) * grid.node_volumes
    assert m[5] == pytest.approx(0.7)
    assert m[6] == pytest.approx(0.3)
    assert np.sum(m) == pytest.approx(1.0)


def test_deposit_rejects_out_of_grid():
    grid = ShellGrid(r_max=1.0, n_shells=10)
    parts = make_parts([0.5, 1.2], [0.0, 0.0], [0.01, 0.01], [1.0, 1.0])
    for payloads in (moment_payloads(parts, parts.gamma()), (parts.weight,)):
        with pytest.raises(ValueError, match=r"^particle 1 at r=1\.2 outside "
                                             r"shell grid \[0, 1\); enlarge "
                                             r"r_max$"):
            deposit(parts.r, payloads, grid)


def test_weight_deposit_is_row_0_of_the_moments():
    grid = ShellGrid(r_max=2.0, n_shells=128)
    for parts in (sample_particles(builtin_datum("shell_polynomial"), 8),
                  make_parts([], [], [], [])):
        full = deposit(parts.r, moment_payloads(parts, parts.gamma()), grid)
        src = deposit(parts.r, (parts.weight,), grid)
        assert full.shape == (4, 129) and src.shape == (1, 129)
        assert np.array_equal(src[0], full[0])
        assert np.array_equal(solve_field(grid, src[0]),
                              solve_field(grid, full[0]))
    assert np.array_equal(src, np.zeros((1, 129)))


def test_field_of_uniform_source():
    # g = c constant: I = c r^3 / 3 so E = c r / 3
    grid = ShellGrid(r_max=1.0, n_shells=400)
    c = 2.5
    g = np.full(grid.n_shells + 1, c)
    I = solve_field(grid, g)
    E = node_field(grid, I)
    r = grid.edges[1:]
    # trapezoid truncation of the source integral is exactly c dr^2/(6 r)
    bound = c * grid.dr**2 / (6.0 * r) * 1.05 + 1e-12
    assert np.all(np.abs(E[1:] - c * r / 3.0) <= bound)
    assert np.allclose(I, c * grid.edges**3 / 3.0, atol=1e-5)


def test_field_outside_shell_is_coulomb():
    # all mass below r0: beyond it E = I_total / r^2 exactly
    grid = ShellGrid(r_max=2.0, n_shells=500)
    parts = sample_particles(builtin_datum("shell_polynomial"), 12)
    E = node_field(grid, solve_field(grid, source(parts, grid)))
    N = np.sum(parts.weight)
    r_out = grid.edges[-50:]
    assert np.allclose(E[-50:], N / (4.0 * np.pi * r_out**2), rtol=1e-12)


def test_field_bound_by_mass_over_r_squared():
    grid = ShellGrid(r_max=2.0, n_shells=300)
    parts = sample_particles(builtin_datum("shell_polynomial"), 12)
    E = node_field(grid, solve_field(grid, source(parts, grid)))
    N = np.sum(parts.weight)
    r = grid.edges[1:]
    assert np.all(E[1:] <= N / (4.0 * np.pi * r**2) * (1 + 1e-12))
    assert np.all(E >= 0.0)


def test_solve_field_input_validation():
    grid = ShellGrid(r_max=1.0, n_shells=10)
    g = np.zeros(11)
    bad = g.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_field(grid, bad)
    neg = g.copy()
    neg[3] = -1.0
    with pytest.raises(ValueError, match="negative g_plus"):
        solve_field(grid, neg)


def test_eval_field_interpolation_and_domain():
    grid = ShellGrid(r_max=1.0, n_shells=100)
    g = np.exp(-grid.edges)
    I = solve_field(grid, g)
    # node values reproduced
    assert eval_field(grid, I, 0.37) == pytest.approx(
        np.interp(0.37, grid.edges, I) / 0.37**2)
    assert eval_field(grid, I, 0.0) == 0.0
    vec = eval_field(grid, I, np.array([0.0, 0.5, 1.0]))
    assert vec.shape == (3,)
    # beyond r_max the enclosed source stays I(r_max)
    assert eval_field(grid, I, 1.5) == float(I[-1]) / 1.5**2
    with pytest.raises(ValueError, match="outside"):
        eval_field(grid, I, -0.1)


def test_eval_field_is_zero_on_the_axis_whatever_I0():
    # a hand-built profile with I(0) != 0: r = 0 still gives E = 0, and
    # r > 0 gives the interpolated I / r^2
    grid = ShellGrid(r_max=1.0, n_shells=4)
    I = np.array([0.5, 0.7, 1.0, 1.2, 1.3])
    r = np.array([0.0, 0.1, 0.25, 0.0, 0.9, 2.0])
    E = eval_field(grid, I, r)
    assert E[0] == 0.0 and E[3] == 0.0 and eval_field(grid, I, 0.0) == 0.0
    pos = r > 0.0
    assert np.array_equal(E[pos], np.interp(r[pos], grid.edges, I)
                          / r[pos] ** 2)


def test_push_field_at_the_nodes_is_the_recorded_field():
    # eval_field (the push) and node_field (the recorded E) agree bit for
    # bit on the nodes, for a solved I and for rows of a random one
    grid = ShellGrid(r_max=2.0, n_shells=128)
    parts = sample_particles(builtin_datum("shell_polynomial"), 12)
    I = solve_field(grid, source(parts, grid))
    assert np.array_equal(eval_field(grid, I, grid.edges), node_field(grid, I))
    rows = np.random.default_rng(5).uniform(0.0, 3.0, (3, grid.n_shells + 1))
    for row, E in zip(rows, node_field(grid, rows)):
        assert np.array_equal(eval_field(grid, row, grid.edges), E)


def test_grid_interp_is_np_interp_row_by_row():
    # radii on nodes, between nodes, at 0, at r_max and past it; values
    # that hold every node, and values that stop at the first node past r
    # values over 17 decades, so that the slope formula misses the end
    # nodes; an infinite value after the node edges[3] tests the exact-node
    # branch
    grid = ShellGrid(r_max=1.0, n_shells=10)
    edges = grid.edges
    rng = np.random.default_rng(7)
    shape = (3, 2, grid.n_shells + 1)
    values = rng.uniform(-2.0, 2.0, shape) * 10.0 ** rng.integers(-8, 9, shape)
    values[1, 0, 4] = np.inf
    r = np.array([0.0, edges[3], 0.5 * (edges[3] + edges[4]),
                  0.3 * edges[7] + 0.7 * edges[8], 1e-13, edges[-2],
                  1.0, 1.0 + 1e-13, 2.5])
    with np.errstate(invalid="ignore"):   # the unused inf * 0 branch
        got = grid.interp(values, r)
        assert got.shape == (3, 2, len(r))
        for idx in np.ndindex(values.shape[:-1]):
            assert np.array_equal(got[idx], np.interp(r, edges, values[idx]))
        for x in r[r < 1.0]:
            j = int(np.searchsorted(edges, x, side="right"))
            short = values[..., :j + 1]
            got = grid.interp(short, x)
            for idx in np.ndindex(values.shape[:-1]):
                assert got[idx] == np.interp(x, edges[:j + 1], short[idx])
                assert got[idx] == np.interp(x, edges, values[idx])


def test_radial_integral_partial_cell_is_np_interp():
    # the partial last cell closes the trapezoid at np.interp's value at r,
    # from whole profiles and from ones cut at the first node past r
    grid = ShellGrid(r_max=1.0, n_shells=10)
    values = np.random.default_rng(11).uniform(0.0, 2.0, (2, 11))
    for r in (0.0, 0.3, 0.37, 0.999, 1.0):
        j = int(np.searchsorted(grid.edges, r, side="right")) - 1
        nodes = grid.edges[:j + 1]
        for row in values:
            ref = np.trapezoid(row[:j + 1] * nodes**2, dx=grid.dr)
            if r > nodes[-1]:
                v_r = np.interp(r, grid.edges, row)
                ref += 0.5 * (r - nodes[-1]) * (row[j] * nodes[-1]**2
                                                + v_r * r**2)
            assert radial_integral(grid, row, r) == 4.0 * np.pi * ref
            assert radial_integral(grid, row[:j + 2], r) == 4.0 * np.pi * ref
        assert np.array_equal(radial_integral(grid, values, r),
                              [radial_integral(grid, row, r)
                               for row in values])


def test_cumulative_source_matches_quadrature():
    from scipy.integrate import quad
    grid = ShellGrid(r_max=1.0, n_shells=800)
    g = np.cos(grid.edges)
    I = cumulative_source(grid, g)
    ref, _ = quad(lambda r: np.cos(r) * r**2, 0.0, 1.0)
    assert I[-1] == pytest.approx(ref, abs=1e-7)
