import math

import numpy as np
import pytest

from dense_reference import kinetic_matrix, multipole_kernel
from fermitherm.grid import (
    DensityMatrix,
    RadialDensity,
    build_grid,
    density_from_gamma,
    dilate,
    hartree_potential,
    kinetic_tridiagonal,
    multipole_apply,
    multipole_kernel_inverse,
    nuclear_potential,
    zero_density_matrix,
)


def normalized_ground_orbital(grid, Z=1.0, l=0):
    h_bare = kinetic_matrix(grid, l) + np.diag(nuclear_potential(grid, Z))
    _, vecs = np.linalg.eigh(h_bare)
    v = vecs[:, 0]
    return v if v[0] > 0 else -v


def test_build_grid_small():
    g = build_grid(3, 4.0)
    assert g.h == 1.0
    assert np.allclose(g.r, [1.0, 2.0, 3.0])


def test_build_grid_spacing():
    g = build_grid(1999, 100.0)
    assert g.h == pytest.approx(0.05, abs=1e-15)


def test_build_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_grid(0, 1.0)
    with pytest.raises(ValueError):
        build_grid(100, -2.0)


@pytest.mark.parametrize("n_points", [60.5, 60.0, "60"])
def test_build_grid_rejects_non_integral_size(n_points):
    with pytest.raises(ValueError, match="n_points"):
        build_grid(n_points, 20.0)


@pytest.mark.parametrize("r_max", [np.nan, np.inf])
def test_build_grid_rejects_non_finite_r_max(r_max):
    with pytest.raises(ValueError, match="finite"):
        build_grid(100, r_max)


@pytest.mark.parametrize("n_points", [1, 50, 900])
def test_build_grid_bounds_hold_on_both_sides(n_points):
    # r_max^2 and 1/h^4 must be finite, with h = r_max/(n_points+1)
    big = np.finfo(float).max
    high, low = math.sqrt(big), big**-0.25 * (n_points + 1)
    for inside, outside in ((0.999 * high, 1.001 * high), (1.001 * low, 0.999 * low)):
        build_grid(n_points, inside)
        with pytest.raises(ValueError, match=f"n_points = {n_points} and r_max = "):
            build_grid(n_points, outside)


def test_discrete_hydrogen_spectrum():
    grid = build_grid(1500, 60.0)
    h_bare = kinetic_matrix(grid, 0) + np.diag(nuclear_potential(grid, 1.0))
    w = np.linalg.eigvalsh(h_bare)
    for j in (1, 2, 3):
        assert w[j - 1] == pytest.approx(-0.25 / j**2, abs=2e-4)


def test_hydrogen_l_degeneracy():
    grid = build_grid(1500, 60.0)
    h_p = kinetic_matrix(grid, 1) + np.diag(nuclear_potential(grid, 1.0))
    w = np.linalg.eigvalsh(h_p)
    # lowest l=1 level is the j=2 shell
    assert w[0] == pytest.approx(-1.0 / 16.0, abs=2e-4)


def test_kinetic_matrix_is_spd():
    grid = build_grid(80, 10.0)
    for l in (0, 1, 3):
        k = kinetic_matrix(grid, l)
        assert np.allclose(k, k.T)
        assert np.linalg.eigvalsh(k)[0] > 0.0


def test_density_zero_state():
    grid = build_grid(40, 8.0)
    rho = density_from_gamma(zero_density_matrix(grid, 2))
    assert rho.charge == 0.0
    assert np.all(rho.rho_line == 0.0)


def test_density_trace_consistency():
    grid = build_grid(60, 12.0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(60)
    v /= np.linalg.norm(v)
    gamma = DensityMatrix(grid=grid, blocks=[np.outer(v, v)])
    rho = density_from_gamma(gamma)
    assert rho.charge == pytest.approx(1.0, abs=1e-12)
    assert rho.charge == pytest.approx(gamma.trace(), abs=1e-12)


def test_density_channel_multiplicity():
    grid = build_grid(50, 10.0)
    rng = np.random.default_rng(1)
    blocks = []
    for _ in range(2):  # l = 0 and l = 1, each fully occupied rank one
        v = rng.standard_normal(50)
        v /= np.linalg.norm(v)
        blocks.append(np.outer(v, v))
    gamma = DensityMatrix(grid=grid, blocks=blocks)
    assert density_from_gamma(gamma).charge == pytest.approx(4.0, abs=1e-12)


def test_hartree_single_shell():
    grid = build_grid(100, 20.0)
    k = 30  # shell radius a = r[30]
    a = grid.r[k]
    q = 0.7
    rho = np.zeros(100)
    rho[k] = q / grid.h
    v = hartree_potential(RadialDensity(grid=grid, rho_line=rho))
    expected = q / np.maximum(grid.r, a)
    assert np.max(np.abs(v - expected)) < 1e-14


def test_hartree_zero():
    grid = build_grid(30, 5.0)
    v = hartree_potential(RadialDensity(grid=grid, rho_line=np.zeros(30)))
    assert np.all(v == 0.0)


def test_hartree_far_field_monopole_and_newton_bound():
    grid = build_grid(800, 40.0)
    u = normalized_ground_orbital(grid)
    gamma = DensityMatrix(grid=grid, blocks=[np.outer(u, u)])
    rho = density_from_gamma(gamma)
    v = hartree_potential(rho)
    q = rho.charge
    assert v[-1] * grid.r[-1] == pytest.approx(q, abs=1e-6)
    assert np.all(v * grid.r <= q + 1e-12)


def test_hartree_monotone_in_density():
    grid = build_grid(120, 15.0)
    rng = np.random.default_rng(4)
    rho1 = rng.uniform(0.0, 1.0, 120)
    rho2 = rho1 + rng.uniform(0.0, 0.5, 120)
    v1 = hartree_potential(RadialDensity(grid=grid, rho_line=rho1))
    v2 = hartree_potential(RadialDensity(grid=grid, rho_line=rho2))
    assert np.all(v1 <= v2 + 1e-14)


def test_multipole_values():
    grid = build_grid(3, 4.0)  # nodes 1, 2, 3
    w0 = multipole_kernel(grid, 0)
    assert w0[0, 1] == pytest.approx(0.5, abs=1e-15)
    w1 = multipole_kernel(grid, 1)
    assert w1[0, 1] == pytest.approx(0.25, abs=1e-15)


def test_multipole_symmetry_and_bound():
    grid = build_grid(50, 10.0)
    for L in (0, 1, 3):
        w = multipole_kernel(grid, L)
        assert np.allclose(w, w.T)
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0 / grid.r[0] + 1e-15)


@pytest.mark.parametrize("n", [50, 400])
def test_multipole_kernel_inverse_matches_dense_kernel(n):
    # the closed-form tridiagonal against the dense kernel, for every
    # multipole order an l_max = 2 exchange couples
    from scipy.linalg import solve_banded

    grid = build_grid(n, n / 10.0)
    x = np.random.default_rng(n).standard_normal((n, 3))
    for L in range(5):
        w = multipole_kernel(grid, L)
        diag, off = multipole_kernel_inverse(grid, L)
        inverse = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(inverse @ w - np.eye(n))) <= 1e-11
        band = np.vstack([np.append(0.0, off), diag, np.append(off, 0.0)])
        expected = w @ x
        solved = solve_banded((1, 1), band, x)
        assert np.max(np.abs(solved - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_multipole_kernel_inverse_single_node():
    grid = build_grid(1, 2.0)
    diag, off = multipole_kernel_inverse(grid, 3)
    assert diag * multipole_kernel(grid, 3)[0, 0] == pytest.approx([1.0], abs=1e-15)
    assert off.shape == (0,)


def test_stencil_and_kernel_refuse_a_negative_order():
    grid = build_grid(10, 2.0)
    with pytest.raises(ValueError, match="angular momentum must be >= 0"):
        kinetic_tridiagonal(grid, -1)
    with pytest.raises(ValueError, match="multipole order must be >= 0"):
        multipole_kernel_inverse(grid, -1)


@pytest.mark.parametrize("n", [50, 400, 2000])
def test_multipole_apply_matches_dense_kernel(n):
    # the generator-form apply against the dense kernel, real and complex
    # columns, every order up to L = 6 (l_max = 3) on the CLI-default box
    grid = build_grid(n, 60.0)
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, 3))
    columns = [real, real + 1j * rng.standard_normal((n, 3))]
    for L in range(7):
        w = multipole_kernel(grid, L)
        for x in columns:
            expected = w @ x
            err = np.max(np.abs(multipole_apply(grid, L, x) - expected))
            assert err <= 1e-13 * np.max(np.abs(expected))


def test_multipole_apply_outer_sum_does_not_cancel():
    # for L = 6 and a flat x the outer sum over r_j > r_i falls by ~1e12 across
    # the grid while u_i grows to balance it; formed as a total minus a running
    # sum it would carry the total's rounding into every far node
    grid = build_grid(400, 40.0)
    x = np.ones(400)
    expected = multipole_kernel(grid, 6) @ x
    got = multipole_apply(grid, 6, x)
    assert np.max(np.abs(got - expected) / expected) <= 1e-13


def test_dilate_rescales_grid_only():
    grid = build_grid(40, 10.0)
    rng = np.random.default_rng(2)
    b = rng.standard_normal((40, 40))
    b = 0.1 * (b + b.T)
    gamma = DensityMatrix(grid=grid, blocks=[b])
    contracted = dilate(gamma, 2.0)
    assert contracted.grid.r_max == pytest.approx(5.0)
    assert contracted.grid.h == pytest.approx(grid.h / 2.0)
    assert np.array_equal(contracted.blocks[0], b)


def test_dilate_rejects_nonpositive_scale():
    grid = build_grid(10, 2.0)
    with pytest.raises(ValueError):
        dilate(zero_density_matrix(grid, 0), 0.0)


@pytest.mark.parametrize("eta", [np.nan, 1e-310], ids=["nan", "overflowing"])
def test_dilate_rejects_a_scale_without_a_finite_grid(eta):
    # r_max / eta is nan, or overflows to inf: no grid, rather than a state on one
    grid = build_grid(10, 2.0)
    with pytest.raises(ValueError, match="finite"):
        dilate(zero_density_matrix(grid, 0), eta)


def test_validate_accepts_valid_and_rejects_bad():
    grid = build_grid(30, 6.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(30)
    v /= np.linalg.norm(v)
    DensityMatrix(grid=grid, blocks=[0.5 * np.outer(v, v)]).validate()
    with pytest.raises(ValueError):
        DensityMatrix(grid=grid, blocks=[2.0 * np.outer(v, v)]).validate()
    bad = np.zeros((30, 30))
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        DensityMatrix(grid=grid, blocks=[bad]).validate()
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(grid=grid, blocks=[0.5 * np.outer(v, v)[:, :-1]]).validate()


def test_validate_rejects_non_finite_blocks():
    # NaN passes every bound test, so it is refused on its own
    grid = build_grid(30, 6.0)
    for value in (np.nan, np.inf):
        block = np.zeros((30, 30))
        block[3, 3] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(grid=grid, blocks=[block]).validate()


def test_sqrt_density_gradient_bound():
    # h * sum((sqrt(rho)')^2 with one-sided differences is controlled by the
    # kinetic quadratic form (boundary bonds make the stencil form larger).
    grid = build_grid(400, 30.0)
    u1 = normalized_ground_orbital(grid, Z=1.0)
    h_bare = kinetic_matrix(grid, 0) + np.diag(nuclear_potential(grid, 1.0))
    _, vecs = np.linalg.eigh(h_bare)
    gamma = DensityMatrix(
        grid=grid,
        blocks=[
            0.7 * np.outer(u1, u1) + 0.3 * np.outer(vecs[:, 1], vecs[:, 1])
        ],
    )
    rho = density_from_gamma(gamma)
    kin = float(np.einsum("ij,ji->", kinetic_matrix(grid, 0), gamma.blocks[0]))
    sqrt_rho = np.sqrt(rho.rho_line)
    grad_sq = grid.h * np.sum((np.diff(sqrt_rho) / grid.h) ** 2)
    assert grad_sq <= kin * 1.05


def test_pointwise_kernel_bound():
    # |sum_l (2l+1) Gamma_l(i,j)|^2 <= rho~(i) * rho~(j) for PSD blocks
    grid = build_grid(80, 12.0)
    rng = np.random.default_rng(9)
    blocks = []
    for l in range(3):
        a = rng.standard_normal((80, 6))
        b = a @ a.T
        b /= np.linalg.eigvalsh(b)[-1] * 1.5
        blocks.append(b)
    gamma = DensityMatrix(grid=grid, blocks=blocks)
    kernel = sum((2 * l + 1) * b for l, b in enumerate(blocks))
    rho_t = sum((2 * l + 1) * np.diagonal(b) for l, b in enumerate(blocks))
    ii = rng.integers(0, 80, 60)
    jj = rng.integers(0, 80, 60)
    assert np.all(
        kernel[ii, jj] ** 2 <= rho_t[ii] * rho_t[jj] * (1.0 + 1e-12) + 1e-30
    )


def random_factors(grid, ranks, seed, complex_orbitals=False):
    """Orthonormal orbitals and weights in (0, 1) per channel."""
    rng = np.random.default_rng(seed)
    orbitals, weights = [], []
    for k in ranks:
        a = rng.standard_normal((grid.n_points, k))
        if complex_orbitals:
            a = a + 1j * rng.standard_normal(a.shape)
        orbitals.append(np.linalg.qr(a)[0])
        weights.append(rng.uniform(0.05, 0.95, k))
    return orbitals, weights


@pytest.mark.parametrize("complex_orbitals", [False, True], ids=["real", "complex"])
def test_from_factors_blocks_match_outer_products(complex_orbitals):
    # the dense view of a factored state is the symmetrized W diag(nu) W^H
    grid = build_grid(70, 12.0)
    orbitals, weights = random_factors(grid, [4, 2, 0], 5, complex_orbitals)
    gamma = DensityMatrix.from_factors(grid, orbitals, weights)
    assert gamma.l_max == 2
    for block, w, nu in zip(gamma.blocks, orbitals, weights):
        b = (w * nu) @ w.conj().T
        assert np.max(np.abs(block - 0.5 * (b + b.conj().T)), initial=0.0) <= 1e-15
    # the trace is that of W diag(nu) W^H, so it sees orbitals that lost their norm
    stretched = DensityMatrix.from_factors(grid, [1.01 * w for w in orbitals], weights)
    for state in (gamma, stretched):
        assert state.trace() == pytest.approx(
            sum((2 * l + 1) * np.real(np.trace(b)) for l, b in enumerate(state.blocks)), rel=1e-14
        )
    assert stretched.trace() == pytest.approx(1.01**2 * gamma.trace(), rel=1e-14)


def test_density_from_factors_matches_block_diagonals():
    grid = build_grid(70, 12.0)
    gamma = DensityMatrix.from_factors(grid, *random_factors(grid, [3, 5], 6, True))
    dense = sum((2 * l + 1) * np.real(np.diagonal(b)) for l, b in enumerate(gamma.blocks))
    assert np.max(np.abs(density_from_gamma(gamma).rho_line - dense / grid.h)) <= 1e-13 * np.max(
        dense / grid.h
    )


def test_factored_state_forms_no_dense_block(monkeypatch):
    # trace, density, dilation and validation of a factored state stay on its
    # factors; the dense view is formed only when read
    import fermitherm.grid as grid_module

    def refuse(*args, **kwargs):
        raise AssertionError("dense block formed")

    monkeypatch.setattr(grid_module, "_materialize", refuse)
    grid = build_grid(50, 10.0)
    gamma = DensityMatrix.from_factors(grid, *random_factors(grid, [2, 1], 7))
    gamma.validate()
    dilated = dilate(gamma, 2.0)
    assert dilated.trace() == gamma.trace()
    assert density_from_gamma(gamma).charge == pytest.approx(gamma.trace(), rel=1e-13)
    assert zero_density_matrix(grid, 2).trace() == 0.0
    with pytest.raises(AssertionError, match="dense block"):
        gamma.blocks


def test_dense_state_is_factored_once(monkeypatch):
    import fermitherm.grid as grid_module

    calls = []
    factor_blocks = grid_module._factor_blocks

    def counting(blocks):
        calls.append(len(blocks))
        return factor_blocks(blocks)

    monkeypatch.setattr(grid_module, "_factor_blocks", counting)
    grid = build_grid(40, 8.0)
    blocks = DensityMatrix.from_factors(grid, *random_factors(grid, [3, 2], 8)).blocks
    gamma = DensityMatrix(grid, blocks)
    gamma.validate()
    gamma.trace()
    density_from_gamma(gamma)
    assert calls == [2]


def test_dilated_dense_state_keeps_its_form(monkeypatch):
    # a dense state stays dense under dilation: its blocks are still checked
    # for Hermiticity, and factors it already has come along without an eigh
    import fermitherm.grid as grid_module

    calls = []
    factor_blocks = grid_module._factor_blocks

    def counting(blocks):
        calls.append(len(blocks))
        return factor_blocks(blocks)

    monkeypatch.setattr(grid_module, "_factor_blocks", counting)
    grid = build_grid(40, 8.0)
    blocks = DensityMatrix.from_factors(grid, *random_factors(grid, [3, 2], 10)).blocks
    gamma = DensityMatrix(grid, blocks)
    dilated = dilate(gamma, 2.0)
    assert calls == [] and all(a is b for a, b in zip(dilated.blocks, blocks))
    gamma.trace()
    assert dilate(gamma, 2.0).trace() == gamma.trace() and calls == [2]
    skewed = [blocks[0] + 1e-6 * np.triu(np.ones_like(blocks[0]), 1), blocks[1]]
    with pytest.raises(ValueError, match="not Hermitian"):
        dilate(DensityMatrix(grid, skewed), 2.0).validate()
    with pytest.raises(ValueError, match="blocks or factors"):
        DensityMatrix(grid)


def test_validate_rejects_bad_factors():
    grid = build_grid(30, 6.0)
    orbitals, weights = random_factors(grid, [3, 2], 9)
    DensityMatrix.from_factors(grid, orbitals, weights).validate()
    shear = np.eye(3)
    shear[0, 1] = 1e-6
    skewed = [orbitals[0] @ shear, orbitals[1]]
    with pytest.raises(ValueError, match="orthonormal"):
        DensityMatrix.from_factors(grid, skewed, weights).validate()
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix.from_factors(grid, [orbitals[0][:-1], orbitals[1]], weights).validate()
    for bad in (-1e-6, 1.0 + 1e-6):
        nu = [weights[0].copy(), weights[1]]
        nu[0][1] = bad
        with pytest.raises(ValueError, match="outside"):
            DensityMatrix.from_factors(grid, orbitals, nu).validate()
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix.from_factors(grid, orbitals, [weights[0][:, None], weights[1]]).validate()
    # complex weights would make the Cayley step of the dynamics non-unitary
    with pytest.raises(ValueError, match="not real"):
        DensityMatrix.from_factors(grid, orbitals, [weights[0] + 0.2j, weights[1]]).validate()


def test_validate_rejects_non_finite_factors():
    grid = build_grid(30, 6.0)
    orbitals, weights = random_factors(grid, [3, 2], 9)
    nan_orbital = [orbitals[0].copy(), orbitals[1]]
    nan_orbital[0][4, 1] = np.nan
    nan_weight = [weights[0], weights[1].copy()]
    nan_weight[1][0] = np.nan
    for w, nu in ((nan_orbital, weights), (orbitals, nan_weight)):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix.from_factors(grid, w, nu).validate()
