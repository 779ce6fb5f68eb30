import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    dense_brown_kosaki_terms,
    dense_hamiltonian,
    dense_hf_terms,
    kinetic_matrix,
    multipole_kernel,
)
from fermitherm import dynamics
from fermitherm.energy import (
    OperatorCache,
    _FactoredField,
    _cutoff_profile,
    _factored_field,
    _hf_terms,
    _LDL_BLOCK,
    _ldl_solves,
    brown_kosaki_terms,
    free_energy,
    hf_energy,
    inequality_audit,
    linear_energy_breakdown,
    mean_field_hamiltonian,
)
from fermitherm.entropy import make_power_entropy
from fermitherm.grid import (
    DensityMatrix,
    build_grid,
    dilate,
    nuclear_potential,
    zero_density_matrix,
)


def bare_orbitals(grid, Z, l=0, count=3):
    h_bare = kinetic_matrix(grid, l) + np.diag(nuclear_potential(grid, Z))
    w, vecs = np.linalg.eigh(h_bare)
    return w[:count], vecs[:, :count]


def random_state(grid, l_max, seed=0, scale=0.3, complex_blocks=False):
    """Random PSD blocks with spectrum inside [0, scale]."""
    rng = np.random.default_rng(seed)
    n = grid.n_points
    blocks = []
    for _ in range(l_max + 1):
        a = rng.standard_normal((n, n // 4 + 2))
        if complex_blocks:
            a = a + 1j * rng.standard_normal(a.shape)
        b = a @ a.conj().T
        b *= scale / np.linalg.eigvalsh(b)[-1]
        blocks.append(b)
    return DensityMatrix(grid=grid, blocks=blocks)


def test_zero_state_all_terms_vanish():
    grid = build_grid(40, 8.0)
    e = hf_energy(zero_density_matrix(grid, 2), Z=1.0)
    assert (e.kinetic, e.nuclear, e.direct, e.exchange, e.total_hf) == (
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
    )


def test_rank_one_s_orbital_cancellation_exact():
    # algebraic identity: for Gamma_0 = q v v^T the direct and exchange
    # contractions are the same sum term by term
    grid = build_grid(150, 25.0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(150)
    v /= np.linalg.norm(v)
    for q in (1.0, 0.35):
        gamma = DensityMatrix(grid=grid, blocks=[q * np.outer(v, v)])
        e = hf_energy(gamma, Z=1.0)
        assert e.exchange == pytest.approx(e.direct, rel=1e-13)


def test_hydrogenic_trial_energy():
    grid = build_grid(1500, 60.0)
    _, orbs = bare_orbitals(grid, Z=1.0)
    phi = orbs[:, 0]
    for q in (0.1, 0.5, 1.0):
        gamma = DensityMatrix(grid=grid, blocks=[q * np.outer(phi, phi)])
        e = hf_energy(gamma, Z=1.0)
        assert e.total_hf == pytest.approx(-q / 4.0, abs=5e-4)


def test_free_energy_rank_one_with_entropy():
    grid = build_grid(1500, 60.0)
    spec = make_power_entropy(2.0)
    _, orbs = bare_orbitals(grid, Z=1.0)
    phi = orbs[:, 0]
    q = 0.1
    gamma = DensityMatrix(grid=grid, blocks=[q * np.outer(phi, phi)])
    e = free_energy(gamma, spec, Z=1.0, T=1.0)
    assert e.entropy_term == pytest.approx(q**2, abs=1e-12)
    assert e.total_free == pytest.approx(-q / 4.0 + q**2, abs=5e-4)


def test_free_energy_zero_state():
    grid = build_grid(30, 6.0)
    spec = make_power_entropy(2.0)
    e = free_energy(zero_density_matrix(grid, 1), spec, Z=1.0, T=1.0)
    assert e.total_free == 0.0


def test_entropy_of_mixed_two_level_block():
    grid = build_grid(60, 10.0)
    spec = make_power_entropy(2.0)
    rng = np.random.default_rng(8)
    basis, _ = np.linalg.qr(rng.standard_normal((60, 2)))
    block = 0.5 * (np.outer(basis[:, 0], basis[:, 0]) + np.outer(basis[:, 1], basis[:, 1]))
    e = free_energy(DensityMatrix(grid=grid, blocks=[block]), spec, Z=1.0, T=1.0)
    assert e.entropy_term == pytest.approx(0.5, abs=1e-12)


def test_free_energy_rejects_bad_eigenvalues():
    grid = build_grid(30, 6.0)
    spec = make_power_entropy(2.0)
    v = np.zeros(30)
    v[0] = 1.0
    gamma = DensityMatrix(grid=grid, blocks=[1.5 * np.outer(v, v)])
    with pytest.raises(ValueError):
        free_energy(gamma, spec, Z=1.0, T=1.0)


def test_linear_free_energy_zero_and_rank_one():
    grid = build_grid(400, 40.0)
    spec = make_power_entropy(2.0)
    assert linear_energy_breakdown(zero_density_matrix(grid, 0), spec, 1.0, 1.0).total_free == 0.0
    eps, orbs = bare_orbitals(grid, Z=1.0)
    phi = orbs[:, 0]
    nu_grid = np.linspace(0.0, 1.0, 41)
    values = []
    for nu in nu_grid:
        gamma = DensityMatrix(grid=grid, blocks=[nu * np.outer(phi, phi)])
        got = linear_energy_breakdown(gamma, spec, 1.0, 1.0).total_free
        assert got == pytest.approx(nu * eps[0] + nu**2, abs=1e-10)
        values.append(got)
    # minimized at nu = g(eps_1 / T)
    nu_star = spec.g(eps[0])
    best = nu_star * eps[0] + nu_star**2
    assert min(values) >= best - 1e-10


def test_structured_terms_match_dense_references():
    # the O(n) kinetic and direct paths against the dense operators they replace
    grid = build_grid(400, 40.0)
    gamma = random_state(grid, l_max=2, seed=13, scale=0.5, complex_blocks=True)
    kin, _, direct, _ = _hf_terms(*gamma.factors, OperatorCache(grid, 2, Z=1.0))
    dense_kin = sum(
        (2 * l + 1) * float(np.real(np.einsum("ij,ji->", kinetic_matrix(grid, l), b)))
        for l, b in enumerate(gamma.blocks)
    )
    rho_tilde = sum((2 * l + 1) * np.real(np.diagonal(b)) for l, b in enumerate(gamma.blocks))
    dense_direct = 0.5 * float(rho_tilde @ (multipole_kernel(grid, 0) @ rho_tilde))
    # both sides add the same positive terms in another order: n * eps scale
    # (measured at most 2.4e-15 up to n = 900)
    assert direct == pytest.approx(dense_direct, rel=1e-13)
    # the diagonal and off-diagonal parts of the stencil nearly cancel on
    # smooth states, so roundoff grows with 1/h^2 relative to the net trace
    # (measured 9.7e-13 at n = 900 and 1.0e-12 at n = 2000 on bound-state
    # blocks, 1e-16 on random states like this one)
    assert kin == pytest.approx(dense_kin, rel=1e-11)


def test_mean_field_hamiltonian_zero_state_is_bare():
    grid = build_grid(50, 8.0)
    ham = mean_field_hamiltonian(zero_density_matrix(grid, 1), Z=2.0)
    for l in (0, 1):
        bare = kinetic_matrix(grid, l) + np.diag(nuclear_potential(grid, 2.0))
        assert np.max(np.abs(ham[l] - bare)) == 0.0


def test_mean_field_is_exact_gradient():
    grid = build_grid(60, 10.0)
    rng = np.random.default_rng(17)
    gamma = random_state(grid, l_max=2, seed=3, scale=0.4)
    ham = mean_field_hamiltonian(gamma, Z=1.0)
    for trial in range(5):
        direction = []
        for _ in range(3):
            d = rng.standard_normal((60, 60))
            d = d + d.T
            d /= np.linalg.norm(d)
            direction.append(d)
        step = 1e-5
        plus = DensityMatrix(
            grid=grid, blocks=[b + step * d for b, d in zip(gamma.blocks, direction)]
        )
        minus = DensityMatrix(
            grid=grid, blocks=[b - step * d for b, d in zip(gamma.blocks, direction)]
        )
        fd = (hf_energy(plus, 1.0).total_hf - hf_energy(minus, 1.0).total_hf) / (2.0 * step)
        analytic = sum(
            (2 * l + 1) * float(np.einsum("ij,ji->", ham[l], direction[l]))
            for l in range(3)
        )
        assert fd == pytest.approx(analytic, rel=1e-6)


def test_mean_field_dominates_bare_operator():
    grid = build_grid(70, 12.0)
    gamma = random_state(grid, l_max=1, seed=11, scale=0.5)
    ham = mean_field_hamiltonian(gamma, Z=1.0)
    rng = np.random.default_rng(23)
    for l in (0, 1):
        bare = kinetic_matrix(grid, l) + np.diag(nuclear_potential(grid, 1.0))
        for _ in range(50):
            v = rng.standard_normal(70)
            v /= np.linalg.norm(v)
            assert v @ ham[l] @ v >= v @ bare @ v - 1e-9


def test_mean_field_lowest_eigenvalue_above_bare():
    grid = build_grid(80, 14.0)
    gamma = random_state(grid, l_max=0, seed=29, scale=0.6)
    ham = mean_field_hamiltonian(gamma, Z=1.0)
    bare = kinetic_matrix(grid, 0) + np.diag(nuclear_potential(grid, 1.0))
    assert (
        np.linalg.eigvalsh(ham[0])[0]
        >= np.linalg.eigvalsh(bare)[0] - 1e-9
    )


def test_dilation_scaling_laws():
    # Z = 0 so only the kinetic, direct, exchange, entropy terms remain
    grid = build_grid(60, 10.0)
    spec = make_power_entropy(2.0)
    gamma = random_state(grid, l_max=1, seed=41, scale=0.5)
    base = free_energy(gamma, spec, Z=0.0, T=1.0)
    for eta in (0.5, 2.0, 7.0):
        scaled = free_energy(dilate(gamma, eta), spec, Z=0.0, T=1.0)
        assert scaled.kinetic == pytest.approx(eta**2 * base.kinetic, rel=1e-12)
        assert scaled.direct == pytest.approx(eta * base.direct, rel=1e-12)
        assert scaled.exchange == pytest.approx(eta * base.exchange, rel=1e-12)
        assert scaled.entropy_term == base.entropy_term


def test_trace_invariant_under_dilation():
    grid = build_grid(40, 9.0)
    gamma = random_state(grid, l_max=1, seed=43, scale=0.3)
    assert dilate(gamma, 3.0).trace() == gamma.trace()


def test_inequality_audit_passes_on_valid_states():
    grid = build_grid(90, 15.0)
    spec = make_power_entropy(2.0)
    for seed in (1, 2, 3):
        gamma = random_state(grid, l_max=2, seed=seed, scale=0.8)
        checks = inequality_audit(gamma, spec, 1.0, hf_energy(gamma, Z=1.0))
        assert len(checks) == 5
        failed = {name: pair for name, pair in checks.items() if not pair[0] <= pair[1] + 1e-9}
        assert not failed, failed


def test_inequality_audit_zero_state():
    grid = build_grid(40, 8.0)
    spec = make_power_entropy(2.0)
    gamma = zero_density_matrix(grid, 1)
    checks = inequality_audit(gamma, spec, 1.0, hf_energy(gamma, Z=1.0))
    assert all(lhs <= rhs + 1e-9 for lhs, rhs in checks.values())
    assert checks["exchange_le_direct"] == (0.0, 0.0)


def test_brown_kosaki_identity_cutoff():
    grid = build_grid(50, 10.0)
    spec = make_power_entropy(2.0)
    gamma = random_state(grid, l_max=1, seed=7, scale=0.9)
    lhs, rhs = brown_kosaki_terms(gamma, spec, np.ones(50))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def indefinite_state(grid, l_max, seed):
    """Blocks of a state plus a full-rank symmetric perturbation: indefinite."""
    gamma = random_state(grid, l_max, seed=seed, scale=0.5)
    rng = np.random.default_rng(seed + 1)
    blocks = []
    for b in gamma.blocks:
        d = rng.standard_normal(b.shape)
        blocks.append(b + 0.1 * (d + d.T) / np.linalg.norm(d))
    return DensityMatrix(grid=grid, blocks=blocks)


def reference_states():
    """Real and complex states of rank n/4 + 2, an indefinite one (a direction
    of criterion 6) and a rank-one s state."""
    grid = build_grid(90, 15.0)
    rng = np.random.default_rng(31)
    v = rng.standard_normal(90)
    v /= np.linalg.norm(v)
    return [
        random_state(grid, l_max=2, seed=21, scale=0.6),
        random_state(grid, l_max=2, seed=22, scale=0.6, complex_blocks=True),
        indefinite_state(grid, 2, seed=23),
        DensityMatrix(grid=grid, blocks=[0.4 * np.outer(v, v), np.zeros((90, 90))]),
    ]


REFERENCE_IDS = ["real", "complex", "indefinite", "rank-one"]


@pytest.mark.parametrize("case", range(4), ids=REFERENCE_IDS)
def test_factored_terms_match_dense_reference(case):
    gamma = reference_states()[case]
    got = hf_energy(gamma, Z=1.5)
    expected = dense_hf_terms(gamma, 1.5)
    for name, value in zip(("kinetic", "nuclear", "direct", "exchange"), expected):
        assert abs(getattr(got, name) - value) <= 1e-12 * abs(value), name
    for block, dense in zip(mean_field_hamiltonian(gamma, Z=1.5), dense_hamiltonian(gamma, 1.5)):
        assert np.max(np.abs(block - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("case", [0, 1, 3], ids=["real", "complex", "rank-one"])
def test_brown_kosaki_terms_match_dense_reference(case):
    # the k x k spectra of the factored terms against full spectra of the
    # dense blocks, at the three cutoff radii of the audit and with no cutoff
    gamma = reference_states()[case]
    spec = make_power_entropy(2.5)
    grid = gamma.grid
    for x_diag in [_cutoff_profile(grid.r / (grid.r_max / d)) for d in (8.0, 4.0, 2.0)] + [
        np.ones(grid.n_points)
    ]:
        got = brown_kosaki_terms(gamma, spec, x_diag)
        expected = dense_brown_kosaki_terms(gamma, spec, x_diag)
        for value, reference in zip(got, expected):
            assert abs(value - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("n", [50, 400, 2000])
def test_exchange_assembly_matches_dense_kernels(n):
    # K = sum_t c_t (w_t w_t^H) * w_(L_t) from the generators, tril(p q^T, -1)
    # and its adjoint by one GEMM, against the dense kernels, for every order
    # up to L = 6 and real and complex vectors
    grid = build_grid(n, 60.0)
    cache = OperatorCache(grid, 0, Z=0.0)
    cache.kinetic_diag, cache.kinetic_off = [np.zeros(n)], 0.0  # H = -K exactly
    rng = np.random.default_rng(n)
    orders = np.arange(7)
    coefficients = rng.uniform(0.1, 1.0, 7)
    real = np.linalg.qr(rng.standard_normal((n, 7)))[0]
    for vectors in (real, real + 1j * np.linalg.qr(rng.standard_normal((n, 7)))[0]):
        field = _FactoredField(cache, np.zeros(n), [(coefficients, orders, vectors)])
        block = field.dense_block(0)
        exchange = -block
        expected = np.zeros((n, n), dtype=vectors.dtype)
        for c, L, w in zip(coefficients, orders, vectors.T):
            expected += c * np.outer(w, w.conj()) * multipole_kernel(grid, L)
        assert np.max(np.abs(exchange - expected)) <= 1e-13 * np.max(np.abs(expected))


def _random_factors(grid, ranks, seed, complex_orbitals):
    """Orthonormal orbitals and weights in [0, 1] per channel."""
    rng = np.random.default_rng(seed)
    orbitals, weights = [], []
    for k in ranks:
        raw = rng.standard_normal((grid.n_points, k))
        if complex_orbitals:
            raw = raw + 1j * rng.standard_normal(raw.shape)
        orbitals.append(np.linalg.qr(raw)[0])
        weights.append(rng.uniform(0.0, 1.0, k))
    return orbitals, weights


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    l_max=st.integers(0, 3),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    complex_orbitals=st.booleans(),
)
def test_mean_field_lies_above_the_bare_blocks(l_max, rank, seed, complex_orbitals):
    # H_l - bare_l = diag(V_H) - K_l >= 0 for every state with nu >= 0: the
    # eigensolve's block of #neg(bare_l) is large enough for every negative
    # level.  With no kinetic and no nuclear part the field's dense blocks are
    # that difference, unrounded
    grid = build_grid(30, 15.0)
    cache = OperatorCache(grid, l_max, Z=0.0)
    cache.kinetic_diag, cache.kinetic_off = [np.zeros(grid.n_points)] * (l_max + 1), 0.0
    ranks = [rank + l % 2 for l in range(l_max + 1)]
    field = _factored_field(cache, *_random_factors(grid, ranks, seed, complex_orbitals))
    for block in map(field.dense_block, range(l_max + 1)):
        assert np.linalg.eigvalsh(block)[0] >= -1e-13 * np.max(np.abs(block))


@pytest.mark.parametrize("complex_orbitals", [False, True])
@pytest.mark.parametrize("rank", [1, 4, 30])
def test_field_apply_and_shifted_solve_match_dense_blocks(rank, complex_orbitals):
    # H_l x by matvecs and (H_l - sigma)^-1 b by the Cayley steps' banded LU
    # at the shift 2i/dt, against the dense reference blocks of the same state
    # and np.linalg.solve.  Real shifts are ``_ldl_solves``'s, tested below
    grid = build_grid(70, 20.0)
    cache = OperatorCache(grid, 1, Z=1.0)
    factors = _random_factors(grid, [rank, rank], rank, complex_orbitals)
    field = _factored_field(cache, *factors)
    rng = np.random.default_rng(rank)
    rhs = rng.standard_normal((grid.n_points, 3)) + 1j * rng.standard_normal((grid.n_points, 3))
    eye = np.eye(grid.n_points)
    for l, block in enumerate(dense_hamiltonian(DensityMatrix.from_factors(grid, *factors), 1.0)):
        x = rhs.real if not complex_orbitals else rhs
        expected = block @ x
        assert np.max(np.abs(field.apply(l, x) - expected)) <= 1e-12 * np.max(np.abs(expected))
        sigma = 2j / 0.05
        expected = np.linalg.solve(block - sigma * eye, rhs)
        got = dynamics._factor(field, l, sigma).solve(rhs)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("dt", [0.05, -1.0])
@pytest.mark.parametrize("complex_orbitals", [False, True])
@pytest.mark.parametrize("rank", [1, 10, 30])
@pytest.mark.parametrize("limit", [math.inf, 0.0], ids=["banded", "dense"])
def test_both_shifted_solves_match_dense_reference(limit, rank, complex_orbitals, dt, monkeypatch):
    # the Cayley step 2 (H_l - sigma)^-1 b / a - b, a = i dt/2 and sigma = 2i/dt,
    # forced through each branch of ``dynamics._cayley_apply``, against
    # np.linalg.solve of the dense reference blocks; a real field and right
    # side at the complex shift solve complex.  The p orbitals get one
    # partner: rank + 1 and rank + 2 terms
    monkeypatch.setattr(dynamics, "_BANDED_SOLVE_LIMIT", limit)
    grid = build_grid(70, 20.0)
    cache = OperatorCache(grid, 1, Z=1.0)
    factors = _random_factors(grid, [rank, 1], rank, complex_orbitals)
    field = _factored_field(cache, *factors)
    rhs = np.random.default_rng(rank).standard_normal((grid.n_points, 3))
    a, sigma = 0.5j * dt, 2j / dt
    steps = dynamics._cayley_apply(field, dt, [rhs, rhs], [None, None], [None, None])
    blocks = dense_hamiltonian(DensityMatrix.from_factors(grid, *factors), 1.0)
    for got, block in zip(steps, blocks):
        expected = 2.0 * np.linalg.solve(block - sigma * np.eye(grid.n_points), rhs / a) - rhs
        assert np.iscomplexobj(got)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("complex_orbitals", [False, True])
@pytest.mark.parametrize("rank", [1, 4, 30])
def test_structured_ldl_counts_and_solves_match_dense_blocks(rank, complex_orbitals):
    # the block L D L^H of H_l - sigma: its inertia against the spectrum of
    # the dense reference blocks of the same state and its solve against
    # np.linalg.solve, for shifts below the spectrum, between levels, at zero
    # and above the bound levels.  Each shift is posed twice, as a count
    # problem (b None) and as a solve problem; the two channels carry different
    # numbers of terms and run as one batch, on a grid that is no multiple of
    # the block size
    grid = build_grid(70, 20.0)
    cache = OperatorCache(grid, 1, Z=1.0)
    factors = _random_factors(grid, [rank, rank + 1], rank, complex_orbitals)
    field = _factored_field(cache, *factors)
    assert grid.n_points % _LDL_BLOCK != 0
    assert len(field.terms[0][0]) != len(field.terms[1][0])
    rng = np.random.default_rng(rank)
    problems, expected = [], []
    for l, block in enumerate(dense_hamiltonian(DensityMatrix.from_factors(grid, *factors), 1.0)):
        levels = np.linalg.eigvalsh(block)
        between = [0.5 * (levels[j] + levels[j + 1]) for j in (0, 4)]
        for sigma in (levels[0] - 1.0, between[0], 0.0, between[1]):
            rhs = rng.standard_normal(grid.n_points)
            if complex_orbitals:
                rhs = rhs + 1j * rng.standard_normal(grid.n_points)
            problems += [(field, l, sigma, None), (field, l, sigma, rhs)]
            expected += [
                int(np.sum(levels < sigma)),
                np.linalg.solve(block - sigma * np.eye(grid.n_points), rhs),
            ]
    for got, want in zip(_ldl_solves(problems), expected, strict=True):
        if isinstance(want, int):
            assert got == want
        else:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_operator_cache_holds_no_dense_array():
    # the kernels act through generators and tridiagonal inverses: nothing of
    # n^2 entries is held, also after the lazily built parts
    n = 60
    cache = OperatorCache(build_grid(n, 10.0), 2, Z=1.0)
    cache.bare_spectrum, cache.kernel_inverses

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dict):
            for item in value.values():
                yield from arrays(item)

    held = [a for value in vars(cache).values() for a in arrays(value)]
    assert held and all(a.size < n * n for a in held)
