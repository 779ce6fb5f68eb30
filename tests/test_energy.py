import numpy as np
import pytest

from dense_reference import dense_brown_kosaki_terms, dense_hamiltonian, dense_hf_terms
from fermitherm.energy import (
    GridMismatchError,
    OperatorCache,
    _FactoredField,
    _cutoff_profile,
    _hf_terms,
    brown_kosaki_terms,
    free_energy,
    hf_energy,
    inequality_audit,
    linear_free_energy,
    mean_field_hamiltonian,
)
from fermitherm.entropy import make_power_entropy
from fermitherm.grid import (
    DensityMatrix,
    build_grid,
    dilate,
    kinetic_matrix,
    multipole_kernel,
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
    assert linear_free_energy(zero_density_matrix(grid, 0), spec, 1.0, 1.0) == 0.0
    eps, orbs = bare_orbitals(grid, Z=1.0)
    phi = orbs[:, 0]
    nu_grid = np.linspace(0.0, 1.0, 41)
    values = []
    for nu in nu_grid:
        gamma = DensityMatrix(grid=grid, blocks=[nu * np.outer(phi, phi)])
        got = linear_free_energy(gamma, spec, 1.0, 1.0)
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
        assert np.max(np.abs(ham.blocks[l] - bare)) == 0.0


def test_mean_field_is_exact_gradient():
    grid = build_grid(60, 10.0)
    rng = np.random.default_rng(17)
    gamma = random_state(grid, l_max=2, seed=3, scale=0.4)
    cache = OperatorCache(grid, 2, Z=1.0)
    ham = mean_field_hamiltonian(gamma, Z=1.0, cache=cache)
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
        fd = (
            hf_energy(plus, 1.0, cache).total_hf
            - hf_energy(minus, 1.0, cache).total_hf
        ) / (2.0 * step)
        analytic = sum(
            (2 * l + 1) * float(np.einsum("ij,ji->", ham.blocks[l], direction[l]))
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
            assert v @ ham.blocks[l] @ v >= v @ bare @ v - 1e-9


def test_mean_field_lowest_eigenvalue_above_bare():
    grid = build_grid(80, 14.0)
    gamma = random_state(grid, l_max=0, seed=29, scale=0.6)
    ham = mean_field_hamiltonian(gamma, Z=1.0)
    bare = kinetic_matrix(grid, 0) + np.diag(nuclear_potential(grid, 1.0))
    assert (
        np.linalg.eigvalsh(ham.blocks[0])[0]
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
        report = inequality_audit(gamma, spec, Z=1.0, T=1.0)
        assert report.all_pass, [c for c in report.checks if not c.passed]


def test_inequality_audit_zero_state():
    grid = build_grid(40, 8.0)
    spec = make_power_entropy(2.0)
    report = inequality_audit(zero_density_matrix(grid, 1), spec, Z=1.0, T=1.0)
    assert report.all_pass
    assert report.by_name("exchange_le_direct").lhs == 0.0


def test_brown_kosaki_identity_cutoff():
    grid = build_grid(50, 10.0)
    spec = make_power_entropy(2.0)
    gamma = random_state(grid, l_max=1, seed=7, scale=0.9)
    lhs, rhs = brown_kosaki_terms(gamma, spec, np.ones(50))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_grid_mismatch_raises():
    grid_a = build_grid(30, 6.0)
    grid_b = build_grid(40, 6.0)
    cache = OperatorCache(grid_b, 1, Z=1.0)
    gamma = zero_density_matrix(grid_a, 1)
    with pytest.raises(GridMismatchError):
        hf_energy(gamma, Z=1.0, cache=cache)


def test_hardy_diagnostic_reports_without_asserting():
    from fermitherm.energy import hardy_positivity_diagnostic

    # continuum operator is nonnegative; the discrete value is educational
    # output only, so the test merely checks it is a finite number
    val = hardy_positivity_diagnostic(build_grid(120, 12.0))
    assert np.isfinite(val)


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
    for block, dense in zip(mean_field_hamiltonian(gamma, Z=1.5).blocks, dense_hamiltonian(gamma, 1.5)):
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
    # K = sum_t c_t (w_t w_t^H) * w_(L_t) by one triu GEMM, against the dense
    # kernels, for every order up to L = 6 and real and complex vectors
    grid = build_grid(n, 60.0)
    cache = OperatorCache(grid, 0, Z=0.0)
    cache.kinetic_diag, cache.kinetic_off = [np.zeros(n)], 0.0  # H = -K exactly
    rng = np.random.default_rng(n)
    orders = np.arange(7)
    coefficients = rng.uniform(0.1, 1.0, 7)
    real = np.linalg.qr(rng.standard_normal((n, 7)))[0]
    for vectors in (real, real + 1j * np.linalg.qr(rng.standard_normal((n, 7)))[0]):
        field = _FactoredField(cache, np.zeros(n), [(coefficients, orders, vectors)])
        (block,) = field.dense_blocks()
        exchange = -block
        expected = np.zeros((n, n), dtype=vectors.dtype)
        for c, L, w in zip(coefficients, orders, vectors.T):
            expected += c * np.outer(w, w.conj()) * multipole_kernel(grid, L)
        assert np.max(np.abs(exchange - expected)) <= 1e-13 * np.max(np.abs(expected))


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
