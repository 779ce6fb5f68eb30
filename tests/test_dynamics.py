import math

import numpy as np
import pytest

from fermitherm.dynamics import (
    StepSizeError,
    evolve,
    hspace_distance,
    stability_experiment,
)
import dense_reference
from fermitherm import dynamics
from fermitherm import energy as energy_module
from fermitherm import grid as grid_module
from fermitherm.energy import OperatorCache, _entropy_of_occupations
from fermitherm.entropy import make_power_entropy
from fermitherm.grid import DensityMatrix, build_grid, kinetic_matrix, zero_density_matrix
from fermitherm.scf import ScfConfig, scf_minimize

SPEC = make_power_entropy(2.0)


@pytest.fixture(scope="module")
def minimizer():
    cfg = ScfConfig(
        spec=SPEC,
        Z=1.0,
        T=1.0,
        q=0.1,
        n_points=120,
        r_max=30.0,
        l_max=1,
        tol_gamma=1e-11,
        tol_energy=1e-12,
        max_iter=400,
    )
    res = scf_minimize(cfg)
    assert res.converged
    return res


def one_step(gamma, dt, Z, inner_iterations=3, propagator="expm"):
    """The state after one evolve step, by default with the exact exponential."""
    samples = evolve(gamma, SPEC, Z, dt, 1, inner_iterations=inner_iterations,
                     propagator=propagator, keep_gamma=True)
    return samples[-1].gamma


def perturbed(minimizer, eta=0.05, seed=3):
    rng = np.random.default_rng(seed)
    blocks = []
    for b in minimizer.gamma.blocks:
        n = b.shape[0]
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = 0.5 * (raw + raw.conj().T)
        herm /= np.linalg.norm(herm)
        w, v = np.linalg.eigh(herm)
        u = (v * np.exp(-1j * eta * w)) @ v.conj().T
        blocks.append(u @ b @ u.conj().T)
    return DensityMatrix(grid=minimizer.gamma.grid, blocks=blocks)


def test_propagate_zero_state_stays_zero():
    from fermitherm.grid import build_grid

    gamma = zero_density_matrix(build_grid(40, 10.0), 1)
    out = one_step(gamma, 0.1, Z=1.0)
    assert all(np.all(b == 0.0) for b in out.blocks)


def test_propagator_backends_agree(minimizer):
    gamma0 = perturbed(minimizer)
    a = one_step(gamma0, 1e-3, 1.0, propagator="expm")
    b = one_step(gamma0, 1e-3, 1.0, propagator="cayley")
    # same order-2 scheme, unitaries differ at O(dt^3) per application
    diff = max(np.max(np.abs(x - y)) for x, y in zip(a.blocks, b.blocks))
    assert diff < 1e-9


def test_spectrum_preserved_exactly(minimizer):
    gamma0 = perturbed(minimizer)
    out = one_step(gamma0, 0.05, 1.0)
    for b0, b1 in zip(gamma0.blocks, out.blocks):
        w0 = np.sort(np.linalg.eigvalsh(b0))
        w1 = np.sort(np.linalg.eigvalsh(b1))
        assert np.max(np.abs(w0 - w1)) < 1e-12


def test_time_reversal(minimizer):
    gamma0 = perturbed(minimizer)
    forward = one_step(gamma0, 0.05, 1.0)
    back = one_step(forward, -0.05, 1.0)
    diff = max(np.max(np.abs(x - y)) for x, y in zip(gamma0.blocks, back.blocks))
    assert diff < 1e-9


def test_minimizer_is_fixed_point(minimizer):
    # commutator smallness at convergence
    from fermitherm.energy import mean_field_hamiltonian

    ham = mean_field_hamiltonian(minimizer.gamma, 1.0)
    for h, b in zip(ham.blocks, minimizer.gamma.blocks):
        comm = h @ b - b @ h
        assert np.linalg.norm(comm) <= 10.0 * 1e-9


def test_evolve_conserves_trace_and_entropy(minimizer):
    gamma0 = perturbed(minimizer)
    samples = evolve(gamma0, SPEC, 1.0, dt=0.02, n_steps=300, sample_stride=30)
    traces = [s.trace for s in samples]
    entropies = [s.entropy_trace for s in samples]
    assert max(traces) - min(traces) < 1e-11
    assert max(entropies) - min(entropies) < 1e-11


def strongly_interacting_state(n=100, r_max=15.0, seed=7, scale=0.6, rank=10):
    # near a minimizer the drift signal drowns in roundoff (the scheme is
    # symmetric), so order measurements need a strongly coupled state
    from fermitherm.grid import build_grid

    grid = build_grid(n, r_max)
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(2):
        a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        b = a @ a.conj().T
        b *= scale / np.linalg.eigvalsh(b)[-1]
        blocks.append(b)
    return DensityMatrix(grid=grid, blocks=blocks)


def test_evolve_energy_drift_second_order():
    gamma0 = strongly_interacting_state()

    def drift(dt):
        steps = int(round(0.5 / dt))
        samples = evolve(gamma0, SPEC, 2.0, dt=dt, n_steps=steps, sample_stride=1)
        e0 = samples[0].hf_energy
        return max(abs(s.hf_energy - e0) for s in samples)

    order = math.log2(drift(0.01) / drift(0.005))
    assert 1.7 <= order <= 2.3


def test_evolve_stationary_state_stays(minimizer):
    samples = evolve(
        minimizer.gamma,
        SPEC,
        1.0,
        dt=0.01,
        n_steps=150,
        reference=minimizer.gamma,
        sample_stride=25,
    )
    assert max(s.dist_to_reference for s in samples) <= 1e-8


def test_evolve_samples_a_slightly_negative_weight(minimizer):
    # a stored state passes validation with eigenvalues down to -1e-10; the
    # signed factor weight it gets must not turn the samples into NaN
    gamma = minimizer.gamma
    edge = np.zeros(gamma.grid.n_points)
    edge[-1] = 1.0
    state = DensityMatrix(
        grid=gamma.grid, blocks=[gamma.blocks[0] - 1e-12 * np.outer(edge, edge), gamma.blocks[1]]
    )
    state.validate()
    for s in evolve(state, SPEC, 1.0, dt=0.01, n_steps=2):
        assert abs(s.trace - state.trace()) <= 1e-14
        assert math.isfinite(s.entropy_trace) and math.isfinite(s.hf_energy)


def test_evolve_keep_gamma_flag(minimizer):
    samples = evolve(
        minimizer.gamma, SPEC, 1.0, dt=0.01, n_steps=4, sample_stride=2, keep_gamma=True
    )
    assert all(s.gamma is not None for s in samples)
    samples = evolve(
        minimizer.gamma, SPEC, 1.0, dt=0.01, n_steps=4, sample_stride=2
    )
    assert all(s.gamma is None for s in samples)


def test_stability_eta_zero(minimizer):
    res = stability_experiment(
        minimizer, SPEC, 1.0, eta=0.0, horizon=1.0, dt=0.02, seed=5
    )
    assert res.sup_dist <= 1e-8


def test_stability_scales_linearly(minimizer):
    small = stability_experiment(
        minimizer, SPEC, 1.0, eta=1e-3, horizon=2.0, dt=0.02, seed=5
    )
    large = stability_experiment(
        minimizer, SPEC, 1.0, eta=1e-2, horizon=2.0, dt=0.02, seed=5
    )
    assert math.isfinite(large.sup_dist)
    ratio = large.sup_dist / small.sup_dist
    assert 5.0 <= ratio <= 20.0


def test_stability_refuses_unconverged(minimizer):
    from fermitherm.scf import ScfResult

    broken = ScfResult(
        gamma=minimizer.gamma,
        mu=minimizer.mu,
        energy=minimizer.energy,
        residual=minimizer.residual,
        iterations=minimizer.iterations,
        converged=False,
        status="max_iter",
    )
    with pytest.raises(ValueError):
        stability_experiment(broken, SPEC, 1.0, eta=1e-3, horizon=1.0, dt=0.02)


def test_hspace_distance_zero_for_identical(minimizer):
    assert hspace_distance(minimizer.gamma, minimizer.gamma) == 0.0


def test_evolve_rejects_unknown_propagator(minimizer):
    with pytest.raises(ValueError):
        evolve(minimizer.gamma, SPEC, 1.0, dt=0.01, n_steps=1, propagator="magnus")


@pytest.mark.parametrize(
    "controls",
    [dict(dt=0.0), dict(sample_stride=0), dict(inner_iterations=0)],
    ids=["dt0", "stride0", "inner0"],
)
def test_evolve_rejects_bad_step_controls(minimizer, controls):
    # refused up front, not as a ZeroDivisionError or a step that does nothing
    step = {"dt": 0.01, **controls}
    with pytest.raises(ValueError):
        evolve(minimizer.gamma, SPEC, 1.0, n_steps=1, **step)
    with pytest.raises(ValueError):
        stability_experiment(minimizer, SPEC, 1.0, eta=1e-3, horizon=1.0, **step)


def test_step_size_error_on_wild_dt():
    # dense charge in a tiny box: the midpoint iteration cannot contract
    # at dt = 5 and the growing field update is reported
    from fermitherm.grid import build_grid

    grid = build_grid(50, 1.0)
    rng = np.random.default_rng(0)
    blocks = []
    for _ in range(2):
        a = rng.standard_normal((50, 30)) + 1j * rng.standard_normal((50, 30))
        b = a @ a.conj().T
        b *= 0.9 / np.linalg.eigvalsh(b)[-1]
        blocks.append(b)
    gamma0 = DensityMatrix(grid=grid, blocks=blocks)
    with pytest.raises(StepSizeError):
        one_step(gamma0, 5.0, 1.0, inner_iterations=6)


def dense_hspace_distance(gamma_a, gamma_b):
    """The dense reference: n x n trace norms of delta and T^1/2 delta T^1/2."""

    def trace_norm(block):
        return float(np.sum(np.abs(np.linalg.eigvalsh(block))))

    total = 0.0
    for l, (ba, bb) in enumerate(zip(gamma_a.blocks, gamma_b.blocks)):
        w, v = np.linalg.eigh(kinetic_matrix(gamma_a.grid, l))
        root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
        delta = ba - bb
        total += (2 * l + 1) * (trace_norm(delta) + trace_norm(root @ delta @ root))
    return total


def test_hspace_distance_matches_dense_reference(minimizer):
    gamma = minimizer.gamma
    zero = zero_density_matrix(gamma.grid, gamma.l_max)
    pairs = [(perturbed(minimizer), gamma), (gamma, zero), (perturbed(minimizer, 0.5, 9), zero)]
    for a, b in pairs:
        dense = dense_hspace_distance(a, b)
        assert dense > 0.0
        assert abs(hspace_distance(a, b) - dense) <= 1e-9 * dense
    assert hspace_distance(zero, zero) == 0.0


def test_evolve_refuses_reference_on_other_discretization(minimizer):
    gamma = minimizer.gamma
    others = [
        zero_density_matrix(build_grid(gamma.grid.n_points, 2.0 * gamma.grid.r_max), gamma.l_max),
        zero_density_matrix(gamma.grid, gamma.l_max + 1),
    ]
    for other in others:
        with pytest.raises(ValueError, match="discretization"):
            evolve(gamma, SPEC, 1.0, dt=0.01, n_steps=1, reference=other)


def test_sampled_entropy_matches_dense_spectrum(minimizer):
    # the Gram spectrum of the factors against eigvalsh of the materialized
    # blocks, across a Loewdin pass (every 200 steps)
    samples = evolve(perturbed(minimizer, eta=0.3), SPEC, 1.0, dt=0.02, n_steps=220,
                     sample_stride=55, keep_gamma=True)
    for s in samples:
        dense = _entropy_of_occupations([np.linalg.eigvalsh(b) for b in s.gamma.blocks], SPEC)
        assert abs(s.entropy_trace - dense) <= 1e-14


@pytest.mark.parametrize("propagator", ["cayley", "expm"])
def test_stability_kick_matches_dense_kick(minimizer, propagator):
    # the kick on the orbitals against evolving the densely kicked state
    eta, seed, dt, horizon = 1e-2, 5, 0.02, 0.4
    res = stability_experiment(minimizer, SPEC, 1.0, eta=eta, horizon=horizon, dt=dt,
                               seed=seed, propagator=propagator)
    dense = evolve(perturbed(minimizer, eta, seed), SPEC, 1.0, dt, round(horizon / dt),
                   reference=minimizer.gamma, sample_stride=10, propagator=propagator)
    assert len(res.samples) == len(dense) == 3
    for a, b in zip(res.samples, dense):
        assert a.t == b.t
        for field in ("trace", "hf_energy", "entropy_trace", "dist_to_reference"):
            assert abs(getattr(a, field) - getattr(b, field)) <= 1e-12, field


def test_stability_runs_no_dense_eigensolve_after_setup(minimizer, monkeypatch):
    # n x n eigensolves: one kick direction per channel (the minimizer keeps
    # the factors of its solve); samples, distance and Loewdin work on k x k
    # matrices
    n = minimizer.gamma.grid.n_points
    calls = []

    def counting(fn):
        def wrapped(a, *args, **kwargs):
            if np.shape(a) == (n, n):
                calls.append(fn.__name__)
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    res = stability_experiment(minimizer, SPEC, 1.0, eta=1e-3, horizon=0.4, dt=0.02,
                               sample_stride=5, propagator="cayley")
    assert len(res.samples) == 5
    assert calls == ["eigh"] * (minimizer.gamma.l_max + 1)


@pytest.mark.parametrize("horizon", [0.0, -5.0, 0.004, math.nan, math.inf])
def test_stability_rejects_horizon_without_steps(minimizer, horizon):
    with pytest.raises(ValueError, match="horizon"):
        stability_experiment(minimizer, SPEC, 1.0, eta=1e-3, horizon=horizon, dt=0.01)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_stability_refuses_non_finite_eta(minimizer, eta):
    with pytest.raises(ValueError, match="eta"):
        stability_experiment(minimizer, SPEC, 1.0, eta=eta, horizon=1.0, dt=0.02)


@pytest.mark.parametrize(
    "n, r_max, rank", [(200, 0.5, 2), (50, 1.0, 30)], ids=["rank2", "rank30"]
)
def test_converged_midpoint_iteration_does_not_raise(n, r_max, rank):
    # the midpoint iteration contracts to roundoff at dt = 1; roundoff that
    # wobbles below the divergence floor is not a divergence
    gamma0 = strongly_interacting_state(n, r_max, seed=0, scale=0.9, rank=rank)
    samples = evolve(gamma0, SPEC, 1.0, dt=1.0, n_steps=1, inner_iterations=6,
                     propagator="cayley")
    assert abs(samples[-1].trace - samples[0].trace) <= 1e-12


def test_step_size_error_on_growing_orbital_update():
    gamma0 = strongly_interacting_state(100, 1.0, seed=0, scale=0.9, rank=3)
    with pytest.raises(StepSizeError, match="diverging"):
        one_step(gamma0, 5.0, 1.0, inner_iterations=6)


def random_factors(grid, ranks, seed):
    """Orthonormal complex orbitals and occupations in (0.05, 0.5) per channel."""
    rng = np.random.default_rng(seed)
    n = grid.n_points
    orbitals, occupations = [], []
    for k in ranks:
        raw = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        orbitals.append(np.linalg.qr(raw)[0])
        occupations.append(rng.uniform(0.05, 0.5, k))
    return orbitals, occupations


def factor_cases():
    """(grid, orbitals, occupations): rank 2/1, a midpoint of rank 4/2
    ([W_a, W_b] with halved weights), l_max = 2 (multipoles up to L = 4), and
    rank 6/6 (a wide band: 12 and 18 exchange terms)."""
    grid = build_grid(120, 30.0)
    w_a, nu = random_factors(grid, (2, 1), 1)
    w_b, _ = random_factors(grid, (2, 1), 2)
    midpoint = ([np.hstack([a, b]) for a, b in zip(w_a, w_b)],
                [0.5 * np.concatenate([o, o]) for o in nu])
    grid2 = build_grid(80, 20.0)
    grid3 = build_grid(40, 10.0)
    return [(grid, w_a, nu), (grid, *midpoint), (grid2, *random_factors(grid2, (2, 1, 1), 3)),
            (grid3, *random_factors(grid3, (6, 6), 4))]


FACTOR_CASE_IDS = ["rank2-1", "midpoint4-2", "lmax2", "rank6-6"]


def factored_field_apply(field, l, x):
    """H_l x from the factored field: tridiagonal T_l, diagonal potential, and
    w (J_L^-1 (conj(w) x)) per exchange term by a tridiagonal solve."""
    from scipy.linalg import solve_banded

    cache = field.cache
    out = (cache.kinetic_diag[l] + field.v_local)[:, None] * x
    out[1:] += cache.kinetic_off * x[:-1]
    out[:-1] += cache.kinetic_off * x[1:]
    kernel_diag, kernel_off = cache.kernel_inverses
    for c, L, w in zip(*field.terms[l][:2], field.terms[l][2].T):
        off = kernel_off[L]
        band = np.vstack([np.append(0.0, off), kernel_diag[L], np.append(off, 0.0)])
        out -= c * w[:, None] * solve_banded((1, 1), band, np.conj(w)[:, None] * x)
    return out


def dense_hamiltonian(grid, orbitals, occupations, Z):
    cache = OperatorCache(grid, len(orbitals) - 1, Z)
    gamma = DensityMatrix.from_factors(grid, orbitals, occupations)
    return cache, dense_reference.dense_hamiltonian(gamma, Z)


@pytest.mark.parametrize("case", range(4), ids=FACTOR_CASE_IDS)
def test_factored_field_matches_dense_hamiltonian(case):
    grid, orbitals, occupations = factor_cases()[case]
    cache, h_blocks = dense_hamiltonian(grid, orbitals, occupations, 2.0)
    field = dynamics._factored_field(cache, orbitals, occupations)
    x = np.random.default_rng(case).standard_normal((grid.n_points, 3)) + 0j
    for l, h_block in enumerate(h_blocks):
        expected = h_block @ x
        err = np.max(np.abs(factored_field_apply(field, l, x) - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dt", [0.05, -1.0])
@pytest.mark.parametrize("case", range(4), ids=FACTOR_CASE_IDS)
def test_banded_cayley_matches_dense_solve(case, dt):
    grid, orbitals, occupations = factor_cases()[case]
    cache, h_blocks = dense_hamiltonian(grid, orbitals, occupations, 2.0)
    field = dynamics._factored_field(cache, orbitals, occupations)
    thins = random_factors(grid, [2] * len(orbitals), 10 + case)[0]
    banded = dynamics._cayley_apply(field, dt, thins)
    for h_block, thin, got in zip(h_blocks, thins, banded):
        step = 0.5j * dt * h_block
        eye = np.eye(grid.n_points)
        expected = np.linalg.solve(eye + step, thin - step @ thin)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_stability_cayley_builds_no_dense_mean_field(minimizer, monkeypatch):
    # the rank-2/1 minimizer steps and is sampled on its factors: no dense
    # mean field, no dense state and no factorization of one
    names = ("mean_field_hamiltonian", "dense_blocks", "_materialize", "_factor_blocks")
    calls = dict.fromkeys(names, 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    counting(energy_module, "mean_field_hamiltonian")
    counting(energy_module._FactoredField, "dense_blocks")
    counting(grid_module, "_materialize")
    counting(grid_module, "_factor_blocks")
    res = stability_experiment(minimizer, SPEC, 1.0, eta=1e-3, horizon=0.4, dt=0.02,
                               sample_stride=5, propagator="cayley")
    assert len(res.samples) == 5
    assert calls == dict.fromkeys(names, 0)


@pytest.mark.parametrize("case", range(4), ids=FACTOR_CASE_IDS)
def test_sample_energy_matches_dense_reference(case):
    # the sampled energy and trace from the factors against the dense
    # contractions of the materialized state; the real case is the first one
    # with real orbitals
    grid, orbitals, occupations = factor_cases()[case]
    if case == 0:
        orbitals = [np.linalg.qr(np.real(w))[0] for w in orbitals]
    cache = OperatorCache(grid, len(orbitals) - 1, 2.0)
    sample = dynamics._sample(0.0, (orbitals, occupations), SPEC, cache, None, True)
    kin, nuc, direct, exch = dense_reference.dense_hf_terms(sample.gamma, 2.0)
    expected = kin + nuc + direct - exch
    scale = abs(kin) + abs(nuc) + abs(direct) + abs(exch)
    assert abs(sample.hf_energy - expected) <= 1e-12 * scale
    dense_trace = dense_reference.dense_trace(sample.gamma)
    assert abs(sample.trace - dense_trace) <= 1e-14 * dense_trace
