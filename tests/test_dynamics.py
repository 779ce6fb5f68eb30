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
from fermitherm.energy import OperatorCache, _entropy_of_blocks
from fermitherm.entropy import make_power_entropy
from fermitherm.grid import DensityMatrix, build_grid, zero_density_matrix
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


@pytest.fixture(scope="module")
def criterion_11_minimizer():
    # the minimizer criterion 11 kicks: rank 2/1 on n = 400 points
    cfg = ScfConfig(spec=SPEC, Z=1.0, T=1.0, q=0.1, n_points=400, r_max=40.0, l_max=1,
                    tol_gamma=1e-11, tol_energy=1e-12, max_iter=500)
    res = scf_minimize(cfg)
    assert res.converged
    return res


def one_step(gamma, dt, Z, inner_iterations=3):
    """The state after one evolve step."""
    samples = evolve(gamma, SPEC, Z, dt, 1, inner_iterations=inner_iterations, keep_gamma=True)
    return samples[-1].gamma


def dense_kicks(minimizer, eta, seed):
    """Per channel the unitary exp(-i eta A_l) by a dense eigh, A_l drawn as
    ``stability_experiment`` draws it."""
    rng = np.random.default_rng(seed)
    unitaries = []
    for b in minimizer.gamma.blocks:
        n = b.shape[0]
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = 0.5 * (raw + raw.conj().T)
        herm /= np.linalg.norm(herm)
        w, v = np.linalg.eigh(herm)
        unitaries.append((v * np.exp(-1j * eta * w)) @ v.conj().T)
    return unitaries


def perturbed(minimizer, eta=0.05, seed=3):
    blocks = [u @ b @ u.conj().T
              for u, b in zip(dense_kicks(minimizer, eta, seed), minimizer.gamma.blocks)]
    return DensityMatrix(grid=minimizer.gamma.grid, blocks=blocks)


def test_propagate_zero_state_stays_zero():
    from fermitherm.grid import build_grid

    gamma = zero_density_matrix(build_grid(40, 10.0), 1)
    out = one_step(gamma, 0.1, Z=1.0)
    assert all(np.all(b == 0.0) for b in out.blocks)


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
    for h, b in zip(ham, minimizer.gamma.blocks):
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
    # a random rank-``rank`` state with top weight ``scale`` per channel, far
    # from any minimizer, so the mean field moves it strongly (criterion 10
    # measures the drift order on the default one)
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


def test_stability_rejects_unknown_propagator(minimizer):
    for propagator in ("magnus", "expm"):
        with pytest.raises(ValueError, match="propagator"):
            stability_experiment(minimizer, SPEC, 1.0, eta=1e-3, horizon=1.0, dt=0.02,
                                 propagator=propagator)


@pytest.mark.parametrize("n_steps", [-3, 2.5])
def test_evolve_rejects_bad_step_count(minimizer, n_steps):
    # not one t = 0 sample for a negative count, nor a TypeError from range
    with pytest.raises(ValueError, match="n_steps"):
        evolve(minimizer.gamma, SPEC, 1.0, dt=0.01, n_steps=n_steps)


@pytest.mark.parametrize(
    "controls",
    [dict(dt=0.0), dict(sample_stride=0), dict(inner_iterations=0), dict(sample_stride=2.5),
     dict(sample_stride=math.nan), dict(inner_iterations=2.5)],
    ids=["dt0", "stride0", "inner0", "stride2.5", "stride-nan", "inner2.5"],
)
def test_evolve_rejects_bad_step_controls(minimizer, controls):
    # refused up front, not as a ZeroDivisionError, a TypeError, a step that
    # does nothing or samples at a stride other than the one asked for
    step = {"dt": 0.01, **controls}
    with pytest.raises(ValueError):
        evolve(minimizer.gamma, SPEC, 1.0, n_steps=1, **step)
    with pytest.raises(ValueError):
        stability_experiment(minimizer, SPEC, 1.0, eta=1e-3, horizon=1.0, **step)


def test_step_size_error_on_wild_dt():
    # a nearly neutral charge (trace ~11 against Z = 10) on an 8-point grid:
    # the Cayley midpoint iteration cannot contract at dt = 1e4 (its orbital
    # update doubles) and the growing update is reported
    gamma0 = strongly_interacting_state(8, 100.0, seed=0, scale=1.0, rank=7)
    with pytest.raises(StepSizeError):
        one_step(gamma0, 1e4, 10.0, inner_iterations=6)


def dense_hspace_distance(gamma_a, gamma_b):
    """The dense reference: n x n trace norms of delta and T^1/2 delta T^1/2."""

    def trace_norm(block):
        return float(np.sum(np.abs(np.linalg.eigvalsh(block))))

    total = 0.0
    for l, (ba, bb) in enumerate(zip(gamma_a.blocks, gamma_b.blocks)):
        w, v = np.linalg.eigh(dense_reference.kinetic_matrix(gamma_a.grid, l))
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
        with pytest.raises(ValueError, match="discretization"):
            hspace_distance(gamma, other)


def test_sampled_entropy_matches_dense_spectrum(minimizer):
    # the Gram spectrum of the factors against eigvalsh of the materialized
    # blocks, across a Loewdin pass (every 200 steps)
    samples = evolve(perturbed(minimizer, eta=0.3), SPEC, 1.0, dt=0.02, n_steps=220,
                     sample_stride=55, keep_gamma=True)
    for s in samples:
        dense = _entropy_of_blocks([np.linalg.eigvalsh(b) for b in s.gamma.blocks], SPEC)
        assert abs(s.entropy_trace - dense) <= 1e-14


def test_stability_kick_matches_dense_kick(minimizer):
    # the kick on the orbitals against evolving the densely kicked state
    eta, seed, dt, horizon = 1e-2, 5, 0.02, 0.4
    res = stability_experiment(minimizer, SPEC, 1.0, eta=eta, horizon=horizon, dt=dt, seed=seed)
    dense = evolve(perturbed(minimizer, eta, seed), SPEC, 1.0, dt, round(horizon / dt),
                   reference=minimizer.gamma, sample_stride=10)
    assert len(res.samples) == len(dense) == 3
    for a, b in zip(res.samples, dense):
        assert a.t == b.t
        for field in ("trace", "hf_energy", "entropy_trace", "dist_to_reference"):
            assert abs(getattr(a, field) - getattr(b, field)) <= 1e-12, field


@pytest.mark.parametrize(
    "eta, tol", [(1e-3, 1e-14), (1e-2, 1e-14), (0.1, 1e-14), (1.0, 1e-14), (10.0, 1e-13)]
)
def test_taylor_kick_matches_dense_kick(minimizer, monkeypatch, eta, tol):
    # the kicked orbitals stability_experiment evolves against the dense eigh
    # kick of the same draws, past |eta| = 1 where the kick takes scaled steps
    started = []

    def recording(gamma0, *args, **kwargs):
        started.append(gamma0)
        return evolve(gamma0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve", recording)
    stability_experiment(minimizer, SPEC, 1.0, eta=eta, horizon=0.02, dt=0.02, seed=5)
    kicked, weights = started[0].factors
    orbitals, want_weights = minimizer.gamma.factors
    for got, u, w_ref in zip(kicked, dense_kicks(minimizer, eta, seed=5), orbitals):
        assert np.max(np.abs(got - u @ w_ref)) <= tol
    assert all(np.array_equal(a, b) for a, b in zip(weights, want_weights))


def test_stability_runs_no_dense_eigensolve_after_setup(minimizer, monkeypatch):
    # no n x n eigensolve: the kick is a Taylor series on the orbitals (the
    # minimizer keeps the factors of its solve); samples, distance and
    # Loewdin work on k x k matrices
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
                               sample_stride=5)
    assert len(res.samples) == 5
    assert calls == []


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
    samples = evolve(gamma0, SPEC, 1.0, dt=1.0, n_steps=1, inner_iterations=6)
    assert abs(samples[-1].trace - samples[0].trace) <= 1e-12


def test_step_size_error_on_growing_orbital_update():
    # trace ~14.7 against Z = 16 on a 12-point grid, dt = 1000
    gamma0 = strongly_interacting_state(12, 100.0, seed=0, scale=1.0, rank=11)
    with pytest.raises(StepSizeError, match="diverging"):
        one_step(gamma0, 1000.0, 16.0, inner_iterations=6)


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
def test_banded_cayley_matches_dense_solve(case, dt, monkeypatch):
    monkeypatch.setattr(dynamics, "_BANDED_SOLVE_LIMIT", math.inf)  # every channel banded
    grid, orbitals, occupations = factor_cases()[case]
    cache, h_blocks = dense_hamiltonian(grid, orbitals, occupations, 2.0)
    field = dynamics._factored_field(cache, orbitals, occupations)
    thins = random_factors(grid, [2] * len(orbitals), 10 + case)[0]
    banded = dynamics._cayley_apply(field, dt, thins, [None] * len(thins), [None] * len(thins))
    for h_block, thin, got in zip(h_blocks, thins, banded):
        step = 0.5j * dt * h_block
        eye = np.eye(grid.n_points)
        expected = np.linalg.solve(eye + step, thin - step @ thin)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_cayley_solves_agree_on_one_field(minimizer, monkeypatch):
    # the field of a kicked minimizer forced through the banded and
    # the dense solve of every channel
    orbitals, occupations = perturbed(minimizer).factors
    field = dynamics._factored_field(OperatorCache(minimizer.gamma.grid, 1, 1.0),
                                     orbitals, occupations)
    steps = []
    for limit in (math.inf, 0.0):
        monkeypatch.setattr(dynamics, "_BANDED_SOLVE_LIMIT", limit)
        steps.append(dynamics._cayley_apply(field, 0.05, orbitals, [None] * 2, [None] * 2))
    for banded, dense in zip(*steps):
        assert np.max(np.abs(banded - dense)) <= 1e-12


def compact_state(grid, l_max):
    """A fully occupied 1s-like orbital r e^(-r/2) in every channel."""
    orbital = grid.r * np.exp(-grid.r / 2.0)
    orbital = (orbital / np.linalg.norm(orbital))[:, None]
    return [orbital] * (l_max + 1), [np.ones(1)] * (l_max + 1)


@pytest.mark.parametrize("complex_orbitals", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("rank", [1, 4, 10, 30])
def test_refined_solves_match_dense_reference(rank, complex_orbitals, monkeypatch):
    # (H_l - 2i/dt)^-1 b refined on the kept factor of a start state's field,
    # cold and from a warm start, against np.linalg.solve of the dense
    # reference blocks of two other states: the start state one step of 0.01
    # on, which the kept factor serves (its sweeps contract by about 2e-4 at
    # rank 30), and a compact, fully occupied orbital, against
    # whose field the sweeps contract by less than the refactor ratio, so the
    # channel falls back, from a cold start or a warm one, to a new kept
    # factor of that field, which a second solve of the same field keeps
    monkeypatch.setattr(dynamics, "_BANDED_SOLVE_LIMIT", math.inf)  # every channel banded
    grid, dt = build_grid(70, 20.0), 0.05
    sigma = 2j / dt
    orbitals, occupations = random_factors(grid, [rank, rank], rank)
    if not complex_orbitals:
        orbitals = [np.linalg.qr(w.real)[0] for w in orbitals]
    stepped = one_step(DensityMatrix.from_factors(grid, orbitals, occupations), 0.01, 1.0).factors
    cache = OperatorCache(grid, 1, 1.0)
    start_field = dynamics._factored_field(cache, orbitals, occupations)
    rhs = np.random.default_rng(rank).standard_normal((grid.n_points, 3)) + 0j
    for factors, refactored in ((stepped, False), (compact_state(grid, 1), True)):
        field = dynamics._factored_field(cache, *factors)
        _, h_blocks = dense_hamiltonian(grid, *factors, 1.0)
        for l, h_block in enumerate(h_blocks):
            expected = np.linalg.solve(h_block - sigma * np.eye(grid.n_points), rhs)
            for warm in (None, dynamics._factor(start_field, l, sigma).solve(rhs)):
                kept = [None, None]
                dynamics._refined_solve(start_field, l, sigma, kept, rhs, None)  # factors it
                lu = kept[l]
                got = dynamics._refined_solve(field, l, sigma, kept, rhs, warm)
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
                if not refactored:
                    assert kept[l] is lu
                    continue
                refactor = kept[l]
                assert refactor is not None and refactor is not lu
                again = dynamics._refined_solve(field, l, sigma, kept, rhs, None)
                assert kept[l] is refactor
                assert np.linalg.norm(again - expected) <= 1e-12 * np.linalg.norm(expected)


def criterion_11_trajectory(minimizer):
    """200 Cayley midpoint steps of the kicked criterion-11 minimizer, as the
    stability benchmark runs them."""
    return stability_experiment(minimizer, SPEC, 1.0, eta=1e-2, horizon=10.0, dt=0.05,
                                seed=11, sample_stride=10)


def test_kept_factor_trajectory_matches_exact_solves(criterion_11_minimizer, monkeypatch):
    # the trajectory refined on kept factors against one that takes an exact
    # banded LU (``_factor``) in every channel of every midpoint iteration
    refined = criterion_11_trajectory(criterion_11_minimizer)

    def exact_cayley(field, dt, thins, *kept):
        return [2.0 * dynamics._factor(field, l, 2j / dt).solve(w / (0.5j * dt)) - w
                for l, w in enumerate(thins)]

    monkeypatch.setattr(dynamics, "_cayley_apply", exact_cayley)
    exact = criterion_11_trajectory(criterion_11_minimizer)
    assert len(refined.samples) == len(exact.samples) == 21
    for a, b in zip(refined.samples, exact.samples):
        for name in ("trace", "hf_energy", "entropy_trace", "dist_to_reference"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-13, name


def test_kept_factor_trajectory_factors_each_channel_at_most_twice(criterion_11_minimizer,
                                                                   monkeypatch):
    # 600 unitary applies, 1200 channel solves, and at most two banded
    # factorizations per channel, whichever LAPACK wrapper makes them
    import scipy.linalg
    from scipy.linalg import lapack

    calls = counting_calls(monkeypatch, [
        (lapack, "zgbtrf"), (lapack, "dgbtrf"), (scipy.linalg, "solve_banded"),
        (dynamics, "_cayley_apply"),
    ])
    criterion_11_trajectory(criterion_11_minimizer)
    assert calls["_cayley_apply"] == 200 * 3
    assert 1 <= calls["zgbtrf"] + calls["dgbtrf"] + calls["solve_banded"] <= 2 * (1 + 1)


def counting_calls(monkeypatch, targets):
    """{name: 0} for ``targets``, (owner, name) pairs, each counted from here on."""
    calls = {name: 0 for _, name in targets}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in targets:
        counting(owner, name)
    return calls


def f2py_solve(factor, rhs):
    """``factor.solve(rhs)`` through SciPy's f2py ``zgbtrs``, which takes the
    0-based pivots f2py's ``zgbtrf`` returns."""
    from scipy.linalg import lapack

    n, p, k = rhs.shape[0], factor.p, rhs.shape[1]
    storage = np.zeros((k, n * p), dtype=complex)
    storage.reshape(k, n, p)[:, :, 0] = rhs.T
    solution, info = lapack.zgbtrs(factor.lu, p, p, storage.T, factor.pivots - 1)
    assert info == 0
    return solution.reshape(n, p, k)[:, 0]


def random_banded_factor(n, p, rng):
    """A ``_BandedLU`` of a random band of n p rows with p sub- and
    superdiagonals, diagonally dominant by rows; its rows are scaled by up to
    e^(+-4), so partial pivoting swaps rows."""
    from scipy.linalg import lapack

    rows = n * p
    i, j = np.indices((rows, rows))
    dense = np.where(abs(i - j) <= p, rng.standard_normal((rows, rows))
                     + 1j * rng.standard_normal((rows, rows)), 0.0)
    dense[np.diag_indices(rows)] = np.abs(dense).sum(axis=1) + 1.0
    dense *= np.exp(rng.uniform(-4.0, 4.0, rows))[:, None]
    band = np.zeros((3 * p + 1, rows), dtype=complex, order="F")
    for d in range(-p, p + 1):  # row 2p + d holds the entries (j + d, j)
        cols = np.arange(max(0, -d), min(rows, rows - d))
        band[2 * p + d, cols] = dense[cols + d, cols]
    lu, pivots, info = lapack.zgbtrf(band, p, p)
    assert info == 0
    return dynamics._BandedLU(np.asfortranarray(lu), (pivots + 1).astype(np.intc), p)


def test_banded_solve_matches_f2py_zgbtrs_on_criterion_11_field(criterion_11_minimizer):
    # the GIL-free zgbtrs call against SciPy's f2py one on the factor of the
    # field the criterion-11 trajectories start from, pivots and all
    gamma = criterion_11_minimizer.gamma
    field = dynamics._factored_field(OperatorCache(gamma.grid, 1, 1.0), *gamma.factors)
    rng = np.random.default_rng(11)
    for l in range(2):
        factor = dynamics._factor(field, l, 2j / 0.05)
        assert np.any(factor.pivots != np.arange(1, len(factor.pivots) + 1))
        shape = (gamma.grid.n_points, 2)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(factor.solve(rhs), f2py_solve(factor, rhs))


@pytest.mark.parametrize("p", range(1, 10))
def test_banded_solve_matches_f2py_zgbtrs_on_random_bands(p):
    rng = np.random.default_rng(p)
    factor = random_banded_factor(30, p, rng)
    for k in range(1, 5):
        rhs = rng.standard_normal((30, k)) + 1j * rng.standard_normal((30, k))
        assert np.array_equal(factor.solve(rhs), f2py_solve(factor, rhs))


def test_banded_solve_refuses_an_unexpected_zgbtrs_signature(monkeypatch):
    # a capsule whose C signature is not the expected one is refused before a
    # function pointer is built from it, so no call is made
    import ctypes

    factor = random_banded_factor(30, 2, np.random.default_rng(0))
    dynamics._zgbtrs.cache_clear()  # resolved again, against the patched signature
    monkeypatch.setattr(dynamics, "_ZGBTRS_SIGNATURE", b"void (char *, int *)")
    calls = counting_calls(monkeypatch, [(ctypes, "CFUNCTYPE")])
    with pytest.raises(ImportError, match="signature"):
        factor.solve(np.ones((30, 1), dtype=complex))
    assert calls == {"CFUNCTYPE": 0}


@pytest.mark.parametrize("broken", ["c_order", "int64_pivots", "rows"])
def test_banded_solve_refuses_a_factor_lapack_cannot_read(broken):
    factor = random_banded_factor(30, 2, np.random.default_rng(0))
    rhs = np.ones((30, 1), dtype=complex)
    if broken == "c_order":
        factor.lu = np.ascontiguousarray(factor.lu)
    elif broken == "int64_pivots":
        factor.pivots = factor.pivots.astype(np.int64)
    else:
        rhs = np.ones((31, 1), dtype=complex)
    with pytest.raises(ValueError, match="do not fit"):
        factor.solve(rhs)


def test_stability_runs_on_two_threads_match_serial_runs(minimizer):
    # two kicked trajectories on a 2-thread pool, whose banded solves run with
    # the GIL released and overlap, against the same two runs made serially;
    # a short switch interval interleaves the threads' Python work finely
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def run(seed):
        return stability_experiment(minimizer, SPEC, 1.0, eta=1e-2, horizon=0.6, dt=0.02,
                                    seed=seed, sample_stride=5)

    serial = [run(seed) for seed in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(run, (1, 2), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert len(a.samples) == len(b.samples) == 7
        assert a.sup_dist == b.sup_dist and a.samples == b.samples


def test_stability_cayley_builds_no_dense_mean_field(criterion_11_minimizer, monkeypatch):
    # criterion 11's run steps and is sampled on its factors: no dense mean
    # field (``dense_block`` also builds the dense solve's block, so every
    # channel took the banded LU), no dense state and no factorization of one
    calls = counting_calls(monkeypatch, [
        (energy_module, "mean_field_hamiltonian"), (energy_module._FactoredField, "dense_block"),
        (grid_module, "_materialize"), (grid_module, "_factor_blocks"),
    ])
    res = stability_experiment(criterion_11_minimizer, SPEC, 1.0, eta=1e-2, horizon=0.4,
                               dt=0.05, seed=11, sample_stride=2)
    assert len(res.samples) == 5
    assert calls == dict.fromkeys(calls, 0)


def test_many_orbital_step_takes_the_dense_solve(monkeypatch):
    # the converse: criterion 10's rank-10 drift state at n = 100 (20 and 30
    # exchange terms, 40 and 60 at the midpoint) solves every channel of every
    # midpoint iteration densely
    gamma0 = strongly_interacting_state()
    calls = counting_calls(monkeypatch, [(energy_module._FactoredField, "dense_block")])
    one_step(gamma0, 0.01, 2.0, inner_iterations=3)
    assert calls == {"dense_block": 3 * 2}


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
