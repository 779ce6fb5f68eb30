"""Acceptance suite: one test per criterion, tolerances pinned, PASS lines printed.

Run with `pytest tests/test_acceptance.py -v -s`.  The dynamics criteria
dominate the runtime (a 1e4-step trajectory at n=400 and two 50-time-unit
stability runs); everything else finishes in seconds.
"""

import functools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from dense_reference import kinetic_matrix
from fermitherm.dynamics import evolve, stability_experiment
from fermitherm.energy import free_energy, hf_energy, mean_field_hamiltonian
from fermitherm.entropy import make_power_entropy, validate_a4
from fermitherm.grid import (
    DensityMatrix,
    build_grid,
    dilate,
    nuclear_potential,
)
from fermitherm.linear import (
    Regime,
    linear_ground_free_energy,
    q_max_lin,
    regime_classify,
)
from fermitherm.scf import ScfConfig, _fan_out, charge_sweep, scf_minimize

SPEC2 = make_power_entropy(2.0)


def golden_argmin(lam, m, iterations=110):
    """Golden-section argmin of nu -> lam*nu + nu**m on [0, 1], vectorized.

    The comparison uses the cancellation-free difference
    lam*(c-d) + d^m expm1(m log1p((c-d)/d)) so bracketing stays exact far
    below sqrt(machine epsilon).
    """
    lam = np.asarray(lam, dtype=float)
    a = np.zeros_like(lam)
    b = np.ones_like(lam)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iterations):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        safe_d = np.where(d > 0.0, d, 1.0)
        pow_diff = np.where(
            d > 0.0, safe_d**m * np.expm1(m * np.log1p((c - d) / safe_d)), 0.0
        )
        left = lam * (c - d) + pow_diff < 0.0
        b = np.where(left, d, b)
        a = np.where(left, a, c)
    return 0.5 * (a + b)


def bare_tridiagonal_levels(n, r_max, Z, l, count):
    grid = build_grid(n, r_max)
    mat = kinetic_matrix(grid, l) + np.diag(nuclear_potential(grid, Z))
    d = np.diagonal(mat).copy()
    e = np.diagonal(mat, 1).copy()
    return sla.eigh_tridiagonal(
        d, e, select="i", select_range=(0, count - 1), eigvals_only=True
    )


@pytest.fixture(scope="module")
def scf_q01():
    # box large enough to hold the 3s comparison orbital (turning point ~40)
    config = ScfConfig(
        spec=SPEC2,
        Z=1.0,
        T=1.0,
        q=0.1,
        n_points=900,
        r_max=90.0,
        l_max=2,
        tol_gamma=1e-9,
        tol_energy=1e-9,
        max_iter=300,
    )
    return config, scf_minimize(config)


@pytest.fixture(scope="module")
def dynamics_minimizer():
    config = ScfConfig(
        spec=SPEC2,
        Z=1.0,
        T=1.0,
        q=0.1,
        n_points=400,
        r_max=40.0,
        l_max=1,
        tol_gamma=1e-11,
        tol_energy=1e-12,
        max_iter=500,
    )
    result = scf_minimize(config)
    assert result.converged
    return result


def test_criterion_1_entropy_closed_forms():
    """g and beta* match the closed forms at 1e4 points; argmin oracle. <1s."""
    m = 2.0
    rng = np.random.default_rng(101)
    lam = rng.uniform(-10.0, 10.0, size=10_000)
    closed_g = np.where(lam < 0.0, np.minimum((-lam / m) ** (1.0 / (m - 1.0)), 1.0), 0.0)
    assert np.max(np.abs(SPEC2.g(lam) - closed_g)) <= 1e-12

    lam_win = rng.uniform(-m + 1e-12, -1e-12, size=10_000)
    closed_bs = -(m - 1.0) * (-lam_win / m) ** (m / (m - 1.0))
    assert np.max(np.abs(SPEC2.beta_star(lam_win) - closed_bs)) <= 1e-12

    assert np.max(np.abs(SPEC2.g(lam) - golden_argmin(lam, m))) <= 1e-10
    print("PASS: criterion 1 - entropy closed forms and argmin oracle")


def test_criterion_2_a4_series():
    """A4 value to 1e-9 of pi^2/24; divergence reported for m=3. <1s."""
    report = validate_a4(SPEC2, Z=2.0, T=1.0)
    assert report < math.inf
    assert abs(report - math.pi**2 / 24.0) <= 1e-9
    report3 = validate_a4(make_power_entropy(3.0), Z=1.0, T=1.0)
    assert report3 == math.inf
    print(f"PASS: criterion 2 - A4 value {report:.10f} vs pi^2/24, m=3 divergent")


def test_criterion_3_linear_thresholds():
    """q_max_lin and ground free energy to 1e-9; Table-1 regimes. <1s."""
    spec15 = make_power_entropy(1.5)
    qmax = q_max_lin(spec15, Z=1.0, T=1.0)
    assert abs(qmax - (math.pi**2 / 6.0) / 36.0) <= 1e-9
    ground = linear_ground_free_energy(SPEC2, Z=2.0, T=1.0)
    assert abs(ground - (-math.pi**2 / 24.0)) <= 1e-9
    assert regime_classify(1.4) is Regime.FINITE_QMAX
    assert regime_classify(2.0) is Regime.INFINITE_QMAX
    assert regime_classify(3.0) is Regime.UNBOUNDED
    print("PASS: criterion 3 - linear thresholds and regime table")


def test_criterion_4_discrete_hydrogen():
    """l=0 levels within 2e-4 at n=3000; O(h^2) refinement factor. <30s."""
    levels = bare_tridiagonal_levels(3000, 60.0, Z=1.0, l=0, count=3)
    for j in (1, 2, 3):
        assert abs(levels[j - 1] - (-0.25 / j**2)) <= 2e-4
    # halving h (r_max fixed): ground-level error shrinks ~4x; j=1 is the
    # discretization-dominated level (higher j feel the box, not h)
    err_coarse = bare_tridiagonal_levels(1499, 60.0, 1.0, 0, 1)[0] + 0.25
    err_fine = bare_tridiagonal_levels(2999, 60.0, 1.0, 0, 1)[0] + 0.25
    factor = err_coarse / err_fine
    assert 3.5 <= factor <= 4.5
    print(f"PASS: criterion 4 - hydrogen spectrum, refinement factor {factor:.3f}")


def test_criterion_5_rank_one_cancellation():
    """direct == exchange to 1e-10 rel; rank-one free energy to 5e-4. <30s."""
    n, r_max = 2999, 60.0
    grid = build_grid(n, r_max)
    mat = kinetic_matrix(grid, 0) + np.diag(nuclear_potential(grid, 1.0))
    d = np.diagonal(mat).copy()
    e = np.diagonal(mat, 1).copy()
    _, vecs = sla.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    phi = vecs[:, 0]

    full = DensityMatrix(grid=grid, blocks=[np.outer(phi, phi)])
    breakdown = hf_energy(full, Z=1.0)
    assert abs(breakdown.direct - breakdown.exchange) <= 1e-10 * breakdown.direct

    for q in (0.1, 0.5, 1.0):
        gamma = DensityMatrix(grid=grid, blocks=[q * np.outer(phi, phi)])
        e_free = free_energy(gamma, SPEC2, Z=1.0, T=1.0)
        assert abs(e_free.total_free - (-q / 4.0 + q**2)) <= 5e-4
    print("PASS: criterion 5 - rank-one cancellation and trial free energy")


def test_criterion_6_gradient_consistency():
    """Mean-field Hamiltonian vs central differences, 20 pairs, 1e-6. <1min."""
    grid = build_grid(60, 10.0)
    rng = np.random.default_rng(303)
    for trial in range(20):
        blocks = []
        for _ in range(3):
            a = rng.standard_normal((60, 17))
            b = a @ a.T
            b *= rng.uniform(0.2, 0.8) / np.linalg.eigvalsh(b)[-1]
            blocks.append(b)
        gamma = DensityMatrix(grid=grid, blocks=blocks)
        ham = mean_field_hamiltonian(gamma, Z=1.0)
        direction = []
        for _ in range(3):
            dmat = rng.standard_normal((60, 60))
            dmat = dmat + dmat.T
            dmat /= np.linalg.norm(dmat)
            direction.append(dmat)
        step = 1e-5
        plus = DensityMatrix(grid=grid, blocks=[b + step * dm for b, dm in zip(blocks, direction)])
        minus = DensityMatrix(grid=grid, blocks=[b - step * dm for b, dm in zip(blocks, direction)])
        fd = (hf_energy(plus, 1.0).total_hf - hf_energy(minus, 1.0).total_hf) / (2.0 * step)
        analytic = sum(
            (2 * l + 1) * float(np.einsum("ij,ji->", ham[l], direction[l]))
            for l in range(3)
        )
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))
    print("PASS: criterion 6 - gradient consistency on 20 random pairs")


def test_criterion_7_dilation_identities():
    """Scaling laws exact to 1e-12 for eta in {0.5, 2, 7}. <10s."""
    grid = build_grid(80, 12.0)
    rng = np.random.default_rng(404)
    blocks = []
    for _ in range(2):
        a = rng.standard_normal((80, 20))
        b = a @ a.T
        b *= 0.5 / np.linalg.eigvalsh(b)[-1]
        blocks.append(b)
    gamma = DensityMatrix(grid=grid, blocks=blocks)
    base = free_energy(gamma, SPEC2, Z=0.0, T=1.0)
    for eta in (0.5, 2.0, 7.0):
        scaled = free_energy(dilate(gamma, eta), SPEC2, Z=0.0, T=1.0)
        assert abs(scaled.kinetic - eta**2 * base.kinetic) <= 1e-12 * abs(base.kinetic) * eta**2
        assert abs(scaled.direct - eta * base.direct) <= 1e-12 * abs(base.direct) * eta
        assert abs(scaled.exchange - eta * base.exchange) <= 1e-12 * abs(base.exchange) * eta
        assert scaled.entropy_term == base.entropy_term
    print("PASS: criterion 7 - dilation scaling identities")


def test_criterion_8_scf_minimization(scf_q01):
    """Converged SCF at q=0.1 with residual, energy and audits. <5min."""
    config, result = scf_q01
    assert result.converged
    assert result.residual <= 1e-8
    assert result.energy.total_free < 0.0
    assert result.energy.total_free <= -0.0145
    audit = result.audit
    assert audit.lieb_value <= 1e-8
    assert audit.eigenvalue_bound_ok  # eps_j <= -(1-0.1)^2/(4 j^2) + 5e-4, j <= 3
    assert audit.qmaxlin_chain_ok
    assert result.mu < 0.0
    print(
        f"PASS: criterion 8 - SCF converged (E={result.energy.total_free:.6f}, "
        f"residual={result.residual:.2e})"
    )


def test_criterion_9_sweep_monotonicity(scf_q01):
    """I(q) nonincreasing over the sweep; I(0) = 0. <15min."""
    config, _ = scf_q01
    sweep = charge_sweep(config, [0.0, 0.02, 0.05, 0.1, 0.148], workers=2)
    assert all(row.converged for row in sweep.rows)
    assert sweep.rows[0].free_energy == 0.0
    tol = 10.0 * config.tol_energy
    values = [row.free_energy for row in sweep.rows]
    assert all(b <= a + tol for a, b in zip(values, values[1:]))
    assert sweep.monotone_ok
    print(f"PASS: criterion 9 - sweep monotone, I(q) = {[f'{v:.6f}' for v in values]}")


def test_criterion_10_dynamics_conservation(dynamics_minimizer):
    """Trace/entropy constant to 1e-11 over 1e4 steps; order-2 drift;
    stationarity of the minimizer. <10min at n=400, l_max=1."""
    minimizer = dynamics_minimizer
    # conservation over 1e4 steps on a kicked state (conjugation form makes
    # it structural, so one midpoint iteration suffices here)
    rng = np.random.default_rng(2)
    blocks = []
    for b in minimizer.gamma.blocks:
        n = b.shape[0]
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = 0.5 * (raw + raw.conj().T)
        herm /= np.linalg.norm(herm)
        w, v = np.linalg.eigh(herm)
        u = (v * np.exp(-1j * 1e-2 * w)) @ v.conj().T
        blocks.append(u @ b @ u.conj().T)
    kicked = DensityMatrix(grid=minimizer.gamma.grid, blocks=blocks)
    samples = evolve(
        kicked, SPEC2, 1.0, dt=1e-3, n_steps=10_000, sample_stride=200, inner_iterations=1
    )
    traces = [s.trace for s in samples]
    entropies = [s.entropy_trace for s in samples]
    assert max(traces) - min(traces) <= 1e-11
    assert max(entropies) - min(entropies) <= 1e-11
    # frozen regression bound for the energy drift on this standard scenario
    energies = [s.hf_energy for s in samples]
    assert max(energies) - min(energies) <= 1e-6

    # energy-drift order on a strongly coupled state (near the minimizer the
    # signal sits at roundoff level)
    grid_s = build_grid(100, 15.0)
    rng_s = np.random.default_rng(7)
    blocks_s = []
    for _ in range(2):
        a = rng_s.standard_normal((100, 10)) + 1j * rng_s.standard_normal((100, 10))
        b = a @ a.conj().T
        b *= 0.6 / np.linalg.eigvalsh(b)[-1]
        blocks_s.append(b)
    strong = DensityMatrix(grid=grid_s, blocks=blocks_s)

    def drift(dt):
        steps = int(round(0.5 / dt))
        traj = evolve(strong, SPEC2, 2.0, dt=dt, n_steps=steps, sample_stride=1)
        e0 = traj[0].hf_energy
        return max(abs(s.hf_energy - e0) for s in traj)

    order = math.log2(drift(0.01) / drift(0.005))
    assert 1.7 <= order <= 2.3

    # stationarity over [0, 10]
    stationary = evolve(
        minimizer.gamma,
        SPEC2,
        1.0,
        dt=0.02,
        n_steps=500,
        reference=minimizer.gamma,
        sample_stride=25,
        inner_iterations=2,
    )
    sup_dist = max(s.dist_to_reference for s in stationary)
    assert sup_dist <= 1e-8
    print(
        f"PASS: criterion 10 - conservation (drift {max(traces) - min(traces):.1e}), "
        f"order {order:.2f}, stationarity {sup_dist:.1e}"
    )


def test_criterion_11_orbital_stability(dynamics_minimizer):
    """Kicked trajectories stay near the minimizer over [0, 50]. <10min."""
    run = functools.partial(
        stability_experiment,
        dynamics_minimizer,
        SPEC2,
        1.0,
        horizon=50.0,
        dt=0.05,
        seed=11,
        sample_stride=20,
        inner_iterations=3,
    )
    small, large = _fan_out(run, (1e-3, 1e-2), 2)
    assert math.isfinite(small.sup_dist) and math.isfinite(large.sup_dist)
    ratio = large.sup_dist / small.sup_dist
    assert 5.0 <= ratio <= 20.0
    # regression-frozen envelopes (measured 8.27e-5 and 8.27e-4)
    assert small.sup_dist <= 2e-4
    assert large.sup_dist <= 2e-3
    print(
        f"PASS: criterion 11 - stability sup_dist {small.sup_dist:.3e}/{large.sup_dist:.3e}, "
        f"ratio {ratio:.2f}"
    )
