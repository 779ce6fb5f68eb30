import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fermitherm.energy import free_energy
from fermitherm.entropy import make_power_entropy
from fermitherm.grid import DensityMatrix, kinetic_matrix, nuclear_potential
from fermitherm import scf as scf_module
from fermitherm.linear import UnreachableChargeError
from fermitherm.scf import (
    ScfConfig,
    ScfResult,
    UnboundedRegimeError,
    charge_sweep,
    minimizer_audit,
    occupations_from_levels,
    scf_global,
    scf_minimize,
)

SPEC = make_power_entropy(2.0)


def small_config(**overrides):
    params = dict(
        spec=SPEC,
        Z=1.0,
        T=1.0,
        q=0.1,
        n_points=300,
        r_max=40.0,
        l_max=1,
        tol_gamma=1e-9,
        tol_energy=1e-9,
        max_iter=200,
    )
    params.update(overrides)
    return ScfConfig(**params)


def test_occupations_single_level_exact():
    mu, occ = occupations_from_levels([(-1.0, 1)], SPEC, T=1.0, q=0.3)
    assert mu == pytest.approx(-0.4, abs=1e-12)
    assert occ[0] == pytest.approx(0.3, abs=1e-12)


def test_occupations_zero_charge_sentinel():
    mu, occ = occupations_from_levels([(-1.0, 1), (-0.5, 4)], SPEC, T=1.0, q=0.0)
    assert mu == -math.inf
    assert np.all(occ == 0.0)


def test_occupations_unreachable():
    # capacity at mu = 0 is g(-1) = 0.5
    with pytest.raises(UnreachableChargeError):
        occupations_from_levels([(-1.0, 1)], SPEC, T=1.0, q=0.8)


def test_occupations_multi_level_properties():
    levels = [(-1.0, 1), (-0.25, 4), (-1.0 / 9.0, 9)]
    mu, occ = occupations_from_levels(levels, SPEC, T=1.0, q=0.6)
    total = sum(m * o for (_, m), o in zip(levels, occ))
    assert total == pytest.approx(0.6, abs=1e-12)
    assert np.all((occ >= 0.0) & (occ <= 1.0))
    assert occ[0] > occ[1] > occ[2]  # deeper level fills more
    assert mu < 0.0


def test_occupations_rejects_negative_charge():
    with pytest.raises(ValueError):
        occupations_from_levels([(-1.0, 1)], SPEC, T=1.0, q=-0.1)


fill_problems = st.fixed_dictionaries(
    {
        "m": st.floats(1.05, 2.95),
        "T": st.floats(0.01, 10.0),
        "levels": st.lists(
            st.tuples(st.floats(-10.0, -1e-4), st.integers(1, 15)), min_size=1, max_size=20
        ),
        "fractions": st.tuples(st.floats(1e-6, 1.0 - 1e-6), st.floats(1e-6, 1.0 - 1e-6)),
    }
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fill_problems)
# q(mu) at this level edge jumps by ~3e-12 between neighbouring floats of mu
@example({"m": 2.75, "T": 0.25, "levels": [(-1.0, 1)], "fractions": (0.5, 1e-6)})
def test_occupations_fill_properties(problem):
    spec = make_power_entropy(problem["m"])
    T, levels = problem["T"], problem["levels"]
    eps = np.array([e for e, _ in levels])
    mult = np.array([k for _, k in levels], dtype=float)
    capacity = float(np.sum(mult * spec.g(eps / T)))  # charge bound at mu = 0
    q_lo, q_hi = sorted(f * capacity for f in problem["fractions"])
    filled = [occupations_from_levels(levels, spec, T, q) for q in (q_lo, q_hi)]
    for q, (_, occ) in zip((q_lo, q_hi), filled):
        assert abs(float(np.sum(mult * occ)) - q) <= 1e-12
        assert np.all((occ >= 0.0) & (occ <= 1.0))
    # monotonicity is resolvable only above the 1e-12 filling tolerance
    if q_hi - q_lo > 1e-9:
        (mu_lo, occ_lo), (mu_hi, occ_hi) = filled
        assert mu_lo <= mu_hi
        assert np.all(occ_lo <= occ_hi)


def test_scf_zero_charge_gives_zero_state():
    res = scf_minimize(small_config(q=0.0))
    assert res.converged
    assert res.mu == -math.inf
    assert res.energy.total_free == 0.0
    assert res.gamma.trace() == 0.0
    assert res.audit is not None and res.audit.energy_negative_ok


def test_scf_small_run_converges():
    cfg = small_config()
    res = scf_minimize(cfg)
    assert res.converged
    assert res.status == "converged"
    assert res.residual <= 10.0 * cfg.tol_gamma
    assert res.mu < 0.0
    # rank-one trial bounds the minimum from above: I <= -q/4 + q^2
    assert res.energy.total_free <= -0.015 + 5e-4
    assert res.energy.total_free < 0.0
    assert res.gamma.trace() == pytest.approx(0.1, abs=1e-9)


def test_scf_iterates_stay_in_K():
    cfg = small_config(n_points=200, check_iterates=True)
    res = scf_minimize(cfg)
    assert res.converged
    res.gamma.validate(tol=1e-10)


def test_scf_audit_fields_populated():
    res = scf_minimize(small_config())
    audit = res.audit
    assert audit is not None
    assert audit.selfconsistency_residual == res.residual
    assert audit.lieb_value <= 1e-8
    assert audit.qmaxlin_chain_ok
    assert audit.energy_negative_ok
    # in the 40-bohr box the 3s comparison level is squeezed upward, the
    # audit flags it rather than raising
    assert audit.eigenvalue_bound_ok in (True, False)


def test_audit_refuses_unconverged():
    cfg = small_config()
    res = scf_minimize(cfg)
    broken = ScfResult(
        gamma=res.gamma,
        mu=res.mu,
        energy=res.energy,
        residual=res.residual,
        iterations=res.iterations,
        converged=False,
        status="max_iter",
    )
    with pytest.raises(ValueError):
        minimizer_audit(broken, cfg)


def test_scf_refuses_unbounded_regime():
    spec3 = make_power_entropy(3.0)
    with pytest.raises(UnboundedRegimeError):
        scf_minimize(small_config(spec=spec3))


def test_scf_unreachable_charge_status():
    res = scf_minimize(small_config(q=5.0, max_iter=30))
    assert not res.converged
    assert res.status == "unreachable-charge"


def test_scf_global_zero_nucleus():
    cfg = ScfConfig(
        spec=SPEC, Z=0.0, T=1.0, q=None, n_points=100, r_max=20.0, l_max=1
    )
    res = scf_global(cfg)
    assert res.converged
    assert res.gamma.trace() == 0.0
    assert res.energy.total_free == 0.0


def test_scf_global_converges_with_zero_multiplier():
    cfg = small_config(q=None)
    res = scf_global(cfg)
    assert res.converged
    assert res.mu == 0.0
    assert res.residual <= 10.0 * cfg.tol_gamma
    assert res.energy.total_free < 0.0
    # trace chain: bound charge cannot exceed the bare-spectrum capacity
    assert res.audit.qmaxlin_chain_ok
    assert res.gamma.trace() <= res.audit.details["discrete_q_max_lin"] + 1e-9


def test_converged_energy_beats_trial_library():
    cfg = small_config()
    res = scf_minimize(cfg)
    grid = res.gamma.grid
    q = 0.1
    trials = []
    # rank-one 1s-like orbitals at several inverse length scales
    for kappa in (0.2, 0.35, 0.5, 0.65, 0.8, 1.2):
        u = grid.r * np.exp(-kappa * grid.r)
        u /= np.linalg.norm(u)
        trials.append(
            DensityMatrix(grid=grid, blocks=[q * np.outer(u, u), np.zeros((300, 300))])
        )
    # two-level splits over the bare 1s/2s orbitals
    h_bare = kinetic_matrix(grid, 0) + np.diag(nuclear_potential(grid, 1.0))
    _, vecs = np.linalg.eigh(h_bare)
    for w1 in (0.5, 0.7, 0.9, 1.0):
        block = q * (
            w1 * np.outer(vecs[:, 0], vecs[:, 0])
            + (1.0 - w1) * np.outer(vecs[:, 1], vecs[:, 1])
        )
        trials.append(
            DensityMatrix(grid=grid, blocks=[block, np.zeros((300, 300))])
        )
    for trial in trials:
        e_trial = free_energy(trial, SPEC, Z=1.0, T=1.0).total_free
        assert res.energy.total_free <= e_trial + 10.0 * cfg.tol_energy


def test_charge_sweep_monotone():
    cfg = small_config(n_points=200)
    sweep = charge_sweep(cfg, [0.0, 0.02, 0.1], workers=1)
    assert all(row.converged for row in sweep.rows)
    assert sweep.monotone_ok
    assert sweep.rows[0].free_energy == 0.0
    assert sweep.rows[0].q == 0.0
    values = [row.free_energy for row in sweep.rows]
    assert values[2] < values[1] < values[0]
    assert sweep.largest_strict_q == pytest.approx(0.1)
    assert math.isinf(sweep.ceiling_q_max_lin)
    assert sweep.ceiling_ionization == 3.0
    assert sweep.ceiling == 3.0
    assert all(row.binding_flag == "bound" for row in sweep.rows)


def test_charge_sweep_parallel_matches_serial():
    cfg = small_config(n_points=150, max_iter=120)
    serial = charge_sweep(cfg, [0.02, 0.08], workers=1)
    threaded = charge_sweep(cfg, [0.02, 0.08], workers=2)
    for a, b in zip(serial.rows, threaded.rows):
        assert a.free_energy == b.free_energy
        assert a.mu == b.mu


def test_charge_sweep_keeps_interactions_off(monkeypatch):
    # q = 0.1 reaches past the 1s level, where the interacting model differs
    cfg = small_config(n_points=150, interactions=False)
    solved = []

    def recording(config):
        solved.append(scf_minimize(config))
        return solved[-1]

    monkeypatch.setattr(scf_module, "scf_minimize", recording)
    sweep = charge_sweep(cfg, [0.1], workers=1)
    (swept,) = solved
    assert swept.energy.direct == 0.0 and swept.energy.exchange == 0.0
    single = scf_minimize(dataclasses.replace(cfg, q=0.1))
    assert sweep.rows[0].free_energy == single.energy.total_free
    assert sweep.rows[0].mu == single.mu


def test_charge_sweep_requires_increasing():
    with pytest.raises(ValueError):
        charge_sweep(small_config(), [0.1, 0.05])


def test_interactions_off_matches_truncated_linear_series():
    # discrete linear model, channel truncation l <= 3: the 34-bohr box cuts
    # the Rydberg series just above the fourth shell, so the minimum tracks
    # sum_{j<=4} j^2 beta*(lambda_j/T)
    spec = make_power_entropy(2.0)
    cfg = ScfConfig(
        spec=spec,
        Z=2.0,
        T=1.0,
        q=None,
        n_points=1700,
        r_max=34.0,
        l_max=3,
        interactions=False,
        max_iter=50,
    )
    res = scf_global(cfg)
    assert res.converged
    assert res.iterations <= 3  # field is state-independent
    assert res.energy.direct == 0.0 and res.energy.exchange == 0.0
    target = sum(
        j * j * float(spec.beta_star(-(2.0**2) / (4.0 * j * j))) for j in (1, 2, 3, 4)
    )
    assert res.energy.total_free == pytest.approx(target, abs=2e-3)


def test_interactions_off_single_orbital_occupation():
    # rank-one linear minimizer: occupation g(eps_1/T) on the lowest level
    spec = make_power_entropy(2.0)
    cfg = ScfConfig(
        spec=spec,
        Z=1.0,
        T=1.0,
        q=0.1,
        n_points=200,
        r_max=30.0,
        l_max=0,
        interactions=False,
    )
    res = scf_minimize(cfg)
    assert res.converged
    assert res.gamma.trace() == pytest.approx(0.1, abs=1e-9)
    # linear model at fixed q: occupations g((eps - mu)/T); check against
    # the analytic inverse on the discrete spectrum
    h_bare = kinetic_matrix(res.gamma.grid, 0) + np.diag(
        nuclear_potential(res.gamma.grid, 1.0)
    )
    eps = np.linalg.eigvalsh(h_bare)
    n1 = float(spec.g((eps[0] - res.mu) / 1.0))
    occ = np.linalg.eigvalsh(res.gamma.blocks[0])
    assert occ[-1] == pytest.approx(n1, abs=1e-10)
