import collections
import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_reference import dense_hamiltonian, dense_hf_terms, dense_trace, kinetic_matrix
from fermitherm import energy as energy_module
from fermitherm.energy import (
    OperatorCache,
    _entropy_of_blocks,
    _hf_terms,
    free_energy,
    hf_energy,
    linear_energy_breakdown,
    mean_field_hamiltonian,
)
from fermitherm.entropy import make_power_entropy
from fermitherm import grid as grid_module
from fermitherm.grid import (
    DensityMatrix,
    build_grid,
    nuclear_potential,
)
from fermitherm import scf as scf_module
from fermitherm.linear import UnboundedModelError, UnreachableChargeError
from fermitherm.scf import (
    ScfConfig,
    charge_sweep,
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
    # a NaN charge fails the check too, instead of filling to some charge
    for q in (-0.1, math.nan):
        with pytest.raises(ValueError, match="charge must be nonnegative"):
            occupations_from_levels([(-1.0, 1), (-0.25, 4)], SPEC, T=1.0, q=q)


@pytest.mark.parametrize("T", [math.nan, 0.0, -1.0, math.inf])
def test_occupations_rejects_a_temperature_not_finite_and_positive(T):
    # named as a temperature fault, not as an unreachable charge
    with pytest.raises(ValueError, match="temperature must be finite and positive") as err:
        occupations_from_levels([(-1.0, 1), (-0.25, 4)], SPEC, T=T, q=0.3)
    assert not isinstance(err.value, UnreachableChargeError)


@pytest.mark.parametrize(
    "levels, match",
    [
        ([(math.nan, 1), (-0.25, 4)], "levels must be finite"),
        ([(-math.inf, 1), (-0.25, 4)], "levels must be finite"),
        ([(-1.0, 1), (math.inf, 4)], "levels must be finite"),
        ([(-1.0, math.nan), (-0.25, 4)], "multiplicities must be finite and nonnegative"),
        ([(-1.0, math.inf), (-0.25, 4)], "multiplicities must be finite and nonnegative"),
        ([(-1.0, -1), (-0.25, 4)], "multiplicities must be finite and nonnegative"),
    ],
    ids=["nan-level", "-inf-level", "inf-level", "nan-mult", "inf-mult", "negative-mult"],
)
def test_occupations_rejects_bad_levels(levels, match):
    # outside input: a NaN level or multiplicity used to fill to mu = nan, or
    # to a charge other than q
    with pytest.raises(ValueError, match=match):
        occupations_from_levels(levels, SPEC, T=1.0, q=0.1)


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
    assert res.iterations == 0
    assert res.residual == 0.0
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
    assert dense_trace(res.gamma) == pytest.approx(0.1, abs=1e-9)


def test_scf_iterates_stay_in_K():
    cfg = small_config(n_points=200)
    res = scf_minimize(cfg)
    assert res.converged
    DensityMatrix(res.gamma.grid, res.gamma.blocks).validate()


def test_scf_audit_fields_populated():
    res = scf_minimize(small_config())
    audit = res.audit
    assert audit is not None
    assert audit.selfconsistency_residual == res.residual
    assert audit.lieb_value <= 1e-8
    assert audit.qmaxlin_chain_ok
    assert audit.energy_negative_ok
    assert audit.inequalities_ok
    # in the 40-bohr box the 3s comparison level is squeezed upward, the
    # audit flags it rather than raising
    assert audit.eigenvalue_bound_ok in (True, False)


@pytest.mark.parametrize(
    "field, value",
    [("l_max", -1), ("Z", math.nan), ("T", math.nan), ("T", math.inf), ("q", math.nan),
     ("q", math.inf), ("r_max", math.nan), ("tol_gamma", math.nan), ("tol_energy", math.inf)],
)
def test_config_rejects_negative_lmax_and_nonfinite_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "field, value", [("l_max", 1.5), ("max_iter", 2.5), ("max_iter", -3), ("l_max", "2")]
)
def test_config_rejects_non_integral_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [("T", 0.0, "T > 0"), ("T", -1.0, "T > 0"), ("tol_gamma", 0.0, "tolerances"),
     ("tol_energy", 0.0, "tolerances"), ("q", -0.1, "q must be nonnegative")],
)
def test_config_rejects_values_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        small_config(**{field: value})


def test_scf_minimize_needs_a_charge():
    with pytest.raises(ValueError, match="needs config.q"):
        scf_minimize(small_config(q=None))


def test_scf_refuses_unbounded_regime():
    spec3 = make_power_entropy(3.0)
    with pytest.raises(UnboundedModelError):
        scf_minimize(small_config(spec=spec3))


def test_scf_unreachable_charge_status():
    res = scf_minimize(small_config(q=5.0, max_iter=30))
    assert not res.converged
    assert res.status == "unreachable-charge"
    assert res.audit is None
    # an unconverged solve is not audited either
    res = scf_minimize(small_config(max_iter=1))
    assert res.status == "max_iter" and res.audit is None


def test_config_resolves_default_rmax():
    assert small_config(Z=2.0, r_max=None).resolved_r_max() == 30.0
    assert small_config(Z=2.0, r_max=None).make_grid().r_max == 30.0
    for Z in (0.0, -1.0):
        with pytest.raises(ValueError, match="r_max"):
            small_config(Z=Z, r_max=None).resolved_r_max()


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
    assert dense_trace(res.gamma) <= res.audit.details["discrete_q_max_lin"] + 1e-9


def test_global_charge_link_holds_to_its_proven_slack():
    # the global problem returns its last solved iterate, whose trace differs
    # from the filled candidate's tr g(H_gamma/T) by up to sqrt(rank) times
    # the defect: here by more than 1e-9.  The audit holds the link to that
    # bound, which an independent dense H_gamma obeys as well
    cfg = ScfConfig(spec=SPEC, Z=1.0, T=1.0, n_points=900, r_max=90.0, l_max=2)
    res = scf_global(cfg)
    assert res.converged and res.audit.passed(cfg.tol_gamma)
    slack = res.audit.details["charge_slack"]
    spectra = [np.linalg.eigvalsh(h) for h in dense_hamiltonian(res.gamma, cfg.Z)]
    filled = sum((2 * l + 1) * float(np.sum(SPEC.g(w[w < 0.0] / cfg.T)))
                 for l, w in enumerate(spectra))
    gap = abs(res.gamma.trace() - filled)
    assert 1e-9 < gap <= slack
    # a constrained run keeps the fixed 1e-9
    assert scf_minimize(small_config()).audit.details["charge_slack"] == 1e-9


def test_constrained_audit_refuses_a_state_off_its_charge(monkeypatch):
    # criterion 8's q = 0.1 run with the returned weights scaled by 0.999
    # after the last solve: the state holds charge 0.0999, which passes
    # q <= tr g(H_gamma/T); the chain's first link also checks tr gamma = q
    audit = scf_module.minimizer_audit
    audits = []

    def scaled(result, *args):
        orbitals, weights = result.gamma.factors
        off = dataclasses.replace(result, gamma=DensityMatrix.from_factors(
            result.gamma.grid, orbitals, [0.999 * w for w in weights]))
        audits.extend([audit(result, *args), audit(off, *args)])
        return audits[-1]

    monkeypatch.setattr(scf_module, "minimizer_audit", scaled)
    cfg = ScfConfig(spec=SPEC, Z=1.0, T=1.0, q=0.1, n_points=900, r_max=90.0, l_max=2,
                    tol_gamma=1e-9, tol_energy=1e-9, max_iter=300)
    res = scf_minimize(cfg)
    kept, off = audits
    assert res.converged and kept.passed(cfg.tol_gamma)
    assert abs(off.details["trace"] - 0.0999) <= 1e-12
    assert not off.qmaxlin_chain_ok and not res.audit.passed(cfg.tol_gamma)


def test_global_audit_refuses_a_state_below_its_filled_charge(monkeypatch):
    # criterion 8's model without q, with the returned weights scaled by
    # 0.999 and by 1 - 1e-6 after the last solve: each state's charge falls
    # below tr g(H_gamma/T) by more than the proven slack, which bounds
    # |tr gamma - tr g(H_gamma/T)| from both sides
    audit = scf_module.minimizer_audit
    audits = []

    def scaled(result, *args):
        orbitals, weights = result.gamma.factors
        audits.append(audit(result, *args))
        for scale in (0.999, 1.0 - 1e-6):
            off = dataclasses.replace(result, gamma=DensityMatrix.from_factors(
                result.gamma.grid, orbitals, [scale * w for w in weights]))
            audits.append(audit(off, *args))
        return audits[-1]

    monkeypatch.setattr(scf_module, "minimizer_audit", scaled)
    cfg = ScfConfig(spec=SPEC, Z=1.0, T=1.0, n_points=900, r_max=90.0, l_max=2)
    res = scf_global(cfg)
    kept, *offs = audits
    assert res.converged and kept.passed(cfg.tol_gamma)
    for off in offs:
        gap = off.details["discrete_q_mean_field"] - off.details["trace"]
        assert gap > off.details["charge_slack"]
        assert not off.qmaxlin_chain_ok
    assert not res.audit.passed(cfg.tol_gamma)


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


def test_fan_out_under_spawn_matches_serial(monkeypatch):
    # every input and result crosses by pickle, so workers that import the
    # library afresh give the rows of a serial run, bit for bit
    cfg = small_config(n_points=120, r_max=30.0)
    serial = charge_sweep(cfg, [0.02, 0.08], workers=1)
    monkeypatch.setattr(scf_module, "_START_METHOD", "spawn")
    spawned = charge_sweep(cfg, [0.02, 0.08], workers=2)
    assert repr(spawned.rows) == repr(serial.rows)
    assert multiprocessing.active_children() == []


def _failing_at(config):
    # top level, so that a worker process receives it by name
    if config.q == 0.05:
        raise RuntimeError("no solve at q = 0.05")
    return scf_minimize(config)


def test_charge_sweep_joins_its_workers_when_a_charge_raises(monkeypatch):
    monkeypatch.setattr(scf_module, "scf_minimize", _failing_at)
    with pytest.raises(RuntimeError, match="q = 0.05"):
        charge_sweep(small_config(n_points=60), [0.02, 0.05, 0.08], workers=2)
    assert multiprocessing.active_children() == []


def test_fan_out_raises_broken_process_pool_when_a_worker_dies():
    from concurrent.futures.process import BrokenProcessPool

    with pytest.raises(BrokenProcessPool):
        scf_module._fan_out(os._exit, [1, 1], 2)
    assert multiprocessing.active_children() == []


def test_fan_out_runs_one_worker_or_one_item_in_this_process():
    pid = os.getpid()
    assert scf_module._fan_out(lambda x: (x, os.getpid()), [1, 2], 1) == [(1, pid), (2, pid)]
    assert scf_module._fan_out(lambda x: (x, os.getpid()), [3], 2) == [(3, pid)]


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


def test_charge_sweep_flags_unreachable_charge():
    # q = 5 exceeds the mu = 0 capacity of the bare spectrum
    sweep = charge_sweep(small_config(n_points=100, r_max=30.0), [0.02, 5.0])
    assert [row.binding_flag for row in sweep.rows] == ["bound", "unreachable"]
    assert [row.converged for row in sweep.rows] == [True, False]


def test_charge_sweep_requires_increasing():
    with pytest.raises(ValueError):
        charge_sweep(small_config(), [0.1, 0.05])


def test_charge_sweep_refuses_no_workers():
    with pytest.raises(ValueError):
        charge_sweep(small_config(n_points=60), [0.02], workers=0)


def test_free_energy_is_concave_in_temperature_with_slope_the_entropy():
    # K_q does not depend on T, so F(T) = min (E_HF + T S) is concave with
    # slope S = tr beta(gamma_T) >= 0: for T1 < T2 the minimizers bound the
    # chord, (T2 - T1) S(gamma_2) <= F2 - F1 <= (T2 - T1) S(gamma_1), and
    # S falls while E_HF rises with T
    temperatures = (0.05, 0.1, 0.15, 0.2)
    configs = [small_config(Z=4.0, T=T, q=3.0, n_points=300, r_max=30.0, l_max=2)
               for T in temperatures]
    results = [scf_minimize(config) for config in configs]
    assert all(res.converged for res in results)
    tol = 10.0 * configs[0].tol_energy
    free = [res.energy.total_free for res in results]
    entropy = [res.energy.entropy_term for res in results]
    hf = [res.energy.total_hf for res in results]
    assert all(-tol <= s <= 3.0 + tol for s in entropy)
    for i in range(len(temperatures) - 1):
        dT = temperatures[i + 1] - temperatures[i]
        assert dT * entropy[i + 1] <= free[i + 1] - free[i] + tol
        assert free[i + 1] - free[i] <= dT * entropy[i] + tol
        assert entropy[i + 1] <= entropy[i] + tol
        assert hf[i] <= hf[i + 1] + tol


@pytest.mark.parametrize("q", [0.1, None])
def test_interaction_free_solve_returns_the_warm_start(q):
    # the filled bare spectrum is the linear minimizer: no iteration, and the
    # returned factors are the warm start's, bit for bit
    cfg = small_config(n_points=150, q=q, interactions=False)
    res = scf_minimize(cfg) if q is not None else scf_global(cfg)
    assert res.converged and res.audit is not None
    assert res.iterations == 0 and res.history == [] and res.residual == 0.0
    cache = OperatorCache(cfg.make_grid(), cfg.l_max, cfg.Z)
    orbitals, weights = scf_module._initial_state(cache, cfg)
    got_orbitals, got_weights = res.gamma.factors
    for got, want in zip(got_orbitals + got_weights, orbitals + weights):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _counted_eigensolves(monkeypatch):
    """The channel counts of every ``_diagonalize_blocks`` call, as they come."""
    calls = []

    def counting(channels):
        calls.append(len(channels))
        return diagonalize(channels)

    diagonalize = scf_module._diagonalize_blocks
    monkeypatch.setattr(scf_module, "_diagonalize_blocks", counting)
    return calls


def test_unreachable_warm_start_makes_no_eigensolve(monkeypatch):
    # the warm start cannot hold the charge: the result leaves through the
    # one exit without a loop iteration or a final solve
    calls = _counted_eigensolves(monkeypatch)
    res = scf_minimize(small_config(spec=make_power_entropy(1.5), q=50.0))
    assert res.status == "unreachable-charge" and not res.converged
    assert res.iterations == 0 and res.history == [] and res.audit is None
    assert res.mu == 0.0 and res.residual == math.inf and res.gamma.trace() == 0.0
    assert calls == []


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
    assert dense_trace(res.gamma) == pytest.approx(0.1, abs=1e-9)
    # linear model at fixed q: occupations g((eps - mu)/T); check against
    # the analytic inverse on the discrete spectrum
    h_bare = kinetic_matrix(res.gamma.grid, 0) + np.diag(
        nuclear_potential(res.gamma.grid, 1.0)
    )
    eps = np.linalg.eigvalsh(h_bare)
    n1 = float(spec.g((eps[0] - res.mu) / 1.0))
    occ = np.linalg.eigvalsh(res.gamma.blocks[0])
    assert occ[-1] == pytest.approx(n1, abs=1e-10)


def _dense_negative(blocks):
    """Dense reference: every eigenpair from np.linalg.eigh, then the negative ones.

    A channel operator is made dense by applying it to the identity."""
    levels, vectors = [], []
    for b in blocks:
        w, v = np.linalg.eigh(b @ np.eye(b.shape[0]))
        levels.append(w[w < 0.0])
        vectors.append(v[:, w < 0.0])
    return levels, vectors


def _assert_same_spectrum(fast, dense):
    # eigenvectors carry a sign freedom, so compare the filled blocks they build
    for (w, v), (w_ref, v_ref) in zip(zip(*fast), zip(*dense)):
        assert w.shape == w_ref.shape
        assert np.max(np.abs(w - w_ref), initial=0.0) <= 1e-12
        occ = SPEC.g(w_ref / 0.05)
        filled = (v * occ) @ v.T
        assert np.max(np.abs(filled - (v_ref * occ) @ v_ref.T)) <= 1e-12


def _bare_blocks(cache):
    """Dense bare blocks T_l + diag(v_nuc), the reference of the tridiagonal bare solve."""
    return [
        kinetic_matrix(cache.grid, l) + np.diag(cache.v_nuclear) for l in range(cache.l_max + 1)
    ]


def _channels(cache, orbitals, weights):
    """Channel operators of the mean field of these factors, started from the bare pairs."""
    field = energy_module._factored_field(cache, orbitals, weights)
    return [scf_module._Channel(field, l, *p) for l, p in enumerate(zip(*cache.bare_spectrum))]


def test_negative_spectrum_matches_dense_reference():
    cfg = small_config(l_max=2)
    cache = OperatorCache(cfg.make_grid(), cfg.l_max, cfg.Z)
    _assert_same_spectrum(cache.bare_spectrum, _dense_negative(_bare_blocks(cache)))
    factors = scf_module._initial_state(cache, cfg)
    warm = DensityMatrix.from_factors(cache.grid, *factors)
    mf_blocks = dense_hamiltonian(warm, cfg.Z)
    _assert_same_spectrum(
        scf_module._diagonalize_blocks(_channels(cache, *factors)), _dense_negative(mf_blocks)
    )
    # bound levels in every channel, so no comparison above was vacuous
    assert all(len(w) > 0 for w in cache.bare_spectrum[0])


def test_negative_spectrum_empty_and_zero_level():
    # without a nucleus the bare operator is the positive kinetic stencil
    # (the s block still holds its three lowest, unbound, levels for the audit)
    cache = OperatorCache(build_grid(50, 10.0), 0, 0.0)
    levels, vectors = cache.bare_spectrum
    assert levels[0].shape == (3,) and np.all(levels[0] > 0.0) and vectors[0].shape == (50, 3)
    empty = grid_module.zero_density_matrix(cache.grid, 0).factors
    levels, vectors = scf_module._diagonalize_blocks(_channels(cache, *empty))
    assert levels[0].shape == (0,) and vectors[0].shape == (50, 0)
    # an exact zero level of the bare block is neither negative nor occupied
    # (the structured solve's case is in test_structured_negative_spectrum_matches_eigh)
    cache = OperatorCache(build_grid(3, 4.0), 0, 0.0)
    cache.kinetic_diag = [np.array([-1.0, 0.0, 2.0])]
    cache.kinetic_off = 0.0
    cache.v_nuclear = np.zeros(3)
    levels, vectors = cache.bare_spectrum
    assert levels[0].tolist() == [-1.0, 0.0, 2.0] and vectors[0].shape == (3, 3)
    empty = grid_module.zero_density_matrix(cache.grid, 0).factors
    negative, _ = scf_module._diagonalize_blocks(_channels(cache, *empty))
    assert negative[0].tolist() == [-1.0]
    _, occs = scf_module._fill_levels(levels, SPEC, 1.0, 0.3)
    assert occs[0][0] > 0.0 and occs[0][1] == 0.0 and occs[0][2] == 0.0


def _spectrum_case(case):
    """(cache, factors) of a mean field with no bound level, with an exact zero
    level inside the eigensolve's block, or in a 10-bohr box binding one s level."""
    if case == "unbound":
        cache = OperatorCache(build_grid(60, 10.0), 1, 0.0)
        return cache, grid_module.zero_density_matrix(cache.grid, 1).factors
    if case == "zero-level":
        # a diagonal field: the rank-one e_1 state's exchange acts on e_1 alone,
        # and a potential cancelling its Hartree potential at the second node
        # makes the bare level there (about -1/2) an exact zero of H
        cache = OperatorCache(build_grid(3, 4.0), 0, 0.0)
        cache.kinetic_diag = [np.array([-1.0, 0.0, 2.0])]
        cache.kinetic_off = 0.0
        factors = ([np.eye(3)[:, :1]], [np.ones(1)])
        v_hartree = energy_module._factored_field(cache, *factors).v_local
        cache.v_nuclear = np.array([0.0, -v_hartree[1], 0.0])
        return cache, factors
    cfg = small_config(n_points=200, r_max=10.0, l_max=1)
    cache = OperatorCache(cfg.make_grid(), cfg.l_max, cfg.Z)
    return cache, scf_module._initial_state(cache, cfg)


@pytest.mark.parametrize("case", ["unbound", "zero-level", "box-10"])
def test_structured_negative_spectrum_matches_eigh(case):
    cache, factors = _spectrum_case(case)
    channels = _channels(cache, *factors)
    fast = scf_module._diagonalize_blocks(channels)
    if case == "zero-level":  # the hand-built cache's blocks, from its own field
        field = energy_module._factored_field(cache, *factors)
        dense = [field.dense_block(l) for l in range(len(field.terms))]
    else:
        dense = dense_hamiltonian(DensityMatrix.from_factors(cache.grid, *factors), cache.Z)
    _assert_same_spectrum(fast, _dense_negative(dense))
    counts = [len(w) for w in fast[0]]
    assert counts == {"unbound": [0, 0], "zero-level": [1], "box-10": [1, 0]}[case]
    if case == "zero-level":
        # the block holds the zero level: found, and left out of the negative ones
        assert np.linalg.eigvalsh(dense[0])[1] == 0.0
        assert channels[0].vectors.shape == (3, 3)


def test_eigensolve_count_catches_a_missed_level():
    # one electron in the bare 1s: exchange cancels its Hartree potential on
    # it, so H_0 binds the 1s while T + V_nuc + V_H binds nothing.  A start
    # block without the 1s converges to two unbound levels: 0 negative Ritz
    # levels lie inside [Sturm count 0, block size 2], but the inertia of H_0
    # at zero is 1, and the eigensolve refuses the block
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

    cache = OperatorCache(build_grid(200, 20.0), 0, 1.0)
    factors = ([cache.bare_spectrum[1][0][:, :1]], [np.ones(1)])
    field = energy_module._factored_field(cache, *factors)
    n = cache.grid.n_points
    off = np.full(n - 1, cache.kinetic_off)
    sturm = eigvalsh_tridiagonal(
        cache.kinetic_diag[0] + field.v_local, off, select="v", select_range=(-np.inf, 0.0)
    )
    assert np.sum(sturm < 0.0) == 0 and np.sum(cache.bare_spectrum[0][0] < 0.0) == 2
    channel = scf_module._Channel(field, 0, *eigh_tridiagonal(
        cache.kinetic_diag[0] + cache.v_nuclear, off, select="i", select_range=(1, 2)
    ))
    missed = "channel l=0: 0 negative Ritz levels"
    with pytest.raises(scf_module.EigensolveError, match=missed) as err:
        scf_module._diagonalize_blocks([channel])
    # the channel keeps the two converged unbound pairs; the inertia counted one level
    assert np.all(channel.levels > 0.0) and "but H_l has 1 " in str(err.value)


def _stalling_warm_start(m=2.2375, Z=1.125):
    """(cache, factors, dense blocks) of the warm start at T = 0.02 on 40 points,
    with q half the bare capacity.  On these fields, block L D L^H solves with
    explicit 8-point pivot inverses lost up to ~1000 eps next to a level and
    stalled a Ritz residual there (m = 2.2375, Z = 1.125: the unbound 2s pair)."""
    grid = build_grid(40, 20.0 / Z)
    spec = make_power_entropy(m)
    bare_levels, _ = OperatorCache(grid, 1, Z).bare_spectrum
    capacity = sum((2 * l + 1) * float(np.sum(spec.g(w / 0.02))) for l, w in enumerate(bare_levels))
    cfg = small_config(spec=spec, Z=Z, T=0.02, q=0.5 * capacity, n_points=40,
                       r_max=grid.r_max)
    cache = OperatorCache(grid, cfg.l_max, cfg.Z)
    factors = scf_module._initial_state(cache, cfg)
    return cache, factors, dense_hamiltonian(DensityMatrix.from_factors(grid, *factors), cfg.Z)


def test_unfilled_pair_settles_on_its_level(monkeypatch):
    # shifted solves off by 1e-12 relative at shifts above zero, as a nearly
    # singular pivot block can leave them, stall the residuals of the unbound
    # pairs above the tolerance.  Such a pair is never filled; its level stops
    # moving and settles it, and that level is the dense one
    cache, factors, dense = _stalling_warm_start()
    solves, rng = scf_module._ldl_solves, np.random.default_rng(0)

    def stalling(problems):
        return [
            x if b is None or sigma < 0.0 else x * (1.0 + 1e-12 * rng.standard_normal(x.shape))
            for (*_, sigma, b), x in zip(problems, solves(problems))
        ]

    monkeypatch.setattr(scf_module, "_ldl_solves", stalling)
    channels = _channels(cache, *factors)
    fast = scf_module._diagonalize_blocks(channels)
    _assert_same_spectrum(fast, _dense_negative(dense))
    w0, v0 = channels[0].levels, channels[0].vectors
    assert w0.size == 3 and w0[0] < 0.0 < w0[1]
    assert np.max(np.abs(w0 - np.linalg.eigvalsh(dense[0])[:3])) <= 1e-12
    diag = cache.kinetic_diag[0] + channels[0].field.v_local
    norm = float(np.max(np.abs(diag))) + 2.0 * abs(cache.kinetic_off)
    tol = scf_module._RESIDUAL_ULPS * np.finfo(float).eps * norm
    residuals = np.linalg.norm(dense[0] @ v0 - v0 * w0, axis=0)
    assert residuals[0] <= tol < residuals[1]


@pytest.mark.parametrize("m, Z", [(2.2375, 1.125), (2.25, 1.125), (2.95, 1.125), (1.55, 0.5),
                                  (1.95, 3.0)])
def test_ldl_solves_are_backward_stable_near_every_level(m, Z):
    # (H_l - sigma)^-1 b at 1e-3, 1e-6 and 1e-12 above each level of the dense
    # reference: the normwise backward error ||(H - sigma) x - b|| /
    # (||H - sigma||_2 ||x|| + ||b||) is at most _RESIDUAL_ULPS eps.  Explicit
    # 8-point pivot inverses reached 519, 929, 620, 200 and 323 eps here
    cache, factors, dense = _stalling_warm_start(m, Z)
    field = energy_module._factored_field(cache, *factors)
    n = cache.grid.n_points
    rng = np.random.default_rng(0)
    problems, shifted = [], []
    for l, block in enumerate(dense):
        for level in np.linalg.eigvalsh(block):
            for delta in (1e-3, 1e-6, 1e-12):
                problems.append((field, l, level + delta, rng.standard_normal(n)))
                shifted.append(block - (level + delta) * np.eye(n))
    solutions = energy_module._ldl_solves(problems)
    norm = np.linalg.norm
    errors = [
        norm(a @ x - b) / (norm(a, 2) * norm(x) + norm(b))
        for a, x, (*_, b) in zip(shifted, solutions, problems)
    ]
    assert max(errors) <= scf_module._RESIDUAL_ULPS * np.finfo(float).eps


def test_solves_next_to_bound_levels_in_a_wide_box_converge():
    # criterion 8's problem on 100 points: the bound s orbitals decay well
    # inside the box.  Eliminated outward from the nucleus, every block past
    # them held a level near the shift, the solves next to the third s level
    # lost ~500 eps and its filled pair stalled above the residual tolerance
    # (EigensolveError)
    cfg = small_config(n_points=100, r_max=90.0, l_max=2)
    res = scf_minimize(cfg)
    assert res.converged and res.audit.passed(cfg.tol_gamma)


def test_one_generator_derivation_per_field_and_channel(monkeypatch):
    # the per-term generators (an array of orders) of a channel are derived
    # once per field: its matvecs and L D L^H solves all read that one form.
    # Each channel's orders array is its own object, kept alive here, so its
    # id names the (field, channel)
    derived, fields = [], []
    generators, factored_field = grid_module.multipole_generators, scf_module._factored_field

    def counted_generators(grid, L):
        if np.ndim(L):
            derived.append(L)
        return generators(grid, L)

    def counted_field(*args):
        fields.append(factored_field(*args))
        return fields[-1]

    for module in (grid_module, energy_module):
        monkeypatch.setattr(module, "multipole_generators", counted_generators)
    monkeypatch.setattr(scf_module, "_factored_field", counted_field)
    cfg = small_config(n_points=120, r_max=30.0)
    res = scf_minimize(cfg)
    assert res.converged and res.iterations > 0 and derived
    per_channel = collections.Counter(id(L) for L in derived)
    assert max(per_channel.values()) == 1
    assert len(per_channel) <= len(fields) * (cfg.l_max + 1)

def _dense_audit_details(gamma, cfg):
    cache = OperatorCache(gamma.grid, cfg.l_max, cfg.Z)
    bare = _bare_blocks(cache)
    ham = dense_hamiltonian(gamma, cfg.Z) if cfg.interactions else bare
    w_mf = [np.linalg.eigvalsh(h) for h in ham]

    def chain(ws):
        return sum((2 * l + 1) * float(np.sum(SPEC.g(w / cfg.T))) for l, w in enumerate(ws))

    return {
        "h0_eigenvalues": w_mf[0][:3].tolist(),
        "discrete_q_mean_field": chain(w_mf),
        "discrete_q_max_lin": chain([np.linalg.eigvalsh(b) for b in bare]),
    }


@pytest.mark.parametrize("interactions", [True, False])
def test_scf_matches_dense_eigensolve_path(monkeypatch, interactions):
    cfg = small_config(l_max=2, interactions=interactions)
    fast = scf_minimize(cfg)
    # the energy from the last candidate's occupations against the full
    # eigendecomposition of the returned gamma: the state rebuilt from its
    # dense blocks is factored again, independently of the solve's factors
    dense_gamma = DensityMatrix(fast.gamma.grid, fast.gamma.blocks)
    reference = (free_energy if interactions else linear_energy_breakdown)(
        dense_gamma, SPEC, cfg.Z, cfg.T
    )
    for key, value in dataclasses.asdict(reference).items():
        assert abs(getattr(fast.energy, key) - value) <= 1e-12, key
    dense_details = _dense_audit_details(dense_gamma, cfg)
    for key, value in dense_details.items():
        assert np.allclose(fast.audit.details[key], value, rtol=0.0, atol=1e-12), key

    replaced = []

    def dense_eigensolve(channels):
        replaced.append(len(channels))
        for channel in channels:  # the lowest pairs, as many as the channel carries
            w, v = np.linalg.eigh(channel @ np.eye(channel.shape[0]))
            k = channel.levels.size
            channel.levels, channel.vectors = w[:k], v[:, :k]
        return _dense_negative(channels)

    monkeypatch.setattr(scf_module, "_diagonalize_blocks", dense_eigensolve)
    monkeypatch.setattr(
        OperatorCache,
        "bare_spectrum",
        property(lambda c: _dense_negative(_bare_blocks(c))),
    )
    dense = scf_minimize(cfg)
    # the dense reference replaced every structured solve of the run
    assert replaced == ([cfg.l_max + 1] * (fast.iterations + 1) if interactions else [])
    assert fast.converged and dense.converged
    assert fast.iterations == dense.iterations
    assert abs(fast.energy.total_free - dense.energy.total_free) <= cfg.tol_energy
    assert abs(fast.mu - dense.mu) <= 1e-12
    assert fast.audit.passed(cfg.tol_gamma) == dense.audit.passed(cfg.tol_gamma)
    for key in dense_details:
        assert np.allclose(
            fast.audit.details[key], dense.audit.details[key], rtol=0.0, atol=1e-12
        ), key


def test_returned_state_is_solved_once(monkeypatch):
    # one eigensolve per iteration plus one of the returned state; the audit
    # reads its levels and the three s levels its channel 0 holds, so it
    # solves nothing: no eigensolve, no L D L^H and no n x n eigh; the energy
    # comes from occupations, so gamma is never diagonalized (the audit's
    # Brown-Kosaki spectra are k x k, of the factors)
    import scipy.linalg

    cfg = small_config(l_max=2)
    calls = {"diagonalize": 0, "audit_eigh": 0, "eigvalsh": 0, "audit_diagonalize": 0,
             "audit_ldl": 0}
    in_audit = []

    def counted(fn, key, when=lambda a: True):
        def wrapper(*args, **kwargs):
            if when(args[0]):
                calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def auditing(*args):
        in_audit.append(True)
        try:
            return audit(*args)
        finally:
            in_audit.pop()

    audit = scf_module.minimizer_audit
    monkeypatch.setattr(scf_module, "minimizer_audit", auditing)
    diagonalize = counted(scf_module._diagonalize_blocks, "diagonalize")
    monkeypatch.setattr(
        scf_module,
        "_diagonalize_blocks",
        counted(diagonalize, "audit_diagonalize", lambda a: bool(in_audit)),
    )
    for module in (energy_module, scf_module):
        monkeypatch.setattr(
            module,
            "_ldl_solves",
            counted(module._ldl_solves, "audit_ldl", lambda a: bool(in_audit)),
        )

    def square(a):
        return bool(in_audit) and a.shape[-1] == cfg.n_points

    monkeypatch.setattr(scipy.linalg, "eigh", counted(scipy.linalg.eigh, "audit_eigh", square))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "audit_eigh", square))
    monkeypatch.setattr(
        np.linalg,
        "eigvalsh",
        counted(np.linalg.eigvalsh, "eigvalsh", lambda a: a.shape[-1] == cfg.n_points),
    )
    res = scf_minimize(cfg)
    assert res.converged and res.audit is not None and res.iterations > 1
    assert calls == {"diagonalize": res.iterations + 1, "audit_eigh": 0, "eigvalsh": 0,
                     "audit_diagonalize": 0, "audit_ldl": 0}


def test_max_iter_run_solves_its_returned_state_once(monkeypatch):
    # a run cut at max_iter also solves each iterate once, the returned one last
    calls = _counted_eigensolves(monkeypatch)
    res = scf_minimize(small_config(max_iter=3))
    assert res.status == "max_iter" and res.iterations == 3 and len(res.history) == 3
    assert len(calls) == res.iterations + 1
    assert math.isfinite(res.residual) and res.audit is None


def test_stalled_run_stops_after_its_own_solve(monkeypatch):
    # a search that finds no lower point returns the iterate its pass just
    # solved: that solve gave the residual, and nothing is solved again
    calls = _counted_eigensolves(monkeypatch)
    monkeypatch.setattr(scf_module, "_step_length", lambda *args: (0.0, True))
    res = scf_minimize(small_config())
    assert res.status == "stalled" and not res.converged and res.audit is None
    assert res.iterations == 1 and res.history == [] and len(calls) == 1
    assert 0.0 < res.residual < math.inf


def test_returned_state_that_cannot_bind_q_is_unreachable(monkeypatch):
    # the fill of the returned state's solve (after the warm start's and one
    # per iteration) cannot bind q: the run ends unconverged and unaudited
    iterations = scf_minimize(small_config()).iterations
    fills = []

    def failing_last(levels, spec, T, q):
        fills.append(q)
        if len(fills) == iterations + 2:
            raise UnreachableChargeError("no capacity at mu = 0")
        return fill(levels, spec, T, q)

    fill = scf_module._fill_levels
    monkeypatch.setattr(scf_module, "_fill_levels", failing_last)
    res = scf_minimize(small_config())
    assert res.status == "unreachable-charge" and not res.converged and res.audit is None
    assert res.iterations == iterations and len(res.history) == iterations
    assert res.mu == 0.0 and res.residual == math.inf


def test_solve_audits_with_the_final_solve_blocks(monkeypatch):
    # inside a solve the audit reads the H of the final solve: neither a dense
    # state is factored nor a mean field rebuilt from one
    def refuse(*args, **kwargs):
        raise AssertionError("dense state factored inside scf")

    monkeypatch.setattr(grid_module, "_factor_blocks", refuse)
    monkeypatch.setattr(energy_module, "mean_field_hamiltonian", refuse)
    cfg = small_config(l_max=2)
    res = scf_minimize(cfg)
    assert res.converged and res.audit is not None
    assert res.audit.lieb_value <= 1e-8 and res.audit.qmaxlin_chain_ok
    monkeypatch.undo()
    # the audit's values against the independent dense H_gamma and its spectra
    ham = dense_hamiltonian(res.gamma, cfg.Z)
    spectra = [np.linalg.eigvalsh(h) for h in ham]
    q_mean_field = sum(
        (2 * l + 1) * float(np.sum(SPEC.g(w[w < 0.0] / cfg.T))) for l, w in enumerate(spectra)
    )
    assert res.audit.details["discrete_q_mean_field"] == pytest.approx(
        q_mean_field, rel=0.0, abs=1e-12
    )
    lieb = sum(
        (2 * l + 1) * float(np.trace(res.gamma.grid.r[:, None] * h @ b))
        for l, (h, b) in enumerate(zip(ham, res.gamma.blocks))
    )
    assert res.audit.lieb_value == pytest.approx(lieb, rel=1e-10, abs=1e-15)
    assert res.audit.details["h0_eigenvalues"] == pytest.approx(
        spectra[0][:3], rel=0.0, abs=1e-12
    )


def test_interacting_solve_forms_no_dense_mean_field(monkeypatch):
    # a solve with interactions converges and audits with dense_block and
    # every n x n eigh refused: the eigensolve and the audit act on factors
    import scipy.linalg

    cfg = small_config(l_max=2)

    def refuse(*args, **kwargs):
        raise AssertionError("dense mean field formed inside scf")

    def no_square(fn):
        def guarded(a, *args, **kwargs):
            if a.shape[-1] == cfg.n_points:
                raise AssertionError("n x n eigensolve inside scf")
            return fn(a, *args, **kwargs)

        return guarded

    monkeypatch.setattr(energy_module._FactoredField, "dense_block", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", no_square(scipy.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigh", no_square(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", no_square(np.linalg.eigvalsh))
    res = scf_minimize(cfg)
    assert res.converged and res.iterations > 1
    assert res.audit.lieb_value <= 1e-8 and res.audit.qmaxlin_chain_ok
    assert len(res.audit.details["h0_eigenvalues"]) == 3
    monkeypatch.undo()
    assert scf_minimize(cfg).audit == res.audit  # the guards changed nothing


def test_solve_and_dynamics_never_round_trip_the_state(monkeypatch):
    # a solve returns its factors, and the dynamics read them: with both
    # format conversions refused, a solve converges and audits, and its result
    # is kicked, evolved and compared with itself
    from fermitherm.dynamics import evolve, stability_experiment

    def refuse(*args, **kwargs):
        raise AssertionError("state converted between dense and factored form")

    monkeypatch.setattr(grid_module, "_factor_blocks", refuse)
    monkeypatch.setattr(grid_module, "_materialize", refuse)
    cfg = small_config(n_points=80, r_max=20.0, tol_gamma=1e-11, tol_energy=1e-12)
    res = scf_minimize(cfg)
    assert res.converged and res.audit.lieb_value <= 1e-8 and res.audit.qmaxlin_chain_ok
    kicked = stability_experiment(res, SPEC, cfg.Z, eta=1e-3, horizon=0.1, dt=0.05)
    assert 0.0 < kicked.sup_dist < 1e-2
    samples = evolve(res.gamma, SPEC, cfg.Z, dt=0.05, n_steps=2, reference=res.gamma)
    assert max(s.dist_to_reference for s in samples) <= 1e-8


def test_check_iterates_validates_factors(monkeypatch):
    # the solver runs the factored validation on every iterate
    seen = []
    validate = DensityMatrix.validate

    def recording(self, *args, **kwargs):
        seen.append(self._dense_input)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "validate", recording)
    res = scf_minimize(small_config(n_points=100))
    assert res.converged and seen == [False] * res.iterations


@pytest.mark.parametrize("interactions", [True, False])
def test_audit_bound_reads_three_levels_when_fewer_are_bound(interactions):
    # the 10-bohr box binds only the 1s level; the 2s and 3s comparison
    # levels are positive and must fail the bound, not vanish from it.  The
    # channel-0 pairs of the final solve carry them through the iterations,
    # and they are the lowest three levels of the dense H_0
    cfg = small_config(n_points=200, r_max=10.0, l_max=1, interactions=interactions)
    res = scf_minimize(cfg)
    assert res.converged
    w0 = res.audit.details["h0_eigenvalues"]
    assert len(w0) == 3
    assert w0[0] < 0.0 < w0[1] < w0[2]
    cache = OperatorCache(cfg.make_grid(), cfg.l_max, cfg.Z)
    ham = mean_field_hamiltonian(res.gamma, cfg.Z) if interactions else _bare_blocks(cache)
    assert np.max(np.abs(np.subtract(w0, np.linalg.eigvalsh(ham[0])[:3]))) <= 1e-12
    assert res.audit.eigenvalue_bound_ok is False


def test_process_pool_not_loaded_by_import():
    # the worker pool's modules are imported by the call that fans out
    import fermitherm

    probe = (
        "import sys, fermitherm\n"
        "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(fermitherm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_scipy_linalg_not_loaded_by_import():
    # scipy.linalg and scipy.special each add ~0.3 s to every start; only an
    # eigensolve or a convergent tail sum may pull them in
    import fermitherm

    probe = (
        "import sys, fermitherm\n"
        "from fermitherm import make_power_entropy, q_max_lin\n"
        "q_max_lin(make_power_entropy(2.0), 1.0, 1.0)\n"
        "loaded = {'scipy.linalg', 'scipy.special'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(fermitherm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


mixing_problems = st.fixed_dictionaries(
    {
        "m": st.floats(1.05, 2.95),
        "Z": st.floats(0.5, 3.0),
        "T": st.floats(0.02, 0.5),
        "q_share": st.none() | st.floats(0.01, 0.9),
    }
)


def _mixing_run(problem):
    """A short run on a 40-point grid, every iterate checked; q is a share of
    the bare capacity at mu = 0, and a charge the mean field cannot bind
    just ends the run early."""
    spec, Z, T = make_power_entropy(problem["m"]), problem["Z"], problem["T"]
    grid = build_grid(40, 20.0 / Z)
    bare_levels, _ = OperatorCache(grid, 1, Z).bare_spectrum
    capacity = sum((2 * l + 1) * float(np.sum(spec.g(w / T))) for l, w in enumerate(bare_levels))
    share = problem["q_share"]
    cfg = ScfConfig(
        spec=spec,
        Z=Z,
        T=T,
        q=None if share is None else share * capacity,
        n_points=grid.n_points,
        r_max=grid.r_max,
        l_max=1,
        max_iter=15,
    )
    return scf_minimize(cfg) if cfg.q is not None else scf_global(cfg)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixing_problems)
def test_mixed_iterates_stay_in_K(problem):
    # every iterate's factors are checked (orthonormal orbitals, weights in
    # [0, 1]) right after its step; the returned state is validated densely
    gamma = _mixing_run(problem).gamma
    DensityMatrix(gamma.grid, gamma.blocks).validate()


def test_damped_iterates_never_raise_the_free_energy():
    steps = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mixing_problems)
    def check(problem):
        res = _mixing_run(problem)
        free = [h["free_energy"] for h in res.history]
        for a, b in zip(free, free[1:]):
            assert b <= a + 1e-12 * abs(a)
        steps.extend(h["t"] for h in res.history)

    check()
    # the line search damps: not every accepted step is the full one
    assert any(0.0 < t < 1.0 for t in steps)


def _segment_problem(m, q):
    """A damped iterate (half a step from the warm start) and its filled candidate."""
    cfg = small_config(spec=make_power_entropy(m), T=0.3, q=q, n_points=120, l_max=2)
    cache = OperatorCache(cfg.make_grid(), cfg.l_max, cfg.Z)

    def candidate(gamma):
        ham = mean_field_hamiltonian(gamma, cfg.Z)
        levels, vectors = scf_module._diagonalize_blocks(_channels(cache, *gamma.factors))
        _, occs = scf_module._fill_levels(levels, cfg.spec, cfg.T, cfg.q)
        return ham, scf_module._trimmed(vectors, occs)

    factors0 = scf_module._initial_state(cache, cfg)
    gamma0 = DensityMatrix.from_factors(cache.grid, *factors0)
    factors = scf_module._Segment(factors0, candidate(gamma0)[1]).factors(0.5)
    gamma = DensityMatrix.from_factors(cache.grid, *factors)
    ham, cand = candidate(gamma)
    return cfg, cache, gamma, ham, DensityMatrix.from_factors(cache.grid, *cand), factors, cand


# charges past the 1s level, so the damped iterates carry several orbitals
@pytest.mark.parametrize("m, q", [(1.5, 0.3), (2.0, 0.4), (2.5, 0.4)])
def test_segment_matches_dense_interpolation(m, q):
    cfg, cache, gamma, ham, cand, factors, cand_factors = _segment_problem(m, q)
    segment = scf_module._Segment(factors, cand_factors)
    dense_step = [c - g for c, g in zip(cand.blocks, gamma.blocks)]
    # the damped iterate has more orbitals than the candidate it came from
    assert any(w.shape[1] > v.shape[1] for w, v in zip(factors[0], cand_factors[0]))
    assert segment.defect() == pytest.approx(
        max(np.linalg.norm(d) for d in dense_step), rel=1e-10, abs=1e-15
    )
    slope = sum((2 * l + 1) * np.sum(h * d) for l, (h, d) in enumerate(zip(ham, dense_step)))
    assert abs(segment.slope(ham) - slope) <= 1e-12
    assert abs(segment.slope(_channels(cache, *factors)) - slope) <= 1e-12
    # the step's two-body energy from its factors against the dense contraction
    kin, nuc, direct, exch = _hf_terms(*segment.step_factors(), cache)
    _, _, dense_direct, dense_exch = dense_hf_terms(DensityMatrix(cache.grid, dense_step), cfg.Z)
    assert abs(direct - dense_direct) <= 1e-12 * abs(dense_direct)
    assert abs(exch - dense_exch) <= 1e-12 * abs(dense_exch)
    e_hf = sum(dense_hf_terms(gamma, cfg.Z)[:3]) - dense_hf_terms(gamma, cfg.Z)[3]
    for t in (0.0, 0.2, 0.5, 0.8, 1.0):
        blocks = [(1.0 - t) * g + t * c for g, c in zip(gamma.blocks, cand.blocks)]
        factored = DensityMatrix.from_factors(cache.grid, *segment.factors(t)).blocks
        assert max(np.max(np.abs(f - b)) for f, b in zip(factored, blocks)) <= 1e-12
        exact = DensityMatrix(grid=cache.grid, blocks=blocks)
        entropy = _entropy_of_blocks([lam for lam, _ in segment.spectra(t)], cfg.spec)
        dense_spectra = [np.linalg.eigvalsh(b) for b in blocks]
        assert abs(entropy - _entropy_of_blocks(dense_spectra, cfg.spec)) <= 1e-12
        # the Hartree-Fock energy is the exact quadratic of the slope and the step's
        # two-body energy
        model = e_hf + t * segment.slope(ham) + t * t * (direct - exch)
        kin_t, nuc_t, direct_t, exch_t = dense_hf_terms(exact, cfg.Z)
        assert abs(model - (kin_t + nuc_t + direct_t - exch_t)) <= 1e-12
        assert abs(model - hf_energy(exact, cfg.Z).total_hf) <= 1e-12


def test_optimal_damping_converges_where_linear_mixing_was_slow():
    # linear mixing at alpha = 0.5 needed 30 iterations here
    cfg = small_config(
        spec=make_power_entropy(2.5), Z=3.0, T=0.05, q=1.5, r_max=20.0, l_max=2
    )
    res = scf_minimize(cfg)
    assert res.converged and res.iterations <= 20
    assert res.audit.passed(cfg.tol_gamma)
    assert dense_trace(res.gamma) == pytest.approx(1.5, abs=1e-10)
