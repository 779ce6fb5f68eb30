"""The benchmark's checks, exercised at small sizes.

Run with ``python3 -m pytest perfbench/tests``.  Each check must accept a
correct result and reject a known-wrong one.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from oracle import LinearOracle  # noqa: E402
from spans import Recorder, layer_metrics  # noqa: E402

from fermitherm import dynamics, scf  # noqa: E402
from fermitherm.entropy import make_power_entropy  # noqa: E402
from fermitherm.grid import DensityMatrix  # noqa: E402

SPEC2 = make_power_entropy(2.0)
N, R_MAX, L_MAX = 150, 75.0, 1  # a box wide enough for the 3s level bound
Q = 0.1  # the interacting and the linear minimizer differ here


def _config(q, **overrides):
    return scf.ScfConfig(
        spec=SPEC2, Z=1.0, T=1.0, q=q, n_points=N, r_max=R_MAX, l_max=L_MAX,
        tol_gamma=1e-11, tol_energy=1e-12, max_iter=500, **overrides,
    )


def _row(q, result):
    return scf.SweepRow(q, result.energy.total_free, result.mu, result.converged, "bound")


@pytest.fixture(scope="module")
def oracle():
    return LinearOracle(N, R_MAX, 1.0, 1.0, L_MAX)


@pytest.fixture(scope="module")
def minimizer():
    result = scf.scf_minimize(_config(Q))
    assert result.converged
    return result


@pytest.fixture(scope="module")
def kicked(minimizer):
    def run(eta):
        return dynamics.stability_experiment(
            minimizer, SPEC2, 1.0, eta=eta, horizon=0.5, dt=0.05, seed=5,
            sample_stride=2, inner_iterations=3,
        )

    return run(1e-3), run(1e-2)


@pytest.mark.parametrize("q", [0.0, 0.02, Q])
def test_oracle_matches_linear_solver(oracle, q):
    result = scf.scf_minimize(_config(q, interactions=False))
    assert checks.linear_row_matches(_row(q, result), oracle.point(q))


def test_oracle_levels_are_hydrogen_like(oracle):
    # -1/(4 j^2): 1s, 2s, 2p within the discretization error at h = 0.5
    (s_levels, _), (p_levels, _) = oracle.levels
    assert abs(s_levels[0] + 0.25) < 1e-2
    assert abs(s_levels[1] + 1 / 16) < 1e-2
    assert abs(p_levels[0] + 1 / 16) < 1e-2


def test_linear_check_rejects_interacting_values(oracle, minimizer):
    assert not checks.linear_row_matches(_row(Q, minimizer), oracle.point(Q))


def test_linear_check_rejects_wrong_mu(oracle):
    point = oracle.point(Q)
    row = scf.SweepRow(Q, point.free_energy, point.mu + 1e-6, True, "bound")
    assert not checks.linear_row_matches(row, point)


def test_scf_check_accepts_minimizer(oracle, minimizer):
    assert checks.check_scf(minimizer, Q, oracle.point(Q)) == []


def test_scf_check_rejects_wrong_trace(oracle, minimizer):
    scaled = DensityMatrix(minimizer.gamma.grid, [1.001 * b for b in minimizer.gamma.blocks])
    bad = dataclasses.replace(minimizer, gamma=scaled)
    assert any("trace" in p for p in checks.check_scf(bad, Q, oracle.point(Q)))


def test_scf_check_rejects_spectrum_above_one(oracle, minimizer):
    blocks = [b.copy() for b in minimizer.gamma.blocks]
    blocks[1][0, 0] += 2.0
    blocks[0][0, 0] -= 2.0 * 3  # keep the trace at q
    bad = dataclasses.replace(minimizer, gamma=DensityMatrix(minimizer.gamma.grid, blocks))
    problems = checks.check_scf(bad, Q, oracle.point(Q))
    assert any("spectrum" in p for p in problems)


def test_scf_check_rejects_positive_mu(oracle, minimizer):
    bad = dataclasses.replace(minimizer, mu=0.01)
    assert any("mu" in p for p in checks.check_scf(bad, Q, oracle.point(Q)))


def test_scf_check_rejects_energy_below_linear_model(oracle, minimizer):
    point = oracle.point(Q)
    energy = dataclasses.replace(minimizer.energy, total_free=point.free_energy - 1e-6)
    bad = dataclasses.replace(minimizer, energy=energy)
    assert any("I_lin" in p for p in checks.check_scf(bad, Q, point))


def test_scf_check_rejects_unconverged(oracle, minimizer):
    bad = dataclasses.replace(minimizer, converged=False, status="max_iter")
    assert checks.check_scf(bad, Q, oracle.point(Q))


def test_sweep_rows_accept_monotone(oracle):
    rows = [scf.SweepRow(q, oracle.point(q).free_energy, oracle.point(q).mu, True, "bound")
            for q in (0.0, 0.02, 0.05, Q)]
    assert checks.check_sweep_rows(rows, 1e-9) == []


def test_sweep_rows_reject_rise_and_nonzero_origin():
    rows = [
        scf.SweepRow(0.0, 1e-6, -math.inf, True, "bound"),
        scf.SweepRow(0.1, -0.01, -0.05, True, "bound"),
        scf.SweepRow(0.2, -0.009, -0.03, True, "bound"),
    ]
    problems = checks.check_sweep_rows(rows, 1e-9)
    assert any("I(0)" in p for p in problems)
    assert any("rises" in p for p in problems)


def test_trajectory_checks_accept_kicked_runs(kicked):
    small, large = kicked
    assert checks.check_trajectory(small) == []
    assert checks.check_trajectory(large) == []
    assert checks.check_kick_ratio(small, large) == []


def _with_sample(outcome, index, **changes):
    samples = list(outcome.samples)
    samples[index] = dataclasses.replace(samples[index], **changes)
    return dataclasses.replace(outcome, samples=samples)


def test_trajectory_check_rejects_perturbed_trace(kicked):
    small, _ = kicked
    bad = _with_sample(small, 3, trace=small.samples[3].trace + 1e-9)
    assert any("trace" in p for p in checks.check_trajectory(bad))


def test_trajectory_check_rejects_entropy_drift(kicked):
    small, _ = kicked
    bad = _with_sample(small, 2, entropy_trace=small.samples[2].entropy_trace * (1 + 1e-6))
    assert any("tr beta" in p for p in checks.check_trajectory(bad))


def test_trajectory_check_rejects_envelope_and_nan(kicked):
    small, _ = kicked
    assert checks.check_trajectory(dataclasses.replace(small, sup_dist=1e-3))
    assert checks.check_trajectory(dataclasses.replace(small, sup_dist=math.nan))


def test_kick_ratio_rejects_nonlinear_response(kicked):
    small, _ = kicked
    assert checks.check_kick_ratio(small, small)


def test_recorder_traces_layers_and_restores_bindings():
    original = scf._diagonalize_blocks
    recorder = Recorder()
    recorder.install()
    try:
        assert scf._diagonalize_blocks is not original
        result = scf.scf_minimize(_config(0.02))
    finally:
        recorder.uninstall()
    assert scf._diagonalize_blocks is original
    assert recorder.missing == []
    metrics = layer_metrics(recorder.spans, workers=1)
    assert metrics["scf.solve.calls"]["value"] == 1
    assert metrics["scf.iterations"]["value"] == result.iterations
    assert metrics["scf.eigensolve.calls"]["value"] == result.iterations + 2
    assert metrics["scf.eigensolve.dim"]["value"] == (result.iterations + 2) * N * (L_MAX + 1)
    (solve,) = [s for s in recorder.spans if s.layer == "scf.solve"]
    children = sum(s.duration for s in recorder.spans if s.parent == solve.span_id)
    assert metrics["scf.solve.self_s"]["value"] == pytest.approx(solve.duration - children)
    assert metrics["dynamics.midpoint_step.calls"]["value"] == 0
