"""The three benchmark workloads: inputs, one timed round, and its checks.

Each workload calls the library's public entry points through their modules
(``scf.scf_minimize``, ``scf.charge_sweep``, ``dynamics.stability_experiment``),
the same calls the command line makes, so the traced run sees them.  A round
is always the same set of ``ops`` operations; ``check`` returns a label for
each one that failed and the problems found in the ones that did not.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

from fermitherm import dynamics, scf
from fermitherm.entropy import make_power_entropy

import checks
from oracle import LinearOracle

SPEC2 = make_power_entropy(2.0)

# Criterion 8/9 problem: m=2, Z=T=1 on n=900, r_max=90, l_max=2.
SCF_GRID = dict(n_points=900, r_max=90.0, l_max=2)
SCF_Q = 0.1
SWEEP_QS = (0.0, 0.02, 0.05, 0.1, 0.148)

# Criterion-11 reference minimizer and kicked trajectories.  200 steps make
# each trajectory reach the periodic Loewdin re-orthonormalization once.
STABILITY_ETAS = (1e-3, 1e-2)
STABILITY_DT = 0.05
STABILITY_STEPS = 200
STABILITY_STRIDE = 20


def _scf_config(**overrides):
    return scf.ScfConfig(
        spec=SPEC2, Z=1.0, T=1.0, q=SCF_Q, tol_gamma=1e-9, tol_energy=1e-9,
        max_iter=300, **SCF_GRID, **overrides,
    )


def _oracle() -> LinearOracle:
    return LinearOracle(SCF_GRID["n_points"], SCF_GRID["r_max"], 1.0, 1.0, SCF_GRID["l_max"])


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception is its outcome, counted as a failure."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the benchmark counts failures and carries on
        return exc


class ScfWorkload:
    """One criterion-8 solve per round; the eigensolve dominates."""

    name = "scf"
    ops = 1

    def __init__(self, seed: int, workers: int):
        self.config = _scf_config()

    def round(self):
        return [_attempt(scf.scf_minimize, self.config)]

    def steps(self, outcome) -> int:
        return sum(not isinstance(r, Exception) for r in outcome)

    def check(self, outcome):
        (result,) = outcome
        if isinstance(result, Exception):
            return [f"scf q={SCF_Q}: {result!r}"], []
        return [], checks.check_scf(result, SCF_Q, _oracle().point(SCF_Q))


class SweepWorkload:
    """The criterion-9 charge list, with and without interactions, 2 workers.

    Rows of the interaction-free sweep that disagree with the oracle are
    failed operations: ``charge_sweep`` drops ``interactions`` when it rebuilds
    the per-charge config, so they run the interacting model.  Where one s
    orbital alone is occupied the two models agree and the row passes.
    """

    name = "sweep"
    ops = 2 * len(SWEEP_QS)

    def __init__(self, seed: int, workers: int):
        self.workers = workers
        self.interacting = _scf_config()
        self.linear = dataclasses.replace(self.interacting, interactions=False)

    def round(self):
        return [
            _attempt(scf.charge_sweep, cfg, SWEEP_QS, workers=self.workers)
            for cfg in (self.interacting, self.linear)
        ]

    def steps(self, outcome) -> int:
        return sum(len(s.rows) for s in outcome if not isinstance(s, Exception))

    def check(self, outcome):
        interacting, linear = outcome
        oracle = _oracle()
        points = [oracle.point(q) for q in SWEEP_QS]
        failed, problems = [], []
        if isinstance(interacting, Exception):
            failed += [f"interacting sweep: {interacting!r}"] * len(SWEEP_QS)
        else:
            problems += checks.check_sweep_rows(interacting.rows, self.interacting.tol_energy)
            for row, point in zip(interacting.rows, points):
                problems += checks.check_bracket(row.q, row.free_energy, point)
        if isinstance(linear, Exception):
            failed += [f"linear sweep: {linear!r}"] * len(SWEEP_QS)
        else:
            good = []
            for row, point in zip(linear.rows, points):
                if checks.linear_row_matches(row, point):
                    good.append(row)
                else:
                    failed.append(f"linear row q={row.q}: I={row.free_energy!r}, "
                                  f"oracle {point.free_energy!r}")
            problems += checks.check_sweep_rows(good, self.linear.tol_energy)
        return failed, problems


class StabilityWorkload:
    """Two kicked trajectories of the criterion-11 minimizer, one per thread.

    The kick direction is drawn from the run's seed; both kick sizes use the
    same direction, so their sup_dist ratio measures the linear response.
    """

    name = "stability"
    ops = len(STABILITY_ETAS)

    def __init__(self, seed: int, workers: int):
        self.seed = seed
        self.workers = workers
        config = scf.ScfConfig(
            spec=SPEC2, Z=1.0, T=1.0, q=0.1, n_points=400, r_max=40.0, l_max=1,
            tol_gamma=1e-11, tol_energy=1e-12, max_iter=500,
        )
        self.reference = scf.scf_minimize(config)
        if not self.reference.converged:
            raise RuntimeError(f"reference minimizer did not converge: {self.reference.status}")

    def _trajectory(self, eta):
        return _attempt(
            dynamics.stability_experiment,
            self.reference, SPEC2, 1.0, eta=eta,
            horizon=STABILITY_STEPS * STABILITY_DT, dt=STABILITY_DT, seed=self.seed,
            sample_stride=STABILITY_STRIDE, inner_iterations=3, propagator="cayley",
        )

    def round(self):
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(self._trajectory, STABILITY_ETAS))

    def steps(self, outcome) -> int:
        return STABILITY_STEPS * sum(not isinstance(r, Exception) for r in outcome)

    def check(self, outcome):
        failed = [
            f"trajectory eta={eta}: {r!r}"
            for eta, r in zip(STABILITY_ETAS, outcome) if isinstance(r, Exception)
        ]
        done = [r for r in outcome if not isinstance(r, Exception)]
        problems = [p for r in done for p in checks.check_trajectory(r)]
        if not failed:
            problems += checks.check_kick_ratio(*outcome)
        return failed, problems


WORKLOADS = {w.name: w for w in (ScfWorkload, SweepWorkload, StabilityWorkload)}
