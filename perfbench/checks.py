"""Checks on benchmark outputs, from properties the method must have.

Every check returns a list of problems; an empty list means it passed.  None
of them compares against a stored copy of an earlier run: the references are
the proven inequalities, conservation laws, and the independent linear-model
oracle in ``oracle.py``.
"""

from __future__ import annotations

import math

import numpy as np

# Linear-model agreement and the I_lin(q) <= I(q) <= 0 bracket.
ORACLE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
TRACE_TOL = 1e-10
SPECTRUM_TOL = 1e-10
CONSERVATION_TOL = 1e-11
# Criterion-11 envelopes on sup_dist, per kick size.
ENVELOPES = {1e-3: 2e-4, 1e-2: 2e-3}
RATIO_RANGE = (5.0, 20.0)


def check_bracket(q, free_energy, point) -> list:
    """I_lin(q) <= I(q) <= 0: exchange never exceeds direct, and q = 0 costs nothing."""
    if not point.free_energy - ORACLE_TOL <= free_energy <= ORACLE_TOL:
        return [
            f"q={q}: I={free_energy!r} outside [I_lin={point.free_energy!r}, 0]"
        ]
    return []


def check_scf(result, q, point) -> list:
    """A converged constrained minimizer at charge q."""
    problems = []
    if not result.converged:
        return [f"scf at q={q} did not converge ({result.status})"]
    if not result.residual <= RESIDUAL_TOL:
        problems.append(f"residual {result.residual:.3e} > {RESIDUAL_TOL}")
    trace = result.gamma.trace()
    if not abs(trace - q) <= TRACE_TOL:
        problems.append(f"trace {trace!r} differs from q={q}")
    for l, block in enumerate(result.gamma.blocks):
        w = np.linalg.eigvalsh(block)
        if w[0] < -SPECTRUM_TOL or w[-1] > 1.0 + SPECTRUM_TOL:
            problems.append(f"block l={l} spectrum [{w[0]:.3e}, {w[-1]!r}] outside [0, 1]")
    if not result.mu < 0.0:
        problems.append(f"mu={result.mu!r} is not negative")
    audit = result.audit
    if audit is None:
        problems.append("converged result carries no minimizer audit")
    else:
        if not audit.lieb_value <= 1e-8:
            problems.append(f"tr(|x| H gamma) = {audit.lieb_value:.3e} > 1e-8")
        if not audit.eigenvalue_bound_ok:
            problems.append("l=0 levels above -(Z-q)^2/(4 j^2)")
        if not audit.qmaxlin_chain_ok:
            problems.append("charge chain q <= tr g(H/T) <= tr g(H_bare/T) broken")
        if not audit.energy_negative_ok:
            problems.append("free energy not negative")
    return problems + check_bracket(q, result.energy.total_free, point)


def check_sweep_rows(rows, tol_energy) -> list:
    """All rows converged, I(0) = 0, and I(q) nonincreasing within 10 tol_energy."""
    problems = [f"row q={r.q} did not converge" for r in rows if not r.converged]
    if rows and rows[0].q == 0.0 and rows[0].free_energy != 0.0:
        problems.append(f"I(0) = {rows[0].free_energy!r}, not 0")
    tol = 10.0 * tol_energy
    for a, b in zip(rows, rows[1:]):
        if b.free_energy > a.free_energy + tol:
            problems.append(f"I rises from q={a.q} to q={b.q}")
    return problems


def linear_row_matches(row, point) -> bool:
    """An interaction-free sweep row agrees with the oracle in I and mu."""
    if abs(row.free_energy - point.free_energy) > ORACLE_TOL:
        return False
    if math.isinf(point.mu):
        return row.mu == point.mu
    return abs(row.mu - point.mu) <= ORACLE_TOL


def _spread(values) -> float:
    return max(values) - min(values)


def check_trajectory(outcome) -> list:
    """Conservation along a kicked trajectory and the criterion-11 envelope."""
    problems = []
    samples = outcome.samples
    if _spread([s.trace for s in samples]) > CONSERVATION_TOL:
        problems.append(f"eta={outcome.eta}: trace drifts by more than {CONSERVATION_TOL}")
    if _spread([s.entropy_trace for s in samples]) > CONSERVATION_TOL:
        problems.append(f"eta={outcome.eta}: tr beta drifts by more than {CONSERVATION_TOL}")
    if not math.isfinite(outcome.sup_dist):
        problems.append(f"eta={outcome.eta}: sup_dist is not finite")
    elif outcome.sup_dist > ENVELOPES[outcome.eta]:
        problems.append(
            f"eta={outcome.eta}: sup_dist {outcome.sup_dist:.3e} above {ENVELOPES[outcome.eta]}"
        )
    return problems


def check_kick_ratio(small, large) -> list:
    """sup_dist grows linearly with the kick: ratio of the 1e-2 to the 1e-3 run."""
    ratio = large.sup_dist / small.sup_dist
    lo, hi = RATIO_RANGE
    if not lo <= ratio <= hi:
        return [f"sup_dist ratio {ratio!r} outside [{lo}, {hi}]"]
    return []
