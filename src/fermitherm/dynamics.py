"""Mean-field von Neumann propagation and orbital-stability experiments.

The flow i d(gamma)/dt = [H_gamma, gamma] is integrated by a self-consistent
midpoint scheme in conjugation form: each step conjugates the state by a
unitary built from the mean field frozen at an iterated midpoint estimate.
Because the update is a unitary conjugation, the occupation spectrum, the
trace and tr beta(gamma) are conserved structurally, not just to the order
of the integrator.

Two interchangeable unitaries are provided: the exact exponential through an
eigendecomposition ("expm") and the Cayley form (I - i dt H/2)(I + i dt H/2)^-1
("cayley").  Both are exactly unitary and second order; the Cayley form
applies to the orbital factors directly and is an order of magnitude cheaper,
which is what makes 1e4-step trajectories affordable.

The state is carried as orbital factors gamma_l = W_l diag(nu_l) W_l^H from start
to end; dense blocks are factored only at the edge (input state, reference,
minimizer) and built only as the input of ``mean_field_hamiltonian``, which the
sampled energy reuses.  Entropy and distance come from the factors alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    OperatorCache,
    _entropy_of_occupations,
    _hf_terms,
    mean_field_hamiltonian,
)
from .entropy import EntropySpec
from .grid import DensityMatrix
from .scf import ScfResult

__all__ = [
    "StabilityResult",
    "StepSizeError",
    "TrajectorySample",
    "evolve",
    "hspace_distance",
    "stability_experiment",
]

_LOWDIN_EVERY = 200
_DROP_TOL = 1e-14  # occupations at or below this are dropped from the factors


class StepSizeError(RuntimeError):
    """Midpoint fixed-point iteration diverged; reduce dt."""


@dataclass
class TrajectorySample:
    """Observables along a trajectory; gamma is retained only on request."""

    t: float
    gamma: DensityMatrix | None
    trace: float
    hf_energy: float
    entropy_trace: float
    dist_to_reference: float


def _check_step_controls(dt, inner_iterations, sample_stride, propagator) -> None:
    """Reject step controls that cannot drive a propagation."""
    if dt == 0.0 or not math.isfinite(dt):
        raise ValueError("dt must be finite and nonzero (negative dt propagates backward)")
    if inner_iterations < 1:
        raise ValueError("inner_iterations must be >= 1")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    if propagator not in ("expm", "cayley"):
        raise ValueError(f"unknown propagator {propagator!r}")


def _step_count(horizon, dt) -> int:
    """Number of dt steps covering ``horizon``; refuses a horizon with none."""
    ratio = horizon / dt
    if not math.isfinite(ratio) or round(ratio) < 1:
        raise ValueError(f"horizon {horizon} gives no step of dt {dt}")
    return int(round(ratio))


def _kinetic_root(grid, l, x):
    """M x, O(n k), for M with M^T M = T_l: forward differences / h (Dirichlet
    zero padding) stacked over the rows sqrt(l(l+1)) / r."""
    diff = np.diff(x, axis=0, prepend=0.0, append=0.0) / grid.h
    return np.vstack([diff, (math.sqrt(l * (l + 1)) / grid.r)[:, None] * x])


def _trace_norm_of_difference(x_a, nu_a, x_b, nu_b) -> float:
    """||X_a diag(nu_a) X_a^H - X_b diag(nu_b) X_b^H||_1 on the span of [X_a, X_b].

    With Q from a thin QR of [X_a, X_b] and R = Q^H X, the difference has the nonzero
    spectrum of R_a diag(nu_a) R_a^H - R_b diag(nu_b) R_b^H; equal factors give 0.
    """
    q_h = np.linalg.qr(np.hstack([x_a, x_b]))[0].conj().T
    r_a, r_b = q_h @ x_a, q_h @ x_b
    small = (r_a * nu_a) @ r_a.conj().T - (r_b * nu_b) @ r_b.conj().T
    return float(np.sum(np.abs(np.linalg.eigvalsh(small))))


def _factored_distance(grid, factors_a, factors_b) -> float:
    total = 0.0
    for l, (w_a, nu_a, w_b, nu_b) in enumerate(zip(*factors_a, *factors_b)):
        m_a, m_b = _kinetic_root(grid, l, w_a), _kinetic_root(grid, l, w_b)
        total += (2 * l + 1) * (
            _trace_norm_of_difference(w_a, nu_a, w_b, nu_b)
            + _trace_norm_of_difference(m_a, nu_a, m_b, nu_b)
        )
    return total


def hspace_distance(gamma_a: DensityMatrix, gamma_b: DensityMatrix) -> float:
    """Discrete energy-space norm of the difference.

    Per channel, trace norm of the difference plus trace norm of the
    kinetic-square-root conjugated difference, weighted by 2l+1; both are
    taken on the span of the two states' orbital factors (rank 2k).
    """
    if gamma_a.grid != gamma_b.grid or gamma_a.l_max != gamma_b.l_max:
        raise ValueError("states live on different discretizations")
    return _factored_distance(gamma_a.grid, _factor_blocks(gamma_a), _factor_blocks(gamma_b))


def _factor_blocks(gamma: DensityMatrix):
    """Orbital factorization gamma_l = W_l diag(n_l) W_l^H, small n dropped."""
    orbitals = []
    occupations = []
    for b in gamma.blocks:
        w, v = np.linalg.eigh(b.astype(complex))
        keep = w > _DROP_TOL
        orbitals.append(np.ascontiguousarray(v[:, keep]))
        occupations.append(w[keep])
    return orbitals, occupations


def _materialize(grid, orbitals, occupations) -> DensityMatrix:
    blocks = []
    for w_mat, occ in zip(orbitals, occupations):
        b = (w_mat * occ) @ w_mat.conj().T
        blocks.append(0.5 * (b + b.conj().T))
    return DensityMatrix(grid=grid, blocks=blocks)


def _cayley_apply(h_blocks, dt, thins):
    """(I + i dt H/2)^-1 (I - i dt H/2) applied to thin columns, all channels.

    Channels are padded to a common width and solved in one batched call;
    zero-padded columns solve to zero and are sliced away.
    """
    widths = [t.shape[1] for t in thins]
    r_max = max(widths, default=0)
    if r_max == 0:
        return [t.copy() for t in thins]
    stack = np.stack([np.asarray(h, dtype=complex) for h in h_blocks])
    n_ch, n, _ = stack.shape
    rhs = np.zeros((n_ch, n, r_max), dtype=complex)
    for k, t in enumerate(thins):
        rhs[k, :, : t.shape[1]] = t - (0.5j * dt) * (stack[k] @ t)
    a_plus = (0.5j * dt) * stack
    idx = np.arange(n)
    a_plus[:, idx, idx] += 1.0
    solution = np.linalg.solve(a_plus, rhs)
    return [solution[k, :, :w] for k, w in enumerate(widths)]


def _expm_apply(h_blocks, dt, thins):
    out = []
    for h_block, thin in zip(h_blocks, thins):
        w, v = np.linalg.eigh(h_block)
        phases = np.exp(-1j * dt * w)
        out.append(v @ (phases[:, None] * (v.conj().T @ thin)))
    return out


def _midpoint_unitary_step(gamma_state, orbitals, occupations, dt, cache, inner, apply_u):
    """One conjugation step; returns the new orbital list.

    The mean field is frozen at a midpoint estimate improved by ``inner``
    fixed-point iterations; a growing field update signals a too-large dt.
    The midpoint is materialized from the factors [W_n, W_next], [nu/2, nu/2].
    """
    gamma_mid = gamma_state
    new_orbitals = orbitals
    prev_field_delta = math.inf
    prev_blocks = None
    for k in range(inner):
        ham = mean_field_hamiltonian(gamma_mid, cache.Z, cache)
        if prev_blocks is not None:
            field_delta = sum(float(np.linalg.norm(h - p)) for h, p in zip(ham.blocks, prev_blocks))
            if field_delta > max(prev_field_delta, 1e-12):
                change = f"dH {prev_field_delta:.3e} -> {field_delta:.3e}"
                raise StepSizeError(f"midpoint iteration diverging ({change}); reduce dt")
            prev_field_delta = field_delta
        prev_blocks = ham.blocks
        new_orbitals = apply_u(ham.blocks, dt, orbitals)
        if k + 1 < inner:
            gamma_mid = _materialize(
                gamma_state.grid,
                [np.hstack([a, b]) for a, b in zip(orbitals, new_orbitals)],
                [0.5 * np.concatenate([occ, occ]) for occ in occupations],
            )
    return new_orbitals


def _sample(t, gamma, factors, spec, cache, reference, keep):
    """Observables of ``gamma``; the entropy from the spectra of the k x k Gram
    matrices of its ``factors``, W diag(sqrt nu), which keep roundoff drift visible."""
    kin, nuc, direct, exch = _hf_terms(gamma, cache)
    scaled = [w_mat * np.sqrt(occ) for w_mat, occ in zip(*factors)]
    gram_spectra = [np.linalg.eigvalsh(x.conj().T @ x) for x in scaled]
    return TrajectorySample(
        t=t,
        gamma=gamma if keep else None,
        trace=gamma.trace(),
        hf_energy=kin + nuc + direct - exch,
        entropy_trace=_entropy_of_occupations(gram_spectra, spec),
        dist_to_reference=(
            math.nan if reference is None else _factored_distance(gamma.grid, factors, reference)
        ),
    )


def evolve(
    gamma0: DensityMatrix,
    spec: EntropySpec,
    Z: float,
    dt: float,
    n_steps: int,
    reference: DensityMatrix | None = None,
    sample_stride: int = 1,
    inner_iterations: int = 3,
    propagator: str = "cayley",
    keep_gamma: bool = False,
) -> list:
    """Propagate and sample observables every ``sample_stride`` steps.

    Each step conjugates the state by exp(-i dt H[gamma_mid]) ("expm", per
    channel by eigendecomposition) or its Cayley approximant ("cayley"),
    with the midpoint state iterated ``inner_iterations`` times.  The state
    and the reference are factored once and carried as orbital factors
    (unitary conjugation preserves the factorization exactly); a symmetric
    re-orthonormalization every 200 steps absorbs roundoff drift.  Samples
    include t = 0 and the final step; with ``keep_gamma`` each carries the
    state it was taken from.
    """
    _check_step_controls(dt, inner_iterations, sample_stride, propagator)
    if reference is not None:
        if reference.grid != gamma0.grid or reference.l_max != gamma0.l_max:
            raise ValueError("states live on different discretizations")
        reference = _factor_blocks(reference)
    return _propagate(
        gamma0.grid, _factor_blocks(gamma0), spec, Z, dt, n_steps, reference,
        sample_stride, inner_iterations, propagator, keep_gamma,
    )


def _propagate(grid, factors, spec, Z, dt, n_steps, reference, sample_stride,
               inner_iterations, propagator, keep_gamma) -> list:
    """``evolve`` on a factored state and a factored (or None) reference."""
    orbitals, occupations = factors
    cache = OperatorCache(grid, len(orbitals) - 1, Z)
    apply_u = _expm_apply if propagator == "expm" else _cayley_apply
    gamma_state = _materialize(grid, orbitals, occupations)
    samples = [_sample(0.0, gamma_state, factors, spec, cache, reference, keep_gamma)]
    for step in range(1, n_steps + 1):
        orbitals = _midpoint_unitary_step(
            gamma_state, orbitals, occupations, dt, cache, inner_iterations, apply_u
        )
        if step % _LOWDIN_EVERY == 0:
            orbitals = [_lowdin(w_mat) for w_mat in orbitals]
        gamma_state = _materialize(grid, orbitals, occupations)
        if step % sample_stride == 0 or step == n_steps:
            samples.append(_sample(
                step * dt, gamma_state, (orbitals, occupations), spec, cache, reference, keep_gamma
            ))
    return samples


def _lowdin(w_mat):
    """Symmetric re-orthonormalization W (W^H W)^{-1/2}."""
    if w_mat.shape[1] == 0:
        return w_mat
    overlap = w_mat.conj().T @ w_mat
    w, v = np.linalg.eigh(overlap)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return w_mat @ inv_sqrt


@dataclass
class StabilityResult:
    eta: float
    sup_dist: float
    samples: list


def stability_experiment(
    minimizer: ScfResult,
    spec: EntropySpec,
    Z: float,
    eta: float,
    horizon: float,
    dt: float,
    seed: int = 0,
    sample_stride: int = 10,
    inner_iterations: int = 3,
    propagator: str = "cayley",
) -> StabilityResult:
    """Kick a converged minimizer by a unitary of size eta and track dist.

    The perturbation conjugates each block by U_l = exp(-i eta A_l) with A_l
    a seeded random Hermitian of unit Frobenius norm, so the perturbed state
    keeps the exact trace and occupation spectrum (it stays in K_q).  The
    minimizer is factored once; the kick acts on its orbitals, U_l W_l, and
    the same factors serve as the reference.
    """
    if not minimizer.converged:
        raise ValueError("stability_experiment requires a converged minimizer")
    _check_step_controls(dt, inner_iterations, sample_stride, propagator)
    n_steps = _step_count(horizon, dt)
    reference = _factor_blocks(minimizer.gamma)
    rng = np.random.default_rng(seed)
    kicked = []
    for w_ref in reference[0]:
        n = w_ref.shape[0]
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = 0.5 * (raw + raw.conj().T)
        herm /= np.linalg.norm(herm)
        kicked += _expm_apply([herm], eta, [w_ref])
    samples = _propagate(
        minimizer.gamma.grid, (kicked, reference[1]), spec, Z, dt, n_steps, reference,
        sample_stride, inner_iterations, propagator, False,
    )
    return StabilityResult(eta, max(s.dist_to_reference for s in samples), samples)
