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
from .grid import DensityMatrix, kinetic_matrix
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
    if dt == 0.0:
        raise ValueError("dt must be nonzero (negative dt propagates backward)")
    if inner_iterations < 1:
        raise ValueError("inner_iterations must be >= 1")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    if propagator not in ("expm", "cayley"):
        raise ValueError(f"unknown propagator {propagator!r}")


def _sqrt_kinetic(grid, l_max):
    mats = []
    for l in range(l_max + 1):
        w, v = np.linalg.eigh(kinetic_matrix(grid, l))
        mats.append((v * np.sqrt(np.maximum(w, 0.0))) @ v.T)
    return mats


def _trace_norm(block) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(block))))


def hspace_distance(gamma_a: DensityMatrix, gamma_b: DensityMatrix, sqrt_kin=None) -> float:
    """Discrete energy-space norm of the difference.

    Per channel, trace norm of the difference plus trace norm of the
    kinetic-square-root conjugated difference, weighted by 2l+1.
    """
    if gamma_a.grid != gamma_b.grid or gamma_a.l_max != gamma_b.l_max:
        raise ValueError("states live on different discretizations")
    if sqrt_kin is None:
        sqrt_kin = _sqrt_kinetic(gamma_a.grid, gamma_a.l_max)
    total = 0.0
    for l, (ba, bb) in enumerate(zip(gamma_a.blocks, gamma_b.blocks)):
        delta = ba - bb
        conj = sqrt_kin[l] @ delta @ sqrt_kin[l]
        total += (2 * l + 1) * (_trace_norm(delta) + _trace_norm(conj))
    return total


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
        if t.shape[1]:
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
    """
    grid = gamma_state.grid
    gamma_mid = gamma_state
    new_orbitals = orbitals
    prev_field_delta = None
    prev_blocks = None
    for k in range(inner):
        ham = mean_field_hamiltonian(gamma_mid, cache.Z, cache)
        if prev_blocks is not None:
            field_delta = sum(
                float(np.linalg.norm(h - p)) for h, p in zip(ham.blocks, prev_blocks)
            )
            if (
                prev_field_delta is not None
                and field_delta > prev_field_delta
                and field_delta > 1e-12
            ):
                raise StepSizeError(
                    f"midpoint iteration diverging (dH {prev_field_delta:.3e} -> "
                    f"{field_delta:.3e}); reduce dt"
                )
            prev_field_delta = field_delta
        prev_blocks = ham.blocks
        new_orbitals = apply_u(ham.blocks, dt, orbitals)
        if k + 1 < inner:
            gamma_next = _materialize(grid, new_orbitals, occupations)
            gamma_mid = DensityMatrix(
                grid=grid,
                blocks=[
                    0.5 * (a + b)
                    for a, b in zip(gamma_state.blocks, gamma_next.blocks)
                ],
            )
    return new_orbitals


def _sample(t, gamma, spec, cache, reference, sqrt_kin, keep):
    kin, nuc, direct, exch = _hf_terms(gamma, cache)
    # eigenvalues of the materialized state, so roundoff drift stays visible
    entropy = _entropy_of_occupations(
        [np.linalg.eigvalsh(b) for b in gamma.blocks], spec
    )
    dist = (
        hspace_distance(gamma, reference, sqrt_kin)
        if reference is not None
        else math.nan
    )
    return TrajectorySample(
        t=t,
        gamma=gamma if keep else None,
        trace=gamma.trace(),
        hf_energy=kin + nuc + direct - exch,
        entropy_trace=entropy,
        dist_to_reference=dist,
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
    is carried as orbital factors (unitary conjugation preserves the
    factorization exactly); a symmetric re-orthonormalization every 200
    steps absorbs roundoff drift.  Samples include t = 0 and the final
    step; with ``keep_gamma`` each carries the state it was taken from.
    """
    _check_step_controls(dt, inner_iterations, sample_stride, propagator)
    cache = OperatorCache(gamma0.grid, gamma0.l_max, Z)
    grid = gamma0.grid
    apply_u = _expm_apply if propagator == "expm" else _cayley_apply
    sqrt_kin = (
        _sqrt_kinetic(grid, gamma0.l_max) if reference is not None else None
    )
    if reference is not None and not reference.is_complex():
        reference = DensityMatrix(
            grid=reference.grid,
            blocks=[b.astype(complex) for b in reference.blocks],
        )
    orbitals, occupations = _factor_blocks(gamma0)
    gamma_state = _materialize(grid, orbitals, occupations)
    samples = [_sample(0.0, gamma_state, spec, cache, reference, sqrt_kin, keep_gamma)]
    for step in range(1, n_steps + 1):
        orbitals = _midpoint_unitary_step(
            gamma_state, orbitals, occupations, dt, cache, inner_iterations, apply_u
        )
        if step % _LOWDIN_EVERY == 0:
            orbitals = [_lowdin(w_mat) for w_mat in orbitals]
        gamma_state = _materialize(grid, orbitals, occupations)
        if step % sample_stride == 0 or step == n_steps:
            samples.append(
                _sample(step * dt, gamma_state, spec, cache, reference, sqrt_kin, keep_gamma)
            )
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

    The perturbation conjugates each block by exp(-i eta A_l) with A_l a
    seeded random Hermitian of unit Frobenius norm, so the perturbed state
    keeps the exact trace and occupation spectrum (it stays in K_q).
    """
    if not minimizer.converged:
        raise ValueError("stability_experiment requires a converged minimizer")
    _check_step_controls(dt, inner_iterations, sample_stride, propagator)
    gamma_ref = minimizer.gamma
    grid = gamma_ref.grid
    rng = np.random.default_rng(seed)
    blocks0 = []
    for b in gamma_ref.blocks:
        n = b.shape[0]
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = 0.5 * (raw + raw.conj().T)
        herm /= np.linalg.norm(herm)
        if eta == 0.0:
            blocks0.append(b.astype(complex))
            continue
        w, v = np.linalg.eigh(herm)
        u_pert = (v * np.exp(-1j * eta * w)) @ v.conj().T
        blocks0.append(u_pert @ b @ u_pert.conj().T)
    gamma0 = DensityMatrix(grid=grid, blocks=blocks0)
    n_steps = max(1, int(round(horizon / dt)))
    samples = evolve(
        gamma0,
        spec,
        Z,
        dt,
        n_steps,
        reference=gamma_ref,
        sample_stride=sample_stride,
        inner_iterations=inner_iterations,
        propagator=propagator,
    )
    return StabilityResult(
        eta=eta,
        sup_dist=max(s.dist_to_reference for s in samples),
        samples=samples,
    )
