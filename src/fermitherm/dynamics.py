"""Mean-field von Neumann propagation and orbital-stability experiments.

The flow i d(gamma)/dt = [H_gamma, gamma] is integrated by a self-consistent
midpoint scheme in conjugation form: each step conjugates the state by a
unitary built from the mean field frozen at an iterated midpoint estimate.
Because the update is a unitary conjugation, the occupation spectrum, the
trace and tr beta(gamma) are conserved structurally, not just to the order
of the integrator.

Two interchangeable unitaries are provided: the exact exponential through an
eigendecomposition ("expm") and the Cayley form (I - i dt H/2)(I + i dt H/2)^-1
("cayley").  Both are exactly unitary and second order.

The state is carried as orbital factors gamma_l = W_l diag(nu_l) W_l^H from start
to end, read from ``DensityMatrix.factors`` of the input state, the reference
and the minimizer (a state built from dense blocks is factored there, once).
Both propagators take the factored mean field of the midpoint
(``energy._factored_field``).  A Cayley step reads its terms alone: a
tridiagonal kinetic part, a diagonal potential and exchange terms through the
tridiagonal inverses of the multipole kernels, and the Cayley system is solved
exactly as one banded LU per channel.  The reference ``expm`` takes the
field's dense blocks.  Samples take energy, trace, entropy and distance from
the factors; a kept sample state holds its factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .energy import (
    OperatorCache,
    _entropy_of_occupations,
    _factor_spectra,
    _factored_field,
    _hf_terms,
    _kinetic_root,
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
_DIVERGENCE_FLOOR = 1e-8  # midpoint orbital updates below this are converged


class StepSizeError(RuntimeError):
    """Midpoint fixed-point iteration diverged; reduce dt.

    Raised when the update of the propagated orbitals between two midpoint
    iterations, sum_l ||W_l^(k) - W_l^(k-1)||_F, grows and exceeds 1e-8; the
    columns of W are orthonormal, so the signal needs no scale.
    """


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


def _check_kick(eta) -> None:
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")


def _step_count(horizon, dt) -> int:
    """Number of dt steps covering ``horizon``; refuses a horizon with none."""
    ratio = horizon / dt
    if not math.isfinite(ratio) or round(ratio) < 1:
        raise ValueError(f"horizon {horizon} gives no step of dt {dt}")
    return int(round(ratio))


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
    return _factored_distance(gamma_a.grid, gamma_a.factors, gamma_b.factors)


def _cayley_apply(field, dt, thins):
    """(I + i dt H/2)^-1 (I - i dt H/2) W = 2 (I + i dt H/2)^-1 W - W, all channels,
    by one exact banded LU per channel.

    With z_t = J_t^-1 (conj(w_t) y), the system (I + i dt H_l/2) y = W becomes
    sparse in (y, z_1..z_m): the rows of y couple y_(i+-1) (kinetic) and z_(t,i);
    the rows of z_t are J_t z_t - conj(w_t) y = 0.  Interleaving the unknowns per
    grid point as (y_i, z_(1,i), .., z_(m,i)) makes the bandwidth p = m + 1.
    The LU costs O(n p^3), so a state of many orbitals steps slower than by a
    dense O(n^3) LU (rank 10 at n = 100: ~30x).
    """
    # imported here: scipy.linalg costs ~0.3 s, and the package loads no scipy
    from scipy.linalg import solve_banded

    cache = field.cache
    n = cache.grid.n_points
    kernel_diag, kernel_off = cache.kernel_inverses
    a = 0.5j * dt
    out = []
    for l, thin in enumerate(thins):
        weights, orders, vectors = field.terms[l]
        p = len(weights) + 1
        t = np.arange(1, p)
        # band[p + row - col, i, s] holds the entry of column col = i p + s
        band = np.zeros((2 * p + 1, n, p), dtype=complex)
        band[p, :, 0] = 1.0 + a * (cache.kinetic_diag[l] + field.v_local)
        band[0, 1:, 0] = band[2 * p, :-1, 0] = a * cache.kinetic_off
        band[p - t, :, t] = -a * (weights * vectors).T  # row y_i, column z_(t,i)
        band[p + t, :, 0] = -vectors.conj().T  # row z_(t,i), column y_i
        band[p, :, 1:] = kernel_diag[orders].T
        band[0, 1:, 1:] = band[2 * p, :-1, 1:] = kernel_off[orders].T
        rhs = np.zeros((n, p, thin.shape[1]), dtype=complex)
        rhs[:, 0] = thin
        solution = solve_banded(
            (p, p), band.reshape(2 * p + 1, n * p), rhs.reshape(n * p, -1),
            overwrite_ab=True, overwrite_b=True, check_finite=False,
        )
        out.append(2.0 * solution.reshape(n, p, -1)[:, 0] - thin)
    return out


def _expm_apply(h_blocks, dt, thins):
    out = []
    for h_block, thin in zip(h_blocks, thins):
        w, v = np.linalg.eigh(h_block)
        phases = np.exp(-1j * dt * w)
        out.append(v @ (phases[:, None] * (v.conj().T @ thin)))
    return out


def _midpoint_unitary_step(orbitals, occupations, dt, inner, field_of, apply_u):
    """One conjugation step; returns the new orbital list.

    The field is frozen at a midpoint estimate improved by ``inner`` fixed-point
    iterations; the midpoint has the factors [W_n, W_next], [nu/2, nu/2].  The
    update of the propagated orbitals, sum_l ||W_l^(k) - W_l^(k-1)||_F, is
    dimensionless (the columns are orthonormal); growing above
    _DIVERGENCE_FLOOR it signals a too-large dt.
    """
    halves = [0.5 * np.concatenate([occ, occ]) for occ in occupations]
    mid = (orbitals, occupations)
    previous = None
    prev_delta = math.inf
    for _ in range(inner):
        new_orbitals = apply_u(field_of(*mid), dt, orbitals)
        if previous is not None:
            delta = sum(float(np.linalg.norm(a - b)) for a, b in zip(new_orbitals, previous))
            if delta > max(prev_delta, _DIVERGENCE_FLOOR):
                change = f"dW {prev_delta:.3e} -> {delta:.3e}"
                raise StepSizeError(f"midpoint iteration diverging ({change}); reduce dt")
            prev_delta = delta
        previous = new_orbitals
        mid = ([np.hstack([a, b]) for a, b in zip(orbitals, new_orbitals)], halves)
    return new_orbitals


def _sample(t, factors, spec, cache, reference, keep):
    """Observables of the state with these ``factors``, all from the factors.

    Trace and entropy come from the spectra of R diag(nu) R^H, with R from a
    thin QR of W: those are the nonzero eigenvalues of the state, so the
    roundoff drift of W stays visible and a negative weight stays negative."""
    kin, nuc, direct, exch = _hf_terms(*factors, cache)
    spectra = _factor_spectra(*factors)
    return TrajectorySample(
        t=t,
        gamma=DensityMatrix.from_factors(cache.grid, *factors) if keep else None,
        trace=sum((2 * l + 1) * float(np.sum(lam)) for l, lam in enumerate(spectra)),
        hf_energy=kin + nuc + direct - exch,
        entropy_trace=_entropy_of_occupations(spectra, spec),
        dist_to_reference=(
            math.nan if reference is None else _factored_distance(cache.grid, factors, reference)
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
    and the reference are read as orbital factors and carried so
    (unitary conjugation preserves the factorization exactly); a symmetric
    re-orthonormalization every 200 steps absorbs roundoff drift.  Samples
    include t = 0 and the final step; with ``keep_gamma`` each carries the
    state it was taken from.
    """
    _check_step_controls(dt, inner_iterations, sample_stride, propagator)
    if reference is not None:
        if reference.grid != gamma0.grid or reference.l_max != gamma0.l_max:
            raise ValueError("states live on different discretizations")
        reference = reference.factors
    return _propagate(
        gamma0.grid, gamma0.factors, spec, Z, dt, n_steps, reference,
        sample_stride, inner_iterations, propagator, keep_gamma,
    )


def _propagate(grid, factors, spec, Z, dt, n_steps, reference, sample_stride,
               inner_iterations, propagator, keep_gamma) -> list:
    """``evolve`` on a factored state and a factored (or None) reference.

    Both propagators take the field of the midpoint factors
    (``_factored_field``): Cayley steps read its terms (``_cayley_apply``),
    ``expm`` its dense blocks.
    """
    orbitals, occupations = factors
    cache = OperatorCache(grid, len(orbitals) - 1, Z)
    if propagator == "cayley":
        field_of, apply_u = partial(_factored_field, cache), _cayley_apply
    else:
        def field_of(orbs, occs):
            return _factored_field(cache, orbs, occs).dense_blocks()

        apply_u = _expm_apply
    samples = [_sample(0.0, factors, spec, cache, reference, keep_gamma)]
    for step in range(1, n_steps + 1):
        orbitals = _midpoint_unitary_step(
            orbitals, occupations, dt, inner_iterations, field_of, apply_u
        )
        if step % _LOWDIN_EVERY == 0:
            orbitals = [_lowdin(w_mat) for w_mat in orbitals]
        if step % sample_stride == 0 or step == n_steps:
            samples.append(_sample(
                step * dt, (orbitals, occupations), spec, cache, reference, keep_gamma
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
    kick acts on the minimizer's orbitals, U_l W_l, and the same factors
    serve as the reference.
    """
    if not minimizer.converged:
        raise ValueError("stability_experiment requires a converged minimizer")
    _check_step_controls(dt, inner_iterations, sample_stride, propagator)
    _check_kick(eta)
    n_steps = _step_count(horizon, dt)
    reference = minimizer.gamma.factors
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
