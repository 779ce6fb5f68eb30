"""Mean-field von Neumann propagation and orbital-stability experiments.

The flow i d(gamma)/dt = [H_gamma, gamma] is integrated by a self-consistent
midpoint scheme in conjugation form: each step conjugates the state by a
unitary built from the mean field frozen at an iterated midpoint estimate.
Because the update is a unitary conjugation, the occupation spectrum, the
trace and tr beta(gamma) are conserved structurally, not just to the order
of the integrator.

The unitary is the Cayley form (I - i dt H/2)(I + i dt H/2)^-1, exactly
unitary and second order.

The state is carried as orbital factors gamma_l = W_l diag(nu_l) W_l^H from start
to end, read from ``DensityMatrix.factors`` of the input state, the reference
and the minimizer (a state built from dense blocks is factored there, once).
Each step takes the factored mean field of the midpoint
(``energy._factored_field``) and solves the Cayley system per channel at the
shift 2i/dt, choosing by cost: a banded system on the field's terms (a
tridiagonal kinetic part, a diagonal potential and exchange terms through the
tridiagonal inverses of the multipole kernels) for the few orbitals of a
minimizer (``_banded``), a dense LU per solve for a state of many orbitals.
This module owns the banded LU (``_factor``, ``_BandedLU``); a solve calls
LAPACK's ``zgbtrs`` by ``ctypes`` with the GIL released (``_zgbtrs``), so
trajectories on separate threads overlap their solves.  A trajectory
keeps one per channel, of the last field factored, and refines every solve
against the exact midpoint field by defect correction (``_refined_solve``),
factoring the current field where the sweeps stall: the field barely moves,
so one factor typically serves the whole trajectory and a solve costs about
one and a half residual sweeps.
The stability kick exp(-i eta A) acts on the orbitals by its Taylor series,
to rounding.
Samples take energy, trace, entropy and distance from the factors; a kept
sample state holds its factors.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .energy import (
    OperatorCache,
    _entropy_of_blocks,
    _factor_spectra,
    _factored_field,
    _hf_terms,
    _kinetic_root,
)
from .entropy import EntropySpec
from .grid import DensityMatrix
from .scf import ScfResult, _Segment

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
_ROUNDING = 8.0 * np.finfo(float).eps  # refined-solve corrections below this x ||x|| are rounding
_REFACTOR_RATIO = 1e-3  # a kept factor whose sweeps contract by less is refactored
# A channel's Cayley system is banded while (m + 1)^3 < this * n^2 for its m
# exchange terms.  Fitted (one BLAS thread, 2 Xeon cores, n = 100..800:
# crossover at (m + 1)^3 / n^2 = 0.011..0.023) against one `solve_banded`
# call, factor and solve, per Cayley solve, and kept, not re-fitted, for the
# kept LU refined by defect correction.  On the rank-10 drift state (n = 100,
# m = 40, 6.9) that path still takes 10-13 times the dense one.
_BANDED_SOLVE_LIMIT = 0.02


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


def _check_step_controls(dt, **controls) -> None:
    """Reject step controls that cannot drive a propagation; of the integer
    controls, only those given (by keyword) are checked."""
    if dt == 0.0 or not math.isfinite(dt):
        raise ValueError("dt must be finite and nonzero (negative dt propagates backward)")
    for name, value in controls.items():
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_kick(eta) -> None:
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")


def _step_count(horizon, dt) -> int:
    """Number of dt steps covering ``horizon``; refuses a horizon with none."""
    ratio = horizon / dt
    if not math.isfinite(ratio) or round(ratio) < 1:
        raise ValueError(f"horizon {horizon} gives no step of dt {dt}")
    return int(round(ratio))


def _factored_distance(grid, factors_a, factors_b) -> float:
    """sum_l (2l+1) (||gamma_a - gamma_b||_1 + ||M_l (gamma_a - gamma_b) M_l^H||_1),
    both trace norms on the span of the two factor sets (``scf._Segment``)."""
    def rooted(factors):
        orbitals, weights = factors
        return [_kinetic_root(grid, l, w) for l, w in enumerate(orbitals)], weights

    plain = _Segment(factors_a, factors_b).trace_norms()
    kinetic = _Segment(rooted(factors_a), rooted(factors_b)).trace_norms()
    return sum((2 * l + 1) * (a + b) for l, (a, b) in enumerate(zip(plain, kinetic)))


def hspace_distance(gamma_a: DensityMatrix, gamma_b: DensityMatrix) -> float:
    """Discrete energy-space norm of the difference.

    Per channel, trace norm of the difference plus trace norm of the
    kinetic-square-root conjugated difference, weighted by 2l+1; both are
    taken on the span of the two states' orbital factors (rank 2k).
    """
    if gamma_a.grid != gamma_b.grid or gamma_a.l_max != gamma_b.l_max:
        raise ValueError("states live on different discretizations")
    return _factored_distance(gamma_a.grid, gamma_a.factors, gamma_b.factors)


# The C signature of zgbtrs(trans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb,
# info) in scipy.linalg.cython_lapack, as its capsule names it.
_ZGBTRS_SIGNATURE = (
    b"void (char *, int *, int *, int *, int *, __pyx_t_double_complex *, int *, int *, "
    b"__pyx_t_double_complex *, int *, int *)"
)


@functools.cache
def _zgbtrs():
    """LAPACK's ``zgbtrs`` from the function pointer SciPy's Cython LAPACK
    exports, callable through ``ctypes``, which releases the GIL for the call
    (SciPy's f2py wrapper holds it).  Raises ImportError when the pointer's C
    signature is not ``_ZGBTRS_SIGNATURE``, before any call is made."""
    # imported here: scipy.linalg costs ~0.3 s, and the package loads no scipy
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["zgbtrs"]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    name = name_of(capsule)
    if name != _ZGBTRS_SIGNATURE:
        raise ImportError(f"scipy.linalg.cython_lapack zgbtrs has the signature {name!r}, "
                          f"expected {_ZGBTRS_SIGNATURE!r}")
    int_p, array = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, int_p, int_p, int_p, int_p, array,
                                 int_p, array, array, int_p, int_p)
    return prototype(pointer_of(capsule, name))


@dataclass
class _BandedLU:
    """A channel's banded LU of H_l - sigma from ``_factor``: ``lu``
    (Fortran order) and ``pivots`` (1-based ``int32``) of LAPACK's ``zgbtrf``,
    on p unknowns per grid point with p sub- and superdiagonals, and ``rho``,
    the last contraction ``_refined_solve`` measured on it.  ``solve`` calls
    LAPACK's ``zgbtrs`` with the GIL released (``_zgbtrs``), so the solves
    of trajectories on other threads overlap."""

    lu: np.ndarray
    pivots: np.ndarray
    p: int
    rho: float = 1.0  # none measured yet: no contraction is assumed

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(H - sigma)^-1 rhs for the field and shift it factored: rhs sits in
        the y rows of the interleaved system, zeros in the z rows; one ``zgbtrs``."""
        n, p, k = rhs.shape[0], self.p, rhs.shape[1]
        rows, lu, pivots = n * p, self.lu, self.pivots
        # what LAPACK reads through the pointers: checked here, as no wrapper does
        if not (lu.dtype == np.complex128 and lu.flags.f_contiguous
                and lu.shape == (3 * p + 1, rows)
                and pivots.dtype == np.intc and pivots.shape == (rows,)):
            raise ValueError(f"banded factor {lu.dtype} {lu.shape}, pivots {pivots.dtype} "
                             f"{pivots.shape} do not fit p = {p} and {n} grid points")
        storage = np.zeros((k, rows), dtype=complex)  # Fortran order (rows, k) for zgbtrs
        storage.reshape(k, n, p)[:, :, 0] = rhs.T
        c_int, byref = ctypes.c_int, ctypes.byref
        info = c_int()
        _zgbtrs()(b"N", byref(c_int(rows)), byref(c_int(p)), byref(c_int(p)), byref(c_int(k)),
                  lu.ctypes.data, byref(c_int(3 * p + 1)), pivots.ctypes.data,
                  storage.ctypes.data, byref(c_int(rows)), byref(info))
        if info.value:
            raise ValueError(f"zgbtrs refused argument {-info.value}")
        return storage.reshape(k, n, p)[:, :, 0].T


def _banded(field, l) -> bool:
    """Whether channel l's Cayley system is solved banded: (m + 1)^3 <
    _BANDED_SOLVE_LIMIT n^2 for its m exchange terms."""
    n = field.cache.grid.n_points
    return (len(field.terms[l][0]) + 1) ** 3 < _BANDED_SOLVE_LIMIT * n * n


def _factor(field, l, sigma) -> _BandedLU:
    """The banded LU of H_l - sigma for a complex shift sigma, in
    O(n (m + 1)^3) for the m exchange terms of ``field.terms[l]``.

    With z_t = J_t^-1 (conj(w_t) y), J_t the tridiagonal inverse of the
    kernel of term t, the system (H_l - sigma) y = b becomes sparse in
    (y, z_1..z_m): the rows of y couple y_(i+-1) (kinetic) and z_(t,i); the
    rows of z_t are J_t z_t - conj(w_t) y = 0.  Interleaving the unknowns
    per grid point as (y_i, z_(1,i), .., z_(m,i)) makes the bandwidth
    p = m + 1.  LAPACK's ``zgbtrf`` factors it once; the factor solves for
    any right side, and a trajectory keeps it to refine solves of later
    fields against (``_refined_solve``).
    """
    # imported here: scipy.linalg costs ~0.3 s, and the package loads no scipy
    from scipy.linalg import lapack

    cache = field.cache
    n = cache.grid.n_points
    weights, orders, vectors = field.terms[l]
    p = len(weights) + 1
    kernel_diag, kernel_off = cache.kernel_inverses
    t, mid = np.arange(1, p), 2 * p
    # band[2p + row - col, i, s] holds the entry of column col = i p + s,
    # in LAPACK's band storage (Fortran order); rows 0..p-1 take the fill-in
    storage = np.zeros((n * p, 3 * p + 1), dtype=complex)
    band = storage.reshape(n, p, 3 * p + 1).transpose(2, 0, 1)
    band[mid, :, 0] = cache.kinetic_diag[l] + field.v_local - sigma
    band[p, 1:, 0] = band[3 * p, :-1, 0] = cache.kinetic_off
    band[mid - t, :, t] = -(weights * vectors).T  # row y_i, column z_(t,i)
    band[mid + t, :, 0] = -vectors.conj().T  # row z_(t,i), column y_i
    band[mid, :, 1:] = kernel_diag[orders].T
    band[p, 1:, 1:] = band[3 * p, :-1, 1:] = kernel_off[orders].T
    lu, pivots, info = lapack.zgbtrf(storage.T, p, p, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    # f2py returns 0-based pivots; zgbtrs, called directly, reads LAPACK's 1-based ones
    return _BandedLU(np.asfortranarray(lu), (pivots + 1).astype(np.intc), p)


def _refined_solve(field, l, sigma, kept, rhs, start):
    """(H_l - sigma)^-1 rhs by defect correction on the channel's kept LU.

    Each sweep x <- x + LU^-1 (rhs - (H_l - sigma) x) takes its residual from
    ``field.apply`` in O(n m) and its correction from one solve of the kept
    factor (Moler, J. ACM 14, 316, 1967).  As ||(H_LU - sigma)^-1|| <= |dt|/2
    for the Hermitian H_LU, the sweeps contract by at most ||H_l - H_LU|| |dt|/2.
    They start from ``start``, the previous midpoint iteration's solution of
    the same right side, or on a step's first iteration from LU^-1 rhs; they
    stop once rho ||d||, the correction predicted by the last contraction rho
    measured on this factor (||d_1|| / ||x_0|| from LU^-1 rhs, ||d_k|| /
    ||d_(k-1)|| after it), is within _ROUNDING ||x||.  With no kept factor, or
    once a correction above that floor contracted by less than
    _REFACTOR_RATIO, the channel's kept factor becomes ``_factor`` of this
    field, which solves rhs exactly: on a step's first iteration the field the
    step starts from (m terms, bandwidth m + 1), on a later one the midpoint's
    (2m terms, bandwidth 2m + 1).  A ratio above 1 can only come from
    rounding-level corrections, so the prediction caps rho at 1.
    """
    factor = kept[l]
    if factor is not None:
        x = factor.solve(rhs) if start is None else start
        last = float(np.linalg.norm(x)) if start is None else None
        while True:
            d = factor.solve(rhs - field.apply(l, x) + sigma * x)
            x = x + d
            size, floor = float(np.linalg.norm(d)), _ROUNDING * float(np.linalg.norm(x))
            if last:  # a contraction to measure: not a warm start's first sweep, nor x_0 = 0
                factor.rho = size / last
                if not (size <= floor or factor.rho <= _REFACTOR_RATIO):
                    break
            if min(factor.rho, 1.0) * size <= floor:
                return x
            last = size
    kept[l] = _factor(field, l, sigma)
    return kept[l].solve(rhs)


def _cayley_apply(field, dt, thins, kept, starts):
    """(I + i dt H/2)^-1 (I - i dt H/2) W = 2 (I + i dt H/2)^-1 W - W, all channels.

    With a = i dt/2, I + a H = a (H - sigma) for sigma = 2i/dt, so each channel
    solves for y = (H_l - sigma)^-1 W / a.  ``kept`` holds the channels' kept
    factors (None where none is kept) and ``starts`` the step's previous
    solutions y (None on its first iteration), both updated here: a banded
    channel (``_banded``) refines against its kept factor
    (``_refined_solve``), any other takes one dense LU of ``dense_block``.
    """
    a, sigma = 0.5j * dt, 2j / dt
    steps = []
    for l, thin in enumerate(thins):
        if _banded(field, l):
            y = _refined_solve(field, l, sigma, kept, thin / a, starts[l])
        else:
            y = np.linalg.solve(field.dense_block(l) - sigma * np.eye(len(thin)), thin / a)
        starts[l] = y
        steps.append(2.0 * y - thin)
    return steps


def _kick(herm, eta, w_mat):
    """exp(-i eta A) W for a Hermitian A with ||A||_2 <= 1, by its Taylor series.

    The kick is taken in ceil(|eta|) equal steps s of at most 1, each summed
    to J terms, the first J whose a-priori tail bound |s|^(J+1) e^|s| / (J+1)!
    is at most eps.  A term costs one product A W, O(n^2 k): no n x n
    eigendecomposition is taken."""
    steps = max(1, math.ceil(abs(eta)))
    s = eta / steps
    terms, tail = 0, abs(s) * math.exp(abs(s))
    while tail > np.finfo(float).eps:
        terms += 1
        tail *= abs(s) / (terms + 1)
    for _ in range(steps):
        term = w_mat = w_mat.astype(complex)
        for j in range(1, terms + 1):
            term = (-1j * s / j) * (herm @ term)
            w_mat = w_mat + term
    return w_mat


def _midpoint_unitary_step(orbitals, occupations, dt, inner, cache, kept):
    """One conjugation step; returns the new orbital list.

    The field, built here on ``cache``, is frozen at a midpoint estimate improved
    by ``inner`` fixed-point iterations; the midpoint has the factors
    [W_n, W_next], [nu/2, nu/2].  ``_cayley_apply`` is the unitary, on the
    trajectory's per-channel kept factors ``kept``, which it updates.  The
    update of the propagated orbitals, sum_l ||W_l^(k) - W_l^(k-1)||_F, is
    dimensionless (the columns are orthonormal); growing above
    _DIVERGENCE_FLOOR it signals a too-large dt.
    """
    halves = [0.5 * np.concatenate([occ, occ]) for occ in occupations]
    mid = (orbitals, occupations)
    previous = None
    prev_delta = math.inf
    starts = [None] * len(orbitals)
    for _ in range(inner):
        new_orbitals = _cayley_apply(_factored_field(cache, *mid), dt, orbitals, kept, starts)
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
        entropy_trace=_entropy_of_blocks(spectra, spec),
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
    keep_gamma: bool = False,
) -> list:
    """Propagate and sample observables every ``sample_stride`` steps.

    Each step conjugates the state by the Cayley approximant of
    exp(-i dt H[gamma_mid]), with the midpoint state iterated
    ``inner_iterations`` times (both controls positive integers).  The state
    and the reference are read as orbital factors and carried so
    (unitary conjugation preserves the factorization exactly); a symmetric
    re-orthonormalization every 200 steps absorbs roundoff drift.  Samples
    include t = 0 and the last of the ``n_steps`` (a nonnegative integer);
    with ``keep_gamma`` each carries the state it was taken from.
    """
    _check_step_controls(dt, inner_iterations=inner_iterations, sample_stride=sample_stride)
    if not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise ValueError(f"n_steps must be a nonnegative integer, got {n_steps!r}")
    if reference is not None:
        if reference.grid != gamma0.grid or reference.l_max != gamma0.l_max:
            raise ValueError("states live on different discretizations")
        reference = reference.factors
    orbitals, occupations = gamma0.factors
    cache = OperatorCache(gamma0.grid, gamma0.l_max, Z)
    samples = [_sample(0.0, gamma0.factors, spec, cache, reference, keep_gamma)]
    kept = [None] * len(orbitals)  # the channels' kept factors, for the whole trajectory
    for step in range(1, n_steps + 1):
        orbitals = _midpoint_unitary_step(orbitals, occupations, dt, inner_iterations, cache, kept)
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
    kick acts on the minimizer's orbitals, U_l W_l, by a Taylor series
    summed to rounding (||A_l||_2 <= ||A_l||_F = 1).  The run is then the
    Cauchy problem ``evolve`` started from the kicked state, with the
    minimizer as the reference, over round(horizon / dt) steps.  The one
    ``propagator`` is "cayley"; the keyword stays for callers that name it.
    """
    if not minimizer.converged:
        raise ValueError("stability_experiment requires a converged minimizer")
    if propagator != "cayley":
        raise ValueError(f"unknown propagator {propagator!r}")
    _check_step_controls(dt, inner_iterations=inner_iterations, sample_stride=sample_stride)
    _check_kick(eta)
    n_steps = _step_count(horizon, dt)
    orbitals, occupations = minimizer.gamma.factors
    rng = np.random.default_rng(seed)
    kicked = []
    for w_ref in orbitals:
        n = w_ref.shape[0]
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = 0.5 * (raw + raw.conj().T)
        herm /= np.linalg.norm(herm)
        kicked.append(_kick(herm, eta, w_ref))
    samples = evolve(
        DensityMatrix.from_factors(minimizer.gamma.grid, kicked, occupations), spec, Z, dt,
        n_steps, reference=minimizer.gamma, sample_stride=sample_stride,
        inner_iterations=inner_iterations,
    )
    return StabilityResult(eta, max(s.dist_to_reference for s in samples), samples)
