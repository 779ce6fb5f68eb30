"""Hartree-Fock and free-energy evaluation plus the mean-field Hamiltonian.

Energy convention: the one-body operator is -Delta - Z/|x| (hydrogen levels
at -Z^2/(4 j^2)).  The exchange term is assembled channel-pairwise through
multipole kernels with squared Wigner-3j angular factors, normalized so
that direct and exchange cancel exactly for a fully occupied rank-one
s orbital.

Every two-body quantity is computed on orbital factors gamma_l =
W_l diag(nu_l) W_l^H, with the kernels w_L applied in generator form and
never stored: one order at a time in the energies (``grid.multipole_apply``),
and per exchange term in the mean field ``_FactoredField``, whose channel
generators are derived once per field.  The SCF eigensolve's matvecs and
block L D L^H (``_ldl_solves``: shifted solves, one LU solve per pivot
block, and level counts by inertia) and the one dense builder
(``mean_field_hamiltonian``, and the Cayley steps' dense solve) all read
them; the Cayley steps' banded LU (``dynamics``) is built on the terms.
The energies are O(n k^2) sums over orbital pairs.  The public functions
read ``DensityMatrix.factors`` (a state built from dense blocks is factored
once, by one eigh per block) and take the discretization from the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import exchange_weights
from .entropy import EntropySpec
from .grid import (
    _VALIDATE_TOL,
    DensityMatrix,
    RadialDensity,
    RadialGrid,
    _density_line,
    hartree_potential,
    kinetic_tridiagonal,
    multipole_apply,
    multipole_generators,
    multipole_kernel_inverse,
    nuclear_potential,
)

__all__ = [
    "EnergyBreakdown",
    "OperatorCache",
    "brown_kosaki_terms",
    "free_energy",
    "linear_energy_breakdown",
    "hf_energy",
    "inequality_audit",
    "mean_field_hamiltonian",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy terms in -Delta - Z/|x| units.

    total_hf = kinetic + nuclear + direct - exchange;
    total_free = total_hf + T * entropy_term.
    """

    kinetic: float
    nuclear: float
    direct: float
    exchange: float
    entropy_term: float
    total_hf: float
    total_free: float


def _make_breakdown(kin, nuc, direct, exch, entropy, T) -> EnergyBreakdown:
    hf = kin + nuc + direct - exch
    return EnergyBreakdown(
        kinetic=kin,
        nuclear=nuc,
        direct=direct,
        exchange=exch,
        entropy_term=entropy,
        total_hf=hf,
        total_free=hf + T * entropy,
    )


class OperatorCache:
    """Grid-bound operators reused across the energy and Hamiltonian builds
    of one SCF run or trajectory; each public energy function builds its own
    from the state's grid and l_max.

    The kinetic operator is kept tridiagonal: ``kinetic_diag[l]`` per channel
    plus the scalar ``kinetic_off`` shared by all channels.  Next to it sit
    the nuclear diagonal and the squared-3j weights ``angular`` of each
    channel pair.  No n x n array is held: the multipole kernels act through
    their generators (``grid.multipole_apply``; the exchange terms read
    ``multipole_generators``, computed on first use), or through their
    tridiagonal inverses, ``kernel_inverses``, which the banded LU of the
    Cayley steps (``dynamics._factor``) builds on first use.  The bare pairs,
    ``bare_spectrum``, are solved on first use and then shared by the warm
    start and the start pairs of the SCF eigensolve; an interaction-free run
    keeps them as its solution, and the minimizer audit reads their levels.
    """

    def __init__(self, grid: RadialGrid, l_max: int, Z: float):
        self.grid = grid
        self.l_max = l_max
        self.Z = Z
        stencils = [kinetic_tridiagonal(grid, l) for l in range(l_max + 1)]
        self.kinetic_diag = [diag for diag, _ in stencils]
        self.kinetic_off = stencils[0][1]
        self.v_nuclear = nuclear_potential(grid, Z)
        self.angular = exchange_weights(l_max)

    @cached_property
    def bare_spectrum(self):
        """(levels, vectors): the eigenpairs below zero of each bare block, and
        in the s block at least its three lowest, bound or not.

        T_l + diag(v_nuc) is tridiagonal, so LAPACK's bisection and inverse
        iteration find the few bound levels in O(n) each, with no dense
        matrix; the occupation map vanishes on the rest of the spectrum.  The
        minimizer audit compares three s levels with the hydrogen ones, so an
        s block binding fewer is solved for its three lowest by index instead.
        """
        # imported here: scipy.linalg costs ~0.3 s, and the package loads no scipy
        from scipy.linalg import eigh_tridiagonal

        off = np.full(self.grid.n_points - 1, self.kinetic_off)
        lowest = min(3, self.grid.n_points)
        levels, vectors = [], []
        for l, diag in enumerate(self.kinetic_diag):
            w, v = eigh_tridiagonal(
                diag + self.v_nuclear, off, select="v", select_range=(-np.inf, 0.0)
            )
            neg = w < 0.0  # the selected interval (-inf, 0] is closed at 0
            w, v = w[neg], v[:, neg]
            if l == 0 and w.size < lowest:
                w, v = eigh_tridiagonal(
                    diag + self.v_nuclear, off, select="i", select_range=(0, lowest - 1)
                )
            levels.append(w)
            vectors.append(v)
        return levels, vectors

    @cached_property
    def multipole_generators(self) -> tuple:
        """(u, v) of ``grid.multipole_generators``, one column per order
        L = 0..2 l_max; every field build of a run picks its terms' columns."""
        return multipole_generators(self.grid, np.arange(2 * self.l_max + 1))

    @cached_property
    def kernel_inverses(self) -> tuple:
        """(diagonals, off-diagonals) of J_L = w_L^-1, stacked by row L for
        L = 0..2 l_max, the multipole orders the exchange couples."""
        pairs = [multipole_kernel_inverse(self.grid, L) for L in range(2 * self.l_max + 1)]
        return np.array([d for d, _ in pairs]), np.array([o for _, o in pairs])


def _kinetic_root(grid, l, x):
    """M x, O(n k), for M with M^T M = T_l: forward differences / h (Dirichlet
    zero padding) stacked over the rows sqrt(l(l+1)) / r."""
    diff = np.diff(x, axis=0, prepend=0.0, append=0.0) / grid.h
    return np.vstack([diff, (math.sqrt(l * (l + 1)) / grid.r)[:, None] * x])


def _one_body_terms(orbitals, weights, cache: OperatorCache):
    """(kinetic, nuclear, line density) of factored blocks, O(n k) per channel.

    The kinetic energy is sum_k nu_k ||M_l w_k||^2 with T_l = M_l^T M_l.
    """
    kin = sum(
        (2 * l + 1) * float(np.sum(np.abs(_kinetic_root(cache.grid, l, w_mat)) ** 2, axis=0) @ nu)
        for l, (w_mat, nu) in enumerate(zip(orbitals, weights))
    )
    rho_line = _density_line(cache.grid, orbitals, weights)
    nuc = cache.grid.h * float(np.dot(cache.v_nuclear, rho_line))
    return kin, nuc, rho_line


_PAIR_BLOCK = 1 << 18  # entries of the orbital-pair columns formed at once


def _exchange_energy(orbitals, weights, cache: OperatorCache) -> float:
    """1/2 sum_(l,l') sum_L A_L sum_(k,j) nu_k nu_j <y, w_L y> with y = w_k conj(w_j).

    Each term is the exchange contraction of the orbital pair (k in l, j in l');
    the two orders of a channel pair give the same real value, so each
    unordered pair is taken once and counted twice off the diagonal.
    """
    n = cache.grid.n_points
    total = 0.0
    for l, (w_l, nu_l) in enumerate(zip(orbitals, weights)):
        for lp in range(l, len(orbitals)):
            conj_lp, nu_lp = orbitals[lp].conj(), weights[lp]
            pair = 0.5 if lp == l else 1.0
            # the pairs of a block of orbitals k at a time, as the columns of y
            step = max(1, _PAIR_BLOCK // max(1, n * len(nu_lp)))
            for k in range(0, len(nu_l), step):
                y = (w_l[:, k : k + step, None] * conj_lp[:, None, :]).reshape(n, -1)
                nu_pairs = np.outer(nu_l[k : k + step], nu_lp).ravel()
                for L, a_l in cache.angular[(l, lp)]:
                    form = np.real(np.sum(y.conj() * multipole_apply(cache.grid, L, y), axis=0))
                    total += pair * a_l * float(form @ nu_pairs)
    return total


def _hf_terms(orbitals, weights, cache: OperatorCache):
    """(kinetic, nuclear, direct, exchange) of factored blocks W diag(nu) W^H.

    The weights may be negative (a step between two states).  The direct
    term is (h/2) rho . V_H, with V_H from the Newton-shell sum.
    """
    kin, nuc, rho_line = _one_body_terms(orbitals, weights, cache)
    v_hartree = hartree_potential(RadialDensity(cache.grid, rho_line))
    direct = 0.5 * cache.grid.h * float(np.dot(rho_line, v_hartree))
    return kin, nuc, direct, _exchange_energy(orbitals, weights, cache)


def _factor_spectra(orbitals, weights) -> list:
    """Per channel, the nonzero spectrum of X diag(nu) X^H: the eigenvalues of
    R diag(nu) R^H, with R from a thin QR of X (k x k, whatever n is)."""
    spectra = []
    for x, nu in zip(orbitals, weights):
        r = np.linalg.qr(x, mode="r")
        spectra.append(np.linalg.eigvalsh((r * nu) @ r.conj().T))
    return spectra


_LDL_BLOCK = 16  # grid points per diagonal block of ``_ldl_solves``


def _entropy_of_blocks(occupations, spec: EntropySpec) -> float:
    """tr beta(gamma) = sum_l (2l+1) sum beta(nu) over per-channel occupations
    (factor weights, or eigenvalues of the blocks).

    Occupations within _VALIDATE_TOL of [0, 1] (the slack of a stored state)
    are clipped; anything further out is a genuine constraint violation and
    raises.
    """
    for l, w in enumerate(occupations):
        if w.size and (w.min() < -_VALIDATE_TOL or w.max() > 1.0 + _VALIDATE_TOL):
            raise ValueError(
                f"occupation eigenvalues outside [0,1] in channel l={l}: "
                f"[{w.min():.3e}, {w.max():.10f}]"
            )
    return sum(
        (2 * l + 1) * float(np.sum(spec.beta(np.clip(occ, 0.0, 1.0))))
        for l, occ in enumerate(occupations)
    )


def hf_energy(gamma: DensityMatrix, Z: float) -> EnergyBreakdown:
    """Hartree-Fock energy; the entropy slot is zero."""
    terms = _hf_terms(*gamma.factors, OperatorCache(gamma.grid, gamma.l_max, Z))
    return _make_breakdown(*terms, 0.0, 0.0)


def free_energy(gamma: DensityMatrix, spec: EntropySpec, Z: float, T: float) -> EnergyBreakdown:
    """Hartree-Fock energy plus T * tr beta(gamma), from the state's factors."""
    terms = _hf_terms(*gamma.factors, OperatorCache(gamma.grid, gamma.l_max, Z))
    return _make_breakdown(*terms, _entropy_of_blocks(gamma.factors[1], spec), T)


def linear_energy_breakdown(
    gamma: DensityMatrix, spec: EntropySpec, Z: float, T: float
) -> EnergyBreakdown:
    """Breakdown of the linear functional (direct and exchange dropped)."""
    kin, nuc, _ = _one_body_terms(*gamma.factors, OperatorCache(gamma.grid, gamma.l_max, Z))
    return _make_breakdown(kin, nuc, 0.0, 0.0, _entropy_of_blocks(gamma.factors[1], spec), T)


@dataclass
class _FactoredField:
    """The mean field of a factored state.

    H_l = T_l + diag(v_local) - K_l.  Since (w_L * w w^H) x = w (w_L (conj(w) x)),
    K_l = sum_t c_t diag(w_t) w_L diag(conj(w_t)) over the terms
    t = (l', L, orbital k) of weight c_t = A_L(l,l') nu_k / (2l+1).
    ``terms[l]`` holds (c, L, W) of channel l: weights, orders and the n x m
    matrix of the vectors w_t.  ``generators`` derives H_l's entries from them
    once per field; ``apply`` (H_l x in O(n m) per column), the block L D L^H
    of ``_ldl_solves`` (O(n m^2), pivoted inside its 16-point blocks) and
    ``dense_block`` (for ``mean_field_hamiltonian`` and the Cayley steps'
    dense solve) read that one form.  The Cayley steps' banded LU
    (``dynamics._factor``) reads ``terms`` and the cache's kernel inverses.
    """

    cache: OperatorCache
    v_local: np.ndarray
    terms: list

    @cached_property
    def generators(self) -> list:
        """(p, q, d) of each channel: below its diagonal H_l is the kinetic
        stencil plus p q^T, p = -c v w and q = u conj(w) per term, as
        w_L[i,j] = v_i u_j for i > j (``multipole_generators``); d is its
        diagonal, -K_ii included."""
        cache, forms = self.cache, []
        for l, (weights, orders, vectors) in enumerate(self.terms):
            # take keeps the rows contiguous, as g[:, orders] would not: the
            # row sums below would then add in another order
            u, v = (g.take(orders, axis=1) for g in cache.multipole_generators)
            p, q = -(weights * v) * vectors, u * vectors.conj()
            forms.append((p, q, cache.kinetic_diag[l] + self.v_local + np.sum(p * q, axis=1).real))
        return forms

    def apply(self, l: int, x: np.ndarray) -> np.ndarray:
        """H_l x for an n x k block x: d x and the stencil, plus p_i times the
        running sum of q_j^T x_j over j < i, plus conj(q_i) times the reversed
        running sum of p_j^H x_j over j > i."""
        p, q, diag = self.generators[l]
        off = self.cache.kinetic_off
        below = np.cumsum(q[:-1, :, None] * x[:-1, None], axis=0)
        above = np.cumsum(p[:0:-1, :, None].conj() * x[:0:-1, None], axis=0)[::-1]
        out = np.multiply(diag[:, None], x, dtype=np.result_type(p, x))
        out[1:] += off * x[:-1] + np.einsum("it,itk->ik", p[1:], below)
        out[:-1] += off * x[1:] + np.einsum("it,itk->ik", q[:-1].conj(), above)
        return out

    def dense_block(self, l: int) -> np.ndarray:
        """H_l as an n x n block, one GEMM: tril(p q^T, -1) and its adjoint,
        the diagonal d and the stencil, from ``generators``."""
        p, q, diag = self.generators[l]
        idx = np.arange(len(diag))
        lower = np.tril(p @ q.T, -1)
        lower[idx[1:], idx[:-1]] += self.cache.kinetic_off
        h_block = lower + lower.conj().T
        h_block[idx, idx] = diag
        return h_block


def _ldl_solves(problems) -> list:
    """One result per problem (field, l, sigma, b) of one grid and real sigma:
    (H_l - sigma)^-1 b, or where b is None the number of levels of H_l below
    sigma, by one block L D L^H of H_l - sigma each in O(n m^2).

    The recursion runs on the grid reversed, from r_max inward: a bound
    orbital decays outside, so outward from the nucleus every window past it
    would hold a level within that decay of its own, and D_J would be nearly
    singular for sigma near it.  Reversed, H_l is below its diagonal the
    kinetic stencil k plus P Q^T, with P = conj(q) and Q = conj(p) from the
    field's ``generators``.  In blocks J of _LDL_BLOCK grid points, L has
    L_IJ = P_I X_J for I > J, plus k e_first e_last^T D_J^-1 at I = J + 1.
    With P'_J = [P_J, e_first] and G'_J = [[G_J, k x], [k x^H, k^2 d]], where
    G_J = sum_(K<J) X_K D_K X_K^H, x is the last column of X_(J-1) and d the
    last diagonal entry of D_(J-1)^-1,

        D_J = H_JJ - sigma - P'_J G'_J P'_J^H,
        X_J = R_J D_J^-1,  R_J = Q_J^T - (P'_J G'_J)[:, :m]^H:

    a block Sturm sequence of the tridiagonal-plus-semiseparable matrix
    (Chandrasekaran & Gu, SIAM J. Matrix Anal. Appl. 25, 2003).  Each pivot
    block takes one batched LU solve, pivoted inside the block, of
    [R_J^H | e_last | y_J] with y_J the right side of L y = b: it gives X_J^H,
    D_J^-1 e_last and z_J = D_J^-1 y_J, and L^H x = z runs back over the same
    blocks.  No block pivots against another, so a window that happens to
    hold a level near sigma (seen only next to unbound levels) still costs
    accuracy; the SCF eigensolve checks its Ritz residuals on H_l itself.
    The D_J of the count problems are diagonalized after the sweep: by
    Sylvester's law of inertia their negative eigenvalues count the levels
    below sigma (a level within rounding of sigma may be miscounted).  A D_J
    that is exactly singular, a level at sigma, is inverted by its eigh with
    a zero eigenvalue taken as eps ||H_l||, so the level is not below sigma.
    The problems run as one batch, their terms padded with zero generators
    and the grid with decoupled unit points.
    """
    cache = problems[0][0].cache
    n, size, batch = cache.grid.n_points, _LDL_BLOCK, len(problems)
    blocks = -(-n // size)
    forms = [field.generators[l] for field, l, _, _ in problems]
    width = max(p_l.shape[1] for p_l, _, _ in forms)
    dtype = np.result_type(
        float, *(p_l for p_l, _, _ in forms), *(b for *_, b in problems if b is not None)
    )
    # P'_J of every block, (blocks, batch, size, width + 1), and the solve's
    # right sides [conj(Q_J) | 0 | b_J]
    p = np.zeros((blocks * size, batch, width + 1), dtype)
    p[::size, :, width] = 1.0
    sides = np.zeros((blocks * size, batch, width + 2), dtype)
    diag = np.ones((blocks * size, batch))
    for k, ((p_l, q_l, diag_l), (*_, sigma, b)) in enumerate(zip(forms, problems)):
        p[:n, k, : p_l.shape[1]], sides[:n, k, : p_l.shape[1]] = q_l[::-1].conj(), p_l[::-1]
        diag[:n, k] = diag_l[::-1] - sigma
        if b is not None:
            sides[:n, k, width + 1] = b[::-1]
    off = np.zeros(blocks * size)
    off[: n - 1] = cache.kinetic_off  # off[i] couples points i and i + 1
    p, sides = (a.reshape(blocks, size, batch, -1).transpose(0, 2, 1, 3) for a in (p, sides))
    p_adjoint = p.conj().transpose(0, 1, 3, 2)
    diag = diag.reshape(blocks, size, batch).transpose(0, 2, 1)
    # H_JJ - sigma of every block: P_J Q_J^T below the diagonal, the stencil on it
    pivots = p[..., :width] @ sides[..., :width].conj().transpose(0, 1, 3, 2)
    pivots *= np.tril(np.ones((size, size)), -1)
    pivots = pivots + pivots.conj().transpose(0, 1, 3, 2)
    inner = np.arange(size)
    pivots[..., inner, inner] += diag
    couplings = off.reshape(blocks, 1, size)[..., :-1]
    pivots[..., inner[:-1], inner[1:]] += couplings
    pivots[..., inner[1:], inner[:-1]] += couplings

    counting = [k for k, (*_, b) in enumerate(problems) if b is None]
    state = np.zeros((batch, width + 1, width + 2), dtype)  # [G'_J | prefix'_J]
    outputs = []
    for block in range(blocks):
        # P'_J [G'_J | prefix'_J], prefix' = [sum_(K<J) X_K y_K, k (z_(J-1))_last]
        p_state = p[block] @ state
        pivot = pivots[block]  # D_J, kept for the counts
        pivot -= p_state[..., : width + 1] @ p_adjoint[block]
        stacked = sides[block] - p_state
        stacked[..., width] = inner == size - 1  # e_last
        try:
            out = np.linalg.solve(pivot, stacked)
        except np.linalg.LinAlgError:  # D_J exactly singular: a level at sigma
            levels, basis = np.linalg.eigh(pivot)
            norm = np.max(np.abs(diag)) + 2.0 * abs(cache.kinetic_off)  # of H_l - sigma
            levels[levels == 0.0] = np.finfo(float).eps * norm
            out = (basis / levels[:, None, :]) @ (basis.conj().transpose(0, 2, 1) @ stacked)
        # R_J [X_J^H | D_J^-1 e_last | z_J] = [G_(J+1) - G_J | x | X_J y_J], and
        # the coupling row is k times the last row [x^H | d | (z_J)_last]
        update = stacked[..., :width].conj().transpose(0, 2, 1) @ out
        k = off[(block + 1) * size - 1]  # to the next block's first point
        state[:, :width] += update
        state[:, width] = k * out[:, -1]
        state[:, width, width] = k * k * out[:, -1, width].real
        state[:, :width, width] = state[:, width, :width].conj()
        outputs.append(out)

    levels = np.linalg.eigvalsh(pivots[:, counting])
    counts = dict(zip(counting, np.sum(levels < 0.0, axis=(0, 2)).tolist()))
    suffix = np.zeros((batch, width + 1), dtype)  # [sum_(I>J) P_I^H x_I, k (x_(J+1))_first]
    for block in range(blocks - 1, -1, -1):
        out = outputs[block]
        x = out[..., width + 1] - (out[..., : width + 1] @ suffix[..., None])[..., 0]
        suffix[:, :width] += (p_adjoint[block, :, :width] @ x[..., None])[..., 0]
        suffix[:, width] = off[block * size - 1] * x[:, 0]
        outputs[block] = x
    solution = np.concatenate(outputs, axis=1)[:, n - 1 :: -1]
    return [counts[k] if b is None else solution[k] for k, (*_, b) in enumerate(problems)]


def _factored_field(cache: OperatorCache, orbitals, weights) -> _FactoredField:
    rho = RadialDensity(cache.grid, _density_line(cache.grid, orbitals, weights))
    v_local = cache.v_nuclear + hartree_potential(rho)
    terms = []
    for l in range(len(orbitals)):
        coefficients, orders, vectors = zip(*[
            (a_l * nu / (2 * l + 1), np.full(len(nu), L), w_mat)
            for lp, (w_mat, nu) in enumerate(zip(orbitals, weights))
            for L, a_l in cache.angular[(l, lp)]
        ])
        terms.append((np.concatenate(coefficients), np.concatenate(orders), np.hstack(vectors)))
    return _FactoredField(cache, v_local, terms)


def mean_field_hamiltonian(gamma: DensityMatrix, Z: float) -> list:
    """Per-channel blocks H_l = kinetic_l + diag(v_nuclear + v_hartree) - K_l.

    Normalized as the exact gradient of the Hartree-Fock energy: for any
    Hermitian perturbation, dE = sum_l (2l+1) tr(H_l dGamma_l).
    """
    field = _factored_field(OperatorCache(gamma.grid, gamma.l_max, Z), *gamma.factors)
    return [field.dense_block(l) for l in range(len(field.terms))]


def _cutoff_profile(s: np.ndarray) -> np.ndarray:
    """Smooth [0,1]-valued cutoff: 1 inside, cos^2 ramp on 1 < s < 2."""
    out = np.ones_like(s)
    ramp = (s > 1.0) & (s < 2.0)
    out[ramp] = np.cos(0.5 * np.pi * (s[ramp] - 1.0)) ** 2
    out[s >= 2.0] = 0.0
    return out


def brown_kosaki_terms(
    gamma: DensityMatrix, spec: EntropySpec, x_diag: np.ndarray
) -> tuple:
    """(tr beta(X gamma X), tr(X beta(gamma) X)) for a diagonal X with X^2 <= 1.

    From the orthonormal factors, as beta(0) = 0: the nonzero spectrum of
    (x W) diag(nu) (x W)^H, and tr(X beta(gamma_l) X) = sum_k beta(nu_k) ||x w_k||^2.
    """
    orbitals, weights = gamma.factors
    cut = [x_diag[:, None] * w for w in orbitals]
    lhs = _entropy_of_blocks(_factor_spectra(cut, weights), spec)
    rhs = sum(
        (2 * l + 1) * float(np.sum(np.abs(c) ** 2, axis=0) @ spec.beta(np.clip(nu, 0.0, 1.0)))
        for l, (c, nu) in enumerate(zip(cut, weights))
    )
    return lhs, rhs


def inequality_audit(
    gamma: DensityMatrix, spec: EntropySpec, Z: float, energy: EnergyBreakdown
) -> dict:
    """The proven inequalities on a state, as {name: (lhs, rhs)} with lhs <= rhs.

    exchange_le_direct: exchange <= direct; coercivity:
    kinetic/2 - 2 Z^2 q <= total_hf; brown_kosaki_R=...: the entropy
    monotonicity tr beta(X gamma X) <= tr(X beta(gamma) X) under a
    [0,1]-valued diagonal cutoff X at three radii.  The energy terms are read
    from ``energy``, the breakdown of ``gamma``.
    """
    checks = {
        "exchange_le_direct": (energy.exchange, energy.direct),
        "coercivity": (0.5 * energy.kinetic - 2.0 * Z * Z * gamma.trace(), energy.total_hf),
    }
    grid = gamma.grid
    for r_cut in (grid.r_max / 8.0, grid.r_max / 4.0, grid.r_max / 2.0):
        checks[f"brown_kosaki_R={r_cut:g}"] = brown_kosaki_terms(
            gamma, spec, _cutoff_profile(grid.r / r_cut)
        )
    return checks
