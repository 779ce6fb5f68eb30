"""Hartree-Fock and free-energy evaluation plus the mean-field Hamiltonian.

Energy convention: the one-body operator is -Delta - Z/|x| (hydrogen levels
at -Z^2/(4 j^2)).  The exchange term is assembled channel-pairwise through
multipole kernels with squared Wigner-3j angular factors, normalized so
that direct and exchange cancel exactly for a fully occupied rank-one
s orbital.

Every two-body quantity is computed on orbital factors gamma_l =
W_l diag(nu_l) W_l^H, with the kernels w_L applied in generator form
(``grid.multipole_apply``) and never stored.  One mean field,
``_FactoredField``, serves the Cayley steps of the dynamics (its terms) and
every dense eigensolve (``dense_blocks``); the energies are O(n k^2) sums
over orbital pairs.  The public functions read ``DensityMatrix.factors``
(a state built from dense blocks is factored once, by one eigh per block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import exchange_weights
from .entropy import EntropySpec
from .grid import (
    DensityMatrix,
    RadialDensity,
    RadialGrid,
    _density_line,
    hartree_potential,
    kinetic_matrix,
    kinetic_tridiagonal,
    multipole_apply,
    multipole_generators,
    multipole_kernel_inverse,
    nuclear_potential,
)

__all__ = [
    "EnergyBreakdown",
    "GridMismatchError",
    "InequalityAuditReport",
    "MeanFieldHamiltonian",
    "OperatorCache",
    "brown_kosaki_terms",
    "free_energy",
    "hardy_positivity_diagnostic",
    "linear_energy_breakdown",
    "hf_energy",
    "inequality_audit",
    "linear_free_energy",
    "mean_field_hamiltonian",
]


class GridMismatchError(ValueError):
    """State and operator cache live on different grids."""


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
    """Grid-bound operators reused across energy and Hamiltonian builds.

    The kinetic operator is kept tridiagonal: ``kinetic_diag[l]`` per channel
    plus the scalar ``kinetic_off`` shared by all channels.  Next to it sit
    the nuclear diagonal and the squared-3j weights ``angular`` of each
    channel pair.  No n x n array is held: the multipole kernels act through
    their generators (``grid.multipole_apply``), or through their tridiagonal
    inverses, ``kernel_inverses``, which the Cayley steps of the dynamics
    build on first use.  The negative spectrum of the bare blocks,
    ``bare_spectrum``, is solved on first use and then shared by the warm
    start, the interaction-free iterations and the minimizer audit.
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

    def one_body_block(self, l: int, v_local=None, out=None) -> np.ndarray:
        """Dense T_l + diag(v_local), added in place onto ``out`` when given.

        ``v_local`` defaults to the nuclear potential, which makes the
        result the bare block of channel l.
        """
        n = self.grid.n_points
        if v_local is None:
            v_local = self.v_nuclear
        if out is None:
            out = np.zeros((n, n))
        idx = np.arange(n)
        out[idx, idx] += self.kinetic_diag[l] + v_local
        out[idx[:-1], idx[1:]] += self.kinetic_off
        out[idx[1:], idx[:-1]] += self.kinetic_off
        return out

    @cached_property
    def bare_spectrum(self):
        """(levels, vectors): the eigenpairs below zero of each bare block.

        T_l + diag(v_nuc) is tridiagonal, so LAPACK's bisection and inverse
        iteration find the few bound levels in O(n) each, with no dense
        matrix; the occupation map vanishes on the rest of the spectrum.
        """
        # imported here: scipy.linalg costs ~0.3 s, and the package loads no scipy
        from scipy.linalg import eigh_tridiagonal

        off = np.full(self.grid.n_points - 1, self.kinetic_off)
        levels, vectors = [], []
        for diag in self.kinetic_diag:
            w, v = eigh_tridiagonal(
                diag + self.v_nuclear, off, select="v", select_range=(-np.inf, 0.0)
            )
            neg = w < 0.0  # the selected interval (-inf, 0] is closed at 0
            levels.append(w[neg])
            vectors.append(v[:, neg])
        return levels, vectors

    @cached_property
    def kernel_inverses(self) -> tuple:
        """(diagonals, off-diagonals) of J_L = w_L^-1, stacked by row L for
        L = 0..2 l_max, the multipole orders the exchange couples."""
        pairs = [multipole_kernel_inverse(self.grid, L) for L in range(2 * self.l_max + 1)]
        return np.array([d for d, _ in pairs]), np.array([o for _, o in pairs])

    def matches(self, gamma: DensityMatrix) -> bool:
        return gamma.grid == self.grid and gamma.l_max <= self.l_max


def _cache_for(gamma: DensityMatrix, Z: float, cache: OperatorCache | None) -> OperatorCache:
    if cache is None:
        return OperatorCache(gamma.grid, gamma.l_max, Z)
    if not cache.matches(gamma) or cache.Z != Z:
        raise GridMismatchError("operator cache does not match the state")
    return cache


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
    grid = cache.grid
    v_hartree = hartree_potential(grid, RadialDensity(grid, rho_line))
    direct = 0.5 * grid.h * float(np.dot(rho_line, v_hartree))
    return kin, nuc, direct, _exchange_energy(orbitals, weights, cache)


def _entropy_of_occupations(occupations, spec: EntropySpec) -> float:
    """sum_l (2l+1) sum beta(nu) over per-channel occupations clipped to [0, 1]."""
    return sum(
        (2 * l + 1) * float(np.sum(spec.beta(np.clip(occ, 0.0, 1.0))))
        for l, occ in enumerate(occupations)
    )


def _factor_spectra(orbitals, weights) -> list:
    """Per channel, the nonzero spectrum of X diag(nu) X^H: the eigenvalues of
    R diag(nu) R^H, with R from a thin QR of X (k x k, whatever n is)."""
    spectra = []
    for x, nu in zip(orbitals, weights):
        r = np.linalg.qr(x, mode="r")
        spectra.append(np.linalg.eigvalsh((r * nu) @ r.conj().T))
    return spectra


_CLIP_TOL = 1e-10


def _entropy_of_blocks(spectra, spec: EntropySpec) -> float:
    """tr beta(gamma) from the eigenvalues of its blocks, weighted by 2l+1.

    Eigenvalues within _CLIP_TOL of [0, 1] are clipped; anything further out
    is a genuine constraint violation and raises.
    """
    for l, w in enumerate(spectra):
        if w.size and (w.min() < -_CLIP_TOL or w.max() > 1.0 + _CLIP_TOL):
            raise ValueError(
                f"occupation eigenvalues outside [0,1] in channel l={l}: "
                f"[{w.min():.3e}, {w.max():.10f}]"
            )
    return _entropy_of_occupations(spectra, spec)


def hf_energy(
    gamma: DensityMatrix, Z: float, cache: OperatorCache | None = None
) -> EnergyBreakdown:
    """Hartree-Fock energy; the entropy slot is zero."""
    return _make_breakdown(*_hf_terms(*gamma.factors, _cache_for(gamma, Z, cache)), 0.0, 0.0)


def free_energy(
    gamma: DensityMatrix,
    spec: EntropySpec,
    Z: float,
    T: float,
    cache: OperatorCache | None = None,
) -> EnergyBreakdown:
    """Hartree-Fock energy plus T * tr beta(gamma), from the state's factors."""
    terms = _hf_terms(*gamma.factors, _cache_for(gamma, Z, cache))
    return _make_breakdown(*terms, _entropy_of_blocks(gamma.factors[1], spec), T)


def linear_energy_breakdown(
    gamma: DensityMatrix,
    spec: EntropySpec,
    Z: float,
    T: float,
    cache: OperatorCache | None = None,
) -> EnergyBreakdown:
    """Breakdown of the linear functional (direct and exchange dropped)."""
    kin, nuc, _ = _one_body_terms(*gamma.factors, _cache_for(gamma, Z, cache))
    return _make_breakdown(kin, nuc, 0.0, 0.0, _entropy_of_blocks(gamma.factors[1], spec), T)


def linear_free_energy(
    gamma: DensityMatrix,
    spec: EntropySpec,
    Z: float,
    T: float,
    cache: OperatorCache | None = None,
) -> float:
    """Free energy with the two-body terms (direct, exchange) dropped."""
    return linear_energy_breakdown(gamma, spec, Z, T, cache).total_free


@dataclass
class MeanFieldHamiltonian:
    """Per-channel blocks H_l = kinetic_l + diag(v_nuclear + v_hartree) - K_l.

    Normalized as the exact gradient of the Hartree-Fock energy: for any
    Hermitian perturbation, dE = sum_l (2l+1) tr(H_l dGamma_l).
    """

    grid: RadialGrid
    blocks: list


@dataclass
class _FactoredField:
    """The mean field of a factored state.

    H_l = T_l + diag(v_local) - K_l.  Since (w_L * w w^H) x = w (w_L (conj(w) x)),
    K_l = sum_t c_t diag(w_t) w_L diag(conj(w_t)) over the terms
    t = (l', L, orbital k) of weight c_t = A_L(l,l') nu_k / (2l+1).
    ``terms[l]`` holds (c, L, W) of channel l: weights, orders and the n x m
    matrix of the vectors w_t.  The Cayley steps of the dynamics read the
    terms alone; ``dense_blocks`` forms H for a dense eigensolve.
    """

    cache: OperatorCache
    v_local: np.ndarray
    terms: list

    def dense_blocks(self) -> list:
        """H_l as n x n blocks, one GEMM per channel for K_l.

        With the generators of each term's kernel, S = (u * W) diag(c) (v * W)^H
        equals K_l on and above the diagonal (r_i <= r_j), so
        K_l = triu(S) + triu(S, 1)^H.
        """
        grid = self.cache.grid
        blocks = []
        for l, (weights, orders, vectors) in enumerate(self.terms):
            u, v = multipole_generators(grid, orders)
            upper = np.triu((u * vectors * weights) @ (v * vectors).conj().T)
            h_block = -(upper + upper.conj().T)
            h_block.flat[:: grid.n_points + 1] *= 0.5  # the diagonal was taken twice
            blocks.append(self.cache.one_body_block(l, self.v_local, out=h_block))
        return blocks


def _factored_field(cache: OperatorCache, orbitals, weights) -> _FactoredField:
    grid = cache.grid
    rho = RadialDensity(grid, _density_line(grid, orbitals, weights))
    v_local = cache.v_nuclear + hartree_potential(grid, rho)
    terms = []
    for l in range(len(orbitals)):
        coefficients, orders, vectors = zip(*[
            (a_l * nu / (2 * l + 1), np.full(len(nu), L), w_mat)
            for lp, (w_mat, nu) in enumerate(zip(orbitals, weights))
            for L, a_l in cache.angular[(l, lp)]
        ])
        terms.append((np.concatenate(coefficients), np.concatenate(orders), np.hstack(vectors)))
    return _FactoredField(cache, v_local, terms)


def mean_field_hamiltonian(
    gamma: DensityMatrix, Z: float, cache: OperatorCache | None = None
) -> MeanFieldHamiltonian:
    field = _factored_field(_cache_for(gamma, Z, cache), *gamma.factors)
    return MeanFieldHamiltonian(grid=gamma.grid, blocks=field.dense_blocks())


def hardy_positivity_diagnostic(grid: RadialGrid, l: int = 0) -> float:
    """Smallest eigenvalue of r(-d^2/dr^2) + (-d^2/dr^2) r on the grid.

    The continuum operator is nonnegative (a Hardy-type positivity),
    but the discrete stencil may dip below zero near the origin; the
    value is reported as a diagnostic and never asserted anywhere.
    """
    k = kinetic_matrix(grid, l)
    r_mat = grid.r[:, None] * k
    sym = r_mat + r_mat.T
    return float(np.linalg.eigvalsh(sym)[0])


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
    lhs = _entropy_of_occupations(_factor_spectra(cut, weights), spec)
    rhs = sum(
        (2 * l + 1) * float(np.sum(np.abs(c) ** 2, axis=0) @ spec.beta(np.clip(nu, 0.0, 1.0)))
        for l, (c, nu) in enumerate(zip(cut, weights))
    )
    return lhs, rhs


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class InequalityAuditReport:
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def by_name(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def inequality_audit(
    gamma: DensityMatrix,
    spec: EntropySpec,
    Z: float,
    T: float,
    cache: OperatorCache | None = None,
    tol: float = 1e-9,
) -> InequalityAuditReport:
    """Numeric audit of the proven inequalities; failures are entries, not errors.

    (a) exchange <= direct; (b) coercivity total_hf >= kinetic/2 - 2 Z^2 q;
    (c) entropy monotonicity under [0,1]-valued diagonal cutoffs
        tr beta(X gamma X) <= tr(X beta(gamma) X) at three radii.
    """
    cache = _cache_for(gamma, Z, cache)
    kin, nuc, direct, exch = _hf_terms(*gamma.factors, cache)
    total_hf = kin + nuc + direct - exch
    q = gamma.trace()
    checks = [
        AuditCheck("exchange_le_direct", exch <= direct + tol, exch, direct),
        AuditCheck(
            "coercivity",
            total_hf >= 0.5 * kin - 2.0 * Z * Z * q - tol,
            total_hf,
            0.5 * kin - 2.0 * Z * Z * q,
        ),
    ]
    r = gamma.grid.r
    for r_cut in (gamma.grid.r_max / 8.0, gamma.grid.r_max / 4.0, gamma.grid.r_max / 2.0):
        x_diag = _cutoff_profile(r / r_cut)
        lhs, rhs = brown_kosaki_terms(gamma, spec, x_diag)
        checks.append(
            AuditCheck(f"brown_kosaki_R={r_cut:g}", lhs <= rhs + tol, lhs, rhs)
        )
    return InequalityAuditReport(checks=tuple(checks))
