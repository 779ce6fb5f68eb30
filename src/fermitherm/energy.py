"""Hartree-Fock and free-energy evaluation plus the mean-field Hamiltonian.

Energy convention: the one-body operator is -Delta - Z/|x| (hydrogen levels
at -Z^2/(4 j^2)).  The exchange term is assembled channel-pairwise through
multipole kernels with squared Wigner-3j angular factors, normalized so
that direct and exchange cancel exactly for a fully occupied rank-one
s orbital.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import exchange_weights
from .entropy import EntropySpec
from .grid import (
    DensityMatrix,
    RadialGrid,
    density_from_gamma,
    hartree_potential,
    kinetic_matrix,
    kinetic_tridiagonal,
    multipole_kernel,
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
    the nuclear diagonal and the angular-combined exchange kernels
    sum_L A_L(l,l') w_L for each channel pair (symmetric in l <-> l'), the
    only n x n arrays held.  The direct term needs no kernel: it goes
    through the O(n) Newton-shell ``hartree_potential``.  The negative
    spectrum of the bare blocks, ``bare_spectrum``, is solved on first use
    and then shared by the warm start, the interaction-free iterations and
    the minimizer audit.  The tridiagonal kernel inverses,
    ``kernel_inverses``, are likewise built on first use, by the factored
    mean field of the dynamics only.
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
        self.pair_kernels = {}
        for l in range(l_max + 1):
            for lp in range(l, l_max + 1):
                combined = np.zeros((grid.n_points, grid.n_points))
                for L, a_l in self.angular[(l, lp)]:
                    combined += a_l * multipole_kernel(grid, L)
                self.pair_kernels[(l, lp)] = combined

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

    def pair_kernel(self, l: int, lp: int) -> np.ndarray:
        return self.pair_kernels[(min(l, lp), max(l, lp))]

    def matches(self, gamma: DensityMatrix) -> bool:
        return gamma.grid == self.grid and gamma.l_max <= self.l_max


def _cache_for(gamma: DensityMatrix, Z: float, cache: OperatorCache | None) -> OperatorCache:
    if cache is None:
        return OperatorCache(gamma.grid, gamma.l_max, Z)
    if not cache.matches(gamma) or cache.Z != Z:
        raise GridMismatchError("operator cache does not match the state")
    return cache


def _one_body_terms(gamma: DensityMatrix, cache: OperatorCache):
    """(kinetic, nuclear, line density) of a state, O(n) per block.

    The kinetic trace reads only the three central diagonals of each block.
    """
    kin = 0.0
    for l, b in enumerate(gamma.blocks):
        diag_part = np.dot(cache.kinetic_diag[l], np.real(np.diagonal(b)))
        off_part = np.real(np.sum(np.diagonal(b, 1)) + np.sum(np.diagonal(b, -1)))
        kin += (2 * l + 1) * float(diag_part + cache.kinetic_off * off_part)
    rho = density_from_gamma(gamma)
    nuc = gamma.grid.h * float(np.dot(cache.v_nuclear, rho.rho_line))
    return kin, nuc, rho


def _hf_terms(gamma: DensityMatrix, cache: OperatorCache):
    """(kinetic, nuclear, direct, exchange) of a state, all real.

    The direct term is (h/2) rho . V_H, with V_H from the Newton-shell sum.
    """
    kin, nuc, rho = _one_body_terms(gamma, cache)
    grid = gamma.grid
    direct = 0.5 * grid.h * float(np.dot(rho.rho_line, hartree_potential(grid, rho)))
    exch = 0.0
    for l, bl in enumerate(gamma.blocks):
        for lp, blp in enumerate(gamma.blocks):
            kernel = cache.pair_kernel(l, lp)
            exch += 0.5 * float(np.real(np.sum(kernel * bl * np.conj(blp))))
    return kin, nuc, direct, exch


def _entropy_of_occupations(occupations, spec: EntropySpec) -> float:
    """sum_l (2l+1) sum beta(nu) over per-channel occupations clipped to [0, 1]."""
    return sum(
        (2 * l + 1) * float(np.sum(spec.beta(np.clip(occ, 0.0, 1.0))))
        for l, occ in enumerate(occupations)
    )


_CLIP_TOL = 1e-10


def _entropy_of_blocks(gamma: DensityMatrix, spec: EntropySpec) -> float:
    """tr beta(gamma) from per-block eigenvalues, weighted by 2l+1.

    Eigenvalues within _CLIP_TOL of [0, 1] are clipped; anything further out
    is a genuine constraint violation and raises.
    """
    occupations = [np.linalg.eigvalsh(b) for b in gamma.blocks]
    for l, w in enumerate(occupations):
        if w[0] < -_CLIP_TOL or w[-1] > 1.0 + _CLIP_TOL:
            raise ValueError(
                f"occupation eigenvalues outside [0,1] in channel l={l}: "
                f"[{w[0]:.3e}, {w[-1]:.10f}]"
            )
    return _entropy_of_occupations(occupations, spec)


def hf_energy(
    gamma: DensityMatrix, Z: float, cache: OperatorCache | None = None
) -> EnergyBreakdown:
    """Hartree-Fock energy; the entropy slot is zero."""
    cache = _cache_for(gamma, Z, cache)
    kin, nuc, direct, exch = _hf_terms(gamma, cache)
    return _make_breakdown(kin, nuc, direct, exch, 0.0, 0.0)


def free_energy(
    gamma: DensityMatrix,
    spec: EntropySpec,
    Z: float,
    T: float,
    cache: OperatorCache | None = None,
) -> EnergyBreakdown:
    """Hartree-Fock energy plus T * tr beta(gamma)."""
    cache = _cache_for(gamma, Z, cache)
    kin, nuc, direct, exch = _hf_terms(gamma, cache)
    entropy = _entropy_of_blocks(gamma, spec)
    return _make_breakdown(kin, nuc, direct, exch, entropy, T)


def linear_energy_breakdown(
    gamma: DensityMatrix,
    spec: EntropySpec,
    Z: float,
    T: float,
    cache: OperatorCache | None = None,
) -> EnergyBreakdown:
    """Breakdown of the linear functional (direct and exchange dropped)."""
    cache = _cache_for(gamma, Z, cache)
    kin, nuc, _ = _one_body_terms(gamma, cache)
    entropy = _entropy_of_blocks(gamma, spec)
    return _make_breakdown(kin, nuc, 0.0, 0.0, entropy, T)


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


def mean_field_hamiltonian(
    gamma: DensityMatrix, Z: float, cache: OperatorCache | None = None
) -> MeanFieldHamiltonian:
    cache = _cache_for(gamma, Z, cache)
    grid = gamma.grid
    v_local = cache.v_nuclear + hartree_potential(grid, density_from_gamma(gamma))
    dtype = np.result_type(*[b.dtype for b in gamma.blocks])
    n = grid.n_points
    blocks = []
    for l in range(gamma.l_max + 1):
        h_block = np.zeros((n, n), dtype=dtype)
        for lp, blp in enumerate(gamma.blocks):
            h_block += cache.pair_kernel(l, lp) * blp
        # -K_l = -(sum_l' kernel * Gamma_l')/(2l+1), then the one-body part on top
        h_block /= -(2 * l + 1)
        blocks.append(cache.one_body_block(l, v_local, out=h_block))
    return MeanFieldHamiltonian(grid=grid, blocks=blocks)


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
    """(tr beta(X gamma X), tr(X beta(gamma) X)) for a diagonal X with X^2 <= 1."""
    lhs = _entropy_of_occupations(
        [np.linalg.eigvalsh(x_diag[:, None] * b * x_diag[None, :]) for b in gamma.blocks],
        spec,
    )
    rhs = 0.0
    for l, b in enumerate(gamma.blocks):
        w, vecs = np.linalg.eigh(b)
        beta_diag = np.real(
            np.einsum(
                "ik,k,ik->i", vecs, spec.beta(np.clip(w, 0.0, 1.0)), np.conj(vecs)
            )
        )
        rhs += (2 * l + 1) * float(np.dot(x_diag**2, beta_diag))
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
    kin, nuc, direct, exch = _hf_terms(gamma, cache)
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
