"""Radial grid, per-channel operators, densities, and the dilation map.

States are rotation invariant: one Hermitian block per angular momentum
channel, each block acting on reduced radial functions sampled on a uniform
grid with Dirichlet ends.  Grid-basis vectors are treated as orthonormal, so
traces are plain matrix traces and every physical integral carries the
single quadrature weight ``h``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DensityMatrix",
    "RadialDensity",
    "RadialGrid",
    "build_grid",
    "density_from_gamma",
    "dilate",
    "hartree_potential",
    "kinetic_tridiagonal",
    "multipole_apply",
    "multipole_generators",
    "multipole_kernel_inverse",
    "nuclear_potential",
    "zero_density_matrix",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform mesh r_i = (i+1) h, i = 0..n-1, with h = r_max/(n+1)."""

    n_points: int
    r_max: float
    h: float
    r: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, RadialGrid):
            return NotImplemented
        return self.n_points == other.n_points and self.r_max == other.r_max


def build_grid(n_points: int, r_max: float) -> RadialGrid:
    if not isinstance(n_points, numbers.Integral) or n_points <= 0:
        raise ValueError(f"n_points must be a positive integer, got {n_points!r}")
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    h = r_max / (n_points + 1)
    r = h * np.arange(1, n_points + 1, dtype=float)
    return RadialGrid(n_points=n_points, r_max=float(r_max), h=h, r=r)


_VALIDATE_TOL = 1e-10  # Hermiticity, orthonormality and [0, 1] slack of a stored state
_DROP_TOL = 1e-14  # factor weights at or below this share of the largest |weight| are dropped


def _trimmed(orbitals, weights):
    """Factors without the weights |nu| <= _DROP_TOL max|nu|, over all channels."""
    floor = _DROP_TOL * max((float(np.max(np.abs(nu), initial=0.0)) for nu in weights), default=0.0)
    keep = [np.abs(nu) > floor for nu in weights]
    return (
        [np.ascontiguousarray(w[:, k]) for w, k in zip(orbitals, keep)],
        [nu[k] for nu, k in zip(weights, keep)],
    )


def _factor_blocks(blocks):
    """Orbital factors gamma_l = W_l diag(nu_l) W_l^H by one eigh per block.

    The weights keep their sign, so an indefinite block (a difference of
    states) factors as well as a state.  A real block keeps a real eigensolve
    and gives real orbitals."""
    spectra = [np.linalg.eigh(b) for b in blocks]
    return _trimmed([v for _, v in spectra], [w for w, _ in spectra])


def _materialize(orbitals, weights) -> list:
    """Dense blocks W_l diag(nu_l) W_l^H, symmetrized against rounding."""
    products = [(w_mat * nu) @ w_mat.conj().T for w_mat, nu in zip(orbitals, weights)]
    return [0.5 * (b + b.conj().T) for b in products]


def _density_line(grid: RadialGrid, orbitals, weights) -> np.ndarray:
    """rho_line = sum_l (2l+1) sum_k nu_k |w_k|^2 / h."""
    return sum(
        (2 * l + 1) * (np.abs(w_mat) ** 2 @ nu)
        for l, (w_mat, nu) in enumerate(zip(orbitals, weights))
    ) / grid.h


class DensityMatrix:
    """Per-channel Hermitian blocks Gamma_l with 0 <= Gamma_l <= 1.

    Channel ``l`` enters all traces with its angular multiplicity 2l+1.
    Blocks are real symmetric for static states and complex Hermitian
    during time evolution.  Treated as immutable once built.  The form it was
    built from is kept and the other made on first read, then cached:
    ``DensityMatrix(grid, blocks)`` is factored by one eigh per block, and a
    state ``from_factors`` (Gamma_l = W_l diag(nu_l) W_l^H) forms no n x n
    block unless ``blocks`` is read.
    """

    def __init__(self, grid: RadialGrid, blocks=None, factors=None):
        """From dense ``blocks`` or from ``factors`` (orbitals, weights); factors
        given with blocks are their cached factorization."""
        if blocks is None and factors is None:
            raise ValueError("a density matrix needs blocks or factors")
        self.grid = grid
        self._dense_input = blocks is not None
        self._blocks = None if blocks is None else list(blocks)
        self._factors = None if factors is None else (list(factors[0]), list(factors[1]))

    @classmethod
    def from_factors(cls, grid: RadialGrid, orbitals, weights) -> "DensityMatrix":
        return cls(grid, factors=(orbitals, weights))

    def _on_grid(self, grid: RadialGrid) -> "DensityMatrix":
        """The same matrices on another grid, kept in the form they were built from."""
        return DensityMatrix(grid, self._blocks if self._dense_input else None, self._factors)

    @property
    def blocks(self) -> list:
        if self._blocks is None:
            self._blocks = _materialize(*self._factors)
        return self._blocks

    @property
    def factors(self) -> tuple:
        """(orbitals, weights): per channel W_l (n x k) and nu_l (k,)."""
        if self._factors is None:
            self._factors = _factor_blocks(self._blocks)
        return self._factors

    @property
    def l_max(self) -> int:
        return len(self._blocks if self._factors is None else self._factors[1]) - 1

    def trace(self) -> float:
        """sum_l (2l+1) sum_k nu_k |w_k|^2, the trace of W diag(nu) W^H."""
        terms = (np.sum(np.abs(w) ** 2 @ nu) for w, nu in zip(*self.factors))
        return float(sum((2 * l + 1) * t for l, t in enumerate(terms)))

    def validate(self) -> None:
        """Check the input form, then 0 <= Gamma <= 1 on the factors' weights,
        each to _VALIDATE_TOL.

        Every entry must be finite (NaN passes each bound test below).  Dense
        blocks must be n x n and Hermitian, checked before they are factored
        (eigh reads one triangle); factors need real 1-D weights and
        orthonormal orbitals.
        """
        n = self.grid.n_points
        arrays = self._blocks if self._dense_input else [*self._factors[0], *self._factors[1]]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("state has non-finite entries")
        if self._dense_input:
            for l, b in enumerate(self._blocks):
                if b.shape != (n, n):
                    raise ValueError(f"block l={l} has shape {b.shape}")
                herm = np.max(np.abs(b - b.conj().T))
                if herm > _VALIDATE_TOL:
                    raise ValueError(f"block l={l} not Hermitian: defect {herm:.2e}")
        else:
            for l, (w, nu) in enumerate(zip(*self._factors)):
                if nu.ndim != 1 or w.shape != (n, nu.size):
                    raise ValueError(
                        f"channel l={l}: orbitals of shape {w.shape} do not fit weights "
                        f"of shape {nu.shape}"
                    )
                if np.iscomplexobj(nu):
                    raise ValueError(f"channel l={l} weights are not real")
                gram = float(np.max(np.abs(w.conj().T @ w - np.eye(nu.size)), initial=0.0))
                if gram > _VALIDATE_TOL:
                    raise ValueError(f"channel l={l} orbitals not orthonormal: defect {gram:.2e}")
        for l, nu in enumerate(self.factors[1]):
            if nu.size and (nu.min() < -_VALIDATE_TOL or nu.max() > 1.0 + _VALIDATE_TOL):
                raise ValueError(
                    f"channel l={l} occupations outside [0,1]: [{nu.min():.2e}, {nu.max():.6f}]"
                )


def zero_density_matrix(grid: RadialGrid, l_max: int) -> DensityMatrix:
    empty = np.zeros((grid.n_points, 0))
    return DensityMatrix.from_factors(grid, [empty] * (l_max + 1), [np.zeros(0)] * (l_max + 1))


def kinetic_tridiagonal(grid: RadialGrid, l: int) -> tuple:
    """(diagonal, off-diagonal scalar) of the channel-l kinetic stencil."""
    if l < 0:
        raise ValueError(f"angular momentum must be >= 0, got {l}")
    inv_h2 = 1.0 / grid.h**2
    return 2.0 * inv_h2 + l * (l + 1) / grid.r**2, -inv_h2


def nuclear_potential(grid: RadialGrid, Z: float) -> np.ndarray:
    """Diagonal of -Z/r at the nodes (r_0 = h > 0, no softening needed)."""
    return -Z / grid.r


@dataclass(frozen=True)
class RadialDensity:
    """Line density rho_line(r) = 4 pi r^2 rho(r), charge per unit radius."""

    grid: RadialGrid
    rho_line: np.ndarray = field(repr=False)

    @property
    def charge(self) -> float:
        return float(self.grid.h * np.sum(self.rho_line))


def density_from_gamma(gamma: DensityMatrix) -> RadialDensity:
    """rho_line[i] = (1/h) sum_l (2l+1) (Gamma_l)_ii; h*sum equals tr gamma."""
    return RadialDensity(grid=gamma.grid, rho_line=_density_line(gamma.grid, *gamma.factors))


def hartree_potential(density: RadialDensity) -> np.ndarray:
    """Electrostatic potential of a spherical charge distribution, on its grid.

    V(r_i) = (inner charge)/r_i + sum of outer shells at their own radius,
    so r * V(r) never exceeds the total charge: the L = 0 kernel applied to
    the shell charges h rho.
    """
    grid = density.grid
    return multipole_apply(grid, 0, grid.h * density.rho_line)


def multipole_generators(grid: RadialGrid, L) -> tuple:
    """(u, v) with w_L[i,j] = u_min(i,j) v_max(i,j): u = (r/s)^L, v = (r/s)^-(L+1)/s.

    The scale s = sqrt(r_0 r_(n-1)) centres both ranges on 1, so neither
    overflows for the orders the exchange couples.  An array ``L`` gives one
    column per order.
    """
    scale = math.sqrt(grid.r[0] * grid.r[-1])
    x = grid.r / scale
    if np.ndim(L):
        x = x[:, None]
    return x**L, x ** (-np.asarray(L) - 1) / scale


def multipole_apply(grid: RadialGrid, L: int, x: np.ndarray) -> np.ndarray:
    """w_L x in O(n) per column, with w_L never formed.

    (w_L x)_i = v_i sum_{j<=i} u_j x_j + u_i sum_{j>i} v_j x_j from the
    generators.  The outer sum is a reversed cumulative sum: as a total minus
    a running sum it would cancel wherever the outer tail is small.  One order
    ``L`` serves every column.
    """
    u, v = (g.reshape((-1,) + (1,) * (x.ndim - 1)) for g in multipole_generators(grid, L))
    out = v * np.cumsum(u * x, axis=0)
    out[:-1] += u[:-1] * np.cumsum((v * x)[::-1], axis=0)[-2::-1]
    return out


def multipole_kernel_inverse(grid: RadialGrid, L: int) -> tuple:
    """(diagonal, off-diagonal) of the tridiagonal J_L = w_L^-1.

    w_L[i,j] = u_min(i,j) v_max(i,j) with u = r^L, v = r^-(L+1) is semiseparable
    in generator form, so its inverse is tridiagonal with off_i = -1/d_i,
    d_i = u_{i+1} v_i - u_i v_{i+1}, and diagonal entries from the same d_i
    (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992).  d_i is formed without
    cancellation as expm1((2L+1) log1p(h/r_i)) (r_{i+1}/r_i)^-(L+1) / r_i.
    """
    if L < 0:
        raise ValueError(f"multipole order must be >= 0, got {L}")
    r = grid.r
    if grid.n_points == 1:
        return r.copy(), np.zeros(0)
    ratio = r[1:] / r[:-1]
    d = np.expm1((2 * L + 1) * np.log1p(grid.h / r[:-1])) * ratio ** -(L + 1) / r[:-1]
    diag = np.empty_like(r)
    # u_{i-1}/(d_{i-1} u_i) + u_{i+1}/(d_i u_i), with u-ratios taken as r-ratios
    diag[1:-1] = ratio[:-1] ** -L / d[:-1] + ratio[1:] ** L / d[1:]
    diag[0] = ratio[0] ** L / d[0]
    diag[-1] = ratio[-1] ** (L + 1) / d[-1]
    return diag, -1.0 / d


def dilate(gamma: DensityMatrix, eta: float) -> DensityMatrix:
    """Length contraction by eta > 1 (grid rescaled, matrix entries kept).

    The state keeps the form it was built from (dense blocks or factors),
    with any cached factors, and only the mesh spacing changes, so the
    scaling laws hold as exact floating-point identities: kinetic traces
    scale by eta^2, Coulomb energies by eta, occupation spectra (hence
    entropy and trace) not at all.
    """
    if eta <= 0.0:
        raise ValueError(f"dilation scale must be positive, got {eta}")
    return gamma._on_grid(build_grid(gamma.grid.n_points, gamma.grid.r_max / eta))
