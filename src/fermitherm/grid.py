"""Radial grid, per-channel operators, densities, and the dilation map.

States are rotation invariant: one Hermitian block per angular momentum
channel, each block acting on reduced radial functions sampled on a uniform
grid with Dirichlet ends.  Grid-basis vectors are treated as orthonormal, so
traces are plain matrix traces and every physical integral carries the
single quadrature weight ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DensityMatrix",
    "RadialDensity",
    "RadialGrid",
    "build_grid",
    "density_from_gamma",
    "dilate",
    "factored_density",
    "hartree_potential",
    "kinetic_matrix",
    "kinetic_tridiagonal",
    "multipole_kernel",
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
    if n_points <= 0:
        raise ValueError(f"n_points must be positive, got {n_points}")
    if r_max <= 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    h = r_max / (n_points + 1)
    r = h * np.arange(1, n_points + 1, dtype=float)
    return RadialGrid(n_points=n_points, r_max=float(r_max), h=h, r=r)


@dataclass
class DensityMatrix:
    """Per-channel Hermitian blocks Gamma_l with 0 <= Gamma_l <= 1.

    Channel ``l`` enters all traces with its angular multiplicity 2l+1.
    Blocks are real symmetric for static states and complex Hermitian
    during time evolution.  Treated as immutable once built.
    """

    grid: RadialGrid
    blocks: list

    @property
    def l_max(self) -> int:
        return len(self.blocks) - 1

    def trace(self) -> float:
        return float(
            sum(
                (2 * l + 1) * np.real(np.trace(b))
                for l, b in enumerate(self.blocks)
            )
        )

    def is_complex(self) -> bool:
        return any(np.iscomplexobj(b) for b in self.blocks)

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(grid=self.grid, blocks=[b.copy() for b in self.blocks])

    def validate(self, tol: float = 1e-10) -> None:
        """Check Hermiticity and the spectral constraint 0 <= Gamma <= 1."""
        for l, b in enumerate(self.blocks):
            if b.shape != (self.grid.n_points, self.grid.n_points):
                raise ValueError(f"block l={l} has shape {b.shape}")
            herm = np.max(np.abs(b - b.conj().T))
            if herm > tol:
                raise ValueError(f"block l={l} not Hermitian: defect {herm:.2e}")
            w = np.linalg.eigvalsh(b)
            if w[0] < -tol or w[-1] > 1.0 + tol:
                raise ValueError(
                    f"block l={l} eigenvalues outside [0,1]: [{w[0]:.2e}, {w[-1]:.6f}]"
                )


def zero_density_matrix(grid: RadialGrid, l_max: int) -> DensityMatrix:
    n = grid.n_points
    return DensityMatrix(grid=grid, blocks=[np.zeros((n, n)) for _ in range(l_max + 1)])


def factored_density(grid: RadialGrid, orbitals, weights) -> DensityMatrix:
    """The state with blocks W_l diag(nu_l) W_l^H, symmetrized against rounding."""
    blocks = []
    for w_mat, nu in zip(orbitals, weights):
        b = (w_mat * nu) @ w_mat.conj().T
        blocks.append(0.5 * (b + b.conj().T))
    return DensityMatrix(grid=grid, blocks=blocks)


def kinetic_tridiagonal(grid: RadialGrid, l: int) -> tuple:
    """(diagonal, off-diagonal scalar) of the channel-l kinetic stencil."""
    if l < 0:
        raise ValueError(f"angular momentum must be >= 0, got {l}")
    inv_h2 = 1.0 / grid.h**2
    return 2.0 * inv_h2 + l * (l + 1) / grid.r**2, -inv_h2


def kinetic_matrix(grid: RadialGrid, l: int) -> np.ndarray:
    """-d^2/dr^2 with the (-1, 2, -1)/h^2 stencil plus l(l+1)/r^2, dense.

    Symmetric positive definite under Dirichlet conditions at 0 and r_max.
    """
    diag, off_value = kinetic_tridiagonal(grid, l)
    n = grid.n_points
    mat = np.zeros((n, n))
    mat[np.arange(n), np.arange(n)] = diag
    off = np.arange(n - 1)
    mat[off, off + 1] = off_value
    mat[off + 1, off] = off_value
    return mat


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
    rho = np.zeros(gamma.grid.n_points)
    for l, b in enumerate(gamma.blocks):
        rho += (2 * l + 1) * np.real(np.diagonal(b))
    return RadialDensity(grid=gamma.grid, rho_line=rho / gamma.grid.h)


def hartree_potential(grid: RadialGrid, density: RadialDensity) -> np.ndarray:
    """Electrostatic potential of a spherical charge distribution.

    V(r_i) = (inner charge)/r_i + sum of outer shells at their own radius,
    so r * V(r) never exceeds the total charge.
    """
    if density.grid != grid:
        raise ValueError("density lives on a different grid")
    q_inner = grid.h * np.cumsum(density.rho_line)
    outer_terms = grid.h * density.rho_line / grid.r
    # strict outer sum: total minus inclusive cumulative
    outer = np.sum(outer_terms) - np.cumsum(outer_terms)
    return q_inner / grid.r + outer


def multipole_kernel(grid: RadialGrid, L: int) -> np.ndarray:
    """Symmetric kernel w_L[i,j] = r_<^L / r_>^(L+1) at the node pairs."""
    if L < 0:
        raise ValueError(f"multipole order must be >= 0, got {L}")
    r = grid.r
    r_small = np.minimum.outer(r, r)
    r_large = np.maximum.outer(r, r)
    return (r_small / r_large) ** L / r_large


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

    Because the blocks are untouched and only the mesh spacing changes,
    the scaling laws hold as exact floating-point identities: kinetic
    traces scale by eta^2, Coulomb energies by eta, occupation spectra
    (hence entropy and trace) not at all.
    """
    if eta <= 0.0:
        raise ValueError(f"dilation scale must be positive, got {eta}")
    new_grid = build_grid(gamma.grid.n_points, gamma.grid.r_max / eta)
    return DensityMatrix(grid=new_grid, blocks=[b.copy() for b in gamma.blocks])
