"""Dense references for the kinetic operator, the two-body terms and the
Brown-Kosaki traces.

The library keeps the kinetic operator tridiagonal and applies the kernels
w_L through their generators, and never forms either; these helpers form them
whole (``kinetic_matrix``, ``multipole_kernel``) and contract them with dense
blocks by Hadamard products over every ordered channel pair.  They read ``gamma.blocks`` only, never the state's factors,
are O(n^2) per pair or O(n^3) per block, and serve only as the oracle.
"""

import numpy as np

from fermitherm.angular import exchange_weights
from fermitherm.grid import kinetic_tridiagonal, nuclear_potential


def kinetic_matrix(grid, l):
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


def multipole_kernel(grid, L):
    """Symmetric kernel w_L[i,j] = r_<^L / r_>^(L+1) at the node pairs, dense.

    The library applies w_L through its generators (``multipole_apply``, and
    the mean field's per-term form) or its tridiagonal inverse and never
    forms it; this dense form is the reference they are checked against.
    """
    r = grid.r
    r_small = np.minimum.outer(r, r)
    r_large = np.maximum.outer(r, r)
    return (r_small / r_large) ** L / r_large


def pair_kernels(grid, l_max):
    """sum_L A_L(l,l') w_L for every ordered channel pair (l, l')."""
    kernels = {L: multipole_kernel(grid, L) for L in range(2 * l_max + 1)}
    return {
        pair: sum(a_l * kernels[L] for L, a_l in terms)
        for pair, terms in exchange_weights(l_max).items()
    }


def dense_trace(gamma):
    """sum_l (2l+1) tr Gamma_l from the diagonals of the dense blocks."""
    return sum((2 * l + 1) * float(np.real(np.trace(b))) for l, b in enumerate(gamma.blocks))


def _shells(gamma):
    """h rho, the charge of each grid shell, and the dense Hartree potential."""
    shells = sum((2 * l + 1) * np.real(np.diagonal(b)) for l, b in enumerate(gamma.blocks))
    return shells, multipole_kernel(gamma.grid, 0) @ shells


def dense_hf_terms(gamma, Z):
    """(kinetic, nuclear, direct, exchange) by dense contractions."""
    grid = gamma.grid
    kernels = pair_kernels(grid, gamma.l_max)
    kin = sum(
        (2 * l + 1) * float(np.real(np.einsum("ij,ji->", kinetic_matrix(grid, l), b)))
        for l, b in enumerate(gamma.blocks)
    )
    shells, v_hartree = _shells(gamma)
    nuc = float(nuclear_potential(grid, Z) @ shells)
    direct = 0.5 * float(shells @ v_hartree)
    exch = sum(
        0.5 * float(np.real(np.sum(kernels[(l, lp)] * bl * np.conj(blp))))
        for l, bl in enumerate(gamma.blocks)
        for lp, blp in enumerate(gamma.blocks)
    )
    return kin, nuc, direct, exch


def dense_hamiltonian(gamma, Z):
    """H_l = T_l + diag(v_nuc + V_H) - (1/(2l+1)) sum_l' kernel(l, l') * Gamma_l'."""
    grid = gamma.grid
    kernels = pair_kernels(grid, gamma.l_max)
    _, v_hartree = _shells(gamma)
    v_local = np.diag(nuclear_potential(grid, Z) + v_hartree)
    return [
        kinetic_matrix(grid, l) + v_local
        - sum(kernels[(l, lp)] * blp for lp, blp in enumerate(gamma.blocks)) / (2 * l + 1)
        for l in range(gamma.l_max + 1)
    ]


def dense_brown_kosaki_terms(gamma, spec, x_diag):
    """(tr beta(X gamma X), tr(X beta(gamma) X)) from full spectra of the blocks."""
    lhs = rhs = 0.0
    for l, b in enumerate(gamma.blocks):
        inner = np.linalg.eigvalsh(x_diag[:, None] * b * x_diag[None, :])
        lhs += (2 * l + 1) * float(np.sum(spec.beta(np.clip(inner, 0.0, 1.0))))
        w, vecs = np.linalg.eigh(b)
        beta_diag = np.real(
            np.einsum("ik,k,ik->i", vecs, spec.beta(np.clip(w, 0.0, 1.0)), np.conj(vecs))
        )
        rhs += (2 * l + 1) * float(np.dot(x_diag**2, beta_diag))
    return lhs, rhs
