"""Dense references for the two-body terms, built from the n x n multipole kernels.

The library applies the kernels w_L through their generators and never forms
them; these helpers form them whole, as ``multipole_kernel`` gives them, and
contract them with dense blocks by Hadamard products over every ordered
channel pair.  They are O(n^2) per pair and serve only as the oracle.
"""

import numpy as np

from fermitherm.angular import exchange_weights
from fermitherm.grid import (
    density_from_gamma,
    kinetic_matrix,
    multipole_kernel,
    nuclear_potential,
)


def pair_kernels(grid, l_max):
    """sum_L A_L(l,l') w_L for every ordered channel pair (l, l')."""
    kernels = {L: multipole_kernel(grid, L) for L in range(2 * l_max + 1)}
    return {
        pair: sum(a_l * kernels[L] for L, a_l in terms)
        for pair, terms in exchange_weights(l_max).items()
    }


def _shells(gamma):
    """h rho, the charge of each grid shell, and the dense Hartree potential."""
    shells = gamma.grid.h * density_from_gamma(gamma).rho_line
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
