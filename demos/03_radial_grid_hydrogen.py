"""Radial discretization: hydrogen spectrum, Newton potential, dilations.

The grid is uniform with Dirichlet ends; the kinetic stencil is second
order, so bare-operator eigenvalues converge at O(h^2) toward -Z^2/(4 j^2).
The Hartree potential is assembled by the shell decomposition (inner charge
over r plus outer shells at their own radius) and never exceeds q/r.
"""

import numpy as np

from fermitherm import (
    DensityMatrix,
    OperatorCache,
    build_grid,
    density_from_gamma,
    dilate,
    hartree_potential,
    hf_energy,
)

# the bound levels of the tridiagonal bare operator T_0 - 1/r, with their orbitals
grid = build_grid(1500, 60.0)
bare_levels, bare_vectors = OperatorCache(grid, 0, 1.0).bare_spectrum
levels = bare_levels[0][:3]
print("l=0 spectrum of -d^2/dr^2 - 1/r on the grid (n=1500, r_max=60):")
for j, e in enumerate(levels, start=1):
    exact = -0.25 / j**2
    print(f"  j={j}: {e:+.8f}  exact {exact:+.8f}  error {e - exact:+.2e}")

e_coarse = OperatorCache(build_grid(750, 60.0), 0, 1.0).bare_spectrum[0][0][0]
ratio = (e_coarse + 0.25) / (levels[0] + 0.25)
print(f"\nhalving h shrinks the ground-level error by {ratio:.2f} (O(h^2) -> ~4)")

# ground orbital -> density -> Hartree potential
gamma = DensityMatrix.from_factors(grid, [bare_vectors[0][:, :1]], [np.ones(1)])
rho = density_from_gamma(gamma)
v_h = hartree_potential(rho)
print(f"\ntotal charge: {rho.charge:.12f}")
print(f"max of r*V_H (Newton bound says <= charge): {np.max(grid.r * v_h):.12f}")
print(f"far field r_max*V_H(r_max): {grid.r[-1] * v_h[-1]:.12f}")

# dilation turns the scaling laws into exact identities
base = hf_energy(gamma, Z=0.0)
contracted = hf_energy(dilate(gamma, 2.0), Z=0.0)
print(f"\ndilation by eta=2 (Z=0): kinetic x{contracted.kinetic / base.kinetic:.12f}, "
      f"direct x{contracted.direct / base.direct:.12f}")
