"""SCF minimization of the free energy at fixed charge.

The fixed point gamma = g((H_gamma - mu)/T) is reached by diagonalizing the
mean-field blocks, filling the pooled levels through the occupation map
(chemical potential bisected to hit tr gamma = q), and optimal damping: each
step moves to the point of least free energy on the segment from the iterate
to that filled candidate.  At T > 0 the filling is single-valued, so
fractional occupations appear naturally and no aufbau tie-breaking is ever
needed.
"""

import numpy as np

from fermitherm import ScfConfig, make_power_entropy, scf_minimize

spec = make_power_entropy(2.0)
# the box must hold the 3s comparison orbital (turning point near r = 40)
# or the eigenvalue-bound audit gets squeezed upward
config = ScfConfig(
    spec=spec, Z=1.0, T=1.0, q=0.1,
    n_points=600, r_max=90.0, l_max=2,
    tol_gamma=1e-9, tol_energy=1e-9,
)
result = scf_minimize(config)

print(f"converged: {result.converged} in {result.iterations} iterations")
print(f"chemical potential mu = {result.mu:.6f}")
print(f"fixed-point residual  = {result.residual:.2e}\n")

e = result.energy
print("energy breakdown:")
print(f"  kinetic   {e.kinetic:+.6f}")
print(f"  nuclear   {e.nuclear:+.6f}")
print(f"  direct    {e.direct:+.6f}")
print(f"  exchange  {e.exchange:+.6f}   (always <= direct)")
print(f"  T*entropy {e.entropy_term:+.6f}")
print(f"  free      {e.total_free:+.6f}   (rank-one trial gives -q/4 + q^2 = {-0.1/4 + 0.01:+.6f})\n")

print("occupations per channel (fractional thanks to T > 0):")
for l, block in enumerate(result.gamma.blocks):
    occ = np.linalg.eigvalsh(block)
    filled = occ[occ > 1e-10][::-1]
    print(f"  l={l}: {np.array2string(filled, precision=6, suppress_small=True)}")

audit = result.audit
print("\nminimizer audit:")
print(f"  tr(r H gamma) = {audit.lieb_value:+.3e}  (must be <= 0)")
print(f"  l=0 levels below -(Z-q)^2/(4j^2): {audit.eigenvalue_bound_ok}")
print(f"  charge chain q <= tr g(H/T) <= tr g(H_bare/T): {audit.qmaxlin_chain_ok}")
print(f"  negative free energy: {audit.energy_negative_ok}")
