"""Minimum free energy I(q) along a charge sweep.

I(q) is nonincreasing, strictly decreasing while charge still binds; the
bindable charge is capped by min(q_max_lin, 2Z+1).  Each point is an
independent SCF run (they run on worker processes).
"""

from fermitherm import ScfConfig, charge_sweep, make_power_entropy

spec = make_power_entropy(2.0)
config = ScfConfig(
    spec=spec, Z=1.0, T=1.0,
    n_points=300, r_max=40.0, l_max=1,
    tol_gamma=1e-9, tol_energy=1e-9,
)
sweep = charge_sweep(config, [0.0, 0.02, 0.05, 0.1, 0.148], workers=2)

print("  q        I(q)          mu         converged  flag")
for row in sweep.rows:
    print(f"  {row.q:5.3f}  {row.free_energy:+.8f}  {row.mu:+.6f}  "
          f"{str(row.converged):5s}      {row.binding_flag}")

print(f"\nnonincreasing within tolerance: {sweep.monotone_ok}")
print(f"strictly decreasing through q = {sweep.largest_strict_q}")
print(f"ceilings: q_max_lin = {sweep.ceiling_q_max_lin}, "
      f"2Z+1 = {sweep.ceiling_ionization}, effective = {sweep.ceiling}")
