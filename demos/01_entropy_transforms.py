"""Power-family entropy: occupation map, transform, and the tail condition.

The convex function beta(nu) = nu**m on [0, 1] generates the entropy term
of the free energy.  Its occupation map g(lam) assigns a filling in [0, 1]
to an energy level lam, and beta*(lam) = lam g(lam) + beta(g(lam)) is the
level's contribution to the minimized free energy.  The hydrogen-tail sum
sum_j j^2 |beta*(-Z^2/(4 T j^2))| decides whether the model is usable: it
converges exactly for 1 < m < 3.
"""

import numpy as np

from fermitherm import make_power_entropy, validate_a4

spec = make_power_entropy(2.0)
print(f"family: beta(nu) = nu^{spec.m:g}, saturation at lambda = {spec.saturation_lambda:g}")
print(f"A4 status: {spec.a4_status}\n")

print("lambda      g(lambda)   beta*(lambda)")
for lam in (-4.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.7):
    print(f"{lam:7.2f} {float(spec.g(lam)):11.6f} {float(spec.beta_star(lam)):14.6f}")

# the occupation map is the argmin of nu -> lam*nu + beta(nu); verify on a grid
lam = -1.0
nu = np.linspace(0.0, 1.0, 100001)
objective = lam * nu + spec.beta(nu)
print(f"\nargmin check at lambda={lam}: grid argmin {nu[np.argmin(objective)]:.5f}, "
      f"g gives {float(spec.g(lam)):.5f}")

print("\nhydrogen-tail sum j^2 |beta*(-Z^2/(4 T j^2))| for Z=2, T=1:")
for m in (1.5, 2.0, 2.5, 2.9, 3.0):
    report = validate_a4(make_power_entropy(m), Z=2.0, T=1.0)
    # the tail is summed exactly (Hurwitz zeta): truncation error 0, or inf
    # for a divergent series
    verdict = "converges" if report.converges else "DIVERGES"
    print(f"  m={m:3.1f}: {verdict:9s} value={report.value:12.6g} "
          f"truncation error={report.tail_bound:g}")

print("\nFor m=2, Z=2, T=1 the terms are exactly 1/(4 j^2), so the sum is "
      f"pi^2/24 = {np.pi**2 / 24:.10f}")
print(f"computed:                                    "
      f"{validate_a4(spec, 2.0, 1.0).value:.10f}")
