"""Linear model: exact spectrum sums, bindable charge, and regimes.

Without the electron-electron terms the minimizer is an explicit function
of the hydrogen spectrum, so the ground free energy, the maximal bindable
charge q_max_lin, and the charge-vs-multiplier curve q(mu) are all exact
series.  The exponent m splits into three regimes: finite q_max_lin
(m < 5/3), infinite q_max_lin but bounded energy (5/3 <= m < 3), and
energy unbounded from below (m >= 3).
"""

import math

from fermitherm import (
    guaranteed_existence_qmax,
    linear_report,
    make_power_entropy,
    mu_of_q,
    q_max_lin,
    q_of_mu,
    regime_classify,
)

print("regime table:")
for m in (1.4, 5.0 / 3.0, 2.0, 3.0):
    print(f"  m={m:6.4f}: {regime_classify(m).value}")

print("\nfull report at Z=1, T=1:")
for m in (1.5, 2.0):
    spec = make_power_entropy(m)
    rep = linear_report(spec, Z=1.0, T=1.0)
    q_str = "inf" if math.isinf(rep.q_max_lin) else f"{rep.q_max_lin:.7f}"
    print(f"  m={m}: F_min={rep.ground_free_energy:.8f} "
          f"q_max_lin={q_str} q_guaranteed={rep.q_guaranteed:.6f}")

spec = make_power_entropy(1.5)
print("\nq_max_lin(T) shrinks as the temperature grows (m=1.5, Z=1):")
for T in (0.5, 1.0, 10.0, 100.0):
    print(f"  T={T:6.1f}: q_max_lin = {q_max_lin(spec, 1.0, T):.8f}")

print("\ncharge vs multiplier and its inverse (m=2, Z=1, T=1):")
spec2 = make_power_entropy(2.0)
for mu in (-0.3, -0.2, -0.1, -0.05):
    q = q_of_mu(spec2, 1.0, 1.0, mu)
    back = mu_of_q(spec2, 1.0, 1.0, q) if q > 0 else float("-inf")
    print(f"  mu={mu:6.2f}: q(mu)={q:.6f}  mu(q)={back:.6f}")

print("\nguaranteed-existence charge (unweighted occupation-sum bound):")
for Z in (1.0, 2.0):
    print(f"  Z={Z}: q_guaranteed = {guaranteed_existence_qmax(spec2, Z, 1.0):.6f}")
