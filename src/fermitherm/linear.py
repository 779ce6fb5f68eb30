"""Analytic oracles for the interaction-free (linear) model.

Everything here is a sum over the hydrogen spectrum lambda_j = -Z^2/(4 j^2)
with multiplicity j^2.  Past the saturated levels the summands of
q_max_lin, the A4 sum and the existence bound are pure powers of j, so
those series are evaluated exactly: a polynomial head plus a Hurwitz zeta
tail.  These values are the ground truth the grid solver is checked against.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .entropy import EntropySpec, SeriesResult, _saturation, _sum_series, validate_a4

__all__ = [
    "HydrogenLevel",
    "LinearReport",
    "Regime",
    "SeriesResult",
    "UnboundedModelError",
    "UnreachableChargeError",
    "guaranteed_existence_qmax",
    "hydrogen_level",
    "linear_ground_free_energy",
    "linear_report",
    "mu_of_q",
    "q_max_lin",
    "q_of_mu",
    "regime_classify",
]

class UnboundedModelError(RuntimeError):
    """The linear free energy is unbounded from below (A4 fails)."""


class UnreachableChargeError(ValueError):
    """Requested charge exceeds what any multiplier mu <= 0 can bind."""


@dataclass(frozen=True)
class HydrogenLevel:
    """One level of -Delta - Z/|x|: energy -Z^2/(4 j^2), multiplicity j^2."""

    j: int
    lambda_j: float
    multiplicity: int


def hydrogen_level(Z: float, j: int) -> HydrogenLevel:
    if not 0.0 < Z < math.inf:
        raise ValueError(f"hydrogen_level requires a finite Z > 0, got {Z}")
    if not isinstance(j, numbers.Integral) or j < 1:
        raise ValueError(f"hydrogen_level requires an integer j >= 1, got {j!r}")
    return HydrogenLevel(j=j, lambda_j=-Z * Z / (4.0 * j * j), multiplicity=j * j)


class Regime(enum.Enum):
    """Existence classification of the power-family linear model."""

    FINITE_QMAX = "FiniteQmax"
    INFINITE_QMAX = "InfiniteQmax"
    UNBOUNDED = "Unbounded"


def regime_classify(m: float) -> Regime:
    """Three-column threshold table for beta(nu) = nu**m."""
    if not m > 1.0:
        raise ValueError(f"regime_classify requires m > 1, got {m}")
    if m < 5.0 / 3.0:
        return Regime.FINITE_QMAX
    if m < 3.0:
        return Regime.INFINITE_QMAX
    return Regime.UNBOUNDED


def linear_ground_free_energy(spec: EntropySpec, Z: float, T: float) -> SeriesResult:
    """Global minimum of the linear model: T sum_j j^2 beta*(lambda_j/T).

    Per level the minimum of lambda*nu + T*beta(nu) over nu in [0, 1] is
    T*beta*(lambda/T), hence the overall T prefactor.  Strictly negative;
    raises UnboundedModelError when the defining series is not summable
    (power family with m >= 3).
    """
    report = validate_a4(spec, Z, T)
    if not report.converges:
        raise UnboundedModelError(
            f"linear model unbounded from below for m = {spec.m}"
        )
    return SeriesResult(value=-T * report.value)


def _g_series(spec: EntropySpec, Z: float, T: float, k: int) -> SeriesResult:
    """sum_j j**k g(-Z^2/(4 T j^2)) for k = 0 or 2, exactly.

    The n saturated levels (``_saturation``) add sum_{j<=n} j**k; beyond them
    the summand is the pure power (c/m)**(1/(m-1)) * j**(k - 2/(m-1)).
    """
    m = spec.m
    c, n = _saturation(spec, Z, T)
    head = n * (n + 1) * (2 * n + 1) / 6.0 if k == 2 else float(n)
    return _sum_series(head, n + 1, (c / m) ** (1.0 / (m - 1.0)), k - 2.0 / (m - 1.0))


def q_max_lin(spec: EntropySpec, Z: float, T: float) -> SeriesResult:
    """Trace of the formal linear ground state: sum_j j^2 g(lambda_j/T).

    Finite iff m < 5/3 for the power family; value is +inf otherwise.
    """
    return _g_series(spec, Z, T, 2)


def q_of_mu(spec: EntropySpec, Z: float, T: float, mu: float) -> float:
    """Bound charge at multiplier mu: sum_j j^2 g((lambda_j - mu)/T).

    Finite for mu < 0 because only levels below mu contribute; at mu = 0
    this is q_max_lin (possibly infinite).
    """
    _saturation(spec, Z, T)  # the check of Z and T
    if not mu <= 0.0:
        raise ValueError(f"q_of_mu requires mu <= 0, got {mu}")
    if mu == 0.0:
        return q_max_lin(spec, Z, T).value
    j_hi = int(math.floor(Z / (2.0 * math.sqrt(-mu))))
    if j_hi < 1:
        return 0.0
    total = 0.0
    for start in range(1, j_hi + 1, 1 << 20):
        idx = np.arange(start, min(start + (1 << 20), j_hi + 1), dtype=float)
        lam = -Z * Z / (4.0 * idx**2)
        total += float(np.sum(idx**2 * spec.g((lam - mu) / T)))
    return total


def mu_of_q(
    spec: EntropySpec, Z: float, T: float, q: float, tol: float = 1e-12
) -> float:
    """Invert q_of_mu by bisection to |q(mu) - q| <= tol.

    q = 0 returns the -inf sentinel; q at or above q_max_lin raises.
    """
    if not q >= 0.0:
        raise ValueError(f"mu_of_q requires q >= 0, got {q}")
    if q == 0.0:
        return -math.inf
    qmax = q_max_lin(spec, Z, T)
    if q >= qmax.value:
        raise UnreachableChargeError(
            f"charge {q} is not below q_max_lin = {qmax.value}"
        )
    lo = -Z * Z / 4.0 - T * abs(spec.saturation_lambda)
    hi = 0.0
    mid = lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q_mid = q_of_mu(spec, Z, T, mid)
        if abs(q_mid - q) <= tol:
            return mid
        if q_mid < q:
            lo = mid
        else:
            hi = mid
    return mid


def guaranteed_existence_qmax(spec: EntropySpec, Z: float, T: float) -> float:
    """Largest q with q <= min{sum_j g(-(Z-q)^2/(4 T j^2)), Z}.

    The right side is nonincreasing in q on [0, Z] while the left side
    increases, so the crossing is unique; found by bisection.  The sum
    carries no degeneracy weight.
    """
    _saturation(spec, Z, T)  # the check of Z and T
    if spec.m >= 3.0:
        # unweighted sum diverges, the display holds on all of [0, Z)
        return Z

    def rhs(q: float) -> float:
        return min(_g_series(spec, Z - q, T, 0).value, Z) if q < Z else 0.0

    lo, hi = 0.0, Z  # rhs(0) > 0 and rhs(Z) = 0, so the crossing is interior
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= rhs(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, Z):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LinearReport:
    """Threshold summary for one (spec, Z, T) of the linear model."""

    ground_free_energy: SeriesResult
    q_max_lin: SeriesResult
    regime: Regime
    q_guaranteed: float


def linear_report(spec: EntropySpec, Z: float, T: float) -> LinearReport:
    regime = regime_classify(spec.m)
    if regime is Regime.UNBOUNDED:
        ground = SeriesResult(value=-math.inf)
    else:
        ground = linear_ground_free_energy(spec, Z, T)
    return LinearReport(
        ground_free_energy=ground,
        q_max_lin=q_max_lin(spec, Z, T),
        regime=regime,
        q_guaranteed=guaranteed_existence_qmax(spec, Z, T),
    )
