"""Analytic oracles for the interaction-free (linear) model.

Everything here is a sum over the hydrogen spectrum lambda_j = -Z^2/(4 j^2)
with multiplicity j^2.  Past the saturated levels the summands of
q_max_lin, the A4 sum and the existence bound are pure powers of j, so
those series are evaluated exactly: a polynomial head plus a Hurwitz zeta
tail.  The charge q(mu) at mu < 0 sums the levels below mu: a polynomial head,
and past a few thousand levels an Euler-Maclaurin tail of its smooth summand,
so its time stays bounded as mu -> 0-.  These values are the ground truth the
grid solver is checked against.
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


_DIRECT_LEVELS = 1 << 12  # unsaturated levels below mu summed one by one, not by a tail
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)  # B_2, B_4, B_6, B_8
_EPS = np.finfo(float).eps
_MU_TOL = 1e-12  # |q(mu) - q| at which mu_of_q stops bisecting


def _level_sum(spec: EntropySpec, Z: float, T: float, mu: float, first: int, last: int) -> float:
    """sum_{j=first}^{last} j^2 g((lambda_j - mu)/T), level by level."""
    total = 0.0
    for start in range(first, last + 1, 1 << 20):
        idx = float(start) + np.arange(min(1 << 20, last + 1 - start), dtype=float)
        lam = -Z * Z / (4.0 * idx**2)
        total += float(np.sum(idx**2 * spec.g((lam - mu) / T)))
    return total


def _taylor(alpha: float, s: float, star: float, x: float, dist: float, order: int) -> list:
    """Taylor coefficients, orders 0..order, of f(x) = x^(2 - 2 alpha) (c - s x^2)^alpha
    at x = star - dist, where c = s star^2: the binomial series of the power of
    x times that of (1 + u)^alpha, u quadratic in the step, by the recurrence of
    powers of a series."""
    base = s * dist * (2.0 * star - dist)  # c - s x^2, without cancellation near star
    u = (0.0, -2.0 * s * x / base, -s / base)
    power, binom = [1.0], [1.0]
    for k in range(1, order + 1):
        power.append(sum(((alpha + 1.0) * i - k) * u[i] * power[k - i] for i in (1, 2)
                         if i <= k) / k)
        binom.append(binom[-1] * (2.0 - 2.0 * alpha - k + 1) / (k * x))
    scale = math.exp((2.0 - 2.0 * alpha) * math.log(x) + alpha * math.log(base))
    return [scale * sum(binom[i] * power[k - i] for i in range(k + 1)) for k in range(order + 1)]


def _series(term, ratio, turn: float) -> float:
    """sum_r C_r term(r) with C_0 = 1 and C_(r+1) = C_r ratio(r), up to the
    first term below rounding past r = turn, where |C_r| may still grow (or
    up to a sum past the float range)."""
    total, coeff, r = 0.0, 1.0, 0
    while True:
        value = coeff * term(r)
        total += value
        if not math.isfinite(total) or (r >= turn and abs(value) <= _EPS * abs(total)):
            return total
        coeff *= ratio(r)
        r += 1


def _tail_integral(alpha: float, s: float, star: float, lo: float, hi: float,
                   hi_dist: float) -> float:
    """int_lo^hi x^(2 - 2 alpha) (c - s x^2)^alpha dx, c = s star^2, hi = star - hi_dist.

    With u = x^2 / star^2 and a = 3/2 - alpha it is (c^alpha star^(2a) / 2) times
    int u^(a-1) (1-u)^alpha du: below u = 1/2 by the binomial series of
    (1-u)^alpha, above it by that of (1-v)^(a-1) in v = 1 - u.  Both converge
    like 2^-r; each is scaled to its own end so that nothing overflows early.
    """
    a, mid, total = 1.5 - alpha, star / math.sqrt(2.0), 0.0
    if lo < mid:
        top = min(hi, mid)
        log_ratio = math.log(top / lo)

        def lower(r):  # ((top/lo)^(2(a+r)) - 1) (lo/star)^(2r) / (2(a+r))
            e = 2.0 * (a + r)
            if abs(e * log_ratio) < 1.0:
                return (lo / star) ** (2 * r) * (math.expm1(e * log_ratio) / e if e else log_ratio)
            return ((top / lo) ** (2.0 * a) * (top / star) ** (2 * r) - (lo / star) ** (2 * r)) / e

        scale = math.exp(alpha * math.log(s * star * star / (lo * lo)) + 3.0 * math.log(lo))
        total += scale * _series(lower, lambda r: (r - alpha) / (r + 1), alpha)
    if hi > mid:
        bottom = max(lo, mid)
        v_lo = hi_dist / star * (2.0 - hi_dist / star)
        v_hi = (1.0 - bottom / star) * (1.0 + bottom / star)

        def upper(r):
            e = alpha + r + 1.0
            return (v_hi**e - v_lo**e) / e

        scale = 0.5 * math.exp(alpha * math.log(s) + 3.0 * math.log(star))
        total += scale * _series(upper, lambda r: (r + 1.0 - a) / (r + 1), abs(a) + 1.0)
    return total


def q_of_mu(spec: EntropySpec, Z: float, T: float, mu: float) -> float:
    """Bound charge at multiplier mu: sum_j j^2 g((lambda_j - mu)/T).

    Finite for mu < 0 because only the levels j < j* = Z / (2 sqrt(-mu)) below
    mu contribute; at mu = 0 this is q_max_lin (possibly infinite).  The
    saturated levels (g = 1) add sum j^2 in closed form.  Past them the summand
    is m^-alpha f(j), f(x) = x^(2 - 2 alpha) (c - s x^2)^alpha with alpha =
    1/(m-1), c = Z^2/(4T) and s = -mu/T, smooth up to its branch point at j*.
    A few thousand such levels are summed one by one; beyond that, the first
    and last ``edge`` of them are, and the levels between by Euler-Maclaurin:
    the integral of f in closed form (``_tail_integral``), the end values and
    four Bernoulli terms of the odd derivatives (``_taylor``).  At least
    ``edge`` levels from either end, f's derivatives shrink like edge^-k, so
    the remainder is below rounding: the time is bounded as mu -> 0-.  A
    value past the float range raises OverflowError.
    """
    _saturation(spec, Z, T)  # the check of Z and T
    if not mu <= 0.0:
        raise ValueError(f"q_of_mu requires mu <= 0, got {mu}")
    if mu == 0.0:
        return q_max_lin(spec, Z, T).value
    star = Z / (2.0 * math.sqrt(-mu))
    j_hi = int(math.floor(star))
    if j_hi < 1:
        return 0.0
    m, c, s = spec.m, Z * Z / (4.0 * T), -mu / T
    alpha = 1.0 / (m - 1.0)
    # a safe count of saturated levels: one is left to the level sum
    n = min(j_hi, max(0, int(math.sqrt(c / (m + s))) - 1))
    head = n * (n + 1) * (2 * n + 1) / 6.0
    edge = 64 + 4 * math.ceil(abs(2.0 - 2.0 * alpha) + alpha)
    if j_hi - n <= max(_DIRECT_LEVELS, 4 * edge):
        return head + _level_sum(spec, Z, T, mu, n + 1, j_hi)
    lo, hi = n + 1 + edge, j_hi - edge
    hi_dist = (star - j_hi) + edge  # star - hi without cancellation
    f_lo, f_hi = (_taylor(alpha, s, star, x, d, 7) for x, d in ((lo, star - lo), (hi, hi_dist)))
    tail = _tail_integral(alpha, s, star, lo, hi, hi_dist) + 0.5 * (f_lo[0] + f_hi[0])
    for r, bernoulli in enumerate(_BERNOULLI, start=1):
        tail += bernoulli / (2 * r) * (f_hi[2 * r - 1] - f_lo[2 * r - 1])
    edges = _level_sum(spec, Z, T, mu, n + 1, lo - 1)
    if star < 2.0**53:  # past it the last levels are no distinct floats; their share is below
        edges += _level_sum(spec, Z, T, mu, hi + 1, j_hi)  # star^-(1+alpha) of the sum
    total = head + edges + tail / m**alpha
    if not math.isfinite(total):
        raise OverflowError("the series sum exceeds the float range")
    return total


def mu_of_q(spec: EntropySpec, Z: float, T: float, q: float) -> float:
    """Invert q_of_mu by bisection, to |q(mu) - q| <= _MU_TOL or to a bracket
    of adjacent floats.

    A large q can sit between the values of q_of_mu at two adjacent mu, more
    than _MU_TOL apart in rounding alone; the returned mu is then the end of
    that bracket the last halving gave.  q = 0 returns the -inf sentinel; q at
    or above q_max_lin raises.
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
        if mid in (lo, hi):
            break
        q_mid = q_of_mu(spec, Z, T, mid)
        if abs(q_mid - q) <= _MU_TOL:
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
