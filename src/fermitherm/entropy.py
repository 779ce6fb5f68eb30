"""Convex entropy functions on occupation numbers and their transforms.

The shipped family is the power entropy ``beta(nu) = nu**m`` on [0, 1],
together with the occupation map ``g`` (the constrained Legendre argmin)
and the transform ``beta_star(lam) = lam*g(lam) + beta(g(lam))``.
Temperature never enters here; callers hand in already-scaled arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EntropySpec",
    "InvalidExponentError",
    "OccupationDomainError",
    "SeriesResult",
    "make_power_entropy",
    "validate_a4",
]

A4_CONDITIONAL = "conditional"  # summability depends on (Z, T) only through finiteness
A4_VIOLATED = "violated"  # tail is non-summable for every temperature


class InvalidExponentError(ValueError):
    """Entropy exponent outside the admissible range (m must exceed 1)."""


class OccupationDomainError(ValueError):
    """Occupation number outside [0, 1], where beta is +infinity."""


def _eval(x, fn):
    """Apply ``fn`` to ``x`` element-wise, preserving scalar-ness."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = fn(arr).reshape(np.shape(x))
    if isinstance(x, np.ndarray):
        return out
    return float(out)


@dataclass(frozen=True)
class EntropySpec:
    """Power-family entropy with exponent ``m``; ``make_power_entropy`` checks m.

    ``saturation_lambda`` = -m is the threshold below which the occupation
    map pins at 1.  ``a4_status`` records whether the hydrogen-tail
    summability condition can hold: "conditional" for 1 < m < 3, "violated"
    for m >= 3.  Both follow from m, as does the class constant ``family``.
    """

    family = "power"
    m: float

    @property
    def saturation_lambda(self) -> float:
        return -self.m

    @property
    def a4_status(self) -> str:
        return A4_VIOLATED if self.m >= 3.0 else A4_CONDITIONAL

    def beta(self, nu):
        """Entropy integrand nu**m; raises outside [0, 1]."""

        def f(a):
            if np.any((a < 0.0) | (a > 1.0)):
                bad = a[(a < 0.0) | (a > 1.0)]
                raise OccupationDomainError(
                    f"occupation outside [0, 1]: {bad[:3].tolist()}"
                )
            return a**self.m

        return _eval(nu, f)

    def beta_prime(self, nu):
        """Derivative m * nu**(m-1) on [0, 1]."""

        def f(a):
            if np.any((a < 0.0) | (a > 1.0)):
                raise OccupationDomainError("occupation outside [0, 1]")
            return self.m * a ** (self.m - 1.0)

        return _eval(nu, f)

    def g(self, lam):
        """Occupation map: argmin over nu in [0,1] of lam*nu + beta(nu).

        Closed form min{(-lam/m)**(1/(m-1)), 1} for lam < 0, zero otherwise.
        """

        def f(a):
            out = np.zeros_like(a)
            neg = a < 0.0
            if np.any(neg):
                out[neg] = np.minimum(
                    (-a[neg] / self.m) ** (1.0 / (self.m - 1.0)), 1.0
                )
            return out

        return _eval(lam, f)

    def beta_star(self, lam):
        """Transform lam*g(lam) + beta(g(lam)).

        Evaluated through the defining identity so it is valid on all of R,
        including the saturated region lam <= -m where it equals lam + 1.
        """

        def f(a):
            occ = self.g(a)
            return a * occ + occ**self.m

        return _eval(lam, f)


def make_power_entropy(m: float) -> EntropySpec:
    """Build the power-family spec ``beta(nu) = nu**m``.

    Requires m > 1 (at m = 1 the slope at zero occupation is 1, not 0, and
    strict convexity fails).  Exponents m >= 3 are allowed as objects but
    flagged: their hydrogen-tail sum diverges at every temperature.
    """
    m = float(m)
    if not m > 1.0:
        raise InvalidExponentError(
            f"power entropy requires m > 1, got m = {m}"
        )
    return EntropySpec(m=m)


@dataclass(frozen=True)
class SeriesResult:
    """Value of a series over the hydrogen spectrum.

    ``tail_bound`` bounds the truncation error |value - exact|: 0 when the
    tail is summed exactly in closed form, inf when the series diverges (the
    value is then +inf).  Floating-point rounding of the closed forms is not
    included.
    """

    value: float
    tail_bound: float

    @property
    def converges(self) -> bool:
        return math.isfinite(self.tail_bound)


def _sum_series(head: float, j_tail: int, coeff: float, p: float) -> SeriesResult:
    """head + sum_{j >= j_tail} coeff * j**p, the tail as coeff * zeta(-p, j_tail).

    ``head`` is the closed-form sum of the terms below ``j_tail``; the tail
    is the Hurwitz zeta function (DLMF 25.11).  A tail with p >= -1 is not
    summable: value and ``tail_bound`` come back as +inf, before scipy.special
    is loaded.
    """
    if p >= -1.0:
        return SeriesResult(value=math.inf, tail_bound=math.inf)
    # imported here: scipy.special costs ~0.3 s, and no solver path sums a tail
    from scipy.special import zeta

    return SeriesResult(value=head + coeff * float(zeta(-p, j_tail)), tail_bound=0.0)


def validate_a4(spec: EntropySpec, Z: float, T: float) -> SeriesResult:
    """Sum j^2 |beta_star(-Z^2/(4 T j^2))| over the hydrogen levels, exactly.

    For the power family the summand decays like j**(-2/(m-1)), summable iff
    m < 3; divergence is reported (``converges`` False, value +inf), never
    raised.  The result is exact up to rounding, so ``tail_bound`` is 0.
    """
    if Z <= 0.0 or T <= 0.0:
        raise ValueError("validate_a4 requires Z > 0 and T > 0")
    m = spec.m
    c = Z * Z / (4.0 * T)
    # the n levels with c/j^2 >= m are saturated, each adding
    # j^2 |beta*(-c/j^2)| = c - j^2; beyond them the summand is the pure power
    # (m-1) * (c/m)**(m/(m-1)) * j**(-2/(m-1)).
    n = int(math.floor(math.sqrt(c / m)))
    return _sum_series(
        n * c - n * (n + 1) * (2 * n + 1) / 6.0,
        n + 1,
        (m - 1.0) * (c / m) ** (m / (m - 1.0)),
        -2.0 / (m - 1.0),
    )
