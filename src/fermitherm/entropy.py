"""Convex entropy functions on occupation numbers and their transforms.

The shipped family is the power entropy ``beta(nu) = nu**m`` on [0, 1],
together with the occupation map ``g`` (the Legendre argmin over [0, 1])
and the transform ``beta_star(lam) = lam*g(lam) + beta(g(lam))``.
Temperature never enters the maps; the hydrogen series read (Z, T) through
``_saturation`` and return floats, +inf where they diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EntropySpec",
    "InvalidExponentError",
    "OccupationDomainError",
    "make_power_entropy",
    "validate_a4",
]


class InvalidExponentError(ValueError):
    """Entropy exponent outside the admissible range (m must exceed 1)."""


class OccupationDomainError(ValueError):
    """Occupation number outside [0, 1], where beta is +infinity."""


def _occupations(nu) -> np.ndarray:
    """``nu`` as floats; raises OccupationDomainError outside [0, 1]."""
    a = np.asarray(nu, dtype=float)
    bad = (a < 0.0) | (a > 1.0)
    if np.any(bad):
        raise OccupationDomainError(f"occupation outside [0, 1]: {a[bad][:3].tolist()}")
    return a


@dataclass(frozen=True)
class EntropySpec:
    """Power-family entropy with exponent ``m``; ``make_power_entropy`` checks m.

    The maps act element-wise on an array, or on a scalar (giving a NumPy
    float64).  ``saturation_lambda`` = -m is the threshold below which the
    occupation map pins at 1.  Whether the hydrogen-tail sum converges (it
    diverges at every T for m >= 3) is read from ``validate_a4``'s value.
    """

    m: float

    @property
    def saturation_lambda(self) -> float:
        return -self.m

    def beta(self, nu):
        """Entropy integrand nu**m; raises outside [0, 1]."""
        return _occupations(nu) ** self.m

    def beta_prime(self, nu):
        """Derivative m * nu**(m-1) on [0, 1]."""
        return self.m * _occupations(nu) ** (self.m - 1.0)

    def g(self, lam):
        """Occupation map: argmin over nu in [0,1] of lam*nu + beta(nu).

        Closed form min{-lam/m, 1}**(1/(m-1)) for lam < 0, zero otherwise: the
        base is capped before the power, which would overflow for m near 1.
        """
        a = np.asarray(lam, dtype=float)
        return np.minimum(np.where(a < 0.0, -a / self.m, 0.0), 1.0) ** (1.0 / (self.m - 1.0))

    def beta_star(self, lam):
        """Transform lam*g(lam) + beta(g(lam)).

        Evaluated through the defining identity so it is valid on all of R,
        including the saturated region lam <= -m where it equals lam + 1.
        """
        occ = self.g(lam)
        return np.asarray(lam, dtype=float) * occ + occ**self.m


def make_power_entropy(m: float) -> EntropySpec:
    """Build the power-family spec ``beta(nu) = nu**m``.

    Requires a finite m > 1 (at m = 1 the slope at zero occupation is 1, not
    0, and strict convexity fails).  Exponents m >= 3 are allowed, though
    their hydrogen-tail sum diverges at every temperature.
    """
    m = float(m)
    if not 1.0 < m < math.inf:
        raise InvalidExponentError(f"power entropy requires a finite m > 1, got m = {m}")
    return EntropySpec(m=m)


def _saturation(spec: EntropySpec, Z: float, T: float) -> tuple:
    """(c, n): c = Z^2/(4T) and the n levels j with c/j^2 >= m, where g = 1.

    The one check of (Z, T) for the hydrogen series: a value that is not
    finite and positive, or an overflowing c, raises ValueError.
    """
    if not (0.0 < Z < math.inf and 0.0 < T < math.inf):
        raise ValueError(f"hydrogen series require finite Z > 0 and T > 0, got Z = {Z}, T = {T}")
    c = Z * Z / (4.0 * T)
    if not c < math.inf:
        raise ValueError(f"Z^2/(4T) overflows at Z = {Z}, T = {T}")
    return c, int(math.floor(math.sqrt(c / spec.m)))


def _sum_series(head: float, j_tail: int, coeff: float, p: float) -> float:
    """head + sum_{j >= j_tail} coeff * j**p, the tail as coeff * zeta(-p, j_tail).

    ``head`` is the closed-form sum of the terms below ``j_tail``; the tail
    is the Hurwitz zeta function (DLMF 25.11), so no truncation error is
    left, only the rounding of the closed forms.  A tail with p >= -1 is not
    summable: the sum is +inf, returned before scipy.special is loaded.  A
    summable series whose value overflows raises OverflowError.
    """
    if p >= -1.0:
        return math.inf
    # imported here: scipy.special costs ~0.3 s, and no solver path sums a tail
    from scipy.special import zeta

    value = head + coeff * float(zeta(-p, j_tail))
    if not math.isfinite(value):
        raise OverflowError("the series sum exceeds the float range")
    return value


def validate_a4(spec: EntropySpec, Z: float, T: float) -> float:
    """Sum j^2 |beta_star(-Z^2/(4 T j^2))| over the hydrogen levels, exactly.

    For the power family the summand decays like j**(-2/(m-1)), summable iff
    m < 3; a divergent sum is returned as +inf, never raised.
    """
    m = spec.m
    c, n = _saturation(spec, Z, T)
    # the n saturated levels each add j^2 |beta*(-c/j^2)| = c - j^2; beyond
    # them the summand is (m-1) * (c/m)**(m/(m-1)) * j**(-2/(m-1)).
    return _sum_series(
        n * c - n * (n + 1) * (2 * n + 1) / 6.0,
        n + 1,
        (m - 1.0) * (c / m) ** (m / (m - 1.0)),
        -2.0 / (m - 1.0),
    )
