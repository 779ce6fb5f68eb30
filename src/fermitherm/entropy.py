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
    "A4Report",
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
    """Power-family entropy with exponent ``m``.

    ``saturation_lambda`` is the threshold below which the occupation map
    pins at 1 (equal to ``-m`` for the power family).  ``a4_status``
    records whether the hydrogen-tail summability condition can hold:
    "conditional" for 1 < m < 3, "violated" for m >= 3.
    """

    family: str
    m: float
    saturation_lambda: float
    a4_status: str

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
            occ = np.zeros_like(a)
            neg = a < 0.0
            if np.any(neg):
                occ[neg] = np.minimum(
                    (-a[neg] / self.m) ** (1.0 / (self.m - 1.0)), 1.0
                )
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
    status = A4_VIOLATED if m >= 3.0 else A4_CONDITIONAL
    return EntropySpec(
        family="power", m=m, saturation_lambda=-m, a4_status=status
    )


@dataclass(frozen=True)
class SeriesResult:
    """Series value with a rigorous residual bound.

    ``value`` = partial sum + midpoint of the integral tail enclosure;
    ``tail_bound`` = enclosure half-width (bound on |value - exact|).
    """

    value: float
    tail_bound: float


def _sum_series(
    term_fn, j_tail: int, coeff: float, p: float, rel_tol: float = 1e-10,
    max_terms: int = 10**7, abs_tol: float = 0.0,
) -> SeriesResult:
    """Sum a positive series whose terms from index ``j_tail`` on are coeff * j**p.

    ``term_fn`` maps an index array to term values.  Terms are summed in
    doubling blocks; past ``j_tail`` the remainder after the last summed
    index J lies between the integrals of coeff * x**p over [J+1, inf) and
    [J, inf), and the result is the partial sum plus the midpoint of that
    enclosure.  Summation stops once the enclosure half-width is at most
    ``max(abs_tol, rel_tol * |partial sum|)``, or at ``max_terms``.  A tail
    with p >= -1 is not summable: the partial sum up to the first block past
    ``j_tail`` comes back with an infinite ``tail_bound``.
    """
    partial = 0.0
    j = 1
    block = 4096
    while True:
        hi = min(j + block - 1, max_terms)
        partial += float(np.sum(term_fn(np.arange(j, hi + 1, dtype=float))))
        j = hi + 1
        if hi >= j_tail or hi == max_terms:
            if p >= -1.0:
                return SeriesResult(value=partial, tail_bound=math.inf)
            upper = coeff * hi ** (p + 1.0) / (-1.0 - p)
            lower = coeff * (hi + 1.0) ** (p + 1.0) / (-1.0 - p)
            half_width = 0.5 * (upper - lower)
            if half_width <= max(abs_tol, rel_tol * abs(partial)) or hi == max_terms:
                return SeriesResult(
                    value=partial + 0.5 * (upper + lower), tail_bound=half_width
                )
        block = min(2 * block, 1 << 20)


@dataclass(frozen=True)
class A4Report:
    """Outcome of the hydrogen-tail summability check.

    ``value`` is the partial sum plus the midpoint of the monotone integral
    enclosure of the remaining tail; ``tail_bound`` is the enclosure
    half-width, a rigorous bound on the residual error of ``value``.
    """

    converges: bool
    value: float
    tail_bound: float


def validate_a4(
    spec: EntropySpec,
    Z: float,
    T: float,
    rel_tol: float = 1e-10,
    max_terms: int = 10**7,
) -> A4Report:
    """Sum j^2 |beta_star(-Z^2/(4 T j^2))| with an integral tail enclosure.

    For the power family the summand decays like j**(2 - 2m/(m-1)), summable
    iff m < 3; divergence is reported (converges=False, value a partial sum),
    never raised.  Summation stops once the enclosure half-width drops below
    ``rel_tol * |partial sum|`` or ``max_terms`` is reached.
    """
    if Z <= 0.0 or T <= 0.0:
        raise ValueError("validate_a4 requires Z > 0 and T > 0")
    m = spec.m
    c = Z * Z / (4.0 * T)
    # indices with c/j^2 >= m are saturated; beyond them the summand is the
    # pure power  (m-1) * (c/m)**(m/(m-1)) * j**(2 - 2m/(m-1)), decreasing.
    series = _sum_series(
        lambda idx: idx**2 * np.abs(spec.beta_star(-c / idx**2)),
        int(math.floor(math.sqrt(c / m))) + 1,
        (m - 1.0) * (c / m) ** (m / (m - 1.0)),
        2.0 - 2.0 * m / (m - 1.0),
        rel_tol,
        max_terms,
    )
    return A4Report(
        converges=math.isfinite(series.tail_bound),
        value=series.value,
        tail_bound=series.tail_bound,
    )
