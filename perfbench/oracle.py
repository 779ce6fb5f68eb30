"""Independent oracle for the discrete interaction-free model (m = 2).

Built from the grid formula alone (r_i = (i+1) h, h = r_max / (n+1), the
(-1, 2, -1)/h^2 stencil plus l(l+1)/r^2 - Z/r), so it shares no code with
the solver it checks.  Levels come from ``scipy.linalg.eigh_tridiagonal``,
occupations from the closed-form m = 2 map g(lam) = clip(-lam/2, 0, 1), and
the chemical potential from a bisection of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal


def bare_levels(n_points: int, r_max: float, Z: float, l_max: int):
    """Negative levels of -d^2/dr^2 + l(l+1)/r^2 - Z/r per channel, with 2l+1."""
    h = r_max / (n_points + 1)
    r = h * np.arange(1, n_points + 1, dtype=float)
    off = np.full(n_points - 1, -1.0 / h**2)
    levels = []
    for l in range(l_max + 1):
        diag = 2.0 / h**2 + l * (l + 1) / r**2 - Z / r
        lower = float(np.min(diag)) - 2.0 / h**2  # Gershgorin
        w = eigh_tridiagonal(
            diag, off, eigvals_only=True, select="v", select_range=(lower, 0.0)
        )
        levels.append((w, 2 * l + 1))
    return levels


def g2(lam):
    """Occupation map of beta(nu) = nu^2: argmin of lam nu + nu^2 on [0, 1]."""
    return np.clip(-np.asarray(lam, dtype=float) / 2.0, 0.0, 1.0)


@dataclass(frozen=True)
class LinearPoint:
    q: float
    mu: float
    free_energy: float


class LinearOracle:
    """I_lin(q) and mu_lin(q) of the discrete linear model at m = 2."""

    def __init__(self, n_points: int, r_max: float, Z: float, T: float, l_max: int):
        self.T = T
        self.levels = bare_levels(n_points, r_max, Z, l_max)
        self.eps = np.concatenate([w for w, _ in self.levels])
        self.mult = np.concatenate([np.full(len(w), float(m)) for w, m in self.levels])

    def charge(self, mu: float) -> float:
        return float(np.sum(self.mult * g2((self.eps - mu) / self.T)))

    def point(self, q: float) -> LinearPoint:
        if q == 0.0:
            return LinearPoint(q=0.0, mu=-math.inf, free_energy=0.0)
        if self.charge(0.0) < q:
            raise ValueError(f"charge {q} exceeds the mu = 0 capacity")
        lo = float(np.min(self.eps)) - 2.0 * self.T
        hi = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if self.charge(mid) < q:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)
        occ = g2((self.eps - mu) / self.T)
        energy = float(np.sum(self.mult * (self.eps * occ + self.T * occ**2)))
        return LinearPoint(q=q, mu=mu, free_energy=energy)
