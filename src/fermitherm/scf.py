"""Self-consistent minimization of the free energy over the discrete state set.

The fixed point is gamma = g((H_gamma - mu)/T): diagonalize the mean-field
blocks, pool the levels across channels with their angular multiplicities,
fill them through the occupation map with the chemical potential bisected to
meet the charge constraint, then mix linearly.  T > 0 makes the filling
single-valued, so no degeneracy tie-breaking ever appears.

Since mu <= 0 and g vanishes on [0, inf), only the eigenpairs below zero are
ever computed: a subset MRRR solve (LAPACK ?syevr) of each dense mean-field
block, and one tridiagonal solve of the bare blocks per run, shared by the
warm start, every interaction-free iteration and the audit.

Every run that gets past the warm start leaves through one exit.  There the
returned state's mean field is solved once: that solve gives the residual
and mu, and its levels, kept on the result, give the audit's charge chain.
A converged run reports the energy the loop computed for its last candidate
from the occupations, so no eigendecomposition of gamma is ever taken.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    EnergyBreakdown,
    OperatorCache,
    _entropy_of_occupations,
    _hf_terms,
    _make_breakdown,
    _one_body_terms,
    free_energy,
    linear_energy_breakdown,
    mean_field_hamiltonian,
)
from .entropy import EntropySpec
from .grid import (
    DensityMatrix,
    RadialGrid,
    build_grid,
    density_from_gamma,
    zero_density_matrix,
)
from .linear import UnreachableChargeError, q_max_lin, regime_classify, Regime

__all__ = [
    "MinimizerAudit",
    "ScfConfig",
    "ScfResult",
    "SweepResult",
    "SweepRow",
    "UnboundedRegimeError",
    "charge_sweep",
    "minimizer_audit",
    "occupations_from_levels",
    "scf_global",
    "scf_minimize",
]

_ALPHA_FLOOR = 1.0 / 16.0
_ENERGY_RISE_STREAK = 5
_EIGENVALUE_TOL = 5e-4  # h^2-scale slack of the audit's s-level bound


class UnboundedRegimeError(RuntimeError):
    """The free energy is unbounded from below; minimization refused."""


@dataclass
class ScfConfig:
    """Problem statement plus discretization and iteration controls.

    ``q = None`` selects the unconstrained global problem (mu fixed at 0).
    ``r_max = None`` defaults to 60/Z.  ``interactions = False`` drops the
    Hartree and exchange terms, turning the run into the discrete linear
    model (used to compare against the analytic series).
    """

    spec: EntropySpec
    Z: float
    T: float
    q: float | None = None
    n_points: int = 2000
    r_max: float | None = None
    l_max: int = 3
    mixing_alpha: float = 0.5
    tol_gamma: float = 1e-9
    tol_energy: float = 1e-9
    max_iter: int = 300
    check_iterates: bool = False
    interactions: bool = True

    def __post_init__(self):
        for name in ("Z", "T", "q", "r_max", "tol_gamma", "tol_energy"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.l_max < 0:
            raise ValueError(f"l_max must be >= 0, got {self.l_max}")
        if self.T <= 0.0:
            raise ValueError("scf requires T > 0")
        if not 0.0 < self.mixing_alpha <= 1.0:
            raise ValueError("mixing_alpha must lie in (0, 1]")
        if self.tol_gamma <= 0.0 or self.tol_energy <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.q is not None and self.q < 0.0:
            raise ValueError("q must be nonnegative")

    def resolved_r_max(self) -> float:
        if self.r_max is not None:
            return self.r_max
        if self.Z <= 0.0:
            raise ValueError("r_max must be given explicitly when Z <= 0")
        return 60.0 / self.Z

    def make_grid(self) -> RadialGrid:
        return build_grid(self.n_points, self.resolved_r_max())


@dataclass
class MinimizerAudit:
    """Fixed-point and inequality diagnostics of a converged minimizer."""

    selfconsistency_residual: float
    lieb_value: float
    eigenvalue_bound_ok: bool
    qmaxlin_chain_ok: bool
    energy_negative_ok: bool
    details: dict = field(default_factory=dict)

    def passed(self, tol_gamma: float) -> bool:
        return (
            self.selfconsistency_residual <= 10.0 * tol_gamma
            and self.lieb_value <= 1e-8
            and self.eigenvalue_bound_ok
            and self.qmaxlin_chain_ok
            and self.energy_negative_ok
        )


@dataclass
class ScfResult:
    """Outcome of one SCF run; ``energy`` is None only for a reloaded state.

    ``levels`` holds, per channel, the negative levels of H_gamma from the
    final solve that gave ``residual``; it is None for a reloaded state and
    for an "unreachable-charge" result.
    """

    gamma: DensityMatrix
    mu: float
    energy: EnergyBreakdown | None
    residual: float
    iterations: int
    converged: bool
    status: str
    audit: MinimizerAudit | None = None
    history: list = field(default_factory=list)
    levels: list | None = None


def occupations_from_levels(levels, spec: EntropySpec, T: float, q: float):
    """Fill levels (energy, multiplicity) to total charge q.

    Returns (mu, occupations) with occupations aligned to the input order
    and sum(mult * occ) = q to 1e-12; occupations are g((eps - mu)/T) unless
    no float mu resolves q to that tolerance (see the end of the bisection).
    If even mu = 0 cannot bind q, the charge is unreachable and
    UnreachableChargeError is raised (the unbinding signal).  q = 0 gives
    the mu = -inf sentinel.
    """
    if q < 0.0:
        raise ValueError(f"charge must be nonnegative, got {q}")
    eps = np.asarray([lv[0] for lv in levels], dtype=float)
    mult = np.asarray([lv[1] for lv in levels], dtype=float)
    if q == 0.0:
        return -math.inf, np.zeros_like(eps)

    def filled(mu):
        return float(np.sum(mult * spec.g((eps - mu) / T)))

    q_at_zero = filled(0.0)
    if q_at_zero < q - 1e-12:
        raise UnreachableChargeError(
            f"charge {q} exceeds the mu=0 capacity {q_at_zero}"
        )
    lo = float(np.min(eps)) - T * abs(spec.saturation_lambda)
    hi = 0.0
    mu = hi
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        q_mu = filled(mu)
        if abs(q_mu - q) <= 1e-12:
            return mu, spec.g((eps - mu) / T)
        if q_mu < q:
            lo = mu
        else:
            hi = mu
    # No float mu meets the tolerance: for m > 2, g is infinitely steep at a
    # level edge, so q(mu) can jump by more than 1e-12 between neighbouring
    # floats.  Interpolating the filling across the final bracket restores
    # sum(mult * occ) = q and keeps every occupation monotone in q.
    occ_lo, occ_hi = spec.g((eps - lo) / T), spec.g((eps - hi) / T)
    t = (q - filled(lo)) / (filled(hi) - filled(lo))
    return mu, occ_lo + t * (occ_hi - occ_lo)


def _diagonalize_blocks(blocks):
    """Negative-energy eigenpairs of each dense channel block."""
    # imported here: scipy.linalg costs ~0.3 s, and the package loads no scipy
    from scipy.linalg import eigh

    levels = []
    vectors = []
    for b in blocks:
        w, v = eigh(b, subset_by_value=(-np.inf, 0.0), driver="evr")
        neg = w < 0.0  # the selected interval (-inf, 0] is closed at 0
        levels.append(w[neg])
        vectors.append(v[:, neg])
    return levels, vectors


def _fill_blocks(levels, vectors, spec, T, q, constrained):
    """Occupation-filled blocks from pooled eigenpairs; returns (mu, blocks, occs)."""
    if constrained:
        pooled = []
        for l, w in enumerate(levels):
            pooled.extend((e, 2 * l + 1) for e in w)
        mu, occ_flat = occupations_from_levels(pooled, spec, T, q)
        occs = []
        k = 0
        for w in levels:
            occs.append(occ_flat[k : k + len(w)])
            k += len(w)
    else:
        mu = 0.0
        occs = [spec.g(w / T) for w in levels]
    blocks = []
    for w, v, occ in zip(levels, vectors, occs):
        blocks.append((v * occ) @ v.T)
    return mu, blocks, occs


def _candidate_energy(gamma, occs, spec, T, cache, interactions=True) -> EnergyBreakdown:
    """Free energy of a freshly filled state, entropy from its occupations."""
    if interactions:
        kin, nuc, direct, exch = _hf_terms(gamma, cache)
    else:
        kin, nuc, _ = _one_body_terms(gamma, cache)
        direct = exch = 0.0
    entropy = _entropy_of_occupations(occs, spec)
    return _make_breakdown(kin, nuc, direct, exch, entropy, T)


def _initial_state(cache: OperatorCache, config: ScfConfig, constrained: bool):
    """Warm start: fill the bare kinetic+nuclear spectrum (linear minimizer)."""
    levels, vectors = cache.bare_spectrum
    mu, blocks, occs = _fill_blocks(
        levels, vectors, config.spec, config.T, config.q, constrained
    )
    return DensityMatrix(grid=cache.grid, blocks=blocks), occs


def _run_scf(config: ScfConfig, constrained: bool) -> ScfResult:
    if regime_classify(config.spec.m) is Regime.UNBOUNDED:
        raise UnboundedRegimeError(
            f"free energy unbounded from below for m = {config.spec.m}"
        )
    spec, Z, T = config.spec, config.Z, config.T
    grid = config.make_grid()
    cache = OperatorCache(grid, config.l_max, Z)
    history: list = []

    def spectrum(state):
        """Negative eigenpairs of H_state; the bare field does not depend on it."""
        if config.interactions:
            return _diagonalize_blocks(mean_field_hamiltonian(state, Z, cache).blocks)
        return cache.bare_spectrum

    def final_energy(state):
        if config.interactions:
            return free_energy(state, spec, Z, T, cache)
        return linear_energy_breakdown(state, spec, Z, T, cache)

    def unreachable(state, iterations):
        return ScfResult(
            gamma=state,
            mu=0.0,
            energy=final_energy(state),
            residual=math.inf,
            iterations=iterations,
            converged=False,
            status="unreachable-charge",
            history=history,
        )

    iterations, converged, max_iter = 0, False, config.max_iter
    if constrained and config.q == 0.0:
        # the zero state is the minimizer: skip the loop, keep the final solve
        gamma = zero_density_matrix(grid, config.l_max)
        energy, converged, max_iter = final_energy(gamma), True, 0
    else:
        try:
            gamma, occs = _initial_state(cache, config, constrained)
        except UnreachableChargeError:
            return unreachable(zero_density_matrix(grid, config.l_max), 0)
        e_prev = _candidate_energy(gamma, occs, spec, T, cache, config.interactions).total_free
    alpha = config.mixing_alpha
    rise_streak = 0

    for iteration in range(1, max_iter + 1):
        iterations = iteration
        levels, vectors = spectrum(gamma)
        try:
            mu, new_blocks, occs = _fill_blocks(
                levels, vectors, spec, T, config.q, constrained
            )
        except UnreachableChargeError:
            return unreachable(gamma, iterations)
        candidate = DensityMatrix(grid=grid, blocks=new_blocks)
        defect = max(
            float(np.max(np.abs(nb - ob))) if nb.size else 0.0
            for nb, ob in zip(new_blocks, gamma.blocks)
        )
        energy = _candidate_energy(candidate, occs, spec, T, cache, config.interactions)
        e_new = energy.total_free
        history.append(
            {
                "iteration": iteration,
                "free_energy": e_new,
                "defect": defect,
                "alpha": alpha,
                "mu": mu,
            }
        )
        if defect <= config.tol_gamma and abs(e_new - e_prev) <= config.tol_energy:
            gamma = candidate
            converged = True
            break
        if e_new > e_prev:
            rise_streak += 1
            if rise_streak >= _ENERGY_RISE_STREAK:
                alpha = max(0.5 * alpha, _ALPHA_FLOOR)
                rise_streak = 0
        else:
            rise_streak = 0
        e_prev = e_new
        gamma = DensityMatrix(
            grid=grid,
            blocks=[
                (1.0 - alpha) * ob + alpha * nb
                for ob, nb in zip(gamma.blocks, new_blocks)
            ],
        )
        if config.check_iterates:
            gamma.validate(tol=1e-10)

    # the one solve of the returned state: residual, mu and the audit's levels
    levels, vectors = spectrum(gamma)
    try:
        mu_final, rebuilt, _ = _fill_blocks(
            levels, vectors, spec, T, config.q, constrained
        )
        residual = max(
            float(np.linalg.norm(rb - gb))
            for rb, gb in zip(rebuilt, gamma.blocks)
        )
    except UnreachableChargeError:
        mu_final, residual = 0.0, math.inf
        converged = False
    if not converged:
        energy = final_energy(gamma)

    result = ScfResult(
        gamma=gamma,
        mu=mu_final,
        energy=energy,
        residual=residual,
        iterations=iterations,
        converged=converged,
        status="converged" if converged else "max_iter",
        history=history,
        levels=levels,
    )
    if converged:
        result.audit = minimizer_audit(result, config, cache=cache)
    return result


def scf_minimize(config: ScfConfig) -> ScfResult:
    """Minimize the free energy at fixed charge tr(gamma) = q."""
    if config.q is None:
        raise ValueError("scf_minimize needs config.q; use scf_global otherwise")
    return _run_scf(config, constrained=True)


def scf_global(config: ScfConfig) -> ScfResult:
    """Unconstrained minimization; the multiplier stays pinned at zero."""
    return _run_scf(config, constrained=False)


def minimizer_audit(
    result: ScfResult,
    config: ScfConfig,
    cache: OperatorCache | None = None,
) -> MinimizerAudit:
    """Check the proven properties of minimizers on a converged result.

    (a) tr(|x| H_gamma gamma) <= 0 up to 1e-8; (b) the lowest three l=0
    levels of H_gamma sit below -(Z-q)^2/(4 j^2) within an h^2-scale
    tolerance; (c) the charge chain q <= tr g(H_gamma/T) <= tr g(H_bare/T);
    (d) negative free energy for q > 0.  The chain reads ``result.levels``
    from the run's final solve, so a reloaded state, which has none, is
    refused like an unconverged one.  H_gamma is rebuilt for (a), and (b)
    is the audit's one eigensolve.
    """
    if not result.converged or result.levels is None:
        raise ValueError("minimizer_audit refuses unconverged or reloaded results")
    gamma = result.gamma
    grid = gamma.grid
    if cache is None:
        cache = OperatorCache(grid, config.l_max, config.Z)
    spec, T, Z = config.spec, config.T, config.Z
    q = gamma.trace()

    from scipy.linalg import eigh

    if config.interactions:
        ham_blocks = mean_field_hamiltonian(gamma, Z, cache).blocks
    else:
        ham_blocks = [cache.one_body_block(l) for l in range(gamma.l_max + 1)]
    lieb = sum(
        (2 * l + 1) * float(np.real(np.einsum("i,ij,ji->", grid.r, h, b)))
        for l, (h, b) in enumerate(zip(ham_blocks, gamma.blocks))
    )

    # the lowest three s levels, bound or not: a negative-only slice would
    # pass the bound vacuously when fewer than three are bound
    w0 = eigh(
        ham_blocks[0],
        eigvals_only=True,
        subset_by_index=(0, min(2, grid.n_points - 1)),
        driver="evr",
    )
    bounds = np.array([-((Z - q) ** 2) / (4.0 * j * j) for j in (1, 2, 3)])
    if Z - q > 0.0:
        eig_ok = bool(np.all(w0 <= bounds[: w0.size] + _EIGENVALUE_TOL))
    else:
        eig_ok = True  # comparison operator has no negative spectrum

    # g vanishes on [0, inf), so the chain needs only the levels below zero
    bare_levels = cache.bare_spectrum[0][: gamma.l_max + 1]
    mf_sum = 0.0
    bare_sum = 0.0
    for l, (w, w_bare) in enumerate(zip(result.levels, bare_levels)):
        mf_sum += (2 * l + 1) * float(np.sum(spec.g(w / T)))
        bare_sum += (2 * l + 1) * float(np.sum(spec.g(w_bare / T)))
    chain_ok = q <= mf_sum + 1e-9 and mf_sum <= bare_sum + 1e-9

    if q > 1e-12:
        energy_ok = result.energy.total_free < 0.0
    else:
        energy_ok = abs(result.energy.total_free) <= 1e-12

    return MinimizerAudit(
        selfconsistency_residual=result.residual,
        lieb_value=lieb,
        eigenvalue_bound_ok=eig_ok,
        qmaxlin_chain_ok=chain_ok,
        energy_negative_ok=energy_ok,
        details={
            "h0_eigenvalues": w0.tolist(),
            "eigenvalue_bounds": bounds.tolist(),
            "discrete_q_mean_field": mf_sum,
            "discrete_q_max_lin": bare_sum,
            "trace": q,
        },
    )


@dataclass(frozen=True)
class SweepRow:
    q: float
    free_energy: float
    mu: float
    converged: bool
    binding_flag: str


@dataclass
class SweepResult:
    rows: list
    ceiling_q_max_lin: float
    ceiling_ionization: float  # 2Z + 1
    largest_strict_q: float
    monotone_ok: bool

    @property
    def ceiling(self) -> float:
        return min(self.ceiling_q_max_lin, self.ceiling_ionization)


def _binding_flag(result: ScfResult, q: float) -> str:
    if result.status == "unreachable-charge":
        return "unreachable"
    if q <= 0.0:
        return "bound"
    rho = density_from_gamma(result.gamma)
    grid = result.gamma.grid
    tail = grid.r >= 0.9 * grid.r_max
    tail_charge = float(grid.h * np.sum(rho.rho_line[tail]))
    return "boundary-mass" if tail_charge > 0.01 * q else "bound"


def charge_sweep(config: ScfConfig, q_list, workers: int = 1) -> SweepResult:
    """Run scf_minimize over an increasing charge list and report I(q).

    Distinct charges are independent; with workers > 1 they run on a thread
    pool.  numpy releases the GIL in the mean-field assembly and the energy
    terms, which overlap across threads; SciPy's LAPACK wrappers hold it, so
    the partial eigensolves of concurrent charges run one at a time.  Rows
    come back in input order regardless of scheduling.
    """
    q_list = list(q_list)
    if any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ValueError("q_list must be strictly increasing")

    def solve(q: float) -> ScfResult:
        return scf_minimize(dataclasses.replace(config, q=q))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(solve, q_list))
    else:
        results = [solve(q) for q in q_list]

    rows = [
        SweepRow(
            q=q,
            free_energy=res.energy.total_free,
            mu=res.mu,
            converged=res.converged,
            binding_flag=_binding_flag(res, q),
        )
        for q, res in zip(q_list, results)
    ]
    tol = 10.0 * config.tol_energy
    monotone_ok = all(
        b.free_energy <= a.free_energy + tol for a, b in zip(rows, rows[1:])
    )
    largest_strict = rows[0].q if rows else 0.0
    for a, b in zip(rows, rows[1:]):
        if b.free_energy < a.free_energy - tol:
            largest_strict = b.q
        else:
            break
    qmax = q_max_lin(config.spec, config.Z, config.T).value
    return SweepResult(
        rows=rows,
        ceiling_q_max_lin=qmax,
        ceiling_ionization=2.0 * config.Z + 1.0,
        largest_strict_q=largest_strict,
        monotone_ok=monotone_ok,
    )
