"""Self-consistent minimization of the free energy over the discrete state set.

The fixed point is gamma = g((H_gamma - mu)/T): diagonalize the mean-field
blocks, pool the levels across channels with their angular multiplicities,
and fill them through the occupation map with the chemical potential bisected
to meet the charge constraint.  T > 0 makes the filling single-valued, so no
degeneracy tie-breaking ever appears.

Iterates are carried as orbital factors gamma_l = W_l diag(nu_l) W_l^T and
advanced by optimal damping (Cances & Le Bris, Int. J. Quantum Chem. 79,
2000): the next iterate is the point of the segment from gamma to its filled
candidate with the least free energy.  Along that segment the Hartree-Fock
energy is an exact quadratic and tr beta is convex; both are evaluated on the
span of the two factor sets, so the search takes no n x n eigendecomposition.
The energies of the iterate and of the step come from their factors; the
only dense matrices are the mean-field blocks the eigensolve needs.  The
returned state keeps its factors (``DensityMatrix.from_factors``).

Since mu <= 0 and g vanishes on [0, inf), only the eigenpairs below zero are
ever computed: a subset MRRR solve (LAPACK ?syevr) of each dense mean-field
block, and one tridiagonal solve of the bare blocks per run, shared by the
warm start, every interaction-free iteration and the audit.

The loop stops when the Frobenius defect ||candidate - gamma||_F, the norm the
audit bounds, and the free-energy gap meet their tolerances; the last step is
then the full one, to the candidate.  The returned state's mean field is
solved once more: that solve gives the residual, mu and the levels kept on
the result for the audit's charge chain, and its dense blocks serve the
audit with the state's factors.  The entropy comes from the factor weights,
so no eigendecomposition of gamma is ever taken.
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
    _factored_field,
    _hf_terms,
    _make_breakdown,
    _one_body_terms,
    mean_field_hamiltonian,
)
from .entropy import EntropySpec
from .grid import (
    DensityMatrix,
    RadialGrid,
    _trimmed,
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

_BISECTIONS = 30  # halvings of the step-length bracket
_F_ROUNDING = 1e-14  # relative rounding of a free-energy difference along a step
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
    for an "unreachable-charge" result.  ``history`` has one entry per
    accepted step: the iteration, the Frobenius ``defect`` and ``mu`` of the
    solved iterate, the step ``t`` along the segment to its candidate, and
    the ``free_energy`` of the iterate the step accepted.  ``status`` is
    "converged", "max_iter", "stalled" (no point of the segment lowers F) or
    "unreachable-charge".
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
    and sum(mult * occ) = q to rounding.  mu is bisected down to adjacent
    floats and the occupations g((eps - mu)/T) are interpolated across that
    last bracket: for m > 2, g is infinitely steep at a level edge, so q(mu)
    can jump between neighbouring floats, and the interpolation restores the
    charge while keeping every occupation monotone in q.  An exact charge
    keeps the SCF line search free of a first-order mu * (tr gamma - q) term.
    If even mu = 0 cannot bind q, the charge is unreachable and
    UnreachableChargeError is raised (the unbinding signal).  q = 0 gives the
    mu = -inf sentinel.
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
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        if mu in (lo, hi):
            break
        if filled(mu) < q:
            lo = mu
        else:
            hi = mu
    occ_lo, occ_hi = spec.g((eps - lo) / T), spec.g((eps - hi) / T)
    span = filled(hi) - filled(lo)  # 0 only where q is within 1e-12 of an empty capacity
    t = (q - filled(lo)) / span if span > 0.0 else 1.0
    return lo + t * (hi - lo), occ_lo + t * (occ_hi - occ_lo)


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


def _fill_levels(levels, spec, T, q, constrained):
    """(mu, per-channel occupations) of the pooled levels."""
    if not constrained:
        return 0.0, [spec.g(w / T) for w in levels]
    pooled = [(e, 2 * l + 1) for l, w in enumerate(levels) for e in w]
    mu, occ_flat = occupations_from_levels(pooled, spec, T, q)
    bounds = np.cumsum([0] + [len(w) for w in levels])
    return mu, [occ_flat[a:b] for a, b in zip(bounds, bounds[1:])]


class _Segment:
    """The segment gamma_t = gamma + t (candidate - gamma), t in [0, 1], per channel.

    Both ends are factored, so the segment lives on the span of [W, W~]: with Q
    from a thin QR of it and R = Q^T W, gamma_t = Q (A + t D) Q^T for the small
    A = R diag(nu) R^T and D = R~ diag(nu~) R~^T - A.  Spectra along the segment
    are those of A + t D, so no n x n eigendecomposition is ever taken.
    """

    def __init__(self, factors, candidate):
        self.frames, self.starts, self.steps = [], [], []
        for w_a, nu_a, w_b, nu_b in zip(*factors, *candidate):
            frame = np.linalg.qr(np.hstack([w_a, w_b]))[0]
            r_a, r_b = frame.T @ w_a, frame.T @ w_b
            start = (r_a * nu_a) @ r_a.T
            self.frames.append(frame)
            self.starts.append(start)
            self.steps.append((r_b * nu_b) @ r_b.T - start)

    def defect(self) -> float:
        """max_l ||candidate_l - gamma_l||_F, the norm the audit bounds."""
        return max((float(np.linalg.norm(d)) for d in self.steps), default=0.0)

    def spectra(self, t):
        return [np.linalg.eigh(a + t * d) for a, d in zip(self.starts, self.steps)]

    def step_factors(self):
        """Orbital factors of candidate - gamma = Q D Q^T, with the signed
        eigenvalues of D: the input of the step's two-body energy."""
        return self._on_frames([np.linalg.eigh(d) for d in self.steps])

    def slope(self, ham_blocks) -> float:
        """tr(H_gamma (candidate - gamma)) = sum_l (2l+1) <Q^T H_l Q, D_l>."""
        return sum(
            (2 * l + 1) * float(np.sum((q.T @ h @ q) * d))
            for l, (h, q, d) in enumerate(zip(ham_blocks, self.frames, self.steps))
        )

    def factors(self, t):
        """Orbital factors of gamma_t, small weights dropped."""
        return self._on_frames(self.spectra(t))

    def _on_frames(self, spectra):
        """(Q U, lambda) per channel for small eigendecompositions (lambda, U)."""
        return _trimmed([q @ u for q, (_, u) in zip(self.frames, spectra)],
                        [lam for lam, _ in spectra])


def _entropy_of_spectra(spectra, spec) -> float:
    return _entropy_of_occupations([lam for lam, _ in spectra], spec)


def _step_length(segment, slope, curvature, spec, T, free, fallback):
    """(t, resolved): the t in [0, 1] minimizing F(gamma_t), by bisection on F'(t).

    F(gamma_t) - F(gamma) = t s + t^2 c + T (S(t) - S(0)) with s the slope of
    the Hartree-Fock energy, c the two-body energy of the step and
    S(t) = tr beta(gamma_t), convex in t.  F'(t) = s + 2 c t +
    T tr(beta'(gamma_t) D) stays accurate where the values of F barely
    differ, so the search brackets a zero of F'.  For c >= 0, F is convex and
    that zero is its minimum; otherwise the lower of it and t = 1 is kept.

    Values of F and F' within ``slack`` = _F_ROUNDING |F(gamma)| of zero count
    as zero.  The candidate minimizes the convex linearized functional, so
    F'(0) < 0 whenever it differs from gamma; where F'(0) does not clear the
    slack, the step is lost in rounding, ``resolved`` is False and the
    ``fallback`` step is taken.  Any t is halved until
    F(gamma_t) <= F(gamma) + slack.
    """
    slack = _F_ROUNDING * abs(free)

    def derivative(t):
        total = slope + 2.0 * curvature * t
        for l, ((lam, u), d) in enumerate(zip(segment.spectra(t), segment.steps)):
            diag = np.einsum("ij,ij->j", u, d @ u)  # diag(U^T D U)
            beta_prime = spec.beta_prime(np.clip(lam, 0.0, 1.0))
            total += T * (2 * l + 1) * float(np.dot(beta_prime, diag))
        return total

    s0 = _entropy_of_spectra(segment.spectra(0.0), spec)

    def rise(t):
        entropy = _entropy_of_spectra(segment.spectra(t), spec)
        return t * slope + t * t * curvature + T * (entropy - s0)

    resolved = derivative(0.0) < -slack
    t = 1.0 if resolved else fallback
    if resolved and derivative(1.0) > slack:
        lo, hi = 0.0, 1.0
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if derivative(mid) < 0.0 else (lo, mid)
        t = 0.5 * (lo + hi)
        if curvature < 0.0 and rise(1.0) < rise(t):
            t = 1.0
    for _ in range(_BISECTIONS):
        if rise(t) <= slack:
            return t, resolved
        t *= 0.5
    return 0.0, resolved


def _initial_state(cache: OperatorCache, config: ScfConfig, constrained: bool):
    """Warm start: the orbital factors of the filled bare kinetic+nuclear
    spectrum (the linear minimizer)."""
    levels, vectors = cache.bare_spectrum
    _, occs = _fill_levels(levels, config.spec, config.T, config.q, constrained)
    return _trimmed(vectors, occs)


def _run_scf(config: ScfConfig, constrained: bool) -> ScfResult:
    if regime_classify(config.spec.m) is Regime.UNBOUNDED:
        raise UnboundedRegimeError(
            f"free energy unbounded from below for m = {config.spec.m}"
        )
    spec, Z, T = config.spec, config.Z, config.T
    grid = config.make_grid()
    cache = OperatorCache(grid, config.l_max, Z)
    history: list = []

    def solve(factors):
        """(dense H blocks, negative levels, vectors); the bare field is fixed."""
        if config.interactions:
            ham = _factored_field(cache, *factors).dense_blocks()
            return (ham, *_diagonalize_blocks(ham))
        return (None, *cache.bare_spectrum)

    def terms(factors):
        if config.interactions:
            return _hf_terms(*factors, cache)
        return (*_one_body_terms(*factors, cache)[:2], 0.0, 0.0)

    def breakdown(factors):
        return _make_breakdown(*terms(factors), _entropy_of_occupations(factors[1], spec), T)

    def unreachable(factors, iterations):
        return ScfResult(
            gamma=DensityMatrix.from_factors(grid, *factors),
            mu=0.0,
            energy=breakdown(factors),
            residual=math.inf,
            iterations=iterations,
            converged=False,
            status="unreachable-charge",
            history=history,
        )

    try:
        factors = _initial_state(cache, config, constrained)
    except UnreachableChargeError:
        return unreachable(zero_density_matrix(grid, config.l_max).factors, 0)
    energy = breakdown(factors)
    e_hf, free = energy.total_hf, energy.total_free
    # at q = 0 the warm start is the zero state, the minimizer: only the final solve
    zero_charge = constrained and config.q == 0.0
    status = "converged" if zero_charge else "max_iter"
    # the last step a resolved search chose; reused where F' is lost in rounding
    iterations, damping = 0, 1.0

    for iteration in range(1, 1 if zero_charge else config.max_iter + 1):
        iterations = iteration
        ham, levels, vectors = solve(factors)
        try:
            mu, occs = _fill_levels(levels, spec, T, config.q, constrained)
        except UnreachableChargeError:
            return unreachable(factors, iterations)
        candidate = _trimmed(vectors, occs)
        segment = _Segment(factors, candidate)
        defect = segment.defect()
        kin, nuc, direct, exch = terms(segment.step_factors())
        slope = kin + nuc if ham is None else segment.slope(ham)
        curvature = direct - exch
        gap = slope + curvature + T * (
            _entropy_of_occupations(occs, spec) - _entropy_of_occupations(factors[1], spec)
        )
        if defect <= config.tol_gamma and abs(gap) <= config.tol_energy:
            status, t = "converged", 1.0  # the candidate is the returned state
        elif ham is None:
            t = 1.0  # without interactions the candidate minimizes the linear model
        else:
            t, resolved = _step_length(segment, slope, curvature, spec, T, free, damping)
            if resolved:
                damping = t
        if t == 0.0:
            status = "stalled"  # no point of the segment lowers F
            break
        e_hf += t * slope + t * t * curvature
        factors = candidate if t == 1.0 else segment.factors(t)
        free = e_hf + T * _entropy_of_occupations(factors[1], spec)
        history.append(
            {"iteration": iteration, "free_energy": free, "defect": defect, "t": t, "mu": mu}
        )
        if config.check_iterates:
            DensityMatrix.from_factors(grid, *factors).validate()
        if status == "converged":
            break

    # the one solve of the returned state: residual, mu, the audit's levels and H
    ham, levels, vectors = solve(factors)
    try:
        mu, occs = _fill_levels(levels, spec, T, config.q, constrained)
        residual = _Segment(factors, _trimmed(vectors, occs)).defect()
    except UnreachableChargeError:
        mu, residual = 0.0, math.inf
        if status == "converged":
            status = "max_iter"
    if history:  # the state moved: its energy terms, once
        energy = breakdown(factors)
    result = ScfResult(
        gamma=DensityMatrix.from_factors(grid, *factors),
        mu=mu,
        energy=energy,
        residual=residual,
        iterations=iterations,
        converged=status == "converged",
        status=status,
        history=history,
        levels=levels,
    )
    if result.converged:
        result.audit = _audit(result, config, cache, ham)
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
    refused like an unconverged one.  H_gamma is built here for (a) and (b);
    a solve audits its result with the H of its final solve instead.
    """
    if not result.converged or result.levels is None:
        raise ValueError("minimizer_audit refuses unconverged or reloaded results")
    if cache is None:
        cache = OperatorCache(result.gamma.grid, config.l_max, config.Z)
    ham_blocks = None
    if config.interactions:
        ham_blocks = mean_field_hamiltonian(result.gamma, config.Z, cache).blocks
    return _audit(result, config, cache, ham_blocks)


def _audit(result, config, cache, ham_blocks) -> MinimizerAudit:
    """``minimizer_audit`` given H_gamma (None: the bare blocks, interactions off);
    (b) is its one eigensolve."""
    gamma = result.gamma
    grid = gamma.grid
    spec, T, Z = config.spec, config.T, config.Z
    q = gamma.trace()

    from scipy.linalg import eigh

    if ham_blocks is None:
        ham_blocks = [cache.one_body_block(l) for l in range(gamma.l_max + 1)]
    lieb = sum(
        (2 * l + 1) * float(np.real(np.sum((grid.r[:, None] * w).conj() * (h @ w), axis=0)) @ nu)
        for l, (h, w, nu) in enumerate(zip(ham_blocks, *gamma.factors))
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
