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
The energies of the iterate and of the step come from their factors.  The
returned state keeps its factors (``DensityMatrix.from_factors``).

Since mu <= 0 and g vanishes on [0, inf), only the eigenpairs below zero are
filled, and no n x n matrix is formed to find them.  Each channel of the
mean field is an operator on the state's factors (``_Channel``): H_l x by
matvecs in O(n m) per column for m exchange terms, and a block L D L^H of
H_l - sigma in O(n m^2) (``energy._ldl_solves``), which solves shifted
systems and counts the levels below sigma.  A run keeps one channel per l
from start to audit, first on the bare field with the bare pairs: as many
as the bare block has below zero, and in the s channel at least the three
the audit compares with hydrogen.  Each solve sets the channels' field, and
Rayleigh-Ritz on their span, enlarged by one shifted solve per Ritz pair
until the residuals reach rounding, leaves the new pairs there.  The
inertia of H_l at zero proves the negative count.  The bare blocks are
tridiagonal and solved once per run, by its one ``OperatorCache``, for the
start pairs, the warm start and the audit; the warm start is the minimizer
when interactions are off, so such a run takes no iteration, and its bare
channels are its solution.

Each pass of the loop solves the iterate's mean field, fills it and
measures the Frobenius defect ||candidate - gamma||_F (the norm the audit
bounds) and the free-energy gap to the candidate.  Once both meet their
tolerances, that iterate is the returned state: its solve gave the residual
and mu, and its channels feed ``minimizer_audit`` with its factors (a warm
start that is the minimizer passes at once, with defect 0).  Otherwise the
pass searches for a step.  Criterion 8's model converges in 6 steps and 7
solves.  The entropy comes from the factor weights, so no eigendecomposition
of gamma is ever taken.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    EnergyBreakdown,
    OperatorCache,
    _FactoredField,
    _entropy_of_blocks,
    _factored_field,
    _hf_terms,
    _ldl_solves,
    free_energy,
    inequality_audit,
    linear_energy_breakdown,
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
from .linear import UnboundedModelError, UnreachableChargeError, q_max_lin, regime_classify, Regime

__all__ = [
    "EigensolveError",
    "MinimizerAudit",
    "ScfConfig",
    "ScfResult",
    "SweepResult",
    "SweepRow",
    "charge_sweep",
    "occupations_from_levels",
    "scf_global",
    "scf_minimize",
]

_BISECTIONS = 30  # halvings of the step-length bracket
_F_ROUNDING = 1e-14  # relative rounding of a free-energy difference along a step
_EIGENVALUE_TOL = 5e-4  # h^2-scale slack of the audit's s-level bound
_INEQUALITY_TOL = 1e-9  # absolute slack of each pair of ``inequality_audit``
_RESIDUAL_ULPS = 64  # Ritz residual tolerance, in units of eps ||H_l||
_RITZ_ROUNDS = 20  # Rayleigh-Ritz rounds before the eigensolve gives up


@dataclass
class ScfConfig:
    """Problem statement plus discretization and iteration controls.

    ``q = None`` selects the global problem, with no charge constraint (mu fixed at 0).
    ``r_max = None`` defaults to 60/Z.  ``interactions = False`` drops the
    Hartree and exchange terms, turning the run into the discrete linear
    model (used to compare against the analytic series).  Z <= 0 is allowed;
    a Z whose hydrogen scale Z^2/(4T) overflows is not.
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
    interactions: bool = True

    def __post_init__(self):
        for name in ("Z", "T", "q", "r_max", "tol_gamma", "tol_energy"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("l_max", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if self.T <= 0.0:
            raise ValueError("scf requires T > 0")
        if not self.Z * self.Z / (4.0 * self.T) < math.inf:  # the hydrogen scale of the audit
            raise ValueError(f"Z^2/(4T) overflows at Z = {self.Z}, T = {self.T}")
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
    inequalities_ok: bool
    details: dict = field(default_factory=dict)

    def passed(self, tol_gamma: float) -> bool:
        return (
            self.selfconsistency_residual <= 10.0 * tol_gamma
            and self.lieb_value <= 1e-8
            and self.eigenvalue_bound_ok
            and self.qmaxlin_chain_ok
            and self.energy_negative_ok
            and self.inequalities_ok
        )


@dataclass
class ScfResult:
    """Outcome of one SCF run; ``energy`` is None only for a reloaded state.

    ``gamma`` is the last iterate the run solved, ``residual`` its Frobenius
    defect and ``mu`` that of its fill.  ``audit`` is the ``minimizer_audit``
    of a converged run, built from that solve; it is None otherwise and for a
    reloaded state.  ``iterations`` counts the solves that searched for a
    step; the one that gave ``residual`` is one more, unless the run stalled.
    ``history`` has one entry per accepted step: the iteration, the Frobenius
    ``defect`` and ``mu`` of the solved iterate, the step ``t`` along the
    segment to its candidate, and the ``free_energy`` of the iterate the step
    accepted.  Runs whose warm start is the minimizer (q = 0, or no
    interactions) take no step: ``iterations`` is 0 and ``history`` empty.
    ``status`` is "converged", "max_iter", "stalled" (no point of the segment
    lowers F) or "unreachable-charge" (a solved field, the returned state's
    included, cannot bind q: ``mu`` is 0 and ``residual`` inf).
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
    mu = -inf sentinel.  A q that is not >= 0 or a T not in (0, inf) raises
    ValueError, NaN included.
    """
    if not q >= 0.0:
        raise ValueError(f"charge must be nonnegative, got {q}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {T}")
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


class EigensolveError(RuntimeError):
    """The structured eigensolve found a number of negative levels other than
    the inertia of H_l at zero, or its Ritz residuals did not converge."""


class _Channel:
    """Channel l of a mean field as an n x n operator that is never formed.

    ``channel @ x`` is H_l x by matvecs on the field's factors, as a dense
    block's would be.  ``levels`` and ``vectors`` hold Ritz pairs of the
    channel: the start of its eigensolve, which leaves there the converged
    ones, the warm start of the next ``field`` an SCF run sets.
    """

    def __init__(self, field: _FactoredField, l: int, levels: np.ndarray, vectors: np.ndarray):
        self.field, self.l, self.levels, self.vectors = field, l, levels, vectors
        n = field.cache.grid.n_points
        self.shape = (n, n)

    def __matmul__(self, x):
        return self.field.apply(self.l, x)


def _diagonalize_blocks(channels):
    """Negative-energy eigenpairs of each channel operator, with no dense H.

    Rayleigh-Ritz on the span of each channel's vectors, enlarged by one exact
    shifted solve (H - theta_j)^-1 y_j per unconverged Ritz pair (Rayleigh-
    quotient iteration on a subspace) and orthonormalized, until every
    residual ||H y_j - theta_j y_j|| is at most tol = _RESIDUAL_ULPS eps ||H||.
    ||H|| is taken as the Gershgorin bound of T_l + diag(v_local): the
    exchange lies between 0 and the Hartree potential.  A pair at or above
    zero is never filled; only its level is read (the audit's s levels), and
    that level is exact to second order in the residual, so such a pair also
    settles once its level moves by at most tol in a round.  The L D L^H does
    not pivot between its blocks, so a shifted solve next to an eigenvalue may
    still stall a residual just above tol; only the filled pairs are held to
    it.  The solves of a round run as one batch of ``energy._ldl_solves``; the
    first round's batch also poses one count problem per channel, whose
    inertia at zero counts its levels below zero (a solve problem gets no
    count).  Each channel keeps its converged pairs, as many as it came with.

    That number is at least #neg(bare_l): V_H - K_l is positive semidefinite
    for a state with nu >= 0 (AM-GM on the nonnegative kernel entries,
    w_L <= w_0 entrywise and sum_L A_L(l,l')/(2l+1) <= 2l'+1), so by Weyl H_l
    has no more negative levels than the bare block.  Rayleigh-Ritz need not
    find the lowest pairs of a start block that misses a level: the count is
    what proves them, and a negative Ritz count that differs from it raises
    EigensolveError naming the channel.  An exact zero level is unoccupied.
    """
    eps = np.finfo(float).eps
    counting = [(channel.field, channel.l, 0.0, None) for channel in channels]
    bases, below = dict(enumerate(channel.vectors for channel in channels)), None
    for _ in range(_RITZ_ROUNDS):
        problems, owners = [], []
        for c, basis in bases.items():
            channel = channels[c]
            k, previous = channel.vectors.shape[1], channel.levels
            cache = channel.field.cache
            diag = cache.kinetic_diag[channel.l] + channel.field.v_local
            norm = float(np.max(np.abs(diag))) + 2.0 * abs(cache.kinetic_off)
            tol = _RESIDUAL_ULPS * eps * norm
            image = channel @ basis
            rayleigh = basis.conj().T @ image
            theta, coeffs = np.linalg.eigh(0.5 * (rayleigh + rayleigh.conj().T))
            theta, coeffs = theta[:k], coeffs[:, :k]
            channel.levels, channel.vectors = theta, basis @ coeffs
            residuals = np.linalg.norm(image @ coeffs - channel.vectors * theta, axis=0)
            settled = (theta >= 0.0) & (np.abs(theta - previous) <= tol)
            for j in np.flatnonzero((residuals > tol) & ~settled):
                problems.append((channel.field, channel.l, theta[j], channel.vectors[:, j]))
                owners.append(c)
                stuck = (f"channel l={channel.l}: Ritz residuals {residuals.max():.2e} "
                         f"above {tol:.2e}")
        if below is not None and not problems:
            break
        results = _ldl_solves(problems + counting)
        if below is None:
            below, counting = results[len(problems):], []
        parts = {c: [channels[c].vectors] for c in owners}
        for c, x in zip(owners, results):
            parts[c].append(x[:, None])
        bases = {c: np.linalg.qr(np.hstack(vectors))[0] for c, vectors in parts.items()}
    else:
        raise EigensolveError(f"{stuck} after {_RITZ_ROUNDS} rounds")
    levels, vectors = [], []
    for channel, n_below in zip(channels, below):
        neg = channel.levels < 0.0
        if int(np.sum(neg)) != n_below:
            raise EigensolveError(
                f"channel l={channel.l}: {int(np.sum(neg))} negative Ritz levels, "
                f"but H_l has {n_below} (block of {channel.levels.size})"
            )
        levels.append(channel.levels[neg])
        vectors.append(channel.vectors[:, neg])
    return levels, vectors


def _fill_levels(levels, spec, T, q):
    """(mu, per-channel occupations) of the levels filled to charge q; q = None pins mu at 0."""
    if q is None:
        return 0.0, [spec.g(w / T) for w in levels]
    pooled = [(e, 2 * l + 1) for l, w in enumerate(levels) for e in w]
    mu, occ_flat = occupations_from_levels(pooled, spec, T, q)
    bounds = np.cumsum([0] + [len(w) for w in levels])
    return mu, [occ_flat[a:b] for a, b in zip(bounds, bounds[1:])]


class _Segment:
    """The segment gamma_t = gamma + t (candidate - gamma), t in [0, 1], per channel.

    Both ends are factored, so the segment lives on the span of [W, W~]: with Q
    from a thin QR of it and R = Q^H W, gamma_t = Q (A + t D) Q^H for the small
    A = R diag(nu) R^H and D = R~ diag(nu~) R~^H - A.  Spectra along the segment
    are those of A + t D, so no n x n eigendecomposition is ever taken.  The
    SCF line search walks it; the dynamics read only the difference D of two
    factored states (``trace_norms``), real or complex.
    """

    def __init__(self, factors, candidate):
        self.frames, self.starts, self.steps = [], [], []
        for w_a, nu_a, w_b, nu_b in zip(*factors, *candidate):
            frame = np.linalg.qr(np.hstack([w_a, w_b]))[0]
            r_a, r_b = (frame.conj().T @ w for w in (w_a, w_b))
            start = (r_a * nu_a) @ r_a.conj().T
            self.frames.append(frame)
            self.starts.append(start)
            self.steps.append((r_b * nu_b) @ r_b.conj().T - start)

    def defect(self) -> float:
        """max_l ||candidate_l - gamma_l||_F, the norm the audit bounds."""
        return max((float(np.linalg.norm(d)) for d in self.steps), default=0.0)

    def trace_bound(self) -> float:
        """sum_l (2l+1) sqrt(width_l) ||D_l||_F >= |tr(candidate - gamma)|, as rank D_l <= width_l."""
        return sum((2 * l + 1) * math.sqrt(d.shape[0]) * float(np.linalg.norm(d))
                   for l, d in enumerate(self.steps))

    def trace_norms(self) -> list:
        """[||candidate_l - gamma_l||_1] per channel: sum |eig(D_l)|."""
        return [float(np.sum(np.abs(np.linalg.eigvalsh(d)))) for d in self.steps]

    def spectra(self, t):
        return [np.linalg.eigh(a + t * d) for a, d in zip(self.starts, self.steps)]

    def step_factors(self):
        """Orbital factors of candidate - gamma = Q D Q^T, with the signed
        eigenvalues of D: the input of the step's two-body energy."""
        return self._on_frames([np.linalg.eigh(d) for d in self.steps])

    def slope(self, ham) -> float:
        """tr(H_gamma (candidate - gamma)) = sum_l (2l+1) <Q^T (H_l Q), D_l>, for
        channel operators or dense blocks ``ham``."""
        return sum(
            (2 * l + 1) * float(np.sum((q.T @ (h @ q)) * d))
            for l, (h, q, d) in enumerate(zip(ham, self.frames, self.steps))
        )

    def factors(self, t):
        """Orbital factors of gamma_t, small weights dropped."""
        return self._on_frames(self.spectra(t))

    def _on_frames(self, spectra):
        """(Q U, lambda) per channel for small eigendecompositions (lambda, U)."""
        return _trimmed([q @ u for q, (_, u) in zip(self.frames, spectra)],
                        [lam for lam, _ in spectra])


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

    def entropy(t):
        return _entropy_of_blocks([lam for lam, _ in segment.spectra(t)], spec)

    s0 = entropy(0.0)

    def rise(t):
        return t * slope + t * t * curvature + T * (entropy(t) - s0)

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


def _initial_state(cache: OperatorCache, config: ScfConfig):
    """Warm start: the orbital factors of the filled bare kinetic+nuclear
    spectrum (the linear minimizer)."""
    levels, vectors = cache.bare_spectrum
    _, occs = _fill_levels(levels, config.spec, config.T, config.q)
    return _trimmed(vectors, occs)


def _run_scf(config: ScfConfig) -> ScfResult:
    if regime_classify(config.spec.m) is Regime.UNBOUNDED:
        raise UnboundedModelError(f"free energy unbounded from below for m = {config.spec.m}")
    spec, Z, T = config.spec, config.Z, config.T
    grid = config.make_grid()
    cache = OperatorCache(grid, config.l_max, Z)
    history: list = []

    bare = _factored_field(cache, *zero_density_matrix(grid, config.l_max).factors)
    channels = [_Channel(bare, l, *p) for l, p in enumerate(zip(*cache.bare_spectrum))]

    def solve(factors):
        """(negative levels, vectors) of the mean field of the factors, once
        per pass of the loop; the channels, one per l for the run, keep its pairs.

        Without interactions the field is the bare one: the channels keep the
        bare pairs, exact from the start, which are its levels (an unbound s
        level among them fills to zero), and nothing is solved."""
        if not config.interactions:
            return cache.bare_spectrum
        field = _factored_field(cache, *factors)
        for channel in channels:
            channel.field = field
        return _diagonalize_blocks(channels)

    energy_of = free_energy if config.interactions else linear_energy_breakdown

    def breakdown(factors):
        return energy_of(DensityMatrix.from_factors(grid, *factors), spec, Z, T)

    try:
        factors, status = _initial_state(cache, config), "max_iter"
    except UnreachableChargeError:
        factors = zero_density_matrix(grid, config.l_max).factors
        status = "unreachable-charge"
    energy = breakdown(factors)
    e_hf, free, entropy = energy.total_hf, energy.total_free, energy.entropy_term
    # the last step a resolved search chose; reused where F' is lost in rounding
    iterations, damping = 0, 1.0

    mu, residual = 0.0, math.inf
    while status != "unreachable-charge":
        levels, vectors = solve(factors)
        try:
            mu, occs = _fill_levels(levels, spec, T, config.q)
        except UnreachableChargeError:
            mu, residual, status = 0.0, math.inf, "unreachable-charge"
            break
        candidate = _trimmed(vectors, occs)
        segment = _Segment(factors, candidate)
        residual = segment.defect()
        _, _, direct, exch = _hf_terms(*segment.step_factors(), cache)
        slope = segment.slope(channels)
        curvature = direct - exch
        gap = slope + curvature + T * (_entropy_of_blocks(occs, spec) - entropy)
        if residual <= config.tol_gamma and abs(gap) <= config.tol_energy:
            status = "converged"
        if status == "converged" or iterations == config.max_iter:
            break  # that solve was the returned state's: its channels feed the audit
        iterations += 1
        t, resolved = _step_length(segment, slope, curvature, spec, T, free, damping)
        if resolved:
            damping = t
        if t == 0.0:
            status = "stalled"  # no point of the segment lowers F
            break
        e_hf += t * slope + t * t * curvature
        factors = candidate if t == 1.0 else segment.factors(t)
        entropy = _entropy_of_blocks(factors[1], spec)
        free = e_hf + T * entropy
        history.append(
            {"iteration": iterations, "free_energy": free, "defect": residual, "t": t, "mu": mu}
        )
        DensityMatrix.from_factors(grid, *factors).validate()  # each iterate stays a state

    if history:  # the state moved: its energy terms, once
        energy = breakdown(factors)
    result = ScfResult(
        gamma=DensityMatrix.from_factors(grid, *factors), mu=mu, energy=energy,
        residual=residual, iterations=iterations, converged=status == "converged",
        status=status, history=history,
    )
    if result.converged:
        result.audit = minimizer_audit(result, config, channels, segment.trace_bound())
    return result


def scf_minimize(config: ScfConfig) -> ScfResult:
    """Minimize the free energy at fixed charge tr(gamma) = q."""
    if config.q is None:
        raise ValueError("scf_minimize needs config.q; use scf_global otherwise")
    return _run_scf(config)


def scf_global(config: ScfConfig) -> ScfResult:
    """Minimization with no charge constraint (``config.q`` is ignored); mu is pinned at 0."""
    return _run_scf(dataclasses.replace(config, q=None))


def minimizer_audit(result, config, channels, trace_bound) -> MinimizerAudit:
    """Check the proven properties of minimizers on a converged result.

    (a) tr(|x| H_gamma gamma) <= 0 up to 1e-8; (b) the lowest three l=0
    levels of H_gamma sit below -(Z-q)^2/(4 j^2) within an h^2-scale
    tolerance; (c) the charge chain q <= tr g(H_gamma/T) <= tr g(H_bare/T),
    each link within 1e-9, except the global problem's first, an equality at
    the minimizer: tr g(H_gamma/T) is the trace of the filled candidate c,
    so |tr gamma - tr g(H_gamma/T)| is held to ``trace_bound`` >=
    |tr(gamma - c)| (``_Segment``) plus the rounding of an n-term trace, and
    details["charge_slack"] names the slack it had; in a constrained run the
    chain starts at the state's own charge, which must be config.q within
    1e-9 plus n eps q; (d) negative free energy for q > 0; (e) every
    (lhs, rhs) pair of ``inequality_audit`` on the result's state and energy,
    within _INEQUALITY_TOL.  The result's state is the iterate the run solved
    last, and ``channels`` are the run's channels as that solve left them
    (the bare ones when interactions are off); their field's cache is the
    run's, whose bare levels (c) reads.
    (a) takes matvecs on the factors; (b) reads the three lowest Ritz levels
    of channel 0, bound or not, with every bound one among them (its count
    proved them); (c) sums g over every channel's Ritz levels; (e) takes only
    k x k spectra of the factors.  Nothing is solved and no n x n matrix is
    formed.
    """
    gamma = result.gamma
    grid = gamma.grid
    spec, T, Z = config.spec, config.T, config.Z
    q = gamma.trace()

    lieb = sum(
        (2 * l + 1) * float(np.real(np.sum((grid.r[:, None] * w).conj() * (h @ w), axis=0)) @ nu)
        for l, (h, w, nu) in enumerate(zip(channels, *gamma.factors))
    )

    # the lowest three s levels, bound or not: a negative-only slice would
    # pass the bound vacuously when fewer than three are bound
    w0 = channels[0].levels[:3]
    bounds = np.array([-((Z - q) ** 2) / (4.0 * j * j) for j in (1, 2, 3)])
    # for Z <= q the comparison operator has no negative spectrum
    eig_ok = Z - q <= 0.0 or bool(np.all(w0 <= bounds[: w0.size] + _EIGENVALUE_TOL))

    # g vanishes on [0, inf): the Ritz levels at or above zero add exactly 0.0
    def capacity(levels):
        return sum((2 * l + 1) * float(np.sum(spec.g(w / T))) for l, w in enumerate(levels))

    mf_sum = capacity([channel.levels for channel in channels])
    bare_sum = capacity(channels[0].field.cache.bare_spectrum[0][: gamma.l_max + 1])
    if config.q is None:
        slack = trace_bound + grid.n_points * np.finfo(float).eps * q
        charge_ok = mf_sum <= q + slack
    else:
        slack = 1e-9
        charge_ok = abs(q - config.q) <= 1e-9 + grid.n_points * np.finfo(float).eps * config.q
    chain_ok = charge_ok and q <= mf_sum + slack and mf_sum <= bare_sum + 1e-9

    free = result.energy.total_free
    energy_ok = free < 0.0 if q > 1e-12 else abs(free) <= 1e-12

    inequalities = inequality_audit(gamma, spec, Z, result.energy)
    return MinimizerAudit(
        selfconsistency_residual=result.residual,
        lieb_value=lieb,
        eigenvalue_bound_ok=eig_ok,
        qmaxlin_chain_ok=chain_ok,
        energy_negative_ok=energy_ok,
        inequalities_ok=all(lhs <= rhs + _INEQUALITY_TOL for lhs, rhs in inequalities.values()),
        details={
            "h0_eigenvalues": w0.tolist(),
            "eigenvalue_bounds": bounds.tolist(),
            "discrete_q_mean_field": mf_sum,
            "discrete_q_max_lin": bare_sum,
            "charge_slack": slack,
            "trace": q,
            **inequalities,
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

    Distinct charges are independent; they run on a pool of ``workers``
    threads (one runs them in order; fewer than one raises ValueError).  The
    threads overlap little: a solve is mostly short numpy calls on n x k
    blocks and on the small diagonal blocks of its L D L^H factorizations,
    which hold the GIL between them (two threads ran the interacting
    criterion-9 sweep in 0.79-0.87x the time of one, on a 2-vCPU machine
    with BLAS on one thread).  The q_max_lin ceiling is computed first, so a
    problem whose hydrogen series overflows fails before any solve.  Rows
    come back in input order regardless of scheduling.
    """
    q_list = list(q_list)
    if any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ValueError("q_list must be strictly increasing")
    qmax = q_max_lin(config.spec, config.Z, config.T).value

    def solve(q: float) -> ScfResult:
        return scf_minimize(dataclasses.replace(config, q=q))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(solve, q_list))

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
    return SweepResult(
        rows=rows,
        ceiling_q_max_lin=qmax,
        ceiling_ionization=2.0 * config.Z + 1.0,
        largest_strict_q=largest_strict,
        monotone_ok=monotone_ok,
    )
