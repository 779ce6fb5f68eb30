"""Finite-temperature Hartree-Fock on a radial grid.

Minimizes E_HF(gamma) + T tr beta(gamma) over fermionic density matrices
(0 <= gamma <= 1) with fractional occupations, checks the computed states
against the analytic linear-model series, and propagates the mean-field
von Neumann equation with exactly-unitary steps.
"""

from .angular import exchange_weights, wigner_3j
from .dynamics import (
    StabilityResult,
    StepSizeError,
    TrajectorySample,
    evolve,
    hspace_distance,
    stability_experiment,
)
from .energy import (
    EnergyBreakdown,
    OperatorCache,
    free_energy,
    hf_energy,
    inequality_audit,
    mean_field_hamiltonian,
)
from .entropy import (
    EntropySpec,
    InvalidExponentError,
    OccupationDomainError,
    make_power_entropy,
    validate_a4,
)
from .grid import (
    DensityMatrix,
    RadialDensity,
    RadialGrid,
    build_grid,
    density_from_gamma,
    dilate,
    hartree_potential,
    nuclear_potential,
    zero_density_matrix,
)
from .linear import (
    HydrogenLevel,
    LinearReport,
    Regime,
    UnboundedModelError,
    UnreachableChargeError,
    guaranteed_existence_qmax,
    hydrogen_level,
    linear_ground_free_energy,
    linear_report,
    mu_of_q,
    q_max_lin,
    q_of_mu,
    regime_classify,
)
from .scf import (
    MinimizerAudit,
    ScfConfig,
    ScfResult,
    SweepResult,
    SweepRow,
    charge_sweep,
    occupations_from_levels,
    scf_global,
    scf_minimize,
)

__version__ = "0.1.0"
