"""Finite-sample certificates for sample-average approximation (SAA).

The package turns moment and geometry information about a stochastic program
with expected-value constraints into explicit sample sizes, deterministic
feasibility/optimality certificates for a solved SAA instance, and Monte
Carlo experiments that stress the advertised guarantees.
"""

from .apps import (
    LassoProblem,
    PortfolioProblem,
    ReturnsDataset,
    build_lasso,
    build_portfolio,
    cvar,
    lasso_scenarios,
    portfolio_gradients,
)
from .certify import (
    CHECK_SCHEMES,
    Certificate,
    CheckReport,
    DeviationLedger,
    GapBounds,
    RegularityEstimate,
    assemble_sigma,
    certificate_from_profile,
    certificate_from_sigma,
    check_certificates,
    deviation_ledger,
    estimate_regularity,
    gap_bounds,
    robinson_constant,
    sample_size,
)
from .distributions import Distribution, make_distribution
from .errors import (
    BudgetError,
    ConfigError,
    DegenerateFeatureError,
    DimensionMismatchError,
    EmptySampleError,
    InfeasibleError,
    SaacertError,
    SlaterMarginError,
    UncalibratableError,
)
from .families import FAMILIES, make_family
from .geometry import (
    AlphaComplexity,
    EntropyNumber,
    PackingNet,
    SpaceDescriptor,
    a_alpha,
    entropy_number,
    packing_net,
    set_deviation,
)
from .moments import (
    HolderEstimate,
    VarianceProfile,
    estimate_holder,
    panchenko_vhat_singleton,
    self_normalized,
    sigma_breve,
    sigma_hat_set,
    sigma_hat_sq,
    sigma_pop_sq,
    variance_profile,
)
from .problem import (
    EmpiricalProblem,
    FeasibilityRecord,
    HolderInfo,
    ScenarioSet,
    StochasticProgram,
    TrueOracle,
    build_empirical,
    read_table,
    relaxed_set_grid,
)
from .solve import (
    SolveResult,
    SolverConfig,
    TrueSolve,
    grid_solve,
    near_optimal_check,
    solve,
    solve_true,
    subgradient_solve,
)
from .validation import (
    CalibrationResult,
    CoveragePlan,
    CoverageReport,
    RateReport,
    TailReport,
    calibrate_constant,
    coverage_certificate,
    coverage_experiment,
    rate_experiment,
    tail_experiment,
    uniform_tail_experiment,
    wilson_interval,
)

__version__ = "0.1.0"
