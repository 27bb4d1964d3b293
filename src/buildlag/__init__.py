"""Socially optimal irreversible capacity investment under a construction
lag, for three demand models: arithmetic and geometric Brownian motion and
the mean-reverting square-root process.

The package computes the investment threshold in closed form, checks it
against a generic ODE-based oracle, simulates the resulting singular
control, and estimates discounted cost functionals by Monte Carlo.
"""

from .boundary import (
    BiasDecomposition,
    Boundary,
    abm_lambda,
    cir_asymptote,
    cir_kink,
    cir_tangent,
    gbm_constants,
    generic_boundary,
)
from .demand import (
    ABM,
    CIR,
    GBM,
    DemandPath,
    TimeGrid,
    alpha0,
    beta0,
    beta_resolvent,
    sample_path,
    sample_paths,
    state_space,
    validate,
)
from .errors import (
    DomainError,
    GridError,
    NumericsError,
    ParameterError,
    StepError,
    TruncationError,
)
from .kummer import kummer_m, kummer_m_prime, psi_over_psi_prime, psi_ratio_second
from .montecarlo import (
    CostEstimate,
    DominanceReport,
    EquilibriumReport,
    IdentityReport,
    PolicySpec,
    check_battery,
    dominance_test,
    equilibrium_check,
    estimate_F,
    estimate_G_plus_J,
    fast_rule,
    identity_check,
    running_cost,
)
from .policy import (Pipeline, Scenario, Trajectory, committed_identity_check, increments,
                     reflect, simulate)
from .scenarios import MCSettings, OutputSettings, RunConfig
from .statics import (
    ABMPartials,
    Elasticity,
    FDReport,
    abm_partials,
    finite_diff_check,
    gbm_elasticity,
    gbm_statics_table,
)

__version__ = "0.1.0"
