"""Homotopy-shrinkage Lasso solver, baseline solvers, and an
operation-counting benchmark harness."""

from .baselines import (
    BaselineConfig,
    cd_solve,
    fista_solve,
    ista_solve,
    reference_minimum,
    sl_solve,
    theoretical_bound,
)
from .cli import BenchmarkGrid, run_bench
from .datagen import SyntheticSpec, beta_pattern, equicorrelated_design, generate, noise_scale_for_snr
from .diagnostics import (
    SupportConditionReport,
    estimation_error,
    jacobi_svd,
    prediction_error,
    support_conditions_check,
    support_set,
)
from .homotopy import (
    AGDState,
    HSConfig,
    agd_state,
    agd_step,
    find_t0,
    hs_solve,
    initial_beta,
    inner_solve,
    inner_tolerance,
    outer_iteration_count,
)
from .opcount import OpCounter
from .problem import (
    LassoProblem,
    NumericalFailure,
    ReferenceSolution,
    lasso_objective,
    load_problem_binary,
    load_problem_json,
    save_problem_binary,
    save_problem_json,
    subgradient_residual,
)
from .surrogate import (
    SmoothnessConstants,
    SurrogateSpec,
    smoothness_constants,
    surrogate_value,
)
from .trace import SolverTrace, TraceRecord

__version__ = "0.1.0"
