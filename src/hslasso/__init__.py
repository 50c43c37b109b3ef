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
from .datagen import SyntheticSpec, beta_pattern, equicorrelated_design, generate, noise_scale_for_snr
from .diagnostics import (
    estimation_error,
    jacobi_svd,
    prediction_error,
    support_conditions_check,
    support_set,
)
from .homotopy import (
    HSConfig,
    agd_map,
    hs_solve,
    inner_solve,
    inner_tolerance,
    outer_iteration_count,
    ridge_start,
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
from .surrogate import SurrogateSpec, smoothness_constants
from .trace import SolverTrace, TraceRecord

__version__ = "0.1.0"

# The bench lives in the CLI module. It is resolved on first use (PEP 562),
# so that `import hslasso` leaves hslasso.cli unimported and
# `python -m hslasso.cli` runs that module once, as __main__.
_FROM_CLI = ("BenchmarkGrid", "run_bench")


def __getattr__(name):
    if name in _FROM_CLI:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_FROM_CLI])
