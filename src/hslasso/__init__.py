"""Homotopy-shrinkage Lasso solver, baseline solvers, and an
operation-counting benchmark harness.

The package exports what a caller constructs, runs or catches, and the types
those return. A step inside an entry point is imported from the module that
defines it, e.g. ``hslasso.homotopy.ridge_start``."""

from .baselines import (BaselineConfig, cd_solve, fista_solve, ista_solve, reference_minimum,
                        sl_solve, theoretical_bound)
from .datagen import SyntheticSpec, generate
from .diagnostics import estimation_error, prediction_error, support_conditions_check
from .homotopy import HSConfig, hs_solve
from .opcount import OpCounter
from .problem import (LassoProblem, NumericalFailure, ReferenceSolution, lasso_objective,
                      load_problem_binary, load_problem_json, save_problem_binary,
                      save_problem_json)
from .surrogate import SurrogateSpec
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
