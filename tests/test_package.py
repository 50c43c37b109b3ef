import ast
import dataclasses
import types
from pathlib import Path

import numpy as np
import pytest

import hslasso

PUBLIC_SURFACE = [
    "AGDState", "BaselineConfig", "BenchmarkGrid", "HSConfig", "LassoProblem",
    "NumericalFailure", "OpCounter", "ReferenceSolution", "SmoothnessConstants", "SolverTrace",
    "SupportConditionReport", "SurrogateSpec", "SyntheticSpec", "TraceRecord", "agd_state",
    "agd_step", "beta_pattern", "cd_solve", "equicorrelated_design", "estimation_error",
    "find_t0", "fista_solve", "generate", "hs_solve", "initial_beta", "inner_solve",
    "inner_tolerance", "ista_solve", "jacobi_svd", "lasso_objective", "load_problem_binary",
    "load_problem_json", "noise_scale_for_snr", "outer_iteration_count", "prediction_error",
    "reference_minimum", "run_bench", "save_problem_binary", "save_problem_json", "sl_solve",
    "smoothness_constants", "subgradient_residual", "support_conditions_check", "support_set",
    "surrogate_value", "theoretical_bound",
]


def test_public_surface():
    # Every name the package exports, submodules aside; adding or removing
    # one is a deliberate change to this list.
    names = sorted(name for name, value in vars(hslasso).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_SURFACE


def test_configs_are_frozen():
    # configs are checked when built, so none may change afterwards
    configs = [hslasso.HSConfig(), hslasso.BenchmarkGrid(),
               hslasso.BaselineConfig(method="ista", beta0=np.ones(2), epsilon=0.1,
                                      max_iters=10, ref=None)]
    for cfg in configs:
        name = dataclasses.fields(cfg)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))


def _imported_modules(module):
    # the package modules a source file imports, at any depth of its body
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:
                found.add((node.module or "").rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return found


# The package's modules in import order: each may import only from the
# layers before its own, so the imports form one stack without a cycle.
STACK = (("opcount", "trace"), ("problem",), ("surrogate", "datagen"), ("baselines",),
         ("homotopy",), ("diagnostics",), ("cli",))


def test_layering():
    import importlib

    import hslasso.diagnostics
    import hslasso.problem

    rank = {name: i for i, layer in enumerate(STACK) for name in layer}
    package = Path(hslasso.__file__).parent
    assert set(rank) == {f.stem for f in package.glob("*.py")} - {"__init__"}
    for name, i in rank.items():
        imported = _imported_modules(importlib.import_module(f"hslasso.{name}"))
        assert not {m for m in imported if rank.get(m, -1) >= i}, name
    # the Lasso layer stands alone, and the diagnostics reach F_t's
    # minimizer in surrogate.py without the solver
    assert not _imported_modules(hslasso.problem) & set(rank)
    assert "homotopy" not in _imported_modules(hslasso.diagnostics)
