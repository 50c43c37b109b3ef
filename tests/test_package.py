import ast
import dataclasses
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hslasso

PUBLIC_SURFACE = [
    "BaselineConfig", "BenchmarkGrid", "HSConfig", "LassoProblem", "NumericalFailure",
    "OpCounter", "ReferenceSolution", "SolverTrace", "SurrogateSpec", "SyntheticSpec",
    "TraceRecord", "agd_map",
    "beta_pattern", "cd_solve", "equicorrelated_design", "estimation_error",
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
    names = sorted(name for name in dir(hslasso) if not name.startswith("_")
                   and not isinstance(getattr(hslasso, name), types.ModuleType))
    assert names == PUBLIC_SURFACE


# Every settable field of each config, in order; adding or removing one is a
# deliberate change to this list, as FLAG_SURFACE is for the CLI's options.
CONFIG_FIELDS = {
    "HSConfig": ["t0", "h", "epsilon", "B", "tau", "inner_stop", "inner_fixed_count",
                 "inner_grad_tol", "outer_stop", "ref", "max_outer"],
    "BaselineConfig": ["method", "beta0", "epsilon", "max_iters", "ref"],
    "BenchmarkGrid": ["sims", "scenarios", "epsilons", "methods", "seed", "lam"],
    "SyntheticSpec": ["n", "p", "rho", "snr", "pattern", "sparsity", "seed"],
}


def test_config_fields():
    fields = {name: [f.name for f in dataclasses.fields(getattr(hslasso, name)) if f.init]
              for name in CONFIG_FIELDS}
    assert fields == CONFIG_FIELDS


def test_import_leaves_the_cli_unimported():
    # `import hslasso` imported hslasso.cli for the bench names, so runpy
    # warned on `python -m hslasso.cli` that the module was already imported
    env = {**os.environ, "PYTHONPATH": str(Path(hslasso.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "hslasso.cli", "bench", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == ""
    code = ("import sys, hslasso; assert 'hslasso.cli' not in sys.modules; "
            "from hslasso import BenchmarkGrid; import hslasso.cli; "
            "assert hslasso.run_bench is hslasso.cli.run_bench; "
            "assert BenchmarkGrid is hslasso.cli.BenchmarkGrid")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


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


# Definitions in src/ that no src/ or perfbench/ line names, each with why it stays.
NO_CALLER = {
    "theoretical_bound": "acceptance criterion 3's envelope, documented in README",
    "cd_minimize_to_residual": "the suite's cross-check of the reference; "
                               "perfbench/tracer.py hooks it",
}


def test_src_defs_have_a_caller():
    # Keep in src/ only what a run reads: every top-level function, class and
    # method, dunders aside, is named on some other line of src/ or perfbench/.
    # Re-exports in __init__.py are no callers.  It matches words, not calls,
    # so a common name (ops, value) or one named only in a comment passes.
    root = Path(hslasso.__file__).parents[2]
    sources = sorted(Path(hslasso.__file__).parent.glob("*.py"))
    lines = [(path, i, line) for path in sources + sorted((root / "perfbench").glob("*.py"))
             if path.name != "__init__.py"
             for i, line in enumerate(path.read_text().splitlines(), start=1)]
    uncalled = []
    for path in sources:
        tree = ast.parse(path.read_text())
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        for node in defs:
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in NO_CALLER:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for p, i, line in lines
                       if (p, i) != (path, node.lineno)):
                uncalled.append(f"{path.name}:{node.lineno} {name}")
    assert uncalled == []


# A hand-written number test: the numbers ABCs, NumPy's scalar kinds, a bool
# instance check or an exact int type check; and an import of numbers.
NUMBER_TEST = re.compile(r"\bnumbers\.|\bnp\.(integer|floating|number|bool_)\b"
                         r"|isinstance\([^,()]+,\s*\(?[\w.,\s]*\bbool\b"
                         r"|type\([^()]*\)\s+is\s+(not\s+)?int\b")
IMPORTS_NUMBERS = re.compile(r"\s*(import|from)\s+numbers\b")


def test_one_number_rule():
    # Every record tests a number by problem.check_number alone, and only
    # problem.py imports numbers: seven hand-written tests disagreed, one
    # taking NumPy integers that the next refused, another passing NumPy's
    # bools.  The problem JSON's scan of entry types is no number test.
    import hslasso.problem

    rule = [node for node in ast.parse(Path(hslasso.problem.__file__).read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name == "check_number"]
    inside = range(rule[0].lineno, rule[0].end_lineno + 1) if rule else range(0)
    found = []
    for path in sorted(Path(hslasso.__file__).parent.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), start=1):
            if (NUMBER_TEST.search(line) and not (path.stem == "problem" and i in inside)
                    or IMPORTS_NUMBERS.match(line) and path.stem != "problem"):
                found.append(f"{path.name}:{i} {line.strip()}")
    assert found == []
    assert rule, "problem.check_number is gone"


# An addition to a counter field: only OpCounter.charge may write one.
COUNTER_WRITE = re.compile(r"\.(mults|adds|transcendentals|comparisons|setup_ops)\s*\+=")
STEP_MAPS = {"baselines": ("_prox_grad_step", "_fista_step", "_cd_sweep", "_sl_step"),
             "homotopy": ("agd_map",), "surrogate": ("surrogate_grad",)}


def test_one_charge_table():
    # Every charge is one entry of opcount.CHARGES: the step maps only
    # compute and the drivers charge their steps by count, so no second
    # copy of a charge's arithmetic can drift from the table, and each step
    # map has one path for charged and uncharged callers alike.
    import importlib
    import inspect

    found = [f"{path.name}:{i} {line.strip()}"
             for path in sorted(Path(hslasso.__file__).parent.glob("*.py"))
             if path.stem != "opcount"
             for i, line in enumerate(path.read_text().splitlines(), start=1)
             if COUNTER_WRITE.search(line)]
    assert found == []
    takes_counter = [f"{module}.{name}" for module, names in STEP_MAPS.items() for name in names
                     if "counter" in inspect.signature(
                         getattr(importlib.import_module(f"hslasso.{module}"), name)).parameters]
    assert takes_counter == []
