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
from hslasso.homotopy import agd_coefficients

PUBLIC_SURFACE = [
    "BaselineConfig", "BenchmarkGrid", "HSConfig", "LassoProblem", "NumericalFailure",
    "OpCounter", "ReferenceSolution", "SolverTrace", "SurrogateSpec", "SyntheticSpec",
    "TraceRecord", "cd_solve", "estimation_error", "fista_solve", "generate", "hs_solve",
    "ista_solve", "lasso_objective", "load_problem_binary", "load_problem_json",
    "prediction_error", "reference_minimum", "run_bench", "save_problem_binary",
    "save_problem_json", "sl_solve", "support_conditions_check", "theoretical_bound",
]


def test_public_surface():
    # Every name the package exports, submodules aside; adding or removing
    # one is a deliberate change to this list.
    names = sorted(name for name in dir(hslasso) if not name.startswith("_")
                   and not isinstance(getattr(hslasso, name), types.ModuleType))
    assert names == PUBLIC_SURFACE


def test_readme_names_the_public_surface():
    # README's "Python API" section lists the exports by role, in one
    # bulleted paragraph; an export added or removed updates both
    readme = (Path(hslasso.__file__).parents[2] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = [name for block in section.split("\n\n") if block.startswith("- ")
              for name in re.findall(r"`(\w+)`", block)]
    assert sorted(listed) == PUBLIC_SURFACE


# Every settable field of each config, in order; adding or removing one is a
# deliberate change to this list, as FLAG_SURFACE is for the CLI's options.
CONFIG_FIELDS = {
    "HSConfig": ["t0", "h", "epsilon", "B", "tau", "inner_stop", "inner_fixed_count",
                 "inner_grad_tol", "outer_stop", "ref"],
    "BaselineConfig": ["method", "beta0", "epsilon", "ref"],
    "BenchmarkGrid": ["sims", "scenarios", "epsilons", "methods", "seed", "lam"],
    "SyntheticSpec": ["n", "p", "rho", "snr", "pattern", "sparsity", "seed"],
}


def test_config_fields():
    fields = {name: [f.name for f in dataclasses.fields(getattr(hslasso, name)) if f.init]
              for name in CONFIG_FIELDS}
    assert fields == CONFIG_FIELDS


# Every iteration cap of the package, by module: a safety cap that no run
# sets, patched where a test needs it to bind.
CAPS = {"baselines": ["MAX_ITERS", "REF_MAX_ITERS"],
        "diagnostics": ["MAX_SWEEPS"],
        "homotopy": ["MAX_INNER_STEPS", "MAX_OUTER"],
        "surrogate": ["MAX_NEWTON"]}


def test_caps_are_constants():
    # BaselineConfig.max_iters and HSConfig.max_outer were caps set per
    # config, though no caller set either to anything but its default;
    # jacobi_svd's max_sweeps=60 was one set per call
    import importlib

    assert [f"{name}.{f.name}" for name in CONFIG_FIELDS
            for f in dataclasses.fields(getattr(hslasso, name)) if f.name.startswith("max_")] == []
    caps, defaulted = {}, []
    for path in sorted(Path(hslasso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = sorted(target.id for node in tree.body
                       if isinstance(node, ast.Assign) for target in node.targets
                       if isinstance(target, ast.Name) and "MAX" in target.id)
        if names:
            caps[path.stem] = names
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                with_default = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                defaulted += [f"{path.stem}.{node.name}({a.arg})"
                              for a in with_default if a.arg.startswith("max_")]
    assert caps == CAPS
    assert defaulted == []  # a cap is a module constant, not a parameter's default
    for module, names in CAPS.items():
        for name in names:
            value = getattr(importlib.import_module(f"hslasso.{module}"), name)
            assert type(value) is int and value >= 1, f"{module}.{name}"


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
               hslasso.BaselineConfig(method="ista", beta0=np.ones(2), epsilon=0.1, ref=None)]
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
STACK = (("opcount",), ("trace",), ("problem",), ("surrogate", "datagen"), ("baselines",),
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


# Definitions in src/ that no src/ or perfbench/ line calls, each with why it
# stays; a method is named with its class.
NO_CALLER = {
    "theoretical_bound": "acceptance criterion 3's envelope, documented in README",
    "cd_minimize_to_residual": "the suite's cross-check of the reference; "
                               "perfbench/tracer.py hooks it",
    "SurrogateSpec.grad": "acceptance criterion 1's derivative, named in README",
}


def test_src_defs_have_a_caller():
    # Keep in src/ only what a run reads: every top-level function and class
    # is named on some other line of src/ or perfbench/, and every method,
    # dunders aside, is read as an attribute (`.name`) outside its own body.
    # Re-exports in __init__.py are no callers.  A top-level name is matched
    # as a word, so one named only in a comment passes; a method is matched
    # by the AST, so a common name (grad, value) on other lines is no caller.
    root = Path(hslasso.__file__).parents[2]
    sources = sorted(Path(hslasso.__file__).parent.glob("*.py"))
    readers = [path for path in sources + sorted((root / "perfbench").glob("*.py"))
               if path.name != "__init__.py"]
    lines = [(path, i, line) for path in readers
             for i, line in enumerate(path.read_text().splitlines(), start=1)]
    attributes = [(path, node.lineno, node.attr) for path in readers
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)]
    uncalled = []
    for path in sources:
        tree = ast.parse(path.read_text())
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        methods = [(f"{cls.name}.{node.name}", node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        for qualname, node in defs + methods:
            name = node.name
            if name.startswith("__") and name.endswith("__") or qualname in NO_CALLER:
                continue
            if "." in qualname:  # a method
                body = range(node.lineno, node.end_lineno + 1)
                called = any(attr == name and not (p == path and i in body)
                             for p, i, attr in attributes)
            else:
                word = re.compile(rf"\b{re.escape(name)}\b")
                called = any(word.search(line) for p, i, line in lines
                             if (p, i) != (path, node.lineno))
            if not called:
                uncalled.append(f"{path.name}:{node.lineno} {qualname}")
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


def _src_lines(pattern, skip=()):
    """The lines of ``src/hslasso/*.py`` that ``pattern`` matches, the
    modules in ``skip`` aside."""
    return [f"{path.name}:{i} {line.strip()}"
            for path in sorted(Path(hslasso.__file__).parent.glob("*.py")) if path.stem not in skip
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)]


def _taking_counter(names_by_module):
    """The functions, ``module.name``, that have a ``counter`` parameter."""
    import importlib
    import inspect

    return [f"{module}.{name}" for module, names in names_by_module.items() for name in names
            if "counter" in inspect.signature(
                getattr(importlib.import_module(f"hslasso.{module}"), name)).parameters]


def test_one_charge_table():
    # Every charge is one entry of opcount.CHARGES: the step maps only
    # compute and the drivers charge their steps by count, so no second
    # copy of a charge's arithmetic can drift from the table, and each step
    # map has one path for charged and uncharged callers alike.
    assert _src_lines(COUNTER_WRITE, skip=("opcount",)) == []
    assert _taking_counter(STEP_MAPS) == []


# A counter tested against None, or typed as optional: an uncounted mode.
OPTIONAL_COUNTER = re.compile(r"counter is (not )?None|OpCounter \| None")
SOLVES = {"baselines": ("ista_solve", "fista_solve", "cd_solve", "sl_solve", "solve"),
          "homotopy": ("hs_solve",)}


def test_one_counter_owner():
    # Each solve makes its one counter and returns it on its trace; the
    # helpers it calls take that counter as a required argument, so no
    # charging function keeps a path that counts nothing.
    assert _src_lines(OPTIONAL_COUNTER) == []
    assert _taking_counter(SOLVES) == []


# Rejections of the public API that no other test reaches: each call, and a
# pattern its ValueError message must match, naming the fault
REJECTIONS = {
    "unknown simulation": (lambda: hslasso.BenchmarkGrid(sims=("sim3",)),
                           r"unknown simulation 'sim3'"),
    "unknown pattern": (lambda: hslasso.SyntheticSpec(n=5, p=3, rho=0.1, pattern="x"),
                        r"pattern must be one of"),
    "no rows": (lambda: hslasso.LassoProblem(np.zeros(0), np.zeros((0, 3)), 0.1),
                r"need n >= 1 and p >= 1"),
    "1-d svd input": (lambda: hslasso.diagnostics.jacobi_svd(np.ones(3)), r"need a 2-d matrix"),
    "wrong-length vector": (
        lambda: hslasso.prediction_error(
            hslasso.LassoProblem(np.ones(3), np.eye(3), 0.1), np.zeros(2), np.zeros(3)),
        r"coefficient vectors must have length p"),
    "zero modulus": (lambda: agd_coefficients(1.0, 0.0),
                     r"strong convexity modulus must be positive"),
    "zero level": (lambda: hslasso.homotopy.inner_tolerance(0.1, 3, 1.0, 0.0),
                   r"inner_tolerance arguments must be positive"),
    "zero epsilon": (lambda: hslasso.homotopy.outer_iteration_count(0.1, 3, 1.0, 1.0, 0.1, 0.0),
                     r"arguments must be positive"),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_public_api_rejections_name_the_fault(case):
    call, message = REJECTIONS[case]
    with pytest.raises(ValueError, match=message):
        call()
