"""Command-line harness: generate problems, run solvers with operation
counting, run the benchmark grid, and run the verification diagnostics.

Subcommands: datagen | solve | bench | verify.
Exit codes: 0 ok, 1 finished without convergence, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines, diagnostics
from .baselines import reference_minimum
from .datagen import SyntheticSpec, generate
from .homotopy import HSConfig, hs_solve
from .opcount import OpCounter
from .problem import (
    LassoProblem,
    NumericalFailure,
    load_problem_binary,
    load_problem_json,
    save_problem_binary,
    save_problem_json,
)
from .surrogate import SurrogateSpec

DEFAULT_EPSILONS = (0.05, 0.03, 0.02, 0.01, 0.009, 0.008, 0.007, 0.006, 0.005)
DEFAULT_SCENARIOS = ((50, 20), (50, 80))
DEFAULT_METHODS = ("ista", "fista", "hs")
KNOWN_METHODS = baselines.METHODS + ("hs",)
SIM_PATTERNS = {"sim1": "dense-exp", "sim2": "sparse-exp"}
SIM_BETA0 = {"sim1": 1.0, "sim2": 0.1}  # flat starting values of the flat methods
GEN_DEFAULTS = dict(scenario="sim1", n=50, p=20, rho=0.1, snr=SyntheticSpec.snr, lam=1e-3,
                    seed=0)
# the protocol of every run, solve's, verify's and each bench cell's: the
# reference tolerance, the step cap of a flat solve and sl's smoothing
REF_TOL = 1e-10
MAX_ITERS = 200000
SL_ALPHA = 100.0
# the paper's bench protocol: fixed-count inner loop, oracle outer stop,
# and HSConfig's own h, tau and max_outer
BENCH_HS = HSConfig(t0=3.0, inner_stop="fixed", inner_fixed_count=50, outer_stop="oracle")

OPS_CSV_HEADER = "sim,n,p,method,ops_total,ops_setup,ops_mult,ops_add,ops_trans,ops_cmp"


@dataclass(frozen=True)
class BenchmarkGrid:
    """Benchmark configuration: scenarios, precision targets, methods;
    checked when built."""

    sims: tuple = tuple(SIM_PATTERNS)
    scenarios: tuple = DEFAULT_SCENARIOS
    epsilons: tuple = DEFAULT_EPSILONS
    methods: tuple = DEFAULT_METHODS
    seed: int = 0
    lam: float = GEN_DEFAULTS["lam"]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if type(self.seed) is not int or self.seed < 0:  # a bool is no seed
            raise ValueError("seed must be an int >= 0")
        if isinstance(self.lam, bool) or not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for s in self.scenarios:  # type(), not isinstance(): a bool is no size
            if not (isinstance(s, (tuple, list)) and len(s) == 2
                    and all(type(v) is int and v >= 1 for v in s)):
                raise ValueError(f"scenario {s!r} is not a pair of ints n, p >= 1")
        for name, values in (("methods", self.methods), ("sims", self.sims),
                             ("scenarios", [tuple(s) for s in self.scenarios])):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}")
        for s in self.sims:
            if s not in SIM_PATTERNS:
                raise ValueError(f"unknown simulation {s!r}")
        eps = list(self.epsilons)
        if not eps or not all(not isinstance(e, bool) and 0 < e < math.inf for e in eps):
            raise ValueError("epsilons must be positive and finite")
        if eps != sorted(set(eps), reverse=True):
            raise ValueError("epsilons must be strictly descending")


def _load_problem(path: str) -> LassoProblem:
    if path.endswith(".bin"):
        return load_problem_binary(path)
    return load_problem_json(path)


def _fmt_sig(x: float, digits: int = 12) -> str:
    return f"{x:.{digits}g}"


# ---------------------------------------------------------------------------
# datagen
# ---------------------------------------------------------------------------


def cmd_datagen(args) -> int:
    spec = SyntheticSpec(n=args.n, p=args.p, rho=args.rho, snr=args.snr,
                         pattern=SIM_PATTERNS[args.scenario], sparsity=args.sparsity,
                         seed=args.seed)
    problem = generate(spec, lam=args.lam)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = args.name
    save_problem_json(problem, out / f"{stem}.json")
    save_problem_binary(problem, out / f"{stem}.bin")
    meta = spec.metadata()
    meta["lambda"] = args.lam
    with open(out / f"{stem}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"wrote {out / (stem + '.json')}, {out / (stem + '.bin')}, {out / (stem + '.meta.json')}")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _beta0_vector(problem: LassoProblem, spec: str) -> np.ndarray:
    if spec == "zeros":
        return np.zeros(problem.p)
    if spec == "ones":
        return np.ones(problem.p)
    try:
        return float(spec) * np.ones(problem.p)
    except ValueError:
        raise ValueError(f"unknown beta0 spec {spec!r}; use zeros, ones, or a number")


def _cell_config(method, epsilon, hs, beta0):
    """The checked config of one solver run to ``epsilon``, built before the
    reference; ``hs`` is the homotopy config before its precision is set.
    The flat settings are checked for every method, as ``sl`` reads them all."""
    flat = baselines.BaselineConfig(method="sl", beta0=beta0, epsilon=epsilon,
                                    max_iters=MAX_ITERS, ref=None, sl_alpha=SL_ALPHA)
    if method == "hs":
        return replace(hs, epsilon=epsilon)
    return replace(flat, method=method, sl_alpha=SL_ALPHA if method == "sl" else None)


def _solve_cell(problem, cfg, ref):
    """Run ``cfg`` against ``ref`` with its own counter: the path of both
    ``solve`` and every ``bench`` cell."""
    counter = OpCounter()
    if isinstance(cfg, HSConfig):
        trace = hs_solve(problem, replace(cfg, outer_ref=ref), counter)
    else:
        trace = baselines.solve(problem, replace(cfg, ref=ref), counter)
    return trace, counter


def cmd_solve(args) -> int:
    hs = HSConfig()  # the HS settings come from the --hs-config file only
    if args.hs_config:
        with open(args.hs_config) as fh:
            hs = HSConfig.from_dict(json.load(fh))
    problem = _load_problem(args.input)
    cfg = _cell_config(args.method, args.epsilon, hs, _beta0_vector(problem, args.beta0))
    ref = reference_minimum(problem, REF_TOL)
    trace, counter = _solve_cell(problem, cfg, ref)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"trace_{args.method}.csv"
    trace.write_csv(trace_path)
    gap = float(trace.records[-1].f_value - ref.f_min) if trace.records else math.nan
    print(f"method={args.method} converged={trace.converged} "
          f"final_gap={_fmt_sig(gap)} ops={counter.total()} setup_ops={counter.setup_ops} "
          f"ref_dual_gap={_fmt_sig(ref.dual_gap)} trace={trace_path}")
    return 0 if trace.converged else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_cells(trace, f_min, epsilons):
    cells = []
    for eps in epsilons:
        ops = trace.first_ops_at_gap(f_min, eps)
        cells.append("" if ops is None else str(int(ops)))
    return cells


def grid_from_args(args) -> BenchmarkGrid:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    sims = tuple(SIM_PATTERNS) if args.sim == "both" else (args.sim,)
    if (args.n is None) != (args.p is None):
        raise ValueError("--n and --p must be given together")
    scenarios = DEFAULT_SCENARIOS if args.n is None else ((args.n, args.p),)
    epsilons = tuple(sorted({float(e) for e in args.epsilons}, reverse=True))
    return BenchmarkGrid(sims=sims, scenarios=scenarios, epsilons=epsilons, methods=methods,
                         seed=args.seed, lam=args.lam)


def run_bench(grid: BenchmarkGrid) -> tuple[str, str, str, dict]:
    """Run the grid; returns (table_csv, curves_csv, ops_csv, metadata).

    One run per (simulation, scenario, method) to the tightest precision;
    the looser thresholds are read off the same trace.
    """
    epsilons = list(grid.epsilons)
    tightest = min(epsilons)

    eps_headers = ",".join(f"eps_{e!r}" for e in epsilons)
    table_lines = [f"sim,n,p,method,{eps_headers}"]
    curve_lines = ["sim,n,p,method,epsilon,log10_inv_eps,ops,log10_ops"]
    ops_lines = [OPS_CSV_HEADER]
    meta: dict = {
        "epsilons": epsilons,
        "methods": list(grid.methods),
        "scenarios": [list(s) for s in grid.scenarios],
        "sims": list(grid.sims),
        "seed": grid.seed,
        "rho": GEN_DEFAULTS["rho"],
        "snr": GEN_DEFAULTS["snr"],
        "lambda": grid.lam,
        "ref_tol": REF_TOL,
        "hs": {"t0": BENCH_HS.t0, "h": BENCH_HS.h, "inner_stop": BENCH_HS.inner_stop,
               "inner_fixed": BENCH_HS.inner_fixed_count, "tau": BENCH_HS.tau},
        "sl_alpha": SL_ALPHA,
        "max_iters": MAX_ITERS,
        "seed_rule": "problem seed = seed + 1000*sim_index + scenario_index",
        "cells": {},
    }

    for sim_idx, sim in enumerate(grid.sims, start=1):
        for scen_idx, (n, p) in enumerate(grid.scenarios):
            seed = grid.seed + 1000 * sim_idx + scen_idx
            spec = SyntheticSpec(n=n, p=p, rho=GEN_DEFAULTS["rho"], snr=GEN_DEFAULTS["snr"],
                                 pattern=SIM_PATTERNS[sim], seed=seed)
            problem = generate(spec, lam=grid.lam)
            cfgs = [_cell_config(method, tightest, BENCH_HS, SIM_BETA0[sim] * np.ones(p))
                    for method in grid.methods]
            ref = reference_minimum(problem, REF_TOL)
            for method, cfg in zip(grid.methods, cfgs):
                trace, counter = _solve_cell(problem, cfg, ref)
                cells = _bench_cells(trace, ref.f_min, epsilons)
                table_lines.append(f"{sim},{n},{p},{method}," + ",".join(cells))
                for eps, cell in zip(epsilons, cells):
                    if not cell:
                        continue
                    ops = int(cell)
                    curve_lines.append(
                        f"{sim},{n},{p},{method},{eps!r},"
                        f"{_fmt_sig(math.log10(1.0 / eps))},{ops},"
                        f"{_fmt_sig(math.log10(ops)) if ops > 0 else ''}"
                    )
                ops_lines.append(f"{sim},{n},{p},{method},{counter.total()},{counter.setup_ops},"
                                 f"{counter.mults},{counter.adds},"
                                 f"{counter.transcendentals},{counter.comparisons}")
                meta["cells"][f"{sim}/n{n}p{p}/{method}"] = {
                    "seed": seed,
                    "converged": trace.converged,
                    "f_min": ref.f_min,
                    "ref_dual_gap": ref.dual_gap,
                    "ref_method": ref.method,
                    "ops_total": counter.total(),
                    "ops_setup": counter.setup_ops,
                    **({"hs_metadata": {k: trace.metadata[k] for k in
                        ("outer_iterations", "violated_bound", "max_abs_iterate")}}
                       if method == "hs" else {}),
                }
    table_csv = "\n".join(table_lines) + "\n"
    curves_csv = "\n".join(curve_lines) + "\n"
    ops_csv = "\n".join(ops_lines) + "\n"
    return table_csv, curves_csv, ops_csv, meta


def cmd_bench(args) -> int:
    table_csv, curves_csv, ops_csv, meta = run_bench(grid_from_args(args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in (("bench_table.csv", table_csv), ("bench_curves.csv", curves_csv),
                       ("bench_ops.csv", ops_csv)):
        (out / name).write_text(text)
    with open(out / "bench_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(f"wrote benchmark outputs to {out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    for t in args.levels:  # each level is checked before the reference runs
        SurrogateSpec(t)
    problem = _load_problem(args.input)
    ref = reference_minimum(problem, REF_TOL)
    sweep = diagnostics.closeness_sweep(problem, ref, tuple(args.levels))
    tol = diagnostics.default_support_tol(ref.beta_hat)
    support = diagnostics.support_set(ref.beta_hat, tol)
    report: dict = {
        "f_min": ref.f_min,
        "support": support.tolist(),
        "support_tol": tol,
        "closeness_sweep": sweep,
    }
    if 0 < support.size < problem.p:
        try:
            report["support_conditions"] = diagnostics.support_conditions_check(
                problem.X, support).to_dict()
        except ValueError as exc:
            report["support_conditions"] = {"error": str(exc)}
    else:
        report["support_conditions"] = {"error": "support empty or full; conditions undefined"}
    text = json.dumps(report, indent=2)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "verify.json"
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hslasso",
                                     description="Lasso solvers with operation-count benchmarking")
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("datagen", help="write a synthetic problem instance")
    pg.add_argument("--scenario", choices=tuple(SIM_PATTERNS))
    pg.add_argument("--n", type=int)
    pg.add_argument("--p", type=int)
    pg.add_argument("--rho", type=float)
    pg.add_argument("--snr", type=float)
    pg.add_argument("--lambda", dest="lam", type=float)
    pg.add_argument("--seed", type=int)
    pg.set_defaults(**GEN_DEFAULTS)
    pg.add_argument("--sparsity", type=int, default=None, help="default min(10, p)")
    pg.add_argument("--name", default="problem")
    pg.set_defaults(func=cmd_datagen)

    ps = sub.add_parser("solve", help="run one solver on a stored problem")
    ps.add_argument("--method", required=True, choices=KNOWN_METHODS)
    ps.add_argument("--input", required=True)
    ps.add_argument("--epsilon", type=float, default=0.005)
    ps.add_argument("--beta0", default="ones", help="zeros | ones | a flat value")
    ps.add_argument("--hs-config", help="JSON file of HS settings; default HSConfig()")
    ps.set_defaults(func=cmd_solve)

    # one protocol, BENCH_HS, MAX_ITERS, SL_ALPHA and REF_TOL; the flags pick the grid only
    pb = sub.add_parser("bench", help="run the benchmark grid")
    pb.add_argument("--scenario", "--sim", dest="sim",
                    choices=(*SIM_PATTERNS, "both"), default="both")
    pb.add_argument("--n", type=int, default=None)
    pb.add_argument("--p", type=int, default=None)
    pb.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    pb.add_argument("--epsilons", type=float, nargs="+", default=list(DEFAULT_EPSILONS))
    pb.add_argument("--lambda", dest="lam", type=float, default=BenchmarkGrid.lam)
    pb.add_argument("--seed", type=int, default=BenchmarkGrid.seed)
    pb.set_defaults(func=cmd_bench)

    pv = sub.add_parser("verify", help="closeness diagnostics on a stored problem")
    pv.add_argument("--input", required=True)
    pv.add_argument("--levels", type=float, nargs="+",
                    default=[1.0, 0.1, 0.01, 1e-3, 1e-4])
    pv.set_defaults(func=cmd_verify)
    for sp in (pg, ps, pb, pv):
        sp.add_argument("--out-dir", default="out")
        sp.allow_abbrev = False  # an unknown "--h 0.2" is not "--help"; no prefix is a flag
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # bad flags, malformed or unreadable files
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
