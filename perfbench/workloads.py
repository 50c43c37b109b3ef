"""The three workloads. Each is a closed loop with one caller: the next
request is issued when the previous one returns. Requests go through the
entry points users call, ``hslasso.run_bench`` and ``hslasso.cli.main``.

Each workload's inputs are a pure function of the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import hslasso
import hslasso.cli
import numpy as np
from hslasso import BenchmarkGrid, NumericalFailure

METHODS = ("ista", "fista", "cd", "sl", "hs")


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    artifacts: dict = field(default_factory=dict)  # file name -> text, compared byte for byte
    ops: dict = field(default_factory=lambda: {m: 0 for m in METHODS})
    ops_setup: int = 0
    failures: list = field(default_factory=list)  # why attempts failed
    problems: list = field(default_factory=list)  # output checks that failed


class GridWorkload:
    """``run_bench`` over one or more grids; one attempt per solver cell."""

    def __init__(self, grids):
        self.grids = grids
        self.epsilons = tuple(sorted({e for g in grids for e in g.epsilons}, reverse=True))
        # A reference may be off by at most 0.1% of the tightest precision.
        self.ref_gap_tol = 1e-3 * min(self.epsilons)

    def prepare(self) -> None:
        for g in self.grids:
            g.validate()

    def run(self) -> PassResult:
        res = PassResult()
        for g in self.grids:
            cells = len(g.sims) * len(g.scenarios) * len(g.methods)
            res.attempted += cells
            try:
                table_csv, _, ops_csv, meta = hslasso.run_bench(g)
            except NumericalFailure as exc:
                res.failed += cells
                res.failures.append(f"grid seed {g.seed}: numerical failure: {exc}")
                continue
            for cell, info in meta["cells"].items():
                if not info["converged"]:
                    res.failed += 1
                    res.failures.append(f"grid seed {g.seed}: {cell} did not converge")
            res.artifacts[f"grid{g.seed}/bench_table.csv"] = table_csv
            res.artifacts[f"grid{g.seed}/bench_ops.csv"] = ops_csv
            for line in ops_csv.strip().split("\n")[1:]:
                _, _, _, method, total, setup, *_ = line.split(",")
                res.ops[method] += int(total)
                res.ops_setup += int(setup)
        return res


def paper_grid(seed: int) -> GridWorkload:
    # The paper's table: the default grid (grid seed 0), every method. The
    # seed only orders the methods: varying the problems would vary the
    # cost, as one default grid took 20-120 s across grid seeds 0-5 (the CD
    # reference on the p=80 cells making the difference).
    order = np.random.default_rng(seed).permutation(len(METHODS))
    return GridWorkload([BenchmarkGrid(methods=tuple(METHODS[i] for i in order))])


# run_bench seeds a problem as grid seed + 1000*sim + scenario index, so
# grid seeds one apart would share problems across shapes; step by 10.
DEEP_GRID_SEEDS = tuple(range(0, 80, 10))


def homotopy_deep(seed: int) -> GridWorkload:
    # lam=0.1 makes the homotopy loop run (tens of levels). sl is left out:
    # with alpha=100 its smoothing bias lam*p*2ln2/alpha is 0.03-0.11, above
    # every eps here, so it would only run to max_iters. The seed orders
    # the requests; the problems stay fixed, because their cost varies
    # with the grid seed by more than any bound could absorb.
    order = np.random.default_rng(seed).permutation(len(DEEP_GRID_SEEDS))
    return GridWorkload([
        BenchmarkGrid(scenarios=((50, 20), (100, 50), (50, 80)), epsilons=(1e-2, 1e-3, 1e-4),
                      methods=("ista", "fista", "cd", "hs"), lam=0.1,
                      seed=DEEP_GRID_SEEDS[i])
        for i in order
    ])


class VerifyWorkload:
    """``hslasso verify --input <file>`` per stored problem; one attempt
    per request.

    The six problems are drawn as run_bench draws grid seed 0. The seed
    flips the signs of their columns and orders the requests. A sign flip
    is exact in floating point and every solver here, started from zero,
    commutes with it, so each seed writes different files that take the
    same steps. (Permuting rows instead changed the rounding of X'X and
    moved the sweep's step count by up to 6%.)
    """

    epsilons = ()
    shapes = ((50, 20), (100, 50), (50, 80))
    lam = 0.1
    # A reference off by gap g moves a reported prediction error by at most
    # 2g; the sweep's smallest errors are ~5e-8, so 2g stays under a fifth.
    ref_gap_tol = 5e-9

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.inputs: list[Path] = []

    def prepare(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for sim_idx, sim in enumerate(("sim1", "sim2"), start=1):
            for scen_idx, (n, p) in enumerate(self.shapes):
                spec = hslasso.SyntheticSpec(
                    n=n, p=p, rho=0.1, snr=3.0, pattern=hslasso.cli.SIM_PATTERNS[sim],
                    sparsity=min(10, p), seed=1000 * sim_idx + scen_idx)
                base = hslasso.generate(spec, lam=self.lam)
                signs = rng.choice((-1.0, 1.0), size=p)
                problem = hslasso.LassoProblem(base.y, base.X * signs, self.lam)
                path = self.work_dir / f"{sim}_n{n}p{p}.json"
                hslasso.save_problem_json(problem, path)
                self.inputs.append(path)
        self.inputs = [self.inputs[i] for i in rng.permutation(len(self.inputs))]

    def run(self) -> PassResult:
        res = PassResult()
        for path in self.inputs:
            out_dir = self.work_dir / path.stem
            res.attempted += 1
            with contextlib.redirect_stdout(io.StringIO()):
                code = hslasso.cli.main(["verify", "--input", str(path), "--out-dir", str(out_dir)])
            if code != 0:
                res.failed += 1
                res.failures.append(f"verify {path.name}: exit code {code}")
                continue
            text = (out_dir / "verify.json").read_text()
            res.artifacts[f"{path.stem}/verify.json"] = text
            res.problems.extend(f"verify {path.name}: {p}" for p in check_verify(json.loads(text)))
        return res


def check_verify(report: dict) -> list[str]:
    problems = []
    sweep = report.get("closeness_sweep") or []
    if not sweep:
        problems.append("no closeness sweep rows")
    for row in sweep:
        if not all(math.isfinite(row[k]) for k in ("t", "prediction_error", "estimation_error")):
            problems.append(f"non-finite sweep row {row}")
    block = report.get("support_conditions")
    if not isinstance(block, dict) or "error" in block:
        problems.append(f"no support-condition block: {block}")
    elif not all(math.isfinite(block[k]) for k in
                 ("frob_pinv_s", "frob_pinv_sc", "sigma_max_s1", "sigma_min_s2")):
        problems.append(f"non-finite support conditions {block}")
    return problems


WORKLOADS = {
    "paper-grid": lambda seed, work_dir: paper_grid(seed),
    "homotopy-deep": lambda seed, work_dir: homotopy_deep(seed),
    "closeness-verify": VerifyWorkload,
}
