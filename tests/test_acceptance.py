"""Acceptance suite: one test per criterion, with a visible pass/fail line
each and the stated runtime budgets enforced.

Run with ``pytest tests/test_acceptance.py -v`` (lines go to stderr) or as
a script: ``python tests/test_acceptance.py``.
"""

import math
import sys
import time

import numpy as np
import pytest

from helpers import (
    grid_refine,
    grid_search_2d,
    identity_closed_form,
    identity_problem,
    make_problem,
    numeric_prox_argmin,
)
from hslasso.baselines import (
    BaselineConfig,
    cd_solve,
    fista_solve,
    ista_solve,
    reference_minimum,
    sl_solve,
    theoretical_bound,
)
from hslasso.cli import BenchmarkGrid, run_bench
from hslasso.datagen import SyntheticSpec, generate
from hslasso.diagnostics import (
    prediction_error,
    support_conditions_check,
    surrogate_minimizer,
)
from hslasso.homotopy import (
    HSConfig,
    agd_coefficients,
    agd_map,
    hs_solve,
)
from hslasso.opcount import OpCounter
from hslasso.surrogate import SurrogateSpec, smoothness_constants, surrogate_grad, surrogate_value


ACCEPTANCE_LINES = []


def announce(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def finish(num, name, ok, detail, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = f", {elapsed:.1f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    announce(f"ACCEPTANCE {num} [{name}]: {status} ({detail}{extra})")
    assert ok, f"criterion {num} ({name}): {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded runtime budget"


BENCH_GRID = BenchmarkGrid(seed=0)

_bench_cache = {}


def bench_once():
    if "run" not in _bench_cache:
        _bench_cache["run"] = run_bench(BENCH_GRID)
    return _bench_cache["run"]


def test_criterion_1_surrogate_calculus():
    start = time.time()
    ok = True
    details = []
    for t in (10.0, 1.0, 0.1, 0.01, 0.001):
        s = SurrogateSpec(t)
        # branch continuity in value and derivative
        below, above = t * (1 - 1e-13), t * (1 + 1e-13)
        scale_v = max(1.0, abs(s.value(t)))
        scale_g = max(1.0, abs(s.grad(t)))
        ok &= abs(s.value(below) - s.value(above)) < 1e-12 * scale_v
        ok &= abs(s.grad(below) - s.grad(above)) < 1e-12 * scale_g
        # vectorized central differences at 1000 points, branch point excluded
        rng = np.random.default_rng(int(1000 * t) + 1)
        xs = rng.uniform(-3 * max(t, 1.0), 3 * max(t, 1.0), 1000)
        xs = xs[np.abs(np.abs(xs) - t) > 1e-4]
        h = 1e-6
        fd = (s.value(xs + h) - s.value(xs - h)) / (2 * h)
        g = s.grad(xs)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-9)
        ok &= bool(np.all(rel < 1e-6))
        # sandwich on 10^4-point grids
        for B in (1.0, 2.0, 10.0):
            if B < t:
                continue
            grid = np.linspace(-B, B, 10_000)
            gap = s.value(grid) - np.abs(grid)
            lower = s.value(B) - B
            ok &= bool(np.all(gap <= 1e-12) and np.all(gap >= lower - 1e-12))
            details.append(f"t={t},B={B}")
    finish(1, "surrogate calculus", ok,
           f"continuity/FD/sandwich over {len(details)} (t,B) cells",
           time.time() - start, budget=5.0)


def test_criterion_2_oracle_equivalence():
    start = time.time()
    worst_grid = 0.0
    count = 0
    for seed in range(15):  # exhaustive 1e-3 grid over [-3,3]^2
        pr = make_problem(200 + seed, n=10, p=2, lam=0.1 + 0.02 * seed)
        ref = reference_minimum(pr, 1e-10)
        best, _ = grid_search_2d(pr)
        worst_grid = max(worst_grid, abs(ref.f_min - best))
        count += 1
    for seed in range(35):  # multiresolution refinement for p = 3
        pr = make_problem(300 + seed, n=12, p=3, lam=0.08 + 0.01 * seed)
        ref = reference_minimum(pr, 1e-10)
        best, _ = grid_refine(pr)
        worst_grid = max(worst_grid, abs(ref.f_min - best))
        count += 1
    worst_id = 0.0
    for seed in range(10):  # identity designs against the closed form
        rng = np.random.default_rng(400 + seed)
        n = 5 + seed
        y = 2.0 * rng.standard_normal(n)
        lam = 0.02 + 0.01 * seed
        pr = identity_problem(y, lam)
        ref = reference_minimum(pr, 1e-10)
        expected = identity_closed_form(y, n, lam)
        worst_id = max(worst_id, float(np.max(np.abs(ref.beta_hat - expected))))
    ok = worst_grid < 1e-5 and worst_id < 1e-8
    finish(2, "oracle equivalence", ok,
           f"{count} grid instances (worst |df|={worst_grid:.2e}), "
           f"10 identity instances (worst |dbeta|={worst_id:.2e})",
           time.time() - start, budget=30.0)


def test_criterion_3_bound_dominance():
    start = time.time()
    solvers = (("ista", ista_solve, None), ("fista", fista_solve, None),
               ("cd", cd_solve, None), ("sl", sl_solve, 100.0))
    worst = -np.inf
    ok = True
    for seed in range(20):
        pr = generate(SyntheticSpec(n=50, p=20, rho=0.1, seed=seed), lam=1e-3)
        ref = reference_minimum(pr, 1e-10)
        beta0 = np.ones(20)
        for method, solver, alpha in solvers:
            cfg = BaselineConfig(method=method, beta0=beta0, epsilon=1e-30,
                                 max_iters=5000, ref=ref, sl_alpha=alpha)
            tr = solver(pr, cfg)
            f = tr.f_values()
            ks = np.arange(1, len(f))
            bounds = np.array([theoretical_bound(method, int(k), pr, beta0, ref)
                               for k in ks])
            excess = float(np.max(f[1:] - ref.f_min - bounds))
            worst = max(worst, excess)
            ok &= excess <= 1e-9
    finish(3, "theoretical-bound dominance", ok,
           f"20 instances x 4 methods x 5000 iters, worst excess {worst:.2e}",
           time.time() - start, budget=60.0)


def test_criterion_4_agd_contraction_and_prox():
    start = time.time()
    ok = True
    worst_margin = -np.inf
    for seed in range(10):
        pr = generate(SyntheticSpec(n=50, p=20, rho=0.1, seed=500 + seed), lam=1e-3)
        spec = SurrogateSpec(0.4 + 0.05 * seed)
        cons = smoothness_constants(pr, spec, 10.0)
        alpha = math.sqrt(cons.mu / cons.L)
        beta0 = np.ones(20)
        step = agd_map(cons, lambda v: surrogate_grad(pr, spec, v))
        pair = (beta0, beta0)
        for _ in range(3000):
            pair = step(pair)
        fstar = surrogate_value(pr, spec, pair[1])
        bstar = pair[1]
        gap0 = surrogate_value(pr, spec, beta0) - fstar
        first = step((beta0, beta0))
        bracket = gap0 + 0.5 * cons.mu * float(np.sum((first[0] - bstar) ** 2))
        pair = (beta0, beta0)
        for s in range(1, 120):
            pair = step(pair)
            gap = surrogate_value(pr, spec, pair[1]) - fstar
            margin = gap - (1 - alpha) ** s * bracket
            worst_margin = max(worst_margin, margin)
            ok &= margin <= 1e-12

    # prox closed form against the numeric argmin
    rng = np.random.default_rng(77)
    from hslasso.surrogate import SmoothnessConstants

    cons = SmoothnessConstants(L=3.0, mu=0.4, kappa=7.5)
    _, q, gamma = agd_coefficients(cons)
    worst_prox = 0.0
    for _ in range(5):
        beta = 0.05 * rng.standard_normal(2)
        beta_bar = 0.05 * rng.standard_normal(2)
        g = 0.05 * rng.standard_normal(2)
        mid = (1 - q) * beta_bar + q * beta
        new_beta = agd_map(cons, lambda v: g)((beta, beta_bar))[0]

        def prox_obj(z):
            return (gamma * (z @ g + cons.mu * 0.5 * np.sum((z - mid) ** 2))
                    + 0.5 * np.sum((z - beta) ** 2))

        center = numeric_prox_argmin(prox_obj, np.full(2, -0.5), np.full(2, 0.5))
        worst_prox = max(worst_prox, float(np.max(np.abs(center - new_beta))))
    ok &= worst_prox < 1e-8
    finish(4, "inner-loop contraction", ok,
           f"10 instances, worst contraction margin {worst_margin:.2e}; "
           f"prox argmin mismatch {worst_prox:.2e}",
           time.time() - start)


def test_criterion_5_hs_end_to_end():
    start = time.time()
    pr = generate(SyntheticSpec(n=50, p=20, rho=0.1, seed=1000), lam=1e-3)
    ref = reference_minimum(pr, 1e-10)

    oracle_cfg = HSConfig(t0=3.0, h=0.1, epsilon=0.005, outer_stop="oracle",
                          outer_ref=ref, inner_stop="fixed", inner_fixed_count=50)
    tr = hs_solve(pr, oracle_cfg, OpCounter())
    from hslasso.problem import lasso_objective

    gap = lasso_objective(pr, tr.final_beta) - ref.f_min
    ok = tr.converged and gap <= 0.005

    # level column and precision envelope on a run driven to the floor
    floor_cfg = HSConfig(t0=3.0, h=0.1, outer_stop="t-floor", tau=1e-3,
                         inner_stop="fixed", inner_fixed_count=50, max_outer=500)
    tr2 = hs_solve(pr, floor_cfg, OpCounter())
    expected_t = 3.0
    t_exact = tr2.records[0].t == 3.0
    for r in tr2.records[1:]:
        expected_t *= 0.9
        t_exact &= r.t == expected_t
    ok &= t_exact
    B_obs = tr2.metadata["max_abs_iterate"]
    env_ok = all(r.f_value - ref.f_min <= pr.lam * pr.p * (2 * B_obs + 1) * r.t
                 for r in tr2.records[1:])
    ok &= env_ok and len(tr2.records) > 50
    finish(5, "homotopy end-to-end", ok,
           f"oracle gap {gap:.2e}, t-column exact {t_exact}, envelope at "
           f"{len(tr2.records) - 1} levels with B={B_obs:.2f}",
           time.time() - start, budget=30.0)


def _cell_slope(curve_rows, sim, n, p, method):
    xs, ys = [], []
    for row in curve_rows:
        f = row.split(",")
        if f[0] == sim and f[1] == str(n) and f[2] == str(p) and f[3] == method:
            xs.append(float(f[5]))
            ys.append(float(f[7]))
    A = np.vstack([np.array(xs), np.ones(len(xs))]).T
    return float(np.linalg.lstsq(A, np.array(ys), rcond=None)[0][0])


def test_criterion_6_benchmark_trends():
    start = time.time()
    table_csv, curves_csv, _, meta = bench_once()
    rows = table_csv.strip().split("\n")
    header = rows[0].split(",")
    eps_cols = [float(c[len("eps_"):]) for c in header[4:]]
    cells = {}
    for line in rows[1:]:
        f = line.split(",")
        cells[(f[0], int(f[1]), int(f[2]), f[3])] = [
            int(v) if v else None for v in f[4:]]

    ordering_ok = True
    for sim in ("sim1", "sim2"):
        for (n, p) in ((50, 20), (50, 80)):
            for j, eps in enumerate(eps_cols):
                if eps > 0.01:
                    continue
                hs = cells[(sim, n, p, "hs")][j]
                fi = cells[(sim, n, p, "fista")][j]
                ist = cells[(sim, n, p, "ista")][j]
                ordering_ok &= (hs is not None and fi is not None and ist is not None
                                and hs <= fi < ist)

    curve_rows = curves_csv.strip().split("\n")[1:]
    slope_ok = True
    ratios = []
    for sim in ("sim1", "sim2"):
        si = np.mean([_cell_slope(curve_rows, sim, 50, pp, "ista") for pp in (20, 80)])
        sf = np.mean([_cell_slope(curve_rows, sim, 50, pp, "fista") for pp in (20, 80)])
        ratios.append(si / sf)
        slope_ok &= si >= 1.5 * sf
    ok = ordering_ok and slope_ok
    finish(6, "benchmark trend reproduction", ok,
           f"ordering hs<=fista<ista at eps<=0.01 on 4 cells: {ordering_ok}; "
           f"ista/fista slope ratios per sim {[f'{r:.2f}' for r in ratios]}",
           time.time() - start, budget=300.0)


def test_criterion_7_diagnostics():
    start = time.time()
    worst = 0.0
    for seed in range(10):
        pr = generate(SyntheticSpec(n=50, p=20, rho=0.1, seed=seed), lam=1e-3)
        ref = reference_minimum(pr, 1e-10)
        bt = surrogate_minimizer(pr, 1e-4)
        worst = max(worst, prediction_error(pr, bt, ref.beta_hat))
    ok = worst < 1e-6

    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((8, 5)))
    rep_good = support_conditions_check(q, [0, 1])
    X_bad = q.copy()
    X_bad[:, 2] = X_bad[:, 0]
    rep_bad = support_conditions_check(X_bad, [0, 1])
    ok &= rep_good.condition3_holds and not rep_bad.condition3_holds
    finish(7, "closeness diagnostics", ok,
           f"worst prediction error at t=1e-4: {worst:.2e}; condition flag "
           f"orthogonal={rep_good.condition3_holds}, adversarial={rep_bad.condition3_holds}",
           time.time() - start)


def test_criterion_8_benchmark_determinism():
    start = time.time()
    table1, curves1, ops1, _ = bench_once()
    table2, curves2, ops2, _ = run_bench(BenchmarkGrid(seed=0))
    ok = (table1.encode() == table2.encode()
          and curves1.encode() == curves2.encode()
          and ops1.encode() == ops2.encode())
    finish(8, "benchmark determinism", ok,
           "re-run produced byte-identical table, curve, and ops CSVs",
           time.time() - start, budget=300.0)


if __name__ == "__main__":
    rc = pytest.main([__file__, "-v"])
    sys.exit(rc)
