from dataclasses import astuple

import numpy as np

from helpers import make_problem, trace_ops
from hslasso import baselines
from hslasso.baselines import BaselineConfig, ista_solve, reference_minimum
from hslasso.opcount import OpCounter


def test_setup_excluded_from_total():
    c = OpCounter()
    c.setup_ops += 1000
    c.mults += 3
    c.adds += 3
    assert c.setup_ops == 1000
    assert c.total() == 6
    c.transcendentals += 1
    c.comparisons += 1
    assert c.total() == 8 and astuple(c) == (3, 3, 1, 1, 1000)


def test_counters_never_decrease_across_solver_run(monkeypatch):
    pr = make_problem(0)
    ref = reference_minimum(pr)
    monkeypatch.setattr(baselines, "MAX_ITERS", 500)
    trace = ista_solve(pr, BaselineConfig("ista", np.ones(pr.p), 1e-6, ref))
    ops = trace_ops(trace)
    assert np.all(np.diff(ops) >= 0)


def test_ista_iteration_charge_constant_and_deterministic(monkeypatch):
    pr = make_problem(1, n=30, p=20)
    ref = reference_minimum(pr)
    monkeypatch.setattr(baselines, "MAX_ITERS", 200)

    def run():
        tr = ista_solve(pr, BaselineConfig("ista", np.ones(20), 1e-9, ref))
        return tr, tr.counter

    tr1, c1 = run()
    tr2, c2 = run()
    assert astuple(c1) == astuple(c2)  # determinism
    deltas = np.diff(trace_ops(tr1))
    assert len(set(deltas.tolist())) == 1  # constant per-iteration cost
    # per-iterate delta ~ p(2p-1) + O(p)
    p = 20
    assert p * (2 * p - 1) <= deltas[0] <= p * (2 * p - 1) + 10 * p


def test_additivity_of_per_iteration_deltas(monkeypatch):
    pr = make_problem(2, p=6)
    ref = reference_minimum(pr)
    monkeypatch.setattr(baselines, "MAX_ITERS", 300)
    tr = ista_solve(pr, BaselineConfig("ista", np.ones(6), 1e-8, ref))
    ops = trace_ops(tr)
    total_from_deltas = ops[0] + np.sum(np.diff(ops))
    assert total_from_deltas == tr.counter.total()
