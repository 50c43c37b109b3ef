from dataclasses import astuple, replace

import numpy as np
import pytest

from helpers import count_ops, make_problem, trace_ops
from hslasso import baselines
from hslasso.baselines import BaselineConfig, ista_solve, reference_minimum
from hslasso.homotopy import agd_coefficients, agd_map, ridge_start
from hslasso.opcount import CHARGES, OpCounter
from hslasso.problem import LassoProblem
from hslasso.surrogate import SurrogateSpec, smoothness_constants, surrogate_grad


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


# ---------------------------------------------------------------------------
# the charges against the arithmetic numpy performs
# ---------------------------------------------------------------------------


def _cd_setup_ops(pr, beta, _):
    setup, (xtx, _) = count_ops(baselines._cd_setup, pr)
    start, _ = count_ops(np.matmul, xtx, beta)
    return replace(start, setup_ops=setup.total())


def _cd_sweep_ops(pr, *_):
    # from zero at this lambda every coordinate moves, so each runs its axpy
    xtx, data = baselines._cd_setup(pr)
    zero = np.zeros(pr.p)
    return count_ops(baselines._cd_sweep, zero, data, xtx @ zero)[0]


def _probe_ops(pr, *_):
    _, solve = count_ops(LassoProblem.ridge_solver, pr)
    probe, _ = count_ops(lambda: float(np.max(np.abs(solve(1e-3)))) <= 0.5)
    return OpCounter(setup_ops=probe.total())


_SPEC = SurrogateSpec(0.5)


def _hs_ops(L, mu):
    return lambda pr, beta, other: count_ops(
        lambda q, pair: agd_map(L, mu, surrogate_grad(q, _SPEC))(pair), pr, (beta, other))[0]


# CHARGES name -> the tally of one run of what it charges, on (problem,
# iterate, second iterate); an entry with no array work tallies nothing
AUDITED = {
    "prox-grad-setup": lambda pr, *_: count_ops(baselines._prox_grad_setup, pr)[0],
    "prox-grad": lambda pr, beta, _: count_ops(
        lambda q, b: baselines._prox_grad_step(q, b, *baselines._prox_grad_setup(q)), pr, beta)[0],
    "fista": lambda pr, beta, other: count_ops(
        lambda q, s: baselines._fista_step(q, *baselines._prox_grad_setup(q), s), pr,
        (beta, other, 2.0))[0],
    "cd-setup": _cd_setup_ops,
    "cd": _cd_sweep_ops,
    "sl-setup": lambda *_: OpCounter(),  # the step size, in Python floats
    "sl": lambda pr, beta, other: count_ops(
        lambda q, s: baselines._sl_step(q, baselines.SL_ALPHA, 0.01, s), pr, (beta, other, 3))[0],
    "hs-gradient": lambda pr, beta, _: count_ops(
        lambda q, b: surrogate_grad(q, _SPEC)(b), pr, beta)[0],
    "hs-step": _hs_ops(4.0, 0.5),
    "hs-step-plain": _hs_ops(1.0, 1.0),  # L == mu: gamma = inf
    "hs-grad-stop": lambda pr, beta, _: count_ops(
        lambda q, b: float(np.linalg.norm(surrogate_grad(q, _SPEC)(b))) <= 1e-8, pr, beta)[0],
    "hs-shrink": lambda *_: OpCounter(),  # t * (1 - h), in Python floats
    "hs-level": lambda pr, *_: count_ops(
        lambda q: agd_coefficients(*smoothness_constants(q, _SPEC, 1.0)), pr)[0],
    "ridge-start": lambda pr, *_: count_ops(lambda q: ridge_start(q, 3.0, OpCounter()), pr)[0],
    "find-t0-probe": _probe_ops,
}


def _scalar(*ops):
    return lambda p: (*ops, 0, 0, 0, 0, 0)[:5]


SIGN_MULTIPLY = lambda p: (-p, 0, 0, 0, 0)
BRANCH_TEST = lambda p: (0, 0, 0, -p, 0)

# CHARGES name -> {why the charge differs from the tally: p -> its part of
# charge - tally}; the parts of an entry add up to the whole difference
ADJUSTMENTS = {
    "prox-grad-setup": {"lambda / L in Python floats": _scalar(1)},
    "prox-grad": {"the soft threshold's sign(z) * max(|z| - thr, 0) multiply is one of "
                  "its 2 comparisons": SIGN_MULTIPLY},
    "fista": {"the soft threshold's sign multiply, as in prox-grad": SIGN_MULTIPLY,
              "the momentum and its weight in Python floats": _scalar(3, 2, 1)},
    "cd-setup": {"n * lambda in a Python float": _scalar(1),
                 "the zero-column check, p comparisons and p - 1 ors, is validation":
                     lambda p: (0, 0, 0, 0, 1 - 2 * p)},
    "cd": {"each coordinate's partial residual, threshold, division and step in Python "
           "floats": lambda p: (2 * p, 4 * p, 0, 2 * p, 0)},
    "sl-setup": {"the step 1 / (eig_max + lambda alpha / 2) in Python floats": _scalar(2, 1)},
    "sl": {"the momentum weight (k - 2) / (k + 1) in Python floats": _scalar(1, 2)},
    "hs-gradient": {"the derivative compares |x| with t twice per entry, in the max and the "
                    "branch mask; one branch comparison is charged": BRANCH_TEST},
    "hs-step": {"the gradient's two branch comparisons": BRANCH_TEST},
    "hs-step-plain": {"the gradient's two branch comparisons": BRANCH_TEST},
    "hs-grad-stop": {"the gradient's two branch comparisons": BRANCH_TEST,
                     "np.linalg.norm takes a plain view: p mults, p - 1 adds, 1 sqrt":
                         lambda p: (p, p - 1, 1, 0, 0),
                     "the stop test in a Python float": _scalar(0, 0, 0, 1)},
    "hs-shrink": {"t * (1 - h) in Python floats": _scalar(1)},
    "hs-level": {"the level's constants in Python floats": _scalar(10, 4, 2)},
    "ridge-start": {"log(1 + t0) and the shift in Python floats": _scalar(2, 0, 1),
                    "eigh returns its eigenvalues as a plain array, so the shift's add is "
                    "not seen": lambda p: (0, p, 0, 0, 0)},
    "find-t0-probe": {"the shift's add on eigh's plain eigenvalues, as in ridge-start":
                          lambda p: (0, 0, 0, 0, p),
                      "the probe's max |b| reduction is a bound test, not charged":
                          lambda p: (0, 0, 0, 0, 1 - p)},
}


@pytest.mark.parametrize("p", [3, 20])
def test_each_charge_is_the_tally_plus_its_named_adjustments(p):
    # every entry of the one charge table, against the elements numpy's
    # ufuncs compute in what it charges; no charge changes here
    assert list(AUDITED) == list(ADJUSTMENTS) == list(CHARGES)
    pr = make_problem(0, n=30, p=p, lam=1e-3)
    rng = np.random.default_rng(0)
    beta, other = rng.standard_normal(p), rng.standard_normal(p)
    for name, charge in CHARGES.items():
        tally = astuple(AUDITED[name](pr, beta, other))
        adjusted = [sum(parts) for parts in zip(tally, *(adjust(p) for adjust in
                                                         ADJUSTMENTS[name].values()))]
        assert tuple(adjusted) == charge(p), name


def test_count_ops_tallies_by_ufunc_class():
    a = np.arange(6.0).reshape(2, 3)
    ops, result = count_ops(lambda m, v: np.tanh(np.maximum(m @ v, 1.0) - v[:2]).sum(),
                            a, np.ones(3))
    assert astuple(ops) == (6, 4 + 2 + 1, 2, 2, 0)
    assert result == pytest.approx(np.tanh(np.maximum(a @ np.ones(3), 1.0) - 1.0).sum())
    with pytest.raises(KeyError, match="arctan"):
        count_ops(np.arctan, np.ones(2))
