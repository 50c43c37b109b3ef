import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from helpers import (agd_state, agd_step, inner_solve_before, make_problem, numeric_prox_argmin,
                     surrogate_grad_before, tiny_problem, trace_ops)
from hslasso import homotopy
from hslasso.baselines import reference_minimum
from hslasso.datagen import SyntheticSpec, generate
from hslasso.homotopy import (
    INNER_STOP_MODES,
    HSConfig,
    agd_coefficients,
    agd_map,
    default_iterate_bound,
    find_t0,
    hs_solve,
    initial_beta,
    inner_solve,
    inner_tolerance,
    outer_iteration_count,
)
from hslasso.opcount import CHARGES, OpCounter
from hslasso.problem import LassoProblem
from hslasso.surrogate import (
    SurrogateSpec,
    minimize_surrogate,
    smoothness_constants,
    surrogate_grad,
    surrogate_value,
)


def sim1_problem(seed=1000):
    return generate(SyntheticSpec(n=50, p=20, rho=0.1, seed=seed), lam=1e-3)


# ---------------------------------------------------------------------------
# starting level search
# ---------------------------------------------------------------------------


def test_find_t0_zero_response_hits_bisection_floor():
    pr = LassoProblem(y=np.zeros(5), X=np.eye(5), lam=0.3)
    t0 = find_t0(pr)
    assert t0 == pytest.approx(2.0**-40, rel=1e-12)


def test_find_t0_satisfies_predicate_at_return():
    rng = np.random.default_rng(0)
    pr = LassoProblem(y=50.0 * np.ones(6) + rng.standard_normal(6), X=np.eye(6), lam=0.5)
    t0 = find_t0(pr)
    shift = pr.lam * math.log1p(t0) ** 2 / (3.0 * t0**3)
    sol = pr.ridge_solver()(shift)
    assert np.max(np.abs(sol)) <= t0


def test_find_t0_predicate_ratio_vanishes_at_large_t():
    pr = make_problem(3, n=20, p=5, lam=0.1)
    prev = None
    for t in (1.0, 10.0, 100.0, 1000.0):
        shift = pr.lam * math.log1p(t) ** 2 / (3.0 * t**3)
        ratio = np.max(np.abs(pr.ridge_solver()(shift))) / t
        if prev is not None:
            assert ratio < prev
        prev = ratio
    assert prev < 1e-2


def test_find_t0_charges_setup_bucket_only():
    pr = make_problem(4)
    c = OpCounter()
    find_t0(pr, c)
    assert c.setup_ops > 0
    assert c.total() == 0


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_initial_beta_zero_response():
    pr = LassoProblem(y=np.zeros(4), X=np.eye(4), lam=0.2)
    assert np.array_equal(initial_beta(pr, 1.0), np.zeros(4))


def test_initial_beta_approaches_least_squares():
    pr = make_problem(5, n=40, p=6, lam=1e-12)
    beta_ls = np.linalg.solve(pr.gram, pr.xty)
    b0 = initial_beta(pr, 2.0)
    assert np.max(np.abs(b0 - beta_ls)) < 1e-8


def test_initial_beta_bounded_by_found_t0():
    for seed in range(6):
        pr = make_problem(seed, n=25, p=6, lam=0.05)
        t0 = find_t0(pr)
        b0 = initial_beta(pr, t0)
        assert np.max(np.abs(b0)) <= t0 * (1 + 1e-12)


def test_initial_beta_rejects_bad_t0():
    pr = make_problem(6)
    with pytest.raises(ValueError):
        initial_beta(pr, 0.0)


# ---------------------------------------------------------------------------
# inner tolerance and outer count
# ---------------------------------------------------------------------------


def test_inner_tolerance_examples():
    assert inner_tolerance(3.0, 1, 1.0, math.e - 1.0) == pytest.approx(1.0, rel=1e-14)
    assert inner_tolerance(0.1, 8, 2.0, 0.5) == pytest.approx(
        2 * inner_tolerance(0.1, 4, 2.0, 0.5))
    assert inner_tolerance(0.1, 4, 2.0, 1e-9) < 1e-18


def test_outer_iteration_count_zero_at_threshold():
    lam, p, t0, B, h = 1e-3, 20, 3.0, 10.0, 0.1
    eps = lam * p * t0 * (2 * B + 1)
    assert outer_iteration_count(lam, p, t0, B, h, eps) == 0
    assert outer_iteration_count(lam, p, t0, B, h, 10 * eps) == 0


def test_outer_iteration_count_halving_increment():
    lam, p, t0, B, h = 1e-3, 20, 3.0, 10.0, 0.1
    base_raw = -math.log(lam * p * t0 * (2 * B + 1) / 0.02) / math.log(1 - h)
    halved_raw = base_raw + math.log(2.0) / (-math.log(1 - h))
    assert outer_iteration_count(lam, p, t0, B, h, 0.01) == math.ceil(halved_raw)


def test_outer_iteration_count_matches_loop_oracle():
    lam, p, t0, B, h, eps = 1e-3, 20, 3.0, 10.0, 0.1, 0.005
    count = 0
    t = t0
    while lam * p * (2 * B + 1) * t > eps:
        t *= 1 - h
        count += 1
    assert outer_iteration_count(lam, p, t0, B, h, eps) == count


# ---------------------------------------------------------------------------
# accelerated steps
# ---------------------------------------------------------------------------


def test_agd_coefficients_follow_definitions():
    alpha, q, gamma = agd_coefficients(4.0, 1.0)
    assert alpha == 0.5
    assert q == pytest.approx((0.5 - 0.25) / 0.75)
    assert gamma == pytest.approx(0.5 / (1.0 * 0.5))
    # degenerate perfectly conditioned case
    alpha, q, gamma = agd_coefficients(2.0, 2.0)
    assert (alpha, q) == (1.0, 0.0) and math.isinf(gamma)


def test_agd_step_fixed_point():
    pair = (np.array([1.0, -2.0]), np.array([1.0, -2.0]))
    new = agd_map(4.0, 1.0, lambda v: np.zeros(2))(pair)
    assert np.allclose(new[0], pair[0])
    assert np.allclose(new[1], pair[1])


@pytest.mark.parametrize("L,mu,mults,adds", [
    (4.0, 1.0, 80, 55),
    (2.0, 2.0, 70, 50),  # gamma = inf
], ids=["momentum", "degenerate"])
def test_agd_step_charge_pinned(L, mu, mults, adds):
    # counts recorded from the per-operation charges; p = 5, so the
    # gradient alone is p*p + 4p = 45 mults, p*(p-1) + 3p = 35 adds, p cmps.
    # The table's entries against the earlier step and gradient's own charges.
    pr = make_problem(4, n=12, p=5)
    spec = SurrogateSpec(0.5)
    g = OpCounter()
    surrogate_grad_before(pr, spec, np.ones(5), g)
    assert astuple(g) == CHARGES["hs-gradient"](5) == (45, 35, 0, 5, 0)
    c = OpCounter()
    agd_step(agd_state(np.ones(5), L, mu), lambda v: surrogate_grad_before(pr, spec, v, c), c)
    name = "hs-step-plain" if math.isinf(agd_coefficients(L, mu)[2]) else "hs-step"
    assert astuple(c) == CHARGES[name](5) == (mults, adds, 0, 5, 0)


@pytest.mark.parametrize("p", [1, 5, 20])
@pytest.mark.parametrize("degenerate", [False, True], ids=["momentum", "gamma-inf"])
def test_agd_map_matches_agd_step(p, degenerate):
    # the step map against the earlier AGDState step and gradient of the
    # helpers, 30 chained steps from a pair with beta != beta_bar; the
    # earlier step's own charges against the table's
    pr = generate(SyntheticSpec(n=30, p=p, rho=0.5, seed=p), lam=0.1)
    spec = SurrogateSpec(0.3)
    L, mu = smoothness_constants(pr, spec, 10.0)
    if degenerate:
        mu = L
    assert math.isinf(agd_coefficients(L, mu)[2]) == degenerate
    rng = np.random.default_rng(p)
    beta, beta_bar = rng.standard_normal(p), rng.standard_normal(p)
    c_old = OpCounter()
    step = agd_map(L, mu, surrogate_grad(pr, spec))
    grad_old = lambda v: surrogate_grad_before(pr, spec, v, c_old)
    state = replace(agd_state(beta, L, mu), beta_bar=beta_bar.copy())
    pair = (beta, beta_bar)
    for _ in range(30):
        pair = step(pair)
        state = agd_step(state, grad_old, c_old)
        assert pair[0].tobytes() == state.beta.tobytes()
        assert pair[1].tobytes() == state.beta_bar.tobytes()
    assert c_old == OpCounter().charge("hs-step-plain" if degenerate else "hs-step", p, 30)


@pytest.mark.parametrize("degenerate", [False, True], ids=["momentum", "gamma-inf"])
def test_agd_map_writes_neither_input(degenerate):
    # criterion 4 steps from one (beta0, beta0) pair again and again
    pr = sim1_problem()
    spec = SurrogateSpec(0.05)
    L, mu = smoothness_constants(pr, spec, 10.0)
    step = agd_map(L, L if degenerate else mu, surrogate_grad(pr, spec))
    rng = np.random.default_rng(8)
    beta, beta_bar = rng.standard_normal(pr.p), rng.standard_normal(pr.p)
    saved = beta.tobytes(), beta_bar.tobytes()
    first = step((beta, beta_bar))
    assert (beta.tobytes(), beta_bar.tobytes()) == saved
    again = step((beta, beta_bar))
    assert [a.tobytes() for a in again] == [a.tobytes() for a in first]
    shared = step((beta, beta))
    assert beta.tobytes() == saved[0] and shared[0] is not beta and shared[1] is not beta


@pytest.mark.parametrize("degenerate", [False, True], ids=["momentum", "gamma-inf"])
def test_agd_map_serves_pairs_of_two_sizes(degenerate):
    # the coefficient vectors follow the pair's shape: p = 3, then 7, then 3;
    # the earlier step's update charges, plus the table's gradient, make
    # the table's step
    L, mu = (2.5, 2.5) if degenerate else (9.0, 0.3)
    grad = lambda v: 2.0 * v - 1.0  # gradient of ||b||^2 - sum(b), any size
    c_old, expected = OpCounter(), OpCounter()

    def grad_old(v):
        c_old.charge("hs-gradient", v.size)
        return grad(v)

    step = agd_map(L, mu, grad)
    rng = np.random.default_rng(9)
    for p in (3, 7, 3):
        beta, beta_bar = rng.standard_normal(p), rng.standard_normal(p)
        pair = (beta, beta_bar)
        state = replace(agd_state(beta, L, mu), beta_bar=beta_bar.copy())
        for _ in range(5):
            pair = step(pair)
            state = agd_step(state, grad_old, c_old)
            assert pair[0].tobytes() == state.beta.tobytes()
            assert pair[1].tobytes() == state.beta_bar.tobytes()
        expected.charge("hs-step-plain" if degenerate else "hs-step", p, 5)
    assert c_old == expected


def test_agd_step_gamma_mu_one_direction():
    # mu/L = 1/4 gives alpha = 1/2 and gamma*mu = 1
    L, mu = 4.0, 1.0
    gamma = agd_coefficients(L, mu)[2]
    assert gamma * mu == pytest.approx(1.0)
    g = np.array([1.0, 0.0, 0.0])
    beta, _ = agd_map(L, mu, lambda v: g)((np.zeros(3), np.zeros(3)))
    assert np.allclose(beta, -(gamma / 2.0) * g)


def test_agd_step_prox_matches_numeric_argmin():
    rng = np.random.default_rng(12)
    L, mu = 3.0, 0.4
    _, q, gamma = agd_coefficients(L, mu)
    for _ in range(5):
        beta = 0.05 * rng.standard_normal(2)
        beta_bar = 0.05 * rng.standard_normal(2)
        g = 0.05 * rng.standard_normal(2)
        mid = (1 - q) * beta_bar + q * beta
        new_beta = agd_map(L, mu, lambda v: g)((beta, beta_bar))[0]

        def prox_obj(z):
            return (gamma * (z @ g + mu * 0.5 * np.sum((z - mid) ** 2))
                    + 0.5 * np.sum((z - beta) ** 2))

        center = numeric_prox_argmin(prox_obj, np.full(2, -0.5), np.full(2, 0.5))
        assert np.max(np.abs(center - new_beta)) < 1e-8


def test_agd_descends_pure_quadratic():
    step = agd_map(1.0, 1.0, lambda v: v)  # gradient of ||b||^2 / 2
    beta_bar = step((np.array([1.0]), np.array([1.0])))[1]
    assert 0.5 * beta_bar[0] ** 2 < 0.5


def test_agd_monotone_bar_values_in_fixed_loop():
    pr = sim1_problem()
    spec = SurrogateSpec(0.5)
    step = agd_map(*smoothness_constants(pr, spec, 10.0), surrogate_grad(pr, spec))
    pair = (np.ones(pr.p), np.ones(pr.p))
    vals = [surrogate_value(pr, spec, pair[1])]
    for _ in range(80):
        pair = step(pair)
        vals.append(surrogate_value(pr, spec, pair[1]))
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# inner solve
# ---------------------------------------------------------------------------


def test_inner_solve_stops_at_entry_when_optimal():
    pr = sim1_problem()
    cfg = HSConfig(t0=1.0, inner_stop="gradient", inner_grad_tol=1e-6, B=10.0)
    # converge once, then restart from the solution
    beta1, steps1, _, _ = inner_solve(pr, 0.5, np.zeros(pr.p), cfg, B=10.0)
    assert steps1 > 0
    steps2 = inner_solve(pr, 0.5, beta1, cfg, B=10.0)[1]
    assert steps2 <= 1


def test_inner_solve_fixed_mode_runs_exact_count():
    pr = sim1_problem()
    cfg = HSConfig(t0=1.0, inner_stop="fixed", inner_fixed_count=7, B=10.0)
    steps = inner_solve(pr, 0.5, np.ones(pr.p), cfg, B=10.0)[1]
    assert steps == 7


def test_inner_solve_geometric_contraction():
    pr = sim1_problem()
    spec = SurrogateSpec(0.4)
    B = 10.0
    L, mu = smoothness_constants(pr, spec, B)
    alpha = math.sqrt(mu / L)
    beta0 = np.ones(pr.p)

    step = agd_map(L, mu, surrogate_grad(pr, spec))
    # high accuracy minimum and minimizer for the bracket
    pair = (beta0, beta0)
    for _ in range(3000):
        pair = step(pair)
    fstar = surrogate_value(pr, spec, pair[1])
    bstar = pair[1]

    gap0 = surrogate_value(pr, spec, beta0) - fstar
    first = step((beta0, beta0))
    bracket = gap0 + 0.5 * mu * float(np.sum((first[0] - bstar) ** 2))
    pair = (beta0, beta0)
    for s in range(1, 150):
        pair = step(pair)
        gap = surrogate_value(pr, spec, pair[1]) - fstar
        assert gap <= (1 - alpha) ** s * bracket + 1e-12


def test_inner_solve_theoretical_steps_scale_with_log_tolerance():
    pr = sim1_problem()
    cfg = HSConfig(t0=3.0, h=0.1, outer_stop="t-floor", tau=5e-3,
                   inner_stop="theoretical", B=10.0, max_outer=200)
    tr = hs_solve(pr, cfg, OpCounter())
    steps = np.array([r.inner_iters for r in tr.records[1:]], dtype=float)
    logs = np.array([math.log(1.0 / inner_tolerance(pr.lam, pr.p, 10.0, r.t))
                     for r in tr.records[1:]])
    c_fit = float(np.sum(steps * logs) / np.sum(logs * logs))
    assert np.all(steps <= 1.5 * c_fit * logs + 5.0)


def test_inner_solve_theoretical_stop_pinned():
    # Per-level steps and op total of the theoretical stop, recorded when its
    # uncounted oracle still ran accelerated gradient; the Newton oracle must
    # stop every level at the same step.
    pr = sim1_problem()
    cfg = HSConfig(t0=3.0, h=0.1, outer_stop="t-floor", tau=5e-3,
                   inner_stop="theoretical", B=10.0)
    counter = OpCounter()
    tr = hs_solve(pr, cfg, counter)
    assert [r.inner_iters for r in tr.records] == [0] * 31 + [1, 1, 2, 1, 2, 1] + [2] * 23 + [1]
    assert counter.total() == 66423
    assert tr.converged


def test_inner_solve_rejects_level_below_floor():
    pr = sim1_problem()
    cfg = HSConfig(t0=1.0, tau=1e-2, B=10.0)
    with pytest.raises(ValueError):
        inner_solve(pr, 1e-3, np.zeros(pr.p), cfg, B=10.0)


def assert_same_inner_solve(pr, levels, beta0, cfg, B=None):
    """inner_solve and the agd_step loop of the helpers, chained over the
    levels, give the same bytes, counts, flags and charges.  B=None leaves
    the bound to the helper's default and hands inner_solve the same value."""
    c_new, c_old = OpCounter(), OpCounter()
    b_new = b_old = beta0
    for t in levels:
        B_new = B if B is not None else default_iterate_bound(np.asarray(b_new, dtype=float))
        new = inner_solve(pr, t, b_new, cfg, c_new, B=B_new)
        old = inner_solve_before(pr, t, b_old, cfg, c_old, B)
        assert new[0].tobytes() == old[0].tobytes()
        assert new[1:] == old[1:]
        assert type(new[3]) is float
        b_new, b_old = new[0], old[0]
    assert c_new == c_old
    return c_new


@pytest.mark.parametrize("inner_stop", INNER_STOP_MODES)
@pytest.mark.parametrize("p", [1, 5, 20])
def test_inner_solve_matches_a_loop_of_agd_step(p, inner_stop):
    pr = generate(SyntheticSpec(n=30, p=p, rho=0.5, seed=p), lam=0.1)
    beta0 = initial_beta(pr, 2.0)
    for B in (None, 10.0):
        cfg = HSConfig(t0=2.0, inner_stop=inner_stop, inner_fixed_count=40,
                       inner_grad_tol=1e-6, B=B)
        c = assert_same_inner_solve(pr, (1.5, 0.4, 0.05), beta0, cfg, B)
        assert c.total() > 0


@pytest.mark.parametrize("inner_stop", INNER_STOP_MODES)
def test_inner_solve_matches_agd_step_when_gamma_is_infinite(inner_stop):
    # a scaled identity gram with B < t makes mu equal L: agd_step's exact gradient step
    rng = np.random.default_rng(0)
    pr = LassoProblem(y=rng.standard_normal(20), X=2.0 * np.eye(20), lam=0.1)
    t, B = 0.5, 0.25
    assert agd_coefficients(*smoothness_constants(pr, SurrogateSpec(t), B))[2] == math.inf
    cfg = HSConfig(t0=1.0, inner_stop=inner_stop, inner_fixed_count=9,
                   inner_grad_tol=1e-10, B=B)
    assert_same_inner_solve(pr, (t, 0.3), 0.2 * rng.standard_normal(20), cfg, B)


def test_inner_solve_peak_counts_the_averaged_iterate():
    # beta_bar is a rounded convex combination; here it tops every beta by one ulp
    pr = generate(SyntheticSpec(n=30, p=1, rho=0.5, seed=5), lam=0.1)
    spec = SurrogateSpec(0.05)
    cfg = HSConfig(t0=2.0, inner_fixed_count=400, B=10.0)
    out = inner_solve(pr, spec.t, np.zeros(1), cfg, B=10.0)
    assert out[1:] == inner_solve_before(pr, spec.t, np.zeros(1), cfg)[1:]
    step = agd_map(*smoothness_constants(pr, spec, 10.0), surrogate_grad(pr, spec))
    pair = (np.zeros(1), np.zeros(1))
    beta_peak = 0.0
    for _ in range(400):
        pair = step(pair)
        beta_peak = max(beta_peak, abs(float(pair[0][0])))
    assert out[3] > beta_peak


def test_inner_solve_matches_agd_step_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(homotopy, "MAX_INNER_STEPS", 3)
    pr = sim1_problem()
    cfg = HSConfig(t0=1.0, inner_stop="gradient", inner_grad_tol=1e-300, B=10.0)
    assert_same_inner_solve(pr, (0.5,), np.ones(pr.p), cfg, 10.0)
    assert inner_solve(pr, 0.5, np.ones(pr.p), cfg, B=10.0)[1:3] == (3, True)


# ---------------------------------------------------------------------------
# full solver
# ---------------------------------------------------------------------------


def test_hs_zero_outer_iterations_for_huge_epsilon():
    pr = sim1_problem()
    ref = reference_minimum(pr)
    cfg = HSConfig(t0=3.0, epsilon=1e9, outer_stop="oracle", ref=ref)
    tr = hs_solve(pr, cfg, OpCounter())
    assert tr.converged
    assert tr.metadata["outer_iterations"] == 0
    assert len(tr.records) == 1


def test_hs_reaches_table_scenario_precision():
    pr = sim1_problem()
    ref = reference_minimum(pr)
    cfg = HSConfig(t0=3.0, h=0.1, epsilon=0.005, outer_stop="oracle", ref=ref)
    tr = hs_solve(pr, cfg, OpCounter())
    assert tr.converged
    from hslasso.problem import lasso_objective

    assert lasso_objective(pr, tr.final_beta) - ref.f_min <= 0.005


def test_hs_t_column_exact_geometric_sequence():
    pr = sim1_problem()
    cfg = HSConfig(t0=3.0, h=0.1, outer_stop="t-floor", tau=1e-2, max_outer=500)
    tr = hs_solve(pr, cfg, OpCounter())
    expected = 3.0
    assert tr.records[0].t == expected
    for r in tr.records[1:]:
        expected *= 0.9
        assert r.t == expected  # bit-exact repeated multiplication
    assert tr.records[-1].t * 0.9 < 1e-2
    assert np.all(np.diff(trace_ops(tr)) >= 0)  # cumulative ops never decrease


def test_hs_outer_gap_envelope_floor_mode():
    pr = sim1_problem()
    ref = reference_minimum(pr)
    cfg = HSConfig(t0=3.0, h=0.1, outer_stop="t-floor", tau=1e-3,
                   inner_fixed_count=50, max_outer=500)
    tr = hs_solve(pr, cfg, OpCounter())
    B_obs = tr.metadata["max_abs_iterate"]
    for r in tr.records[1:]:
        envelope = pr.lam * pr.p * (2 * B_obs + 1) * r.t
        assert r.f_value - ref.f_min <= envelope


def test_hs_warm_start_matches_manual_chain():
    pr = sim1_problem()
    cfg = HSConfig(t0=3.0, h=0.1, outer_stop="t-floor", tau=2.0,
                   inner_stop="fixed", inner_fixed_count=3, B=10.0)
    tr = hs_solve(pr, cfg, OpCounter())
    # replicate by hand: init, then chained inner solves at t0*0.9^k
    beta = initial_beta(pr, 3.0)
    t = 3.0
    betas = []
    for _ in range(tr.metadata["outer_iterations"]):
        t *= 0.9
        beta = inner_solve(pr, t, beta, cfg, B=10.0)[0]
        betas.append(beta)
    assert np.array_equal(tr.final_beta, betas[-1])


def test_hs_violated_bound_flag():
    pr = sim1_problem()
    cfg = HSConfig(t0=3.0, h=0.1, outer_stop="t-floor", tau=1.0, B=1e-6)
    tr = hs_solve(pr, cfg, OpCounter())
    assert tr.metadata["violated_bound"]


def test_hs_max_outer_cap_flags_nonconvergence():
    pr = sim1_problem()
    ref = reference_minimum(pr)
    cfg = HSConfig(t0=3.0, h=0.1, epsilon=1e-13, outer_stop="oracle",
                   ref=ref, max_outer=2)
    tr = hs_solve(pr, cfg, OpCounter())
    assert not tr.converged
    assert tr.metadata["outer_iterations"] == 2


def test_hs_theoretical_count_mode_runs_planned_iterations():
    pr = sim1_problem()
    cfg = HSConfig(t0=3.0, h=0.1, epsilon=0.5, B=10.0,
                   outer_stop="theoretical-count", tau=1e-6, max_outer=10_000)
    tr = hs_solve(pr, cfg, OpCounter())
    planned = outer_iteration_count(pr.lam, pr.p, 3.0, 10.0, 0.1, 0.5)
    assert tr.converged
    assert tr.metadata["outer_iterations"] == planned == tr.metadata["planned_outer"]
    # what the run resolved, not an echo of its config
    assert sorted(tr.metadata) == ["B", "inner_cap_hits", "max_abs_iterate", "method",
                                   "outer_iterations", "planned_outer", "t0", "violated_bound"]


def test_hs_oracle_mode_requires_reference():
    pr = sim1_problem()
    cfg = HSConfig(t0=3.0, outer_stop="oracle")
    with pytest.raises(ValueError):
        hs_solve(pr, cfg, OpCounter())


def test_hs_auto_t0_resolution():
    pr = make_problem(15, n=25, p=5, lam=0.05)
    ref = reference_minimum(pr)
    cfg = HSConfig(t0=None, h=0.1, epsilon=0.01, outer_stop="oracle", ref=ref)
    tr = hs_solve(pr, cfg, OpCounter())
    assert tr.converged
    assert tr.metadata["t0"] > 0


def test_hs_auto_t0_keeps_no_eigenvectors_on_the_problem():
    # find_t0 and initial_beta decompose the gram per call; afterwards the
    # instance holds no p x p array but the gram itself
    pr = make_problem(16, n=12, p=20, lam=0.05)
    ref = reference_minimum(pr)
    cfg = HSConfig(t0=None, h=0.1, epsilon=0.05, outer_stop="oracle", ref=ref)
    hs_solve(pr, cfg, OpCounter())
    square = [name for name, value in vars(pr).items()
              if isinstance(value, np.ndarray) and value.shape == (pr.p, pr.p)]
    assert square == ["gram"]


def test_hs_config_validation_and_from_dict():
    with pytest.raises(ValueError):
        HSConfig(h=1.5)
    with pytest.raises(ValueError):
        HSConfig(t0=1.0, tau=2.0)
    with pytest.raises(ValueError):
        HSConfig(inner_stop="nope")
    for bad in ({"epsilon": 0.0}, {"epsilon": math.inf}, {"tau": 0.0}, {"B": -1.0}, {"B": math.inf},
                {"t0": 1e160}, {"tau": 1e-300}, {"B": 1e200}, {"B": 1e-120},
                {"outer_stop": "nope"},
                {"inner_fixed_count": 0}, {"inner_grad_tol": 0.0}, {"max_outer": 0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            HSConfig(**bad)
    # each was accepted: a count of 2.5 ran 3 steps or levels, and true was 1.0
    for bad in ({"inner_fixed_count": 2.5}, {"max_outer": 2.5}, {"inner_fixed_count": True},
                {"tau": True}, {"B": True}, {"t0": True}, {"inner_grad_tol": True},
                {"h": "0.1"}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} has the wrong type"):
            HSConfig.from_dict(bad)
    cfg = HSConfig.from_dict({"t0": "auto", "h": 0.2, "inner_stop": "gradient"})
    assert cfg.t0 is None and cfg.h == 0.2
    # a count is any integral number but a bool, NumPy's included
    cfg = HSConfig(max_outer=np.int64(10), inner_fixed_count=np.int32(5))
    assert (cfg.max_outer, cfg.inner_fixed_count) == (10, 5)
    # stored as Python numbers, so none reaches a trace or JSON file as NumPy's
    cfg = HSConfig(max_outer=np.int64(10), t0=np.float32(2.5), B=np.int64(4))
    assert [type(v) for v in (cfg.max_outer, cfg.t0, cfg.B, cfg.h)] == [int, float, float, float]
    with pytest.raises(ValueError, match="h has the wrong type"):
        HSConfig(h=10**400)  # past float range
    for bad in ({"max_outer": True}, {"max_outer": np.True_}, {"max_outer": 2.5},
                {"inner_fixed_count": np.float64(5.0)}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} has the wrong type"):
            HSConfig(**bad)
    # max_inner is the constant MAX_INNER_STEPS; the precision and the
    # reference are the caller's, not settings of a config file
    for key in ("no_such_key", "max_inner", "epsilon", "ref"):
        with pytest.raises(ValueError, match=f"no config key '{key}'"):
            HSConfig.from_dict({key: 1})
    with pytest.raises(ValueError, match="wrong type"):
        HSConfig.from_dict({"h": "0.1"})
    with pytest.raises(ValueError, match="finite"):
        HSConfig.from_dict(json.loads('{"t0": Infinity}'))
    cfg = HSConfig.from_dict(json.loads('{"t0": 2.5, "h": 0.05, "inner_fixed_count": 9}'))
    assert cfg.t0 == 2.5 and cfg.inner_fixed_count == 9


def test_default_iterate_bound():
    assert default_iterate_bound(np.array([0.0, 0.0])) == 1.0
    assert default_iterate_bound(np.array([0.3, -0.7])) == pytest.approx(7.0)
    # clamped to the least level, and named as the default when above the top
    assert default_iterate_bound(np.array([1e-120, 0.0])) == 1e-100
    with pytest.raises(ValueError, match=r"default iterate bound 10\*max\|beta0\|"):
        default_iterate_bound(np.array([1e100]))


def test_hs_solve_raises_a_tiny_default_bound_to_the_level_range():
    # the default B of 8.7e-110 failed the level range: a usage error about
    # a B that no config set
    cfg = HSConfig(t0=1.0, outer_stop="t-floor", tau=0.5)
    trace = hs_solve(tiny_problem(), cfg)
    assert trace.metadata["B"] == 1e-100
    assert trace.converged
    # with B < t, mu took B**3 (2.7e187 against L = 1.91 at t = 0.9), and
    # the 1/mu steps left final_beta at initial_beta, bit for bit
    assert not np.array_equal(trace.final_beta, initial_beta(tiny_problem(), 1.0))


# ---------------------------------------------------------------------------
# damped Newton minimizer of the smoothed objective
# ---------------------------------------------------------------------------


def _shape_problem(n, p, rho=0.1, lam=1e-3, seed=3):
    return generate(SyntheticSpec(n=n, p=p, rho=rho, sparsity=min(10, p), seed=seed), lam=lam)


@pytest.mark.parametrize("n,p", [(50, 20), (8, 12)])
def test_minimize_surrogate_matches_gradient_inner_solve(n, p):
    pr = _shape_problem(n, p, lam=0.1)
    t = 0.1
    cfg = HSConfig(t0=1.0, inner_stop="gradient", inner_grad_tol=1e-10, B=10.0)
    agd = inner_solve(pr, t, np.zeros(pr.p), cfg, B=10.0)[0]
    newton, _ = minimize_surrogate(pr, SurrogateSpec(t), np.zeros(pr.p), 1e-10, 200)
    assert np.max(np.abs(newton - agd)) <= 1e-8


def test_minimize_surrogate_commutes_with_column_sign_flips():
    base = _shape_problem(50, 80, lam=0.1)
    signs = np.random.default_rng(5).choice((-1.0, 1.0), size=base.p)
    flipped = LassoProblem(base.y, base.X * signs, base.lam)
    for t in (1.0, 1e-4):
        spec = SurrogateSpec(t)
        b, f = minimize_surrogate(base, spec, np.zeros(base.p), 1e-10, 1000)
        bf, ff = minimize_surrogate(flipped, spec, np.zeros(base.p), 1e-10, 1000)
        assert np.array_equal(bf, signs * b)
        assert ff == f


@pytest.mark.parametrize("t", [1.0, 1e-4])
@pytest.mark.parametrize("lam", [1e-3, 1.0])
@pytest.mark.parametrize("rho", [0.0, 0.9])
@pytest.mark.parametrize("n,p", [(50, 20), (50, 80)])
def test_minimize_surrogate_converges_across_designs(n, p, rho, lam, t):
    pr = _shape_problem(n, p, rho=rho, lam=lam, seed=7)
    spec = SurrogateSpec(t)
    beta, value = minimize_surrogate(pr, spec, np.zeros(pr.p), 1e-10, 1000)
    assert float(np.linalg.norm(surrogate_grad(pr, spec)(beta))) <= 1e-10
    assert value == surrogate_value(pr, spec, beta)


def test_minimize_surrogate_survives_singular_newton_system():
    # p > n with lam = 1e-3 and t = 1e-4: after a few steps most entries sit
    # on the flat outer branch, the Newton matrix is singular to working
    # precision and its solution points uphill; plain Newton stalls here.
    pr = _shape_problem(20, 40, rho=0.0, seed=3)
    spec = SurrogateSpec(1e-4)
    beta, _ = minimize_surrogate(pr, spec, np.zeros(pr.p), 1e-10, 1000)
    assert float(np.linalg.norm(surrogate_grad(pr, spec)(beta))) <= 1e-10


def test_minimize_surrogate_returns_converged_start_unchanged():
    pr = sim1_problem()
    spec = SurrogateSpec(1e-4)
    beta, value = minimize_surrogate(pr, spec, np.zeros(pr.p), 1e-10, 1000)
    again, again_value = minimize_surrogate(pr, spec, beta, 1e-10, 0)
    assert np.array_equal(again, beta) and again_value == value


def _p_gt_n_cell():
    # sim1, p > n, at the lam = 0.1 where the homotopy runs many levels
    return generate(SyntheticSpec(n=50, p=80, rho=0.1, seed=1002), lam=0.1)


def test_minimize_surrogate_stops_at_the_round_off_floor():
    # 2.74e-16 is below what this gradient resolves (its norm stalls near
    # 5e-16), so the stop must come from the round-off floor, not the cap
    pr = _p_gt_n_cell()
    spec = SurrogateSpec(1.07642e-05)
    beta, value = minimize_surrogate(pr, spec, np.zeros(pr.p), 2.74e-16, 1000)
    floor = 4.0 * np.finfo(float).eps * (pr.eig_max * np.linalg.norm(beta)
                                         + np.linalg.norm(pr.xty))
    assert float(np.linalg.norm(surrogate_grad(pr, spec)(beta))) <= floor
    assert value == surrogate_value(pr, spec, beta)


def test_hs_theoretical_inner_stop_converges_on_p_gt_n():
    # mu is ~1e-12 at the small levels, so the stop's Newton oracle is asked
    # for gradient norms below round-off (2.74e-16 at t = 1.07642e-05)
    pr = _p_gt_n_cell()
    cfg = HSConfig(t0=3, h=0.1, epsilon=1e-5, tau=1e-9, inner_stop="theoretical",
                   ref=reference_minimum(pr))
    trace = hs_solve(pr, cfg)
    assert trace.converged
    assert trace.metadata["outer_iterations"] == 123
