import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bench_problems,
    cd_sweep_before,
    cd_sweep_per_op,
    central_diff,
    f_values,
    identity_closed_form,
    identity_problem,
    make_problem,
    minimize_surrogate_before,
    minimize_to_residual_before,
    soft_threshold,
    trace_ops,
)
from hslasso import baselines, surrogate
from hslasso.baselines import (
    METHODS,
    SL_ALPHA,
    BaselineConfig,
    _cd_data,
    _cd_sweep,
    cd_minimize_to_residual,
    cd_solve,
    fista_minimize_to_residual,
    fista_solve,
    ista_solve,
    reference_minimum,
    sl_penalty_grad,
    sl_solve,
    solve,
    support_kkt_solution,
    theoretical_bound,
)
from hslasso.datagen import SyntheticSpec, generate
from hslasso.homotopy import HSConfig, hs_solve, inner_solve, ridge_start
from hslasso.opcount import CHARGES, OpCounter
from hslasso.surrogate import SurrogateSpec, minimize_surrogate
from hslasso.problem import (
    LassoProblem,
    NumericalFailure,
    ReferenceSolution,
    lasso_objective,
    subgradient_residual,
)


def test_soft_threshold_values():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


@given(st.floats(-5.0, 5.0), st.floats(0.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_soft_threshold_is_prox(x, alpha):
    z = soft_threshold(x, alpha)
    grid = np.linspace(x - 2 * alpha - 1, x + 2 * alpha + 1, 4001)
    vals = 0.5 * (grid - x) ** 2 + alpha * np.abs(grid)
    best = grid[np.argmin(vals)]
    res = grid[1] - grid[0]
    assert abs(z - best) <= res + 1e-12


def _cfg(method, pr, ref, eps=1e-8, beta0=None):
    b0 = np.ones(pr.p) if beta0 is None else beta0
    return BaselineConfig(method=method, beta0=b0, epsilon=eps, ref=ref)


def test_validation():
    pr = make_problem(0)
    ref = reference_minimum(pr)
    with pytest.raises(ValueError):
        _cfg("nope", pr, ref)
    for bad in (np.nan, np.inf):
        beta0 = np.ones(pr.p)
        beta0[1] = bad
        with pytest.raises(ValueError, match="beta0 must be finite"):
            _cfg("fista", pr, ref, beta0=beta0)
        with pytest.raises(ValueError, match="epsilon"):
            _cfg("fista", pr, ref, eps=bad)
    # ran at epsilon 1.0: a bool is no number
    for bad in (True, "0.1", None):
        with pytest.raises(ValueError, match="epsilon has the wrong type"):
            _cfg("fista", pr, ref, eps=bad)


def test_ista_stops_immediately_at_reference():
    pr = make_problem(1)
    ref = reference_minimum(pr)
    tr = ista_solve(pr, _cfg("ista", pr, ref, beta0=ref.beta_hat.copy()))
    assert tr.converged
    assert len(tr.records) == 1  # only the initial row


def test_ista_identity_one_step_reaches_closed_form(monkeypatch):
    rng = np.random.default_rng(5)
    y = rng.standard_normal(5) * 2
    lam = 0.1
    pr = identity_problem(y, lam)
    ref = reference_minimum(pr)
    monkeypatch.setattr(baselines, "MAX_ITERS", 3)
    tr = ista_solve(pr, _cfg("ista", pr, ref, eps=1e-12, beta0=np.zeros(5)))
    expected = identity_closed_form(y, 5, lam)
    assert np.max(np.abs(tr.final_beta - expected)) < 1e-10


def test_fista_momentum_recurrence(monkeypatch):
    t1 = 1.0
    t2 = (1 + math.sqrt(5.0)) / 2.0
    t3 = (1 + math.sqrt(1 + 4 * t2**2)) / 2.0
    assert t2 == pytest.approx(1.618033988749895, rel=1e-14)
    assert t3 == pytest.approx((1 + math.sqrt(1 + 4 * t2 * t2)) / 2)
    # first iteration equals an ISTA step (zero momentum weight)
    pr = make_problem(2)
    ref = reference_minimum(pr)
    monkeypatch.setattr(baselines, "MAX_ITERS", 1)
    a = ista_solve(pr, _cfg("ista", pr, ref, eps=1e-30))
    b = fista_solve(pr, _cfg("fista", pr, ref, eps=1e-30))
    assert np.array_equal(a.final_beta, b.final_beta)


def test_cd_one_sweep_on_orthonormal_columns(monkeypatch):
    # X'X = n I: a single sweep lands on the closed-form minimizer
    n = 8
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, 4)))
    X = q * math.sqrt(n)
    y = np.random.default_rng(4).standard_normal(n)
    pr = LassoProblem(y=y, X=X, lam=0.05)
    ref = reference_minimum(pr)
    monkeypatch.setattr(baselines, "MAX_ITERS", 1)
    tr = cd_solve(pr, _cfg("cd", pr, ref, eps=1e-30, beta0=np.zeros(4)))
    expected = soft_threshold(X.T @ y, n * pr.lam) / n
    assert np.max(np.abs(tr.final_beta - expected)) < 1e-10
    assert lasso_objective(pr, tr.final_beta) - ref.f_min < 1e-10


def test_cd_fixed_point_is_subgradient_optimal(monkeypatch):
    pr = make_problem(6, n=25, p=8, lam=0.05)
    ref = reference_minimum(pr)
    monkeypatch.setattr(baselines, "MAX_ITERS", 400)
    tr = cd_solve(pr, _cfg("cd", pr, ref, eps=1e-30))
    assert subgradient_residual(pr, tr.final_beta) < 1e-8


def test_cd_rejects_zero_diagonal():
    from hslasso.problem import ReferenceSolution

    X = np.zeros((4, 2))
    X[:, 0] = 1.0
    pr = LassoProblem(y=np.ones(4), X=X, lam=0.1)
    fake = ReferenceSolution(beta_hat=np.zeros(2), f_min=0.0, dual_gap=1e-10)
    with pytest.raises(ValueError):
        cd_solve(pr, _cfg("cd", pr, fake))


def test_cd_cross_check_rejects_zero_column():
    # the cross-check raised ZeroDivisionError in its first sweep: only
    # cd_solve checked the diagonal; both now share one setup
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 3))
    X[:, 1] = 0.0
    pr = LassoProblem(y=rng.standard_normal(10), X=X, lam=0.1)
    with pytest.raises(ValueError, match="degenerate column"):
        cd_minimize_to_residual(pr)


def test_cd_deterministic(monkeypatch):
    pr = make_problem(7, p=5)
    ref = reference_minimum(pr)
    monkeypatch.setattr(baselines, "MAX_ITERS", 50)
    t1 = cd_solve(pr, _cfg("cd", pr, ref))
    t2 = cd_solve(pr, _cfg("cd", pr, ref))
    assert np.array_equal(t1.final_beta, t2.final_beta)
    assert f_values(t1).tolist() == f_values(t2).tolist()


def _orthonormal_problem():
    n = 8
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, 4)))
    return LassoProblem(y=np.random.default_rng(4).standard_normal(n),
                        X=q * math.sqrt(n), lam=0.05)


def _sign_crossing_start(pr):
    # start on the far side of zero from the minimizer in every coordinate
    beta_hat = reference_minimum(pr).beta_hat
    return -3.0 * np.where(beta_hat >= 0.0, 1.0, -1.0)


SWEEP_CASES = ["p<n", "p>n", "orthonormal", "all-zero", "sign-crossing"]


def _sweep_case(case):
    """(problem, start) of one sweep case."""
    if case == "p<n":
        pr, beta0 = make_problem(20, n=30, p=6, lam=0.05), None
    elif case == "p>n":
        pr, beta0 = make_problem(21, n=10, p=25, lam=0.02), None
    elif case == "orthonormal":
        pr, beta0 = _orthonormal_problem(), None
    elif case == "all-zero":
        pr = make_problem(22, n=15, p=5, lam=50.0)
        beta0 = np.zeros(pr.p)
    elif case == "paper-grid":  # the default bench's second 50 x 80 problem (sim2)
        pr = list(bench_problems(((50, 80),), 1e-3))[1]
        beta0 = 0.1 * np.ones(pr.p)
    else:
        pr = make_problem(23, n=20, p=7, lam=0.01)
        beta0 = _sign_crossing_start(pr)
    if beta0 is None:
        beta0 = np.random.default_rng(24).uniform(-2.0, 2.0, pr.p)
    return pr, beta0


def _sweep_states(pr, beta0, sweep, charged, sweeps):
    """(beta, resid, counter tuple) after each of ``sweeps`` sweeps of
    ``sweep(beta, xtx, xty_raw, diag, thresh, resid, counter)``."""
    xtx = pr.gram * pr.n
    xty_raw = pr.xty * pr.n
    diag = np.diag(xtx).copy()
    thresh = pr.n * pr.lam
    beta = beta0.copy()
    resid = xtx @ beta
    counter = OpCounter() if charged else None
    states = []
    for _ in range(sweeps):
        beta, resid = sweep(beta, xtx, xty_raw, diag, thresh, resid, counter)
        states.append((beta.copy(), resid.copy(), astuple(counter) if charged else None))
    return states


def _library_sweep(beta, xtx, xty_raw, diag, thresh, resid, counter):
    """The library sweep in the argument order of the oracles (``diag`` is
    X'X's diagonal, which :func:`_cd_data` reads off xtx itself), charged as
    ``cd_solve`` charges it: the table's ``cd`` entry once per sweep."""
    if counter is not None:
        counter.charge("cd", beta.size)
    return _cd_sweep(beta, _cd_data(xtx, xty_raw, thresh), resid)


@pytest.mark.parametrize("charged", [True, False], ids=["counter", "none"])
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_cd_sweep_matches_per_op_sweep(case, charged):
    pr, beta0 = _sweep_case(case)
    runs = [_sweep_states(pr, beta0, sweep, charged, 6)
            for sweep in (_library_sweep, cd_sweep_per_op)]
    for (b_new, r_new, c_new), (b_ref, r_ref, c_ref) in zip(*runs):
        assert np.array_equal(b_new, b_ref)
        assert np.array_equal(r_new, r_ref)
        assert c_new == c_ref
    if case == "all-zero":
        assert not np.any(runs[0][-1][0])
    if case == "sign-crossing":
        assert np.any(np.sign(runs[0][-1][0]) != np.sign(beta0))


@pytest.mark.parametrize("charged", [True, False], ids=["counter", "none"])
@pytest.mark.parametrize("case", SWEEP_CASES + ["paper-grid"])
def test_cd_sweep_matches_earlier_sweep(case, charged):
    # The sweep with a prebuilt data tuple, a scratch buffer and a
    # two-comparison soft threshold writes the bytes of the earlier
    # per-sweep-allocating body after every sweep, signed zeros included.
    pr, beta0 = _sweep_case(case)
    sweeps = 200 if case == "paper-grid" else 6
    new = _sweep_states(pr, beta0, _library_sweep, charged, sweeps)
    before = _sweep_states(pr, beta0, cd_sweep_before, charged, sweeps)
    assert len(new) == len(before) == sweeps
    for (b_new, r_new, c_new), (b_ref, r_ref, c_ref) in zip(new, before):
        assert b_new.tobytes() == b_ref.tobytes()
        assert r_new.tobytes() == r_ref.tobytes()
        assert c_new == c_ref


def test_cd_sweep_rejects_negative_threshold():
    with pytest.raises(ValueError):
        _cd_data(np.eye(2), np.ones(2), -1.0)


PINNED_CHARGES = {
    # (mults, adds, transcendentals, comparisons, setup_ops), then the ops of
    # one iterate (flat methods) or the step count (inner solve)
    "ista": ((3601, 4000, 0, 800, 0), 168),
    "fista": ((4151, 4900, 50, 800, 0), 198),
    "sl": ((4852, 4901, 400, 0, 0), 203),
    "cd": ((4065, 4856, 0, 800, 72), 192),
    "inner-fixed": ((7610, 5604, 2, 400, 0), 50),
    "inner-gradient": ((7282, 5663, 31, 485, 0), 28),
    "initial-beta": ((138, 120, 1, 0, 0), None),  # the ridge start at a given t0
    "find-t0": ((138, 120, 1, 0, 5576), None),  # and at a searched one
}


@pytest.mark.parametrize("case", list(PINNED_CHARGES))
def test_charge_pinned(case, monkeypatch):
    # counts recorded from the per-operation charges; any change here is a
    # change of op-count convention
    pr = make_problem(3, n=20, p=8)
    p = pr.p
    counts, per_iterate = PINNED_CHARGES[case]
    c = OpCounter()
    if case in METHODS:
        never = ReferenceSolution(beta_hat=np.zeros(p), f_min=-np.inf, dual_gap=1e-9)
        monkeypatch.setattr(baselines, "MAX_ITERS", 50)
        tr = solve(pr, BaselineConfig(case, np.ones(p), 1e-12, never))
        c = tr.counter
        assert len(tr.records) == 51
        assert not tr.converged
        assert np.all(np.diff(trace_ops(tr)) == per_iterate)
        assert trace_ops(tr)[-1] == c.total()
    elif case in ("initial-beta", "find-t0"):
        ridge_start(pr, 3.0 if case == "initial-beta" else None, c)
    else:
        cfg = HSConfig(inner_stop=case.split("-")[1], inner_grad_tol=1e-6)
        steps = inner_solve(pr, 0.5, np.zeros(p), cfg, c, B=1.0)[1]
        assert steps == per_iterate
    assert astuple(c) == counts
    if case == "cd":  # (mults, adds, transcendentals, comparisons, setup_ops) of one sweep
        assert CHARGES["cd"](p) == (80, 96, 0, 16, 0)


@pytest.mark.parametrize("method", METHODS)
def test_trace_counter_totals_the_last_row(method):
    # each solve owns one counter, returned on its trace, and its last row
    # reads the counter's total
    pr = make_problem(7, n=20, p=8)
    tr = solve(pr, _cfg(method, pr, reference_minimum(pr), eps=1e-3))
    assert tr.converged and len(tr.records) > 2
    assert tr.counter.total() == tr.records[-1].cumulative_ops
    assert tr.counter.setup_ops == CHARGES[f"{method}-setup" if method in ("cd", "sl")
                                           else "prox-grad-setup"](pr.p)[4]


def test_sl_penalty_grad_matches_finite_differences():
    alpha = 100.0
    lam = 0.01
    rng = np.random.default_rng(8)
    ws = rng.uniform(0.1, 3.0, 200) * rng.choice([-1.0, 1.0], 200)

    def penalty(u):
        z = alpha * u
        return lam * (2.0 * (np.maximum(z, 0) + np.log1p(np.exp(-abs(z)))) / alpha - u)

    for w in ws:
        fd = central_diff(penalty, w)
        v = sl_penalty_grad(np.array([w]), alpha)
        assert lam * v[0] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_sl_penalty_grad_finite_at_zero():
    v = sl_penalty_grad(np.array([0.0, 1e-15, -1e-15]), 50.0)
    assert np.all(np.isfinite(v))
    assert abs(v[0]) < 1e-12


def test_sl_gradient_at_least_squares_point():
    # residual gradient vanishes at the unpenalized minimizer: only the
    # penalty term remains
    pr = make_problem(9, n=20, p=4, lam=0.02)
    beta_ls = np.linalg.solve(pr.gram, pr.xty)
    v = sl_penalty_grad(beta_ls, 80.0)
    g_full = pr.gram @ beta_ls - pr.xty + pr.lam * v
    assert np.allclose(g_full, pr.lam * v, atol=1e-10)


def test_sl_objective_decreases_and_converges():
    pr = make_problem(10, n=30, p=6, lam=1e-3)
    ref = reference_minimum(pr)
    # the smoothing bias is at most lambda*p*2ln2/SL_ALPHA = 8.3e-5, inside eps
    tr = sl_solve(pr, _cfg("sl", pr, ref, eps=1e-4))
    assert tr.converged
    assert lasso_objective(pr, tr.final_beta) - ref.f_min <= 1e-4


def test_theoretical_bound_values():
    pr = make_problem(11)
    ref = reference_minimum(pr)
    beta0 = np.ones(pr.p)
    d2 = float(np.sum((beta0 - ref.beta_hat) ** 2))
    L = pr.eig_max
    assert theoretical_bound("ista", 10, pr, beta0, ref) == pytest.approx(L * d2 / 20)
    assert theoretical_bound("fista", 10, pr, beta0, ref) == pytest.approx(2 * L * d2 / 121)
    # ratio FISTA/ISTA = 4k/(k+1)^2
    for k in (1, 3, 17):
        ratio = (theoretical_bound("fista", k, pr, beta0, ref)
                 / theoretical_bound("ista", k, pr, beta0, ref))
        assert ratio == pytest.approx(4 * k / (k + 1) ** 2, rel=1e-12)
    # ISTA bound vanishes as k grows
    assert theoretical_bound("ista", 10**9, pr, beta0, ref) < 1e-6
    # CD bound finite at k = 0
    assert math.isfinite(theoretical_bound("cd", 0, pr, beta0, ref))
    with pytest.raises(ValueError):
        theoretical_bound("nope", 1, pr, beta0, ref)
    with pytest.raises(ValueError):
        theoretical_bound("ista", 0, pr, beta0, ref)


@pytest.mark.parametrize("method,solver,alpha", [
    ("ista", ista_solve, None),
    ("fista", fista_solve, None),
    ("cd", cd_solve, None),
    ("sl", sl_solve, 100.0),
])
def test_bound_dominance_small_instance(method, solver, alpha, monkeypatch):
    pr = make_problem(12, n=30, p=8, lam=1e-3)
    ref = reference_minimum(pr)
    beta0 = np.ones(8)
    assert alpha in (None, SL_ALPHA)  # sl's envelope is checked at this smoothing
    monkeypatch.setattr(baselines, "MAX_ITERS", 800)
    tr = solver(pr, _cfg(method, pr, ref, eps=1e-30, beta0=beta0))
    f = f_values(tr)
    for k in range(1, len(f)):
        bound = theoretical_bound(method, k, pr, beta0, ref)
        assert f[k] - ref.f_min <= bound + 1e-9


def test_solver_agreement_at_tight_precision():
    pr = make_problem(13, n=30, p=6, lam=0.02)
    ref = reference_minimum(pr)
    finals = {}
    for m, s in (("ista", ista_solve), ("fista", fista_solve), ("cd", cd_solve)):
        tr = s(pr, _cfg(m, pr, ref, eps=1e-10))
        assert tr.converged
        finals[m] = lasso_objective(pr, tr.final_beta)
    vals = list(finals.values())
    assert max(vals) - min(vals) < 1e-8


def test_trace_schema_for_flat_methods():
    pr = make_problem(14)
    ref = reference_minimum(pr)
    tr = fista_solve(pr, _cfg("fista", pr, ref, eps=1e-6))
    csv = tr.to_csv().splitlines()
    assert csv[0] == "k,t_k,inner_iters,F,F_t,ops"
    assert all(line.split(",")[1] == "0.0" for line in csv[1:])
    assert int(csv[-1].split(",")[-1]) == tr.counter.total()


# ROADMAP item 29.  The Lasso is equivariant under (X, y, lambda) ->
# (X, c y, c lambda): the minimizer scales by c and f by c^2, and with c a
# power of two every product is exact, so a method free of a unit of beta
# runs the same steps from c times its start to c^2 times its epsilon
UNIT_CASES = ((20, 1e-3), (80, 1e-3), (80, 0.1))  # sim1 50 x p, seed 1001, lambda
_NOT_EQUIVARIANT = {
    "sl": "ROADMAP item 29: SL_ALPHA is in units of 1/beta",
    "hs": "ROADMAP item 29: tau and the surrogate's log(1 + t) are in units of beta, "
          "so t0 scaled by c does not suffice",
}


def _unit_run(method, p, lam, c, epsilon=1e-4):
    """(values, ops, beta) of one run on (X, c y, c lambda): the reference's
    f_min and dual gap and its beta_hat, or each trace row's f and ops and
    the final beta of a run from c * ones (HS: from t0 = 3 c) to c^2 epsilon."""
    base = generate(SyntheticSpec(n=50, p=p, rho=0.1, seed=1001), lam=lam)
    pr = LassoProblem(c * base.y, base.X, c * lam)
    ref = reference_minimum(pr)
    if method == "reference":
        return [ref.f_min, ref.dual_gap], [], ref.beta_hat
    if method == "hs":
        tr = hs_solve(pr, HSConfig(t0=3.0 * c, epsilon=c * c * epsilon, ref=ref))
    else:
        tr = solve(pr, BaselineConfig(method, c * np.ones(p), c * c * epsilon, ref))
    return ([r.f_value for r in tr.records], [r.cumulative_ops for r in tr.records],
            tr.final_beta)


@pytest.mark.parametrize("method, p, lam", [
    *((method, p, lam) for method in ("reference", "ista", "fista", "cd")
      for p, lam in UNIT_CASES),
    *(pytest.param(method, 20, 1e-3,
                   marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=why))
      for method, why in _NOT_EQUIVARIANT.items())])
def test_results_scale_exactly_with_the_units_of_y(method, p, lam):
    values, ops, beta = _unit_run(method, p, lam, 1.0)
    for c in (2.0**-10, 2.0**10):
        c_values, c_ops, c_beta = _unit_run(method, p, lam, c)
        assert c_values == [c * c * v for v in values], c
        assert c_ops == ops, c
        assert np.array_equal(c_beta, c * beta), c


# ---------------------------------------------------------------------------
# the loops that moved onto `iterate`, pinned to their earlier bodies
# ---------------------------------------------------------------------------


PAPER_GRID = ((50, 20), (50, 80)), 1e-3  # the default bench grid's scenarios and lambda
VERIFY_GRID = ((50, 20), (100, 50), (50, 80)), 0.1  # closeness-verify's six, unflipped
VERIFY_LEVELS = (1.0, 0.1, 0.01, 1e-3, 1e-4)  # verify's default levels


def _walk(minimize, problem, levels):
    """(beta, F) at each of ``levels``, walked down from zero, each level
    from the minimizer before it, as ``verify`` walks them."""
    beta, found = np.zeros(problem.p), []
    for t in levels:
        beta, f = minimize(problem, SurrogateSpec(t), beta, 1e-10)
        found.append((beta, f))
    return found


def _walks(problems, levels):
    return [(_walk(minimize_surrogate, pr, levels), _walk(minimize_surrogate_before, pr, levels))
            for pr in problems]


def _failures(problem, t, tail):
    """The messages of the NumericalFailure that the library and the earlier
    body raise from zero at level t, the earlier one without its ``> tol``
    tail when ``tail``: a step does not know the stop tolerance."""
    found = []
    for minimize in (minimize_surrogate, minimize_surrogate_before):
        with pytest.raises(NumericalFailure) as failure:
            minimize(problem, SurrogateSpec(t), np.zeros(problem.p), 1e-10)
        found.append(str(failure.value))
    new, old = found
    if tail:
        old, cut = old.rsplit(" > ", 1)
        assert cut == "1e-10"
    return [(new, old)]


def _fista_runs(finish):
    found = []
    for pr in bench_problems(*PAPER_GRID):
        L, beta, fin = pr.eig_max, np.zeros(pr.p), finish and (lambda b: finish(pr, b))
        before = minimize_to_residual_before(
            pr, (beta, beta.copy(), 1.0), lambda s: baselines._fista_step(pr, L, pr.lam / L, s), fin)
        found.append((fista_minimize_to_residual(pr, fin), before))
    return found


def _cd_runs():
    found = []
    for pr in bench_problems(*PAPER_GRID):
        xtx, data = baselines._cd_setup(pr)
        beta = np.zeros(pr.p)
        before = minimize_to_residual_before(pr, (beta, xtx @ beta),
                                             lambda s: _cd_sweep(s[0], data, s[1]))[0]
        found.append((cd_minimize_to_residual(pr), before))
    return found


def _tiny_p_gt_n(seed):
    return generate(SyntheticSpec(n=2, p=5, rho=0.1, seed=seed), lam=1e-3)


def _at_the_cap(monkeypatch):
    monkeypatch.setattr(surrogate, "MAX_NEWTON", 1)
    return _failures(next(bench_problems(*VERIFY_GRID)), 1e-3, tail=False)


def _uphill_svd(monkeypatch):
    monkeypatch.setattr(surrogate, "_svd_solve", lambda problem, D, g: -g)
    return _failures(_tiny_p_gt_n(0), 1e-8, tail=True)


# row -> (its (library, earlier body) result pairs, given the monkeypatch;
# the SVD-direction steps that both runs take together, None where unchecked)
LOOP_PINS = {
    # the dense direction on every step, and a few steps that raise F by at
    # most 4 eps |F|, taken by the round-off acceptance
    "newton-dense": (lambda mp: _walks(bench_problems(*VERIFY_GRID), VERIFY_LEVELS), 0),
    # a jump of decades on a rank-2 gram: one SVD step per seed and run
    "newton-svd": (lambda mp: _walks(map(_tiny_p_gt_n, (0, 1)), (0.1, 1e-8)), 4),
    "newton-cap": (_at_the_cap, None),
    # from zero at 1e-8 a full step lands far out on the gram's null space
    "newton-stall": (lambda mp: _failures(_tiny_p_gt_n(1), 1e-8, tail=True), None),
    "newton-no-descent": (_uphill_svd, None),
    "fista-residual": (lambda mp: _fista_runs(None), None),
    "fista-residual-support-kkt": (lambda mp: _fista_runs(support_kkt_solution), None),
    "cd-residual": (lambda mp: _cd_runs(), None),
}


def _same(a, b):
    """Equal structure, with arrays and floats equal byte for byte."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if a is None or isinstance(a, (str, bool)):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("name", list(LOOP_PINS))
def test_loops_on_the_driver_match_their_earlier_bodies(name, monkeypatch):
    # damped Newton and the reference's residual drivers run on
    # baselines.iterate; their earlier loops, kept in helpers, must give the
    # same bytes, the same exception and the same message up to its tail
    svd_calls, rises = [], []
    svd_solve, step = surrogate._svd_solve, surrogate._newton_step

    def step_spy(problem, spec, grad, state):
        new = step(problem, spec, grad, state)
        rises.append(new[1] > state[1])
        return new

    monkeypatch.setattr(surrogate, "_svd_solve", lambda *a: svd_calls.append(1) or svd_solve(*a))
    monkeypatch.setattr(surrogate, "_newton_step", step_spy)
    pairs, svd_steps = LOOP_PINS[name]
    found = pairs(monkeypatch)
    assert found
    for new, old in found:
        assert _same(new, old), name
    if svd_steps is not None:
        assert len(svd_calls) == svd_steps
    if name == "newton-dense":
        assert any(rises)
