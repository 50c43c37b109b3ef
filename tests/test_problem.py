import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    bench_problems,
    grid_search_2d,
    grid_search_2d_brute,
    identity_closed_form,
    identity_problem,
    lasso_objective_before,
    make_problem,
    subgradient_residual_before,
)
from hslasso import baselines
from hslasso.baselines import SL_ALPHA, reference_minimum, sl_penalty
from hslasso.datagen import SyntheticSpec, generate
from hslasso.diagnostics import estimation_error, prediction_error
from hslasso.problem import (
    LassoProblem,
    check_number,
    lasso_objective,
    load_problem_json,
    save_problem_json,
    subgradient_residual,
)
from hslasso.surrogate import SurrogateSpec


def test_construction_validates():
    with pytest.raises(ValueError):
        LassoProblem(y=np.zeros(3), X=np.zeros((3, 2)), lam=0.0)
    with pytest.raises(ValueError):
        LassoProblem(y=np.zeros(4), X=np.zeros((3, 2)), lam=1.0)
    with pytest.raises(ValueError):
        LassoProblem(y=np.zeros(3), X=np.zeros((3, 2, 1)), lam=1.0)
    for bad in (True, np.True_, "1"):  # True built lambda = 1.0
        with pytest.raises(ValueError, match="lambda"):
            LassoProblem(y=np.zeros(3), X=np.ones((3, 2)), lam=bad)
    # an int past float range raised OverflowError, no ValueError
    with pytest.raises(ValueError, match="lambda has the wrong type"):
        LassoProblem(y=np.zeros(3), X=np.ones((3, 2)), lam=10**400)
    assert type(LassoProblem(y=np.zeros(3), X=np.ones((3, 2)), lam=np.int64(2)).lam) is float
    # the one number test of every record: NumPy's numbers pass as Python's,
    # a bool, NumPy's too, fails, and so does a float as an integer
    for value, integral, expected in ((np.int64(3), True, 3), (np.uint8(3), False, 3.0),
                                      (np.float32(0.5), False, 0.5), (10**400, True, 10**400)):
        got = check_number("x", value, integral=integral)
        assert got == expected and type(got) is type(expected)
    for value, integral in ((True, True), (np.True_, False), (2.5, True), (np.float64(2.0), True),
                            ("1", False), (None, False), (1j, False), (10**400, False)):
        with pytest.raises(ValueError, match="x has the wrong type"):
            check_number("x", value, integral=integral)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_construction_rejects_non_finite(bad):
    X = np.ones((3, 2))
    y = np.ones(3)
    X_bad = X.copy()
    X_bad[1, 0] = bad
    y_bad = y.copy()
    y_bad[2] = bad
    with pytest.raises(ValueError, match="X must be finite"):
        LassoProblem(y=y, X=X_bad, lam=0.1)
    with pytest.raises(ValueError, match="y must be finite"):
        LassoProblem(y=y_bad, X=X, lam=0.1)
    with pytest.raises(ValueError, match="lambda"):
        LassoProblem(y=y, X=X, lam=bad)


def test_construction_accepts_a_design_in_large_units():
    # X'X/n is positive semidefinite for every real X; with the columns of
    # sim1 50 x 80 scaled by 1e3 eigh returns a bottom eigenvalue of -1.6e-9,
    # rounding that a fixed -1e-10 floor once refused
    base = generate(SyntheticSpec(n=50, p=80, rho=0.1, seed=1001), lam=1e-3)
    pr = LassoProblem(base.y, base.X * 1e3, base.lam)
    assert np.linalg.eigh(pr.gram)[0][0] < -1e-10
    assert pr.eig_min == 0.0
    assert pr.eig_max == pytest.approx(1e6 * base.eig_max, rel=1e-12)


def test_cached_gram_and_immutability():
    pr = make_problem(0)
    assert np.allclose(pr.gram, pr.X.T @ pr.X / pr.n)
    assert np.allclose(pr.xty, pr.X.T @ pr.y / pr.n)
    assert pr.eig_min >= 0.0
    with pytest.raises(ValueError):
        pr.gram[0, 0] = 99.0


@pytest.mark.parametrize("layout", ["C", "F", "read-only"])
def test_construction_copies_the_callers_arrays(layout):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    if layout == "F":
        X = np.asfortranarray(X)
    if layout == "read-only":
        X.flags.writeable = y.flags.writeable = False
    X_before, y_before = X.copy(), y.copy()
    pr = LassoProblem(y=y, X=X, lam=0.1)
    assert X.flags.writeable == y.flags.writeable == (layout != "read-only")
    assert X.flags.f_contiguous == (layout == "F")
    assert not np.shares_memory(pr.X, X) and not np.shares_memory(pr.y, y)
    assert pr.X.flags.c_contiguous and not pr.X.flags.writeable and not pr.y.flags.writeable
    assert np.array_equal(pr.X, X_before) and np.array_equal(pr.y, y_before)
    if layout != "read-only":
        X[0, 0] = y[0] = 99.0
        assert pr.X[0, 0] == X_before[0, 0] and pr.y[0] == y_before[0]


def test_ridge_solve_matches_up_front_spectrum():
    # the eigenvectors are recomputed by each ridge solver; the solve must
    # equal, bit for bit, the one through a single eigh at construction
    pr = make_problem(0, n=12, p=20)
    vals, vecs = np.linalg.eigh(pr.gram)
    vecs = np.ascontiguousarray(vecs)
    assert (pr.eig_min, pr.eig_max) == (max(vals[0], 0.0), vals[-1])
    solve = pr.ridge_solver()
    for shift in (0.3, 1e-6):
        expected = vecs @ ((vecs.T @ pr.xty) / (np.maximum(vals, 0.0) + shift))
        assert np.array_equal(solve(shift), expected)


def test_repr_names_the_sizes_and_lambda():
    # perfbench's failure messages print a problem through its repr
    pr = LassoProblem(np.ones(2), np.eye(2, 3), 0.5)
    assert repr(pr) == "LassoProblem(n=2, p=3, lambda=0.5)"


def test_objective_zero_cases():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 4))
    pr = LassoProblem(y=np.zeros(6), X=X, lam=1.0)
    assert lasso_objective(pr, np.zeros(4)) == 0.0

    # exact fit with no effective penalty: X = I2, y = (1,1), beta = (1,1)
    pr2 = LassoProblem(y=np.ones(2), X=np.eye(2), lam=1e-300)
    assert lasso_objective(pr2, np.ones(2)) == pytest.approx(0.0, abs=1e-290)


def test_objective_hand_value():
    pr = LassoProblem(y=np.array([2.0]), X=np.array([[1.0]]), lam=0.5)
    assert lasso_objective(pr, np.array([1.0])) == pytest.approx(1.0, rel=1e-15)


def test_objective_dimension_mismatch():
    # f, F_t and sl's objective share one shape check; sl's had none
    pr = make_problem(1)
    for penalty in (np.abs, SurrogateSpec(0.5).value, lambda w: sl_penalty(w, SL_ALPHA)):
        with pytest.raises(ValueError, match="shape"):
            lasso_objective(pr, np.zeros(pr.p + 1), penalty)


def test_objective_convex_along_segments():
    rng = np.random.default_rng(5)
    pr = make_problem(2)
    for _ in range(50):
        b1 = rng.standard_normal(pr.p)
        b2 = rng.standard_normal(pr.p)
        th = rng.uniform()
        lhs = lasso_objective(pr, th * b1 + (1 - th) * b2)
        rhs = th * lasso_objective(pr, b1) + (1 - th) * lasso_objective(pr, b2)
        assert lhs <= rhs + 1e-12


def test_surrogate_objective_zero_beta_is_residual_only():
    pr = make_problem(3)
    assert lasso_objective(pr, np.zeros(pr.p), SurrogateSpec(0.7).value) == pytest.approx(
        float(pr.y @ pr.y) / (2 * pr.n), rel=1e-14)


def test_surrogate_objective_boundary_example():
    pr = LassoProblem(y=np.array([0.0]), X=np.array([[1.0]]), lam=1.0)
    expected = 0.5 + math.log(2.0) ** 2 / 3.0
    value = lasso_objective(pr, np.array([1.0]), SurrogateSpec(1.0).value)
    assert value == pytest.approx(expected, rel=1e-14)


def test_surrogate_objective_converges_to_objective():
    pr = make_problem(4)
    rng = np.random.default_rng(9)
    beta = rng.uniform(0.5, 2.0, pr.p) * rng.choice([-1, 1], pr.p)
    target = lasso_objective(pr, beta)
    diffs = [abs(lasso_objective(pr, beta, SurrogateSpec(t).value) - target)
             for t in (1.0, 0.1, 0.01, 0.001)]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert abs(lasso_objective(pr, beta, SurrogateSpec(1e-6).value) - target) < 1e-6


def test_surrogate_objective_below_objective():
    pr = make_problem(5)
    rng = np.random.default_rng(13)
    for _ in range(30):
        beta = rng.standard_normal(pr.p) * 3
        for t in (2.0, 0.5, 0.01):
            value = lasso_objective(pr, beta, SurrogateSpec(t).value)
            assert value <= lasso_objective(pr, beta) + 1e-12


def test_surrogate_objective_rejects_bad_t():
    pr = make_problem(6)
    with pytest.raises(ValueError):
        lasso_objective(pr, np.zeros(pr.p), SurrogateSpec(0.0).value)


def test_reference_matches_identity_closed_form():
    rng = np.random.default_rng(21)
    y = rng.standard_normal(6) * 2.0
    lam = 0.05
    pr = identity_problem(y, lam)
    ref = reference_minimum(pr)
    expected = identity_closed_form(y, 6, lam)
    assert np.max(np.abs(ref.beta_hat - expected)) < 1e-8


def test_reference_zero_when_lambda_dominates():
    pr = make_problem(8, lam=1.0)
    lam_big = float(np.max(np.abs(pr.xty))) * 1.01
    pr_big = LassoProblem(y=pr.y, X=pr.X, lam=lam_big)
    ref = reference_minimum(pr_big)
    assert np.all(ref.beta_hat == 0.0)
    # brute-force corroboration on a p=2 instance
    pr2 = make_problem(9, p=2)
    lam_big2 = float(np.max(np.abs(pr2.xty))) * 1.01
    pr2_big = LassoProblem(y=pr2.y, X=pr2.X, lam=lam_big2)
    best, _ = grid_search_2d(pr2_big, res=5e-3)
    assert lasso_objective(pr2_big, np.zeros(2)) <= best + 1e-9


def test_reference_matches_grid_search_p2():
    pr = make_problem(10, n=10, p=2, lam=0.15)
    ref = reference_minimum(pr)
    best, _ = grid_search_2d(pr, res=1e-3)
    assert abs(ref.f_min - best) < 1e-5
    assert ref.f_min <= best + 1e-12


def test_windowed_grid_search_matches_brute_force():
    # two of criterion 2's instances: the same minimum, bit for bit, at the same point
    for seed in (0, 14):
        pr = make_problem(200 + seed, n=10, p=2, lam=0.1 + 0.02 * seed)
        best, pt = grid_search_2d(pr)
        best_brute, pt_brute = grid_search_2d_brute(pr)
        assert best == best_brute
        assert np.array_equal(pt, pt_brute)


def test_reference_residual_and_idempotence():
    pr = make_problem(11)
    ref1 = reference_minimum(pr)
    ref2 = reference_minimum(pr)
    assert subgradient_residual(pr, ref1.beta_hat) <= 1e-10
    assert abs(ref1.f_min - ref2.f_min) <= 10 * 1e-10
    assert ref1.f_min == pytest.approx(lasso_objective(pr, ref1.beta_hat), rel=0, abs=0)


@pytest.mark.parametrize("lam", [1e-200, 1e-300])
def test_reference_certifies_a_lambda_far_below_its_tolerance(lam):
    # (REF_TOL / lambda) ** 2 raised OverflowError for lambda between about
    # 5.6e-319 and 7.5e-165 (every CLI run: a traceback, exit 1); the bound is
    # now inf, as at 5e-324, so the certificate is vacuous: the dual point is
    # near 0 and G is f itself
    pr = make_problem(12, n=5, p=3, lam=lam)
    ref = reference_minimum(pr)
    assert subgradient_residual(pr, ref.beta_hat) <= baselines.REF_TOL
    assert ref.dual_gap == pytest.approx(ref.f_min, rel=1e-12)


def _cross_check_instances():
    # the criterion-2 instances, then one p > n design
    for seed in range(15):
        yield make_problem(200 + seed, n=10, p=2, lam=0.1 + 0.02 * seed)
    for seed in range(35):
        yield make_problem(300 + seed, n=12, p=3, lam=0.08 + 0.01 * seed)
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        yield identity_problem(2.0 * rng.standard_normal(5 + seed), 0.02 + 0.01 * seed)
    yield make_problem(13, n=10, p=25, lam=0.05)


def test_reference_agrees_with_coordinate_descent():
    # The FISTA reference against an independent solver, cyclic CD run to
    # the same residual tolerance.
    from hslasso.baselines import cd_minimize_to_residual

    for pr in _cross_check_instances():
        ref = reference_minimum(pr)
        beta_cd = cd_minimize_to_residual(pr)
        assert beta_cd is not None
        assert abs(ref.f_min - lasso_objective(pr, beta_cd)) <= 1e-12
        assert abs(ref.dual_gap) <= 1e-9  # round-off may leave it just below 0


PAPER_GRID = ((50, 20), (50, 80)), 1e-3  # the default bench grid's scenarios and lambda
DEEP_GRID = ((50, 20), (100, 50), (50, 80)), 0.1  # homotopy-deep's grids, at grid seed 0


def test_reference_support_kkt_on_paper_grid():
    # The four problems of the default bench grid (seed 0, lambda 1e-3): the
    # support solve is accepted, certifies far below the FISTA iterate's gap
    # and moves f_min only by round-off.
    from hslasso.baselines import fista_minimize_to_residual

    for pr in bench_problems(*PAPER_GRID):
        ref = reference_minimum(pr)
        assert ref.method == "support-kkt"
        assert abs(ref.dual_gap) <= 1e-13
        beta_fista, finished = fista_minimize_to_residual(pr)
        assert not finished  # no finish given: FISTA's own iterate
        f_fista = lasso_objective(pr, beta_fista)
        assert abs(ref.f_min - f_fista) <= 1e-15 * max(1.0, abs(ref.f_min))


def test_reference_bytes_do_not_depend_on_the_finish_schedule(monkeypatch):
    # An accepted support solve depends only on its sign pattern, and these
    # continuous designs have one minimizer with one pattern, whatever stop
    # finds it: the earlier schedule (from 1e-5, 100 times tighter each
    # time) and the current one give the same bytes, objective, gap and
    # method.
    problems = [*bench_problems(*PAPER_GRID), *bench_problems(*DEEP_GRID),
                *_cross_check_instances()]
    assert len(problems) == 4 + 6 + 61
    current = [reference_minimum(pr) for pr in problems]
    monkeypatch.setattr(baselines, "FINISH_LOOSE_TOL", 1e-5)
    monkeypatch.setattr(baselines, "FINISH_TIGHTEN", 100.0)
    for pr, ref in zip(problems, current):
        before = reference_minimum(pr)
        assert ref.beta_hat.tobytes() == before.beta_hat.tobytes()
        assert (ref.f_min, ref.dual_gap, ref.method) == (before.f_min, before.dual_gap,
                                                         before.method)


def test_reference_finish_is_tried_early_on_paper_grid(monkeypatch):
    # The four default-grid references took 5 680 FISTA steps when the
    # first support solve waited for residual 1e-5; tried from 1e-1 on,
    # they take under 3 000.
    step = baselines._fista_step
    steps = 0

    def spy(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(baselines, "_fista_step", spy)
    methods = [reference_minimum(pr).method for pr in bench_problems(*PAPER_GRID)]
    assert methods == ["support-kkt"] * 4
    assert 0 < steps <= 3000


def test_stop_tests_match_their_earlier_bodies():
    # subgradient_residual and lasso_objective against their earlier
    # bodies, by ==, on seeded random problems with +-0.0 entries, all-zero
    # beta, and identity designs where |g_i| = lambda exactly at beta_i = 0.
    rng = np.random.default_rng(1800)
    edges = 0
    for case in range(1200):
        if case % 3 == 0:  # X = I with n a power of two: g = (beta - y)/n exactly
            n = p = int(rng.choice([1, 2, 4, 8]))
            lam = float(rng.choice([0.125, 0.25, 0.5]))
            y = rng.choice([-1.0, 1.0], n) * n * lam
            y[rng.random(n) < 0.3] = rng.standard_normal()
            pr = LassoProblem(y=y, X=np.eye(n), lam=lam)
        else:
            n, p = (int(v) for v in rng.integers(1, 9, 2))
            pr = LassoProblem(y=rng.standard_normal(n), X=rng.standard_normal((n, p)),
                              lam=float(rng.uniform(0.01, 2.0)))
        beta = rng.standard_normal(p)
        kind = rng.random(p)
        beta[kind < 0.3] = 0.0
        beta[kind > 0.8] = -0.0
        if case % 5 == 0:
            beta[:] = rng.choice([0.0, -0.0], p)
        g = pr.gram @ beta - pr.xty
        edges += int(np.any((beta == 0.0) & (np.abs(g) == pr.lam)))
        assert subgradient_residual(pr, beta) == subgradient_residual_before(pr, beta)
        assert lasso_objective(pr, beta) == lasso_objective_before(pr, beta)
    assert edges >= 100


def test_reference_falls_back_to_fista_on_singular_support():
    # Two equal columns: FISTA from zero keeps their coefficients equal, so
    # gram_SS is singular at every stop and each support solve is refused.
    # The certified iterate is then exactly the plain FISTA run's.
    from hslasso.baselines import fista_minimize_to_residual

    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 8))
    X[:, 3] = X[:, 1]
    pr = LassoProblem(y=X @ rng.uniform(-1.0, 1.0, 8) + 0.1 * rng.standard_normal(20),
                      X=X, lam=0.01)
    ref = reference_minimum(pr)
    assert ref.method == "fista"
    assert ref.beta_hat[1] == ref.beta_hat[3] != 0.0
    assert np.array_equal(ref.beta_hat, fista_minimize_to_residual(pr)[0])
    assert 0.0 <= ref.dual_gap <= 1e-9


def test_reference_retries_a_refused_support_solve(monkeypatch):
    # p > n: at the loosest stop FISTA's support has more than n entries, so
    # gram_SS is singular and the solve is refused; a tighter stop finds the
    # n-entry support, whose solve is exact.
    from hslasso import baselines

    solve = baselines.support_kkt_solution
    sizes = []

    def spy(problem, beta):
        exact = solve(problem, beta)
        sizes.append((np.count_nonzero(beta), exact is not None))
        return exact

    monkeypatch.setattr(baselines, "support_kkt_solution", spy)
    rng = np.random.default_rng(2)
    pr = LassoProblem(y=rng.standard_normal(10), X=rng.standard_normal((10, 30)), lam=1e-5)
    ref = reference_minimum(pr)
    assert sizes[0][0] > pr.n and not sizes[0][1]
    assert sizes[-1] == (pr.n, True)
    assert ref.method == "support-kkt"
    assert subgradient_residual(pr, ref.beta_hat) <= 1e-10
    assert abs(ref.dual_gap) <= 1e-13


def test_support_kkt_solution_refuses_wrong_signs():
    from hslasso.baselines import support_kkt_solution

    pr = make_problem(11)
    ref = reference_minimum(pr)
    assert np.count_nonzero(ref.beta_hat) >= 1
    assert support_kkt_solution(pr, ref.beta_hat) is not None
    j = int(np.flatnonzero(ref.beta_hat)[0])
    flipped = ref.beta_hat.copy()
    flipped[j] = -flipped[j]
    assert support_kkt_solution(pr, flipped) is None



@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_json_roundtrip(seed):
    pr = make_problem(seed)
    with tempfile.TemporaryDirectory() as tmp:  # @given takes no function-scoped tmp_path
        path = Path(tmp) / "prob.json"
        save_problem_json(pr, path)
        back = load_problem_json(path)
    assert back.n == pr.n and back.p == pr.p and back.lam == pr.lam
    assert np.array_equal(back.X, pr.X)
    assert np.array_equal(back.y, pr.y)


def test_file_roundtrips(tmp_path):
    # floats are written by repr, so every entry reads back bit for bit:
    # -0.0, subnormals, 1/3 and the float after 1 among them
    pr = make_problem(33, n=7, p=3, lam=0.2)
    X = pr.X.copy()
    X[0] = (-0.0, 5e-324, 7e-310)
    X[1] = (1.0 / 3.0, np.nextafter(1.0, 2.0), -1e149)
    y = pr.y.copy()
    y[:3] = (-0.0, 2.0**-1074, 0.1 + 0.2)
    pr = LassoProblem(y=y, X=X, lam=1.0 / 3.0)
    path = tmp_path / "prob.json"
    save_problem_json(pr, path)
    back = load_problem_json(path)
    assert back.X.tobytes() == pr.X.tobytes()
    assert back.y.tobytes() == pr.y.tobytes()
    assert np.float64(back.lam).tobytes() == np.float64(pr.lam).tobytes()


@pytest.fixture(scope="module")
def deep_iterates():
    """The 48 homotopy-deep problems (eight grid seeds at lambda 0.1; grid
    seed 0 holds the six closeness-verify problems before their sign flips),
    each with iterates: zero, a dense and a sparse draw with signed zeros,
    the closeness sweep's minimizer at t = 1e-2 and, last, the reference
    minimizer."""
    rng = np.random.default_rng(3000)
    cases = []
    for seed in range(0, 80, 10):
        for pr in bench_problems(((50, 20), (100, 50), (50, 80)), 0.1, seed):
            dense = rng.standard_normal(pr.p)
            sparse = np.where(rng.random(pr.p) < 0.5, 0.0, rng.standard_normal(pr.p))
            sparse[rng.random(pr.p) < 0.2] = -0.0
            cases.append((pr, [np.zeros(pr.p), dense, sparse,
                               helpers.surrogate_minimizer(pr, 1e-2),
                               reference_minimum(pr).beta_hat]))
    return cases


def _same_bytes(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# name of the earlier copy in helpers -> (the library call, its argument tuples
# at iterate b with reference ref); F_t and sl's objective are lasso_objective
# with another penalty
DOT_HELPERS = {
    "lasso_objective": (lasso_objective, lambda pr, b, ref: [(pr, b)]),
    "subgradient_residual": (subgradient_residual, lambda pr, b, ref: [(pr, b)]),
    "surrogate_value": (lambda pr, spec, b: lasso_objective(pr, b, spec.value),
                        lambda pr, b, ref: [(pr, SurrogateSpec(t), b) for t in (1.0, 1e-2, 1e-4)]),
    "sl_objective": (lambda pr, b, alpha: lasso_objective(pr, b, lambda w: sl_penalty(w, alpha)),
                     lambda pr, b, ref: [(pr, b, alpha) for alpha in (1.0, SL_ALPHA)]),
    "prediction_error": (prediction_error, lambda pr, b, ref: [(pr, b, ref)]),
    "estimation_error": (estimation_error, lambda pr, b, ref: [(b, ref)]),
}


@pytest.mark.parametrize("name", list(DOT_HELPERS))
def test_dot_helpers_match_their_matmul_copies(deep_iterates, name):
    # These helpers call ndarray.dot where their copies in helpers call @;
    # on a numpy or BLAS build where the two round differently this fails
    # by the helper's name.
    fn, arguments = DOT_HELPERS[name]
    copy = getattr(helpers, f"{name}_before")
    checked = 0
    for pr, iterates in deep_iterates:
        for b in iterates:
            for args in arguments(pr, b, iterates[-1]):
                assert _same_bytes(fn(*args), copy(*args)), (name, pr)
                checked += 1
    assert checked >= 48 * 5
