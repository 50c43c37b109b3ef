import json

import numpy as np
import pytest

from helpers import (SupportConditionReport, bench_problems, jacobi_svd_before, make_problem, pinv,
                     surrogate_minimizer, sweep_minimizers)
from hslasso import diagnostics, surrogate
from hslasso.baselines import reference_minimum
from hslasso.datagen import SyntheticSpec, generate
from hslasso.diagnostics import (
    closeness_sweep,
    default_support_tol,
    estimation_error,
    jacobi_svd,
    prediction_error,
    support_conditions_check,
    support_set,
)
from hslasso.problem import NumericalFailure


# ---------------------------------------------------------------------------
# Jacobi SVD / pseudo-inverse
# ---------------------------------------------------------------------------


def test_jacobi_svd_reconstruction_random():
    rng = np.random.default_rng(0)
    for shape in ((5, 3), (3, 5), (6, 6), (8, 2)):
        a = rng.standard_normal(shape)
        u, s, vt = jacobi_svd(a)
        assert np.linalg.norm(u @ np.diag(s) @ vt - a) < 1e-10
        # against the LAPACK oracle
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(np.sort(s)[::-1] - s_ref)) < 1e-10


def test_jacobi_svd_rank_deficient():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((6, 2))
    a = np.hstack([base, base[:, :1]])  # rank 2, 3 columns
    u, s, vt = jacobi_svd(a)
    assert np.linalg.norm(u @ np.diag(s) @ vt - a) < 1e-10
    assert s[-1] < 1e-12 * s[0]


def _assert_same_bytes(got, want, label):
    for name, x, y in zip(("U", "s", "Vt"), got, want):
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), (label, name)


def _assert_same_factors(a):
    _assert_same_bytes(jacobi_svd(a), jacobi_svd_before(a), np.shape(a))


def _seeded_matrices():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((9, 3))
    zero_col = rng.standard_normal((7, 4))
    zero_col[:, 2] = 0.0
    return {
        "tall": rng.standard_normal((30, 8)),
        "wide": rng.standard_normal((6, 25)),
        "square": rng.standard_normal((12, 12)),
        "rank-deficient": np.hstack([base, base @ rng.standard_normal((3, 2))]),
        "zero-column": zero_col,
        "single-column": rng.standard_normal((10, 1)),
        "single-row": rng.standard_normal((1, 10)),
    }


@pytest.mark.parametrize("name", list(_seeded_matrices()))
def test_jacobi_svd_matches_earlier_kernel_on_seeded_matrices(name):
    _assert_same_factors(_seeded_matrices()[name])


@pytest.fixture(scope="module")
def verify_references():
    """The six closeness-verify problems (grid seed 0, lambda 0.1, before the
    workload's sign flips) with their references."""
    return [(pr, reference_minimum(pr))
            for pr in bench_problems(((50, 20), (100, 50), (50, 80)), 0.1)]


@pytest.fixture(scope="module")
def verify_supports(verify_references):
    """The closeness-verify designs with their reference supports."""
    return [(pr.X, support_set(ref.beta_hat, default_support_tol(ref.beta_hat)))
            for pr, ref in verify_references]


def _factor_calls(monkeypatch, kernel, supports):
    """Run the support checks with `kernel` as the SVD; return the reports and
    each (input, factors) pair the checks asked for, all copied."""
    calls = []

    def spy(a):
        out = kernel(a)
        calls.append((np.array(a), tuple(np.array(x) for x in out)))
        return out

    monkeypatch.setattr(diagnostics, "jacobi_svd", spy)
    reports = [support_conditions_check(X, s) for X, s in supports]
    return reports, calls


@pytest.fixture(scope="module")
def earlier_kernel(verify_supports):
    """The verify problems' reports and their 18 factorizations under the
    earlier kernel, computed once for the byte-pin tests."""
    with pytest.MonkeyPatch.context() as mp:
        return _factor_calls(mp, jacobi_svd_before, verify_supports)


def test_jacobi_svd_matches_earlier_kernel_on_verify_problems(
        verify_supports, earlier_kernel, monkeypatch):
    _, calls = _factor_calls(monkeypatch, jacobi_svd, verify_supports)
    _, want = earlier_kernel
    assert len(calls) == len(want) == 18
    for (a, got), (a_before, factors) in zip(calls, want):
        # same input, so the earlier kernel's factors of it are `factors`
        assert a.shape == a_before.shape and a.tobytes() == a_before.tobytes()
        _assert_same_bytes(got, factors, a.shape)


def test_conditions_report_matches_earlier_kernel(verify_supports, earlier_kernel):
    reports = [support_conditions_check(X, s) for X, s in verify_supports]
    assert reports == earlier_kernel[0]


def test_conditions_block_matches_earlier_record(verify_supports):
    # the verify.json block, key order and value types included, against the
    # earlier record's to_dict() on the same numbers
    for X, s in verify_supports:
        block = support_conditions_check(X, s)
        record = SupportConditionReport(
            s_set=np.asarray(s), frob_pinv_s=block["frob_pinv_s"],
            frob_pinv_sc=block["frob_pinv_sc"], sigma_max_s1=block["sigma_max_s1"],
            sigma_min_s2=block["sigma_min_s2"], condition3_holds=block["condition3_holds"])
        assert json.dumps(block, indent=2) == json.dumps(record.to_dict(), indent=2)


def test_jacobi_svd_raises_when_not_converged(monkeypatch):
    # one sweep left this matrix with max |U'U - I| = 0.40 and no error
    a = np.random.default_rng(0).standard_normal((40, 30))
    with monkeypatch.context() as mp:
        mp.setattr(diagnostics, "MAX_SWEEPS", 1)
        with pytest.raises(NumericalFailure, match="not converged"):
            jacobi_svd(a)
    u, _, vt = jacobi_svd(a)
    assert np.abs(u.T @ u - np.eye(30)).max() < 1e-12
    assert np.abs(vt @ vt.T - np.eye(30)).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_jacobi_svd_rejects_non_finite_entries(bad):
    # a NaN once made the first sweep count as converged: s = [nan, nan]
    for a in ([[bad, 1.0], [2.0, 3.0], [1.0, 1.0]], [[1.0, 2.0, bad], [0.5, 3.0, 1.0]]):
        with pytest.raises(ValueError, match="NaN or inf"):
            jacobi_svd(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("col", [1, 4])  # in the support, in its complement
def test_conditions_reject_non_finite_x(bad, col):
    X = np.random.default_rng(3).standard_normal((10, 6))
    X[3, col] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        support_conditions_check(X, [0, 1])


@pytest.mark.parametrize("shape", [(9, 4), (4, 9)])
def test_jacobi_svd_factors_share_no_memory(shape):
    a = np.random.default_rng(4).standard_normal(shape)
    before = a.copy()
    u, s, vt = jacobi_svd(a)
    assert a.tobytes() == before.tobytes()
    for x, y in ((u, s), (u, vt), (s, vt), (u, a), (s, a), (vt, a)):
        assert not np.shares_memory(x, y)


def test_pinv_identities():
    rng = np.random.default_rng(2)
    for shape in ((5, 3), (3, 5), (4, 4)):
        a = rng.standard_normal(shape)
        ap = pinv(a)
        assert np.linalg.norm(a @ ap @ a - a) < 1e-10
        assert np.linalg.norm(ap @ a @ ap - ap) < 1e-10
        assert np.allclose(ap, np.linalg.pinv(a), atol=1e-10)


# ---------------------------------------------------------------------------
# support set and error measures
# ---------------------------------------------------------------------------


def test_support_set_cases():
    assert support_set(np.zeros(4), 0.0).size == 0
    got = support_set(np.array([1.0, 1e-12, -2.0]), 1e-8)
    assert got.tolist() == [0, 2]
    with pytest.raises(ValueError):
        support_set(np.ones(2), -1.0)


def test_support_of_identity_reference_matches_threshold_rule():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(8)
    lam = 0.08
    from helpers import identity_problem

    pr = identity_problem(y, lam)
    ref = reference_minimum(pr)
    got = support_set(ref.beta_hat, default_support_tol(ref.beta_hat))
    expected = np.flatnonzero(np.abs(y) > pr.n * lam)
    assert got.tolist() == expected.tolist()


def test_prediction_error_cases():
    pr = make_problem(4, n=10, p=4)
    beta = np.ones(4)
    assert prediction_error(pr, beta, beta) == 0.0
    # a null-space direction leaves the prediction unchanged
    wide = make_problem(5, n=3, p=6)
    _, _, vt = np.linalg.svd(wide.X)
    null_dir = vt[-1]
    assert abs(wide.X @ null_dir).max() < 1e-12
    assert prediction_error(wide, beta_tilde=null_dir, beta_hat=np.zeros(6)) < 1e-24


def test_estimation_error_cases():
    assert estimation_error(np.ones(3), np.ones(3)) == 0.0
    e = np.zeros(3)
    e[1] = 1.0
    assert estimation_error(e, np.zeros(3)) == 1.0
    with pytest.raises(ValueError):
        estimation_error(np.ones(2), np.ones(3))


def test_prediction_error_sweep_decreases():
    pr = generate(SyntheticSpec(n=50, p=20, rho=0.1, seed=4), lam=1e-3)
    ref = reference_minimum(pr)
    ts = (1.0, 0.1, 0.01, 1e-3, 1e-4)
    rows = closeness_sweep(pr, ref, ts)
    # the documented chain and Newton stop, bit for bit; at t = 0.5 and 3e-4
    # an iterate's gradient norm lies in (1e-10, 1e-9], so a stop of 1e-9
    # shows there too
    given = closeness_sweep(pr, ref, ts=(0.5, 3e-4, 0.5))  # one row per level, in order
    assert [row["t"] for row in given] == [0.5, 3e-4, 0.5]
    for sweep, levels in ((rows, ts), (given, (0.5, 3e-4))):
        minimizers = sweep_minimizers(pr, levels)
        for row in sweep:
            bt = minimizers[row["t"]]
            assert row["prediction_error"] == prediction_error(pr, bt, ref.beta_hat)
            assert row["estimation_error"] == estimation_error(bt, ref.beta_hat)
    errs = [r["prediction_error"] for r in rows]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12  # allow noise-level inversions only
    assert errs[-1] < 1e-6


def test_closeness_errors_fall_as_t_squared(verify_references, verify_supports):
    # Both errors fall by at least 1.5 decades per decade of t, from 1e-2 to
    # 1e-3 and from 1e-3 to 1e-4, on all six verify problems (1.69-1.97
    # measured), though the support condition 3 holds on the two 50x20 ones only.
    for pr, ref in verify_references:
        rows = closeness_sweep(pr, ref, (1e-2, 1e-3, 1e-4))
        for key in ("prediction_error", "estimation_error"):
            errs = np.array([row[key] for row in rows])
            assert np.all(np.log10(errs[:-1] / errs[1:]) >= 1.5), (pr, key, errs)
    holds = [support_conditions_check(X, s)["condition3_holds"] for X, s in verify_supports]
    assert holds == [True, False, False, True, False, False]


def test_estimation_error_small_under_well_conditioned_design():
    pr = generate(SyntheticSpec(n=50, p=10, rho=0.0, seed=6), lam=1e-3)
    ref = reference_minimum(pr)
    bt = surrogate_minimizer(pr, 1e-4)
    assert estimation_error(bt, ref.beta_hat) < 1e-4


def test_surrogate_minimizer_raises_when_not_converged(monkeypatch):
    pr = generate(SyntheticSpec(n=50, p=20, rho=0.1, seed=4), lam=1e-3)
    ref = reference_minimum(pr)
    monkeypatch.setattr(surrogate, "MAX_NEWTON", 1)
    with pytest.raises(NumericalFailure):
        closeness_sweep(pr, ref, (1e-4,))


@pytest.mark.parametrize("n, p, seed, levels", [(2, 5, 1, (1e-6, 1e-8)), (2, 8, 1, (1e-6, 1e-8)),
                                                (2, 8, 2, (1e-6, 1e-8)), (2, 5, 1, (1e-8,))])
def test_closeness_sweep_reaches_small_levels_on_rank_2_designs(n, p, seed, levels):
    # the `datagen --n n --p p --seed seed --lambda 1e-3` problems on which
    # `verify --levels 1e-6 1e-8` exited 3 while each level started from
    # zero: damped Newton's second full step landed far out on the gram's
    # null space, and at t = 1e-8 the line search stalled there.  Along the
    # path, each level from the one above, every level finishes; a lone
    # 1e-8 needs the decade ladder above it to do so
    pr = generate(SyntheticSpec(n=n, p=p, rho=0.1, seed=seed), lam=1e-3)
    rows = closeness_sweep(pr, reference_minimum(pr), levels)
    assert [row["t"] for row in rows] == list(levels)
    assert all(np.isfinite(row["prediction_error"]) for row in rows)


# ---------------------------------------------------------------------------
# design-condition report
# ---------------------------------------------------------------------------


def _orthonormal_design(n=8, p=5, seed=7):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return q


def test_conditions_hold_on_orthogonal_construction():
    X = _orthonormal_design()
    rep = support_conditions_check(X, [0, 1])
    assert rep["sigma_max_s1"] < 1e-10
    assert rep["sigma_min_s2"] == pytest.approx(1.0, abs=1e-10)
    assert rep["svd_method"] == "one-sided-jacobi"
    assert rep["condition3_holds"] is True


def test_conditions_fail_on_duplicate_column():
    X = _orthonormal_design()
    X_dup = X.copy()
    X_dup[:, 2] = X_dup[:, 0]  # duplicate a support column into the complement
    rep = support_conditions_check(X_dup, [0, 1])
    assert not rep["condition3_holds"]
    assert rep["sigma_max_s1"] >= 2.0 - 1e-10


def test_condition_flag_matches_invariant():
    rng = np.random.default_rng(8)
    for seed in range(5):
        X = np.random.default_rng(seed).standard_normal((10, 6))
        rep = support_conditions_check(X, [0, 1, 2])
        assert rep["condition3_holds"] == (
            rep["sigma_max_s1"] < min(2.0, 2.0 * rep["sigma_min_s2"]))


def test_conditions_factor_x_s_once(monkeypatch):
    # one SVD each of X_S, X_Sc and S1: each pseudo-inverse reuses the
    # factors of its rank count, and S2 needs no SVD of its own
    from hslasso import diagnostics

    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return jacobi_svd(a)

    monkeypatch.setattr(diagnostics, "jacobi_svd", counted)
    X = np.random.default_rng(3).standard_normal((10, 6))
    rep = support_conditions_check(X, [0, 1, 2])
    assert len(calls) == 3, calls
    assert rep["frob_pinv_s"] == float(np.linalg.norm(pinv(X[:, [0, 1, 2]])))


def test_sigma_min_s2_is_exact():
    # S2 = pinv(X_Sc) X_Sc is a projector; the SVD of its symmetric part
    # reported round-off here: 4.0e-17 for the 0 and 1 - 3.3e-16 for the 1
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((6, 10))  # |S^c| = 8 > n = 6: X_Sc is rank deficient
    rep = support_conditions_check(wide, [0, 1])
    assert rep["sigma_min_s2"] == 0.0
    assert not rep["condition3_holds"]
    tall = rng.standard_normal((12, 6))  # X_Sc has full column rank
    rep = support_conditions_check(tall, [0, 1, 2])
    assert rep["sigma_min_s2"] == 1.0


def test_conditions_validate_support():
    X = _orthonormal_design()
    with pytest.raises(ValueError):
        support_conditions_check(X, [])
    with pytest.raises(ValueError):
        support_conditions_check(X, list(range(5)))  # not a proper subset
    for index in (X.shape[1], -1):
        with pytest.raises(ValueError, match="support indices out of range"):
            support_conditions_check(X, [0, index])
    X_rankdef = X.copy()
    X_rankdef[:, 1] = X_rankdef[:, 0]
    with pytest.raises(ValueError):
        support_conditions_check(X_rankdef, [0, 1])  # rank-deficient X_S
    wide = np.random.default_rng(9).standard_normal((4, 8))
    with pytest.raises(ValueError, match="rank deficient"):
        support_conditions_check(wide, [0, 1, 2, 3, 4])  # |S| = 5 > n = 4
    # int() read these as columns [0, 1, 2] and [1, 2]
    for bad in ([0.7, 1.9, 2.2], [True, 2], [1.0, 2], np.array([True, False]), ["1"]):
        with pytest.raises(ValueError, match="must be integers"):
            support_conditions_check(X, bad)
    assert support_conditions_check(X, np.array([1, 0])) == support_conditions_check(X, [0, 1])
