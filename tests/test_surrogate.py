import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_diff, make_problem, spec_grad_before, surrogate_grad_before
from hslasso.opcount import OpCounter
from hslasso.surrogate import LEVEL_RANGE, SurrogateSpec, smoothness_constants, surrogate_grad

T_GRID = (10.0, 1.0, 0.1, 0.01, 0.001)


def test_spec_constants_match_definitions():
    for t in T_GRID:
        s = SurrogateSpec(t)
        lg = math.log1p(t)
        assert s.c_quad == lg**2 / (3 * t**3)
        assert s.c_lin == (lg / t) ** 2
        assert s.c_inv == lg**2 / 3
        assert s.c_const == -(lg**2) / t


def test_spec_rejects_nonpositive_t():
    # outside LEVEL_RANGE, t**3 in c_quad overflowed or underflowed a float
    lo, hi = LEVEL_RANGE
    for t in (0.0, -1.0, math.inf, math.nan, 1e-120, np.nextafter(lo, 0.0),
              np.nextafter(hi, math.inf), 1e160):
        with pytest.raises(ValueError):
            SurrogateSpec(t)
    for t in (True, np.True_, "0.5"):  # True built the level t = 1
        with pytest.raises(ValueError, match="surrogate level t has the wrong type"):
            SurrogateSpec(t)
    assert type(SurrogateSpec(np.float32(0.5)).t) is float
    assert 0 < SurrogateSpec(lo).c_quad < math.inf and 0 < SurrogateSpec(hi).c_quad


def test_value_zero_and_branch_point():
    for t in T_GRID:
        s = SurrogateSpec(t)
        assert s.value(0.0) == 0.0
        # both branch formulas agree at |x| = t
        quad = s.c_quad * t * t
        outer = s.c_lin * t + s.c_inv / t + s.c_const
        expected = math.log1p(t) ** 2 / (3 * t)
        assert quad == pytest.approx(expected, rel=1e-14)
        assert outer == pytest.approx(expected, rel=1e-12)
        assert s.value(t) == pytest.approx(expected, rel=1e-14)
        assert s.value(-t) == pytest.approx(expected, rel=1e-14)


def test_value_approaches_abs_for_small_t():
    # direct branch evaluation at t = 0.01, x = 1; the deviation from |x|
    # is (1 - (log(1+t)/t)^2) - log(1+t)^2/3 + log(1+t)^2/t, about 2t
    s = SurrogateSpec(0.01)
    lg = math.log1p(0.01)
    expected = (lg / 0.01) ** 2 + lg**2 / 3.0 - lg**2 / 0.01
    assert s.value(1.0) == pytest.approx(expected, rel=1e-14)
    assert abs(s.value(1.0) - 1.0) == pytest.approx(2 * 0.01, rel=0.02)
    # the deviation really does vanish with t
    devs = [abs(SurrogateSpec(t).value(1.0) - 1.0) for t in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-4


def test_c0_c1_continuity_at_branch():
    for t in T_GRID:
        s = SurrogateSpec(t)
        below = t * (1 - 1e-13)
        above = t * (1 + 1e-13)
        assert abs(s.value(below) - s.value(above)) < 1e-12 * max(1.0, s.value(t))
        assert abs(s.grad(below) - s.grad(above)) < 1e-12 * max(1.0, abs(s.grad(t)))


def test_grad_zero_and_branch_value():
    for t in T_GRID:
        s = SurrogateSpec(t)
        assert s.grad(0.0) == 0.0
        expected = (2.0 / 3.0) * math.log1p(t) ** 2 / t**2
        assert s.grad(t) == pytest.approx(expected, rel=1e-13)
        assert s.grad(-t) == pytest.approx(-expected, rel=1e-13)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for t in T_GRID:
        s = SurrogateSpec(t)
        xs = rng.uniform(-3.0 * max(t, 1.0), 3.0 * max(t, 1.0), size=1000)
        # keep away from the branch point, where the third derivative jumps
        xs = xs[np.abs(np.abs(xs) - t) > 1e-4]
        for x in xs:
            fd = central_diff(s.value, x)
            g = s.grad(x)
            assert g == pytest.approx(fd, rel=1e-6, abs=1e-9)


def edge_points(t, rng):
    """Signed zeros, the branch point and its neighbours, extreme magnitudes
    and random points on both branches."""
    special = [0.0, t, np.nextafter(t, 0.0), np.nextafter(t, np.inf), 1e-300, 5e-324,
               1e300, np.finfo(float).max, np.inf]
    xs = np.array(special + list(rng.uniform(-3.0 * t, 3.0 * t, size=40)))
    return np.concatenate([xs, -xs])


@pytest.mark.parametrize("t", [1e-4, 0.5, 3.0, 1e100])
@np.errstate(over="ignore", invalid="ignore")  # x*x overflows alike in both bodies
def test_grad_matches_its_earlier_body(t):
    # copysign(v, x) for sign(x) * v, in place: the same bytes, arrays and scalars
    s = SurrogateSpec(t)
    xs = edge_points(t, np.random.default_rng(3))
    new, old = s.grad(xs), spec_grad_before(s, xs)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()
    assert s.grad(xs.reshape(2, -1)).tobytes() == old.tobytes()
    for x in xs:
        g = s.grad(x)
        assert type(g) is float
        assert np.float64(g).tobytes() == np.float64(spec_grad_before(s, x)).tobytes()
    assert math.isnan(s.grad(math.nan)) and np.isnan(s.grad(np.array([math.nan, 1.0])))[0]


@pytest.mark.parametrize("t", [1e-4, 0.5, 3.0, 1e100])
@np.errstate(over="ignore", invalid="ignore")
def test_surrogate_grad_matches_its_earlier_body(t):
    # one level map, its operands broadcast once, called on many iterates
    pr = make_problem(5, n=30, p=8)
    spec = SurrogateSpec(t)
    rng = np.random.default_rng(4)
    points = edge_points(t, rng)
    points = points[np.isfinite(points)]
    c_old = OpCounter()
    grad = surrogate_grad(pr, spec)
    betas = [np.array([t, -t, 0.0, -0.0, np.nextafter(t, 0.0), np.nextafter(t, np.inf),
                       2.0 * t, -3.0 * t])]
    betas += [rng.choice(points, size=pr.p) for _ in range(20)]
    for beta in betas:
        before = beta.copy()
        new = grad(beta)
        assert new.tobytes() == surrogate_grad_before(pr, spec, beta, c_old).tobytes()
        assert beta.tobytes() == before.tobytes()
    # the earlier body's own charges against the table's
    assert c_old == OpCounter().charge("hs-gradient", pr.p, len(betas))


def test_hess_diag_values_and_positivity():
    for t in T_GRID:
        s = SurrogateSpec(t)
        at_zero = (2.0 / 3.0) * math.log1p(t) ** 2 / t**3
        h = s.hess_diag(np.array([0.0, t, -t, 100.0 * max(t, 1.0)]))
        assert h[0] == pytest.approx(at_zero, rel=1e-13)
        assert h[1] == pytest.approx(at_zero, rel=1e-13)
        assert h[2] == pytest.approx(at_zero, rel=1e-13)
        assert h[3] < at_zero * 1e-4
        assert np.all(h > 0)


def test_second_derivative_continuous_at_branch():
    # one-sided difference quotients of grad, taken wholly inside and wholly
    # outside |x| = t, both match the curvature 2 log(1+t)^2 / (3 t^3) there
    for t in T_GRID:
        s = SurrogateSpec(t)
        expected = float(s.hess_diag(np.array([t]))[0])
        assert expected == pytest.approx(2 * math.log1p(t) ** 2 / (3 * t**3), rel=1e-13)
        h = 1e-6 * t
        for sign in (1.0, -1.0):
            inside = sign * (s.grad(sign * (t - h)) - s.grad(sign * (t - 2 * h))) / h
            outside = sign * (s.grad(sign * (t + 2 * h)) - s.grad(sign * (t + h))) / h
            assert inside == pytest.approx(expected, rel=1e-5)
            assert outside == pytest.approx(expected, rel=1e-5)


def test_hess_diag_matches_grad_finite_differences():
    rng = np.random.default_rng(11)
    for t in (1.0, 0.1):
        s = SurrogateSpec(t)
        xs = rng.uniform(-3.0, 3.0, size=300)
        xs = xs[np.abs(np.abs(xs) - t) > 1e-4]
        for x in xs:
            fd = central_diff(s.grad, x)
            hd = float(s.hess_diag(np.array([x]))[0])
            assert hd == pytest.approx(fd, rel=1e-5, abs=1e-8)


@given(st.floats(-50.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_evenness_exact(x):
    s = SurrogateSpec(0.5)
    assert s.value(x) == s.value(-x)
    assert s.grad(x) == -s.grad(-x)


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_midpoint_convexity(a, b):
    s = SurrogateSpec(0.3)
    mid = s.value(0.5 * (a + b))
    assert mid <= 0.5 * s.value(a) + 0.5 * s.value(b) + 1e-12


def test_sandwich_on_dense_grids():
    for t in T_GRID:
        s = SurrogateSpec(t)
        for B in (1.0, 2.0, 10.0):
            if B < t:
                continue
            lower = s.value(B) - B  # the gap value(x) - |x| is least at |x| = B
            xs = np.linspace(-B, B, 10_001)
            gap = s.value(xs) - np.abs(xs)
            assert np.all(gap <= 1e-12)
            assert np.all(gap >= lower - 1e-12)


def test_gap_bounds_example_t1_b2():
    s = SurrogateSpec(1.0)
    lg2 = math.log(2.0) ** 2
    expected = (lg2 * 2.0 + lg2 / 6.0 - lg2) - 2.0  # outer branch at x = 2
    assert s.value(2.0) - 2.0 == pytest.approx(expected, rel=1e-13)


def test_smoothness_constants_identity_gram():
    # gram = I via X = sqrt(n) * I
    n = 4
    X = math.sqrt(n) * np.eye(n)
    from hslasso.problem import LassoProblem

    pr = LassoProblem(y=np.zeros(n), X=X, lam=1.0)
    L, mu = smoothness_constants(pr, SurrogateSpec(1.0), B=1.0)
    expected = 1.0 + (2.0 / 3.0) * math.log(2.0) ** 2
    assert L == pytest.approx(expected, rel=1e-12)
    assert mu == pytest.approx(expected, rel=1e-12)
    assert L / mu == pytest.approx(1.0, rel=1e-12)
    # B < t: every iterate is on the quadratic branch, whose curvature is flat,
    # so the pair is the one at B = t (mu took B**3 and rose past L)
    for B in (0.5, 1e-6):
        assert smoothness_constants(pr, SurrogateSpec(1.0), B=B) == (L, mu)


def test_smoothness_constants_rank_deficient_penalty_keeps_kappa_finite():
    rng = np.random.default_rng(0)
    from hslasso.problem import LassoProblem

    X = rng.standard_normal((5, 8))  # p > n: singular gram
    pr = LassoProblem(y=rng.standard_normal(5), X=X, lam=1e-3)
    L, mu = smoothness_constants(pr, SurrogateSpec(0.5), B=10.0)
    assert mu > 0
    assert math.isfinite(L / mu)
    assert L >= mu
    L, mu = smoothness_constants(pr, SurrogateSpec(0.5), B=0.1)
    assert (L, mu) == smoothness_constants(pr, SurrogateSpec(0.5), B=0.5) and L >= mu


def test_smoothness_constants_requires_positive_bound():
    pr = make_problem(0)
    for B in (0.0, 1e-120, 1e200):  # B**3 in mu underflowed or overflowed outside LEVEL_RANGE
        with pytest.raises(ValueError, match="iterate bound B"):
            smoothness_constants(pr, SurrogateSpec(1.0), B=B)


def test_smoothness_constants_zero_penalty_sentinel():
    # with no penalty weight and a singular gram mu is 0, which
    # agd_coefficients rejects; problem instances require lam > 0, so probe
    # with a bare stub
    class Stub:
        eig_max = 1.0
        eig_min = 0.0
        lam = 0.0

    assert smoothness_constants(Stub(), SurrogateSpec(1.0), B=2.0) == (1.0, 0.0)

    class StubFull(Stub):
        eig_min = 0.25

    L, mu = smoothness_constants(StubFull(), SurrogateSpec(1.0), B=2.0)
    assert L / mu == pytest.approx(4.0)


def test_condition_number_bound_dominates_constants():
    # the paper's bound on kappa over all levels t >= tau, for iterates
    # bounded entrywise by B: 3 B^3 eig_max / (2 lam log(1+tau)^2) + (B/tau)^3
    pr = make_problem(2, n=30, p=6, lam=0.05)
    B, tau = 5.0, 0.01
    bound = 3.0 * B**3 * pr.eig_max / (2.0 * pr.lam * math.log1p(tau) ** 2) + (B / tau) ** 3
    t = tau
    # the levels above B too, where mu is L's penalty term
    while t < 8.0:
        L, mu = smoothness_constants(pr, SurrogateSpec(t), B)
        assert L / mu <= bound * (1 + 1e-12)
        t *= 1.7
