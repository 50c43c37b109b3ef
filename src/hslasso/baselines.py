"""Benchmark solvers: proximal gradient (plain and accelerated), cyclic
coordinate descent, and a smoothed-penalty momentum method, plus
evaluators for their published worst-case gap envelopes.

Each method is a step map on a state tuple whose first entry is the
iterate, and :func:`iterate` drives every map (the homotopy inner and outer
loops too).  The maps only compute: a solve charges its steps by count,
once, from ``opcount.CHARGES``.  The four solvers stop against a precomputed
reference minimum, matching the measurement protocol of the benchmark
harness: the stopping comparison is free.  The reference oracle runs the
same FISTA map, to a subgradient-residual tolerance, tries an
exact solve on the iterate's support from residual 1e-1 on, halving the
stop after each refusal, and certifies the result by the Lasso duality
gap; the CD map run the same way is the test suite's independent
cross-check.  The CD sweep reads data built once per solve and moves
through one scratch buffer, so it allocates no array per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opcount import OpCounter
from .problem import (
    LassoProblem,
    NumericalFailure,
    ReferenceSolution,
    _readonly,
    check_number,
    lasso_objective,
    subgradient_residual,
)
from .trace import SolverTrace

METHODS = ("ista", "fista", "cd", "sl")
# the protocol of every run: sl's smoothing, and the reference's residual
# tolerance and step cap
SL_ALPHA = 100.0
REF_TOL = 1e-10
REF_MAX_ITERS = 500_000


@dataclass(frozen=True)
class BaselineConfig:
    """Settings of one flat solve, checked when built."""

    method: str
    beta0: np.ndarray
    epsilon: float
    max_iters: int
    ref: ReferenceSolution | None  # None until the reference is computed

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        vars(self).update(epsilon=check_number("epsilon", self.epsilon),
                          max_iters=check_number("max_iters", self.max_iters, integral=True))
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not np.all(np.isfinite(self.beta0)):
            raise ValueError("beta0 must be finite (no NaN or inf entries)")


def iterate(state, step, stop, max_iters: int):
    """Apply ``state = step(state)`` until ``stop(state, k)`` holds after k
    steps, at most ``max_iters`` times.

    The stop test runs before every step and once more at the cap.
    Returns (final state, steps taken, whether the stop test fired).
    """
    k = 0
    while not stop(state, k):
        if k >= max_iters:
            return state, k, False
        state = step(state)
        k += 1
    return state, k, True


def _run_flat(problem, config, counter, start, step, charge, inner_iters=1, aux=None):
    """Drive a flat method from ``start(beta0)`` until the objective is
    within config.epsilon of the reference minimum, appending one trace
    row per iterate (``aux`` gives the F_t column; default F).  Row k reads
    the start's total plus k steps of ``charge``; the steps are charged at
    the end."""
    trace = SolverTrace()
    base = counter.total()
    per_step = OpCounter().charge(charge, problem.p).total()

    def stop(state, k):
        beta = state[0]
        f = lasso_objective(problem, beta)
        trace.append(k, 0.0, inner_iters if k else 0, f,
                     f if aux is None else aux(beta), base + k * per_step)
        return f - config.ref.f_min <= config.epsilon

    beta0 = np.asarray(config.beta0, dtype=float).copy()
    state, steps, trace.converged = iterate(start(beta0), step, stop, config.max_iters)
    counter.charge(charge, problem.p, steps)
    trace.final_beta = state[0]
    return trace


def _prox_grad_step(problem, point, L, thr):
    """Soft threshold at thr = lambda/L of point - (gram*point - xty)/L."""
    moved = point - (problem.gram @ point - problem.xty) / L
    return np.sign(moved) * np.maximum(np.abs(moved) - thr, 0.0)


def _fista_step(problem, L, thr, state):
    """Prox-gradient step at the extrapolated point, then the momentum update."""
    beta, point, momentum = state
    beta_new = _prox_grad_step(problem, point, L, thr)
    momentum_new = (1.0 + math.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
    point = beta_new + ((momentum - 1.0) / momentum_new) * (beta_new - beta)
    return beta_new, point, momentum_new


def _prox_grad_setup(problem, counter):
    """Step size L, threshold lambda/L and the counter to charge."""
    L = problem.eig_max
    if not L > 0:
        raise ValueError("gram matrix has no positive eigenvalue; step size undefined")
    counter = counter if counter is not None else OpCounter()
    counter.charge("prox-grad-setup", problem.p)
    return L, problem.lam / L, counter


def ista_solve(problem: LassoProblem, config: BaselineConfig,
               counter: OpCounter | None = None) -> SolverTrace:
    L, thr, counter = _prox_grad_setup(problem, counter)
    return _run_flat(problem, config, counter, lambda b: (b,),
                     lambda s: (_prox_grad_step(problem, s[0], L, thr),), "prox-grad")


def fista_solve(problem: LassoProblem, config: BaselineConfig,
                counter: OpCounter | None = None) -> SolverTrace:
    L, thr, counter = _prox_grad_setup(problem, counter)
    # the extrapolated point starts at beta, so the first step has zero momentum
    return _run_flat(problem, config, counter, lambda b: (b, b.copy(), 1.0),
                     lambda s: _fista_step(problem, L, thr, s), "fista")


def _cd_sweep(beta, data, resid):
    """One full cycle j = 1..p; resid caches xtx @ beta and is updated in
    place at O(p) per coordinate that moves.

    ``data`` is :func:`_cd_data`'s, built once per solve.  Each coordinate
    is scalar float arithmetic with the soft threshold written as two
    comparisons (the dead zone keeps the sign of z on its zero), and a
    move is one multiply into the scratch buffer and one in-place add, so
    the sweep allocates no array.
    """
    rows, diag, xty, thresh, buf = data
    multiply, add = np.multiply, np.add  # local names: looked up once per sweep
    values = beta.tolist()
    for j, (d, xy) in enumerate(zip(diag, xty)):
        b = values[j]
        z = xy - (resid.item(j) - d * b)
        if z > thresh:
            bj = (z - thresh) / d
        elif z < -thresh:
            bj = (z + thresh) / d
        else:
            bj = math.copysign(0.0, z) / d
        if bj != b:  # an unmoved coordinate leaves resid as it is
            values[j] = bj
            multiply(rows[j], bj - b, buf)
            add(resid, buf, resid)
    beta[:] = values
    return beta, resid


def _cd_data(xtx, xty_raw, thresh):
    """What every sweep of one solve reads, built once: the columns of
    X'X as a list of contiguous rows, its diagonal and X'y as lists of
    floats, the threshold and a length-p scratch buffer."""
    if thresh < 0:
        raise ValueError("threshold must be nonnegative")
    return (list(np.ascontiguousarray(xtx.T)), np.diag(xtx).tolist(), xty_raw.tolist(), thresh,
            np.empty(xty_raw.size))


def cd_solve(problem: LassoProblem, config: BaselineConfig,
             counter: OpCounter | None = None) -> SolverTrace:
    """Cyclic coordinate descent, ascending order, one trace row per sweep."""
    counter = counter if counter is not None else OpCounter()
    xtx = problem.gram * problem.n
    if np.any(np.diag(xtx) <= 0):
        raise ValueError("degenerate column: zero diagonal in X'X")
    data = _cd_data(xtx, problem.xty * problem.n, problem.n * problem.lam)
    counter.charge("cd-setup", problem.p)
    return _run_flat(problem, config, counter, lambda b: (b, xtx @ b),
                     lambda s: _cd_sweep(s[0], data, s[1]), "cd", inner_iters=problem.p)


def sl_penalty_grad(w, alpha):
    """Entrywise derivative of the smoothed penalty
    phi_a(u) = (2/a) log(1+e^(a u)) - u, namely tanh(a u / 2).

    Smooth, bounded in (-1, 1) and finite at u = 0.  The curvature is at
    most a/2, matching the solver's step size
    1/(sigma_max^2 + lambda a / 2).
    """
    w = np.asarray(w, dtype=float)
    return np.tanh(0.5 * alpha * w)


def sl_objective(problem, beta, alpha) -> float:
    w = np.asarray(beta, dtype=float)
    z = alpha * w
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    phi = 2.0 * softplus / alpha - w
    r = problem.y - problem.X @ w
    return float(r @ r / (2.0 * problem.n) + problem.lam * np.sum(phi))


def _sl_step(problem, alpha, step, state):
    """Momentum point w, then a gradient step on the smoothed objective."""
    beta, beta_prev, k = state
    w = beta + ((k - 2.0) / (k + 1.0)) * (beta - beta_prev)
    g = problem.gram @ w - problem.xty + problem.lam * sl_penalty_grad(w, alpha)
    return w - step * g, beta, k + 1


def sl_solve(problem: LassoProblem, config: BaselineConfig,
             counter: OpCounter | None = None) -> SolverTrace:
    """Momentum descent on the smoothed objective, alpha = SL_ALPHA, with
    fixed step 1 / (sigma_max^2(X/sqrt(n)) + lambda*alpha/2)."""
    alpha = SL_ALPHA
    counter = counter if counter is not None else OpCounter()
    step = 1.0 / (problem.eig_max + problem.lam * alpha / 2.0)
    counter.charge("sl-setup", problem.p)
    return _run_flat(problem, config, counter, lambda b: (b, b.copy(), 0),
                     lambda s: _sl_step(problem, alpha, step, s), "sl",
                     aux=lambda b: sl_objective(problem, b, alpha))


def theoretical_bound(method: str, k: int, problem: LassoProblem,
                      beta0, ref: ReferenceSolution) -> float:
    """Published worst-case gap envelope of the given method at iteration k."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    k_min = 0 if method == "cd" else 1
    if k < k_min:
        raise ValueError(f"{method} bound defined for k >= {k_min}")
    d2 = float(np.sum((np.asarray(beta0, dtype=float) - ref.beta_hat) ** 2))
    L = problem.eig_max
    if method == "ista":
        return L * d2 / (2.0 * k)
    if method == "fista":
        return 2.0 * L * d2 / (k + 1.0) ** 2
    if method == "cd":
        return 4.0 * L * (1.0 + problem.p) * d2 / (k + 8.0 / problem.p)
    return (4.0 * d2 * L / k**2
            + 4.0 * math.sqrt(2.0 * problem.lam * problem.n * math.log(2.0)) * math.sqrt(d2) / k)


def solve(problem: LassoProblem, config: BaselineConfig,
          counter: OpCounter | None = None) -> SolverTrace:
    dispatch = {"ista": ista_solve, "fista": fista_solve, "cd": cd_solve, "sl": sl_solve}
    return dispatch[config.method](problem, config, counter)


# ---------------------------------------------------------------------------
# The reference oracle and its residual-driven drivers (never charged).
# ---------------------------------------------------------------------------


FINISH_LOOSE_TOL = 1e-1
FINISH_TIGHTEN = 2.0


def _minimize_to_residual(problem, state, step, finish=None):
    """Drive ``step`` until the subgradient residual is <= REF_TOL; None at
    REF_MAX_ITERS steps.

    With ``finish``, the run also stops at residual FINISH_LOOSE_TOL and at
    each FINISH_TIGHTEN times smaller one above REF_TOL, and returns
    finish(iterate) the first time that is not None.  It resumes from its
    full state after each refusal, so without an accepted finish the result
    is the plain run's iterate; the cap counts every step.  The reference's
    finish accepts only a solve with residual <= REF_TOL, which depends on
    the iterate's sign pattern alone, so where the stops lie changes only
    the cost: a problem with a unique minimizer gets the same bytes at
    whichever stop first finds its pattern.
    """
    stop_tol = REF_TOL if finish is None else max(FINISH_LOOSE_TOL, REF_TOL)
    max_iters = REF_MAX_ITERS
    while True:
        state, steps, reached = iterate(
            state, step, lambda s, k: subgradient_residual(problem, s[0]) <= stop_tol, max_iters)
        max_iters -= steps
        if not reached:
            return None
        if stop_tol <= REF_TOL:
            return state[0]
        finished = finish(state[0])
        if finished is not None:
            return finished
        stop_tol = max(stop_tol / FINISH_TIGHTEN, REF_TOL)


def fista_minimize_to_residual(problem, finish=None):
    """Accelerated proximal gradient from zero until the minimum-norm subgradient
    drops below REF_TOL; None at the cap.  ``finish`` is tried on the way, as
    in :func:`_minimize_to_residual`."""
    beta = np.zeros(problem.p)
    L = problem.eig_max
    if not L > 0:
        return beta if subgradient_residual(problem, beta) <= REF_TOL else None
    thr = problem.lam / L
    return _minimize_to_residual(problem, (beta, beta.copy(), 1.0),
                                 lambda s: _fista_step(problem, L, thr, s), finish)


def cd_minimize_to_residual(problem):
    """Cyclic coordinate descent from zero until the subgradient residual
    drops below REF_TOL; None at the sweep cap.  No library path calls it:
    the test suite runs it as an independent cross-check of the reference.
    """
    xtx = problem.gram * problem.n
    data = _cd_data(xtx, problem.xty * problem.n, problem.n * problem.lam)
    beta = np.zeros(problem.p)
    return _minimize_to_residual(problem, (beta, xtx @ beta),
                                 lambda s: _cd_sweep(s[0], data, s[1]))


def support_kkt_solution(problem: LassoProblem, beta) -> np.ndarray | None:
    """Exact minimizer on the sign pattern of beta, or None.

    With S = supp(beta) and s = sign(beta_S), solves the stationarity
    condition gram_SS b_S = xty_S - lambda s with b zero off S: the
    active-set step of the exact Lasso homotopy (Osborne, Presnell &
    Turlach, IMA J. Numer. Anal. 2000; LARS, Efron et al., Ann. Stat. 2004).
    b is returned only if it keeps the signs s and its subgradient residual
    is <= REF_TOL; a singular gram_SS returns None.
    """
    beta = np.asarray(beta, dtype=float)
    S = np.flatnonzero(beta)
    s = np.sign(beta[S])
    b = np.zeros(problem.p)
    try:
        b[S] = np.linalg.solve(problem.gram[np.ix_(S, S)], problem.xty[S] - problem.lam * s)
    except np.linalg.LinAlgError:
        return None
    if np.array_equal(np.sign(b[S]), s) and subgradient_residual(problem, b) <= REF_TOL:
        return b
    return None


def _reference_iterate(problem: LassoProblem) -> tuple[np.ndarray | None, str]:
    """FISTA from zero, finished by :func:`support_kkt_solution` at the first
    looser residual where that solve is accepted; otherwise FISTA's own
    iterate at residual <= REF_TOL.  Returns (beta or None at the cap, method)."""
    method = "fista"

    def finish(beta):
        nonlocal method
        exact = support_kkt_solution(problem, beta)
        if exact is not None:  # the run returns at the first accepted solve
            method = "support-kkt"
        return exact

    beta = fista_minimize_to_residual(problem, finish=finish)
    return beta, method


def reference_minimum(problem: LassoProblem) -> ReferenceSolution:
    """Certified ground-truth minimum: the iterate of :func:`_reference_iterate`,
    whose subgradient residual is <= tol = REF_TOL, certified by the Lasso
    duality gap G (Gap Safe screening: Fercoq, Gramfort & Salmon, ICML 2015).
    With r = y - X b, g = X'r/n and a = min(1, lambda/||g||_inf), theta = a r/n
    is dual feasible, so G = f(b) - (theta'y - (n/2)||theta||^2) >= f(b) - f*.
    The residual bound tol bounds G:
      G = (1-a)^2 ||r||^2/(2n) + lambda ||b||_1 - a g'b;
      ||g||_inf <= lambda + tol, so 1-a <= tol/lambda, and g_i b_i >= (lambda - tol)|b_i|;
      so G <= (tol/lambda)^2 ||r||^2/(2n) + (lambda (1-a) + a tol) ||b||_1
           <= (tol/lambda)^2 ||r||^2/(2n) + 2 tol ||b||_1.
    A larger G, beyond 1e-12 max(1, |f|) of round-off, raises NumericalFailure.
    """
    tol = REF_TOL
    beta, method = _reference_iterate(problem)
    if beta is None:
        raise NumericalFailure("reference solver did not reach the residual tolerance")
    f = lasso_objective(problem, beta)
    n, lam = problem.n, problem.lam
    r = problem.y - problem.X @ beta
    theta = r / max(n, float(np.max(np.abs(problem.X.T @ r))) / lam)
    gap = f - float(theta @ problem.y - 0.5 * n * (theta @ theta))
    bound = 2.0 * tol * float(np.sum(np.abs(beta))) + (tol / lam) ** 2 * float(r @ r) / (2.0 * n)
    if not gap <= bound + 1e-12 * max(1.0, abs(f)):
        raise NumericalFailure(f"reference duality gap {gap!r} exceeds {bound!r}, the bound "
                               f"implied by the residual tolerance {tol!r}")
    return ReferenceSolution(beta_hat=_readonly(beta), f_min=f, dual_gap=gap, method=method)
