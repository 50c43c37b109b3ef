"""Benchmark solvers: proximal gradient (plain and accelerated), cyclic
coordinate descent, and a smoothed-penalty momentum method, plus
evaluators for their published worst-case gap envelopes.

Each method is a step map on a state tuple whose first entry is the
iterate, and :func:`iterate` drives every map (the homotopy inner and outer
loops too).  Each map charges its work to the operation counter once per
step, in closed form.  The four solvers stop against a precomputed
reference minimum, matching the measurement protocol of the benchmark
harness: the stopping comparison is free.  The reference oracle runs the
same FISTA map uncharged, to a subgradient-residual tolerance, and may
finish it early with an exact solve on the iterate's support; the CD map
run the same way is the test suite's independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opcount import OpCounter
from .problem import (
    LassoProblem,
    ReferenceSolution,
    lasso_objective,
    subgradient_residual,
)
from .trace import SolverTrace

METHODS = ("ista", "fista", "cd", "sl")


@dataclass(frozen=True)
class BaselineConfig:
    """Settings of one flat solve, checked when built."""

    method: str
    beta0: np.ndarray
    epsilon: float
    max_iters: int
    ref: ReferenceSolution | None  # None until the reference is computed
    sl_alpha: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not np.all(np.isfinite(self.beta0)):
            raise ValueError("beta0 must be finite (no NaN or inf entries)")
        if self.method == "sl":
            if self.sl_alpha is None or not self.sl_alpha > 0:
                raise ValueError("sl requires a positive sl_alpha")
        elif self.sl_alpha is not None:
            raise ValueError("sl_alpha is only meaningful for method 'sl'")


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


def soft_threshold(x, alpha):
    """Shrink toward zero by alpha with a dead zone; prox of alpha*|.|."""
    if np.any(np.asarray(alpha) < 0):
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - alpha, 0.0)
    return float(out) if out.ndim == 0 else out


def _run_flat(problem, config, metadata, counter, start, step, inner_iters=1, aux=None):
    """Drive a flat method from ``start(beta0)`` until the objective is
    within config.epsilon of the reference minimum, appending one trace
    row per iterate (``aux`` gives the F_t column; default F).
    """
    trace = SolverTrace(metadata=metadata)

    def stop(state, k):
        beta = state[0]
        f = lasso_objective(problem, beta)
        trace.append(k, 0.0, inner_iters if k else 0, f,
                     f if aux is None else aux(beta), counter.total())
        return f - config.ref.f_min <= config.epsilon

    beta0 = np.asarray(config.beta0, dtype=float).copy()
    state, _, trace.converged = iterate(start(beta0), step, stop, config.max_iters)
    trace.final_beta = state[0]
    return trace


def _prox_grad_step(problem, point, L, thr, counter):
    """Soft threshold at thr = lambda/L of point - (gram*point - xty)/L.

    Charged p^2+p mults, p^2+2p adds and 2p comparisons: the matvec, the
    shift, the scaled step and the soft threshold.
    """
    moved = point - (problem.gram @ point - problem.xty) / L
    if counter is not None:
        p = point.size
        counter.mults += p * p + p
        counter.adds += p * p + 2 * p
        counter.comparisons += 2 * p
    return np.sign(moved) * np.maximum(np.abs(moved) - thr, 0.0)


def _fista_step(problem, L, thr, state, counter):
    """Prox-gradient step at the extrapolated point, then the momentum
    update: 1 sqrt, p+3 mults and 2p+2 adds beyond the prox-gradient step."""
    beta, point, momentum = state
    beta_new = _prox_grad_step(problem, point, L, thr, counter)
    momentum_new = (1.0 + math.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
    point = beta_new + ((momentum - 1.0) / momentum_new) * (beta_new - beta)
    if counter is not None:
        p = beta.size
        counter.transcendentals += 1
        counter.mults += p + 3
        counter.adds += 2 * p + 2
    return beta_new, point, momentum_new


def _prox_grad_setup(problem, counter):
    """Step size L, threshold lambda/L (one mult) and the counter to charge."""
    L = problem.eig_max
    if not L > 0:
        raise ValueError("gram matrix has no positive eigenvalue; step size undefined")
    counter = counter if counter is not None else OpCounter()
    counter.mults += 1
    return L, problem.lam / L, counter


def ista_solve(problem: LassoProblem, config: BaselineConfig,
               counter: OpCounter | None = None) -> SolverTrace:
    L, thr, counter = _prox_grad_setup(problem, counter)
    return _run_flat(problem, config, {"method": "ista", "L": L}, counter, lambda b: (b,),
                     lambda s: (_prox_grad_step(problem, s[0], L, thr, counter),))


def fista_solve(problem: LassoProblem, config: BaselineConfig,
                counter: OpCounter | None = None) -> SolverTrace:
    L, thr, counter = _prox_grad_setup(problem, counter)
    # the extrapolated point starts at beta, so the first step has zero momentum
    return _run_flat(problem, config, {"method": "fista", "L": L}, counter,
                     lambda b: (b, b.copy(), 1.0),
                     lambda s: _fista_step(problem, L, thr, s, counter))


def _cd_sweep(beta, xtx, xty_raw, diag, thresh, resid, counter):
    """One full cycle j = 1..p; resid caches xtx @ beta and is updated in
    place at O(p) per coordinate that moves.

    Each coordinate is scalar float arithmetic with the soft threshold
    applied inline; the sweep's work is charged once, in closed form
    (the coordinate-descent convention in ``opcount``).
    """
    if thresh < 0:
        raise ValueError("threshold must be nonnegative")
    p = beta.size
    values = beta.tolist()
    for j, (d, xy) in enumerate(zip(diag.tolist(), xty_raw.tolist())):
        b = values[j]
        z = xy - (resid.item(j) - d * b)
        bj = math.copysign(max(abs(z) - thresh, 0.0), z) / d
        if bj != b:  # an unmoved coordinate leaves resid as it is
            values[j] = bj
            resid += (bj - b) * xtx[:, j]
    beta[:] = values
    if counter is not None:
        counter.mults += p * (p + 2)
        counter.adds += p * (p + 4)
        counter.comparisons += 2 * p
    return beta, resid


def _cd_data(problem):
    """X'X, X'y, the squared column norms and the threshold n*lambda."""
    xtx = problem.gram * problem.n
    return xtx, problem.xty * problem.n, np.diag(xtx), problem.n * problem.lam


def cd_solve(problem: LassoProblem, config: BaselineConfig,
             counter: OpCounter | None = None) -> SolverTrace:
    """Cyclic coordinate descent, ascending order, one trace row per sweep."""
    counter = counter if counter is not None else OpCounter()
    p = problem.p
    xtx, xty_raw, diag, thresh = _cd_data(problem)
    if np.any(diag <= 0):
        raise ValueError("degenerate column: zero diagonal in X'X")
    counter.setup_ops += p * p + p  # rescale cached gram and xty
    counter.mults += 1 + p * p  # n*lambda, then the matvec xtx @ beta0
    counter.adds += p * (p - 1)
    return _run_flat(problem, config, {"method": "cd"}, counter, lambda b: (b, xtx @ b),
                     lambda s: _cd_sweep(s[0], xtx, xty_raw, diag, thresh, s[1], counter),
                     inner_iters=p)


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


def _sl_step(problem, alpha, step, state, counter):
    """Momentum point w, then a gradient step on the smoothed objective.

    Charged 1 tanh per entry, p^2+5p+1 mults and p^2+5p+2 adds: the
    momentum weight and extrapolation, the penalty derivative, the matvec
    with its shift and penalty term, and the step.
    """
    beta, beta_prev, k = state
    w = beta + ((k - 2.0) / (k + 1.0)) * (beta - beta_prev)
    g = problem.gram @ w - problem.xty + problem.lam * sl_penalty_grad(w, alpha)
    if counter is not None:
        p = beta.size
        counter.transcendentals += p
        counter.mults += p * p + 5 * p + 1
        counter.adds += p * p + 5 * p + 2
    return w - step * g, beta, k + 1


def sl_solve(problem: LassoProblem, config: BaselineConfig,
             counter: OpCounter | None = None) -> SolverTrace:
    """Momentum descent on the smoothed objective with fixed step
    1 / (sigma_max^2(X/sqrt(n)) + lambda*alpha/2)."""
    alpha = config.sl_alpha
    counter = counter if counter is not None else OpCounter()
    step = 1.0 / (problem.eig_max + problem.lam * alpha / 2.0)
    counter.mults += 2
    counter.adds += 1
    return _run_flat(problem, config, {"method": "sl", "alpha": alpha, "step": step},
                     counter, lambda b: (b, b.copy(), 0),
                     lambda s: _sl_step(problem, alpha, step, s, counter),
                     aux=lambda b: sl_objective(problem, b, alpha))


def theoretical_bound(method: str, k: int, problem: LassoProblem,
                      beta0, ref: ReferenceSolution) -> float:
    """Published worst-case gap envelope of the given method at iteration k."""
    beta0 = np.asarray(beta0, dtype=float)
    d2 = float(np.sum((beta0 - ref.beta_hat) ** 2))
    L = problem.eig_max
    if method == "ista":
        if k < 1:
            raise ValueError("ista bound defined for k >= 1")
        return L * d2 / (2.0 * k)
    if method == "fista":
        if k < 1:
            raise ValueError("fista bound defined for k >= 1")
        return 2.0 * L * d2 / (k + 1.0) ** 2
    if method == "cd":
        if k < 0:
            raise ValueError("cd bound defined for k >= 0")
        return 4.0 * L * (1.0 + problem.p) * d2 / (k + 8.0 / problem.p)
    if method == "sl":
        if k < 1:
            raise ValueError("sl bound defined for k >= 1")
        return (4.0 * d2 * L / k**2
                + 4.0 * math.sqrt(2.0 * problem.lam * problem.n * math.log(2.0))
                * math.sqrt(d2) / k)
    raise ValueError(f"unknown method {method!r}")


def solve(problem: LassoProblem, config: BaselineConfig,
          counter: OpCounter | None = None) -> SolverTrace:
    dispatch = {"ista": ista_solve, "fista": fista_solve, "cd": cd_solve, "sl": sl_solve}
    return dispatch[config.method](problem, config, counter)


# ---------------------------------------------------------------------------
# Residual-driven drivers for the reference oracle (never charged).
# ---------------------------------------------------------------------------


FINISH_LOOSE_TOL = 1e-5
FINISH_TIGHTEN = 100.0


def _minimize_to_residual(problem, state, step, tol, max_iters, finish=None):
    """Drive ``step`` until the subgradient residual is <= tol; None at the cap.

    With ``finish``, the run also stops at residual FINISH_LOOSE_TOL and at
    each FINISH_TIGHTEN times smaller one above tol, and returns
    finish(iterate) the first time that is not None.  It resumes from its
    full state after each refusal, so without an accepted finish the result
    is the plain run's iterate; the cap counts every step.
    """
    stop_tol = tol if finish is None else max(FINISH_LOOSE_TOL, tol)
    while True:
        state, steps, reached = iterate(
            state, step, lambda s, k: subgradient_residual(problem, s[0]) <= stop_tol, max_iters)
        max_iters -= steps
        if not reached:
            return None
        if stop_tol <= tol:
            return state[0]
        finished = finish(state[0])
        if finished is not None:
            return finished
        stop_tol = max(stop_tol / FINISH_TIGHTEN, tol)


def fista_minimize_to_residual(problem, beta0, tol, max_iters=500_000, finish=None):
    """Accelerated proximal gradient until the minimum-norm subgradient of
    the objective drops below tol; returns None if the cap is hit.
    ``finish`` is tried on the way, as in :func:`_minimize_to_residual`."""
    L = problem.eig_max
    if not L > 0:
        return np.zeros(problem.p) if subgradient_residual(problem, np.zeros(problem.p)) <= tol else None
    thr = problem.lam / L
    beta = np.asarray(beta0, dtype=float).copy()
    return _minimize_to_residual(problem, (beta, beta.copy(), 1.0),
                                 lambda s: _fista_step(problem, L, thr, s, None), tol, max_iters,
                                 finish)


def cd_minimize_to_residual(problem, beta0, tol, max_iters=500_000):
    """Cyclic coordinate descent until the subgradient residual drops below
    tol; returns None if the sweep cap is hit.  No library path calls it:
    the test suite runs it as an independent cross-check of the reference.
    """
    xtx, xty_raw, diag, thresh = _cd_data(problem)
    beta = np.asarray(beta0, dtype=float).copy()
    return _minimize_to_residual(
        problem, (beta, xtx @ beta),
        lambda s: _cd_sweep(s[0], xtx, xty_raw, diag, thresh, s[1], None), tol, max_iters)
