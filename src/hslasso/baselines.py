"""Benchmark solvers: proximal gradient (plain and accelerated), cyclic
coordinate descent, and a smoothed-penalty momentum method, plus
evaluators for their published worst-case gap envelopes.

All four stop against a precomputed reference minimum, matching the
measurement protocol of the benchmark harness: the stopping comparison is
free, only the update map charges the operation counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opcount import (
    OpCounter,
    charge_matvec,
    charge_scalar,
    charge_setup,
    charge_soft_threshold,
    charge_vec_add,
    charge_vec_scale,
)
from .problem import (
    LassoProblem,
    ReferenceSolution,
    lasso_objective,
    subgradient_residual,
)
from .trace import SolverTrace

METHODS = ("ista", "fista", "cd", "sl")


@dataclass
class BaselineConfig:
    method: str
    beta0: np.ndarray
    epsilon: float
    max_iters: int
    ref: ReferenceSolution
    sl_alpha: float | None = None

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.method == "sl":
            if self.sl_alpha is None or not self.sl_alpha > 0:
                raise ValueError("sl requires a positive sl_alpha")
        elif self.sl_alpha is not None:
            raise ValueError("sl_alpha is only meaningful for method 'sl'")


def soft_threshold(x, alpha):
    """Shrink toward zero by alpha with a dead zone; prox of alpha*|.|."""
    if np.any(np.asarray(alpha) < 0):
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - alpha, 0.0)
    return float(out) if out.ndim == 0 else out


def _gap(problem, beta, ref) -> float:
    return lasso_objective(problem, beta) - ref.f_min


def _prox_grad_step(problem, point, L, counter):
    """point - (gram*point - xty)/L then entrywise soft threshold."""
    p = problem.p
    g = problem.gram @ point - problem.xty
    charge_matvec(counter, p, p)
    charge_vec_add(counter, p)
    moved = point - g / L
    charge_vec_scale(counter, p)
    charge_vec_add(counter, p)
    charge_soft_threshold(counter, p)
    return soft_threshold(moved, problem.lam / L)


def ista_solve(problem: LassoProblem, config: BaselineConfig,
               counter: OpCounter | None = None) -> SolverTrace:
    config.validate()
    L = problem.eig_max
    if not L > 0:
        raise ValueError("gram matrix has no positive eigenvalue; step size undefined")
    beta = np.asarray(config.beta0, dtype=float).copy()
    counter = counter if counter is not None else OpCounter()
    charge_scalar(counter, "mult")  # lambda/L
    trace = SolverTrace(metadata={"method": "ista", "L": L})
    f0 = lasso_objective(problem, beta)
    trace.append(0, 0.0, 0, f0, f0, counter.total())
    k = 0
    converged = False
    while True:
        if _gap(problem, beta, config.ref) <= config.epsilon:
            converged = True
            break
        if k >= config.max_iters:
            break
        beta = _prox_grad_step(problem, beta, L, counter)
        k += 1
        f = lasso_objective(problem, beta)
        trace.append(k, 0.0, 1, f, f, counter.total())
    trace.final_beta = beta
    trace.converged = converged
    return trace


def fista_solve(problem: LassoProblem, config: BaselineConfig,
                counter: OpCounter | None = None) -> SolverTrace:
    config.validate()
    L = problem.eig_max
    if not L > 0:
        raise ValueError("gram matrix has no positive eigenvalue; step size undefined")
    beta = np.asarray(config.beta0, dtype=float).copy()
    point = beta.copy()  # extrapolated sequence; first step has zero momentum
    momentum = 1.0
    counter = counter if counter is not None else OpCounter()
    charge_scalar(counter, "mult")
    trace = SolverTrace(metadata={"method": "fista", "L": L})
    f0 = lasso_objective(problem, beta)
    trace.append(0, 0.0, 0, f0, f0, counter.total())
    p = problem.p
    k = 0
    converged = False
    while True:
        if _gap(problem, beta, config.ref) <= config.epsilon:
            converged = True
            break
        if k >= config.max_iters:
            break
        beta_new = _prox_grad_step(problem, point, L, counter)
        momentum_new = (1.0 + math.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        charge_scalar(counter, "transcendental")
        charge_scalar(counter, "mult")
        charge_scalar(counter, "mult")
        charge_scalar(counter, "add")
        point = beta_new + ((momentum - 1.0) / momentum_new) * (beta_new - beta)
        charge_scalar(counter, "mult")
        charge_scalar(counter, "add")
        charge_vec_add(counter, p)
        charge_vec_scale(counter, p)
        charge_vec_add(counter, p)
        beta = beta_new
        momentum = momentum_new
        k += 1
        f = lasso_objective(problem, beta)
        trace.append(k, 0.0, 1, f, f, counter.total())
    trace.final_beta = beta
    trace.converged = converged
    return trace


def _cd_sweep(beta, xtx, xty_raw, diag, thresh, resid, counter):
    """One full cycle j = 1..p; resid caches xtx @ beta and is updated in
    place at O(p) per coordinate.

    Each coordinate is scalar float arithmetic with the soft threshold
    applied inline; the sweep's work is charged once, in closed form
    (the coordinate-descent convention in ``opcount``).
    """
    if thresh < 0:
        raise ValueError("threshold must be nonnegative")
    p = beta.size
    for j, (d, xy) in enumerate(zip(diag.tolist(), xty_raw.tolist())):
        b = beta.item(j)
        z = xy - (resid.item(j) - d * b)
        bj = math.copysign(max(abs(z) - thresh, 0.0), z) / d
        beta[j] = bj
        resid += (bj - b) * xtx[:, j]
    if counter is not None:
        counter.mults += p * (p + 2)
        counter.adds += p * (p + 4)
        counter.comparisons += 2 * p
    return beta, resid


def cd_solve(problem: LassoProblem, config: BaselineConfig,
             counter: OpCounter | None = None) -> SolverTrace:
    """Cyclic coordinate descent, ascending order, one trace row per sweep."""
    config.validate()
    counter = counter if counter is not None else OpCounter()
    p = problem.p
    xtx = problem.gram * problem.n
    xty_raw = problem.xty * problem.n
    charge_setup(counter, p * p + p)  # rescale cached gram and xty
    diag = np.diag(xtx).copy()
    if np.any(diag <= 0):
        raise ValueError("degenerate column: zero diagonal in X'X")
    thresh = problem.n * problem.lam
    charge_scalar(counter, "mult")
    beta = np.asarray(config.beta0, dtype=float).copy()
    resid = xtx @ beta
    charge_matvec(counter, p, p)
    trace = SolverTrace(metadata={"method": "cd"})
    f0 = lasso_objective(problem, beta)
    trace.append(0, 0.0, 0, f0, f0, counter.total())
    k = 0
    converged = False
    while True:
        if _gap(problem, beta, config.ref) <= config.epsilon:
            converged = True
            break
        if k >= config.max_iters:
            break
        beta, resid = _cd_sweep(beta, xtx, xty_raw, diag, thresh, resid, counter)
        k += 1
        f = lasso_objective(problem, beta)
        trace.append(k, 0.0, p, f, f, counter.total())
    trace.final_beta = beta
    trace.converged = converged
    return trace


def sl_penalty_grad(w, alpha):
    """Entrywise derivative of the smoothed penalty
    phi_a(u) = (2/a) log(1+e^(a u)) - u, namely tanh(a u / 2).

    Smooth and bounded in (-1, 1); finite at u = 0, so no singularity
    guard can fire (the event count is kept for trace-schema stability).
    The curvature is at most a/2, matching the solver's step size
    1/(sigma_max^2 + lambda a / 2).
    """
    w = np.asarray(w, dtype=float)
    return np.tanh(0.5 * alpha * w), 0


def _charge_sl_penalty(counter, p):
    if counter is None:
        return
    counter.transcendentals += p  # tanh per entry
    counter.mults += 2 * p
    counter.adds += p


def sl_objective(problem, beta, alpha) -> float:
    w = np.asarray(beta, dtype=float)
    z = alpha * w
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    phi = 2.0 * softplus / alpha - w
    r = problem.y - problem.X @ w
    return float(r @ r / (2.0 * problem.n) + problem.lam * np.sum(phi))


def sl_solve(problem: LassoProblem, config: BaselineConfig,
             counter: OpCounter | None = None) -> SolverTrace:
    """Momentum descent on the smoothed objective with fixed step
    1 / (sigma_max^2(X/sqrt(n)) + lambda*alpha/2)."""
    config.validate()
    alpha = config.sl_alpha
    counter = counter if counter is not None else OpCounter()
    step = 1.0 / (problem.eig_max + problem.lam * alpha / 2.0)
    charge_scalar(counter, "mult")
    charge_scalar(counter, "mult")
    charge_scalar(counter, "add")
    p = problem.p
    beta = np.asarray(config.beta0, dtype=float).copy()
    beta_prev = beta.copy()
    guard_events = 0
    trace = SolverTrace(metadata={"method": "sl", "alpha": alpha, "step": step})
    f0 = lasso_objective(problem, beta)
    trace.append(0, 0.0, 0, f0, sl_objective(problem, beta, alpha), counter.total())
    k = 0
    converged = False
    while True:
        if _gap(problem, beta, config.ref) <= config.epsilon:
            converged = True
            break
        if k >= config.max_iters:
            break
        w = beta + ((k - 2.0) / (k + 1.0)) * (beta - beta_prev)
        charge_scalar(counter, "add")
        charge_scalar(counter, "add")
        charge_scalar(counter, "mult")
        charge_vec_add(counter, p)
        charge_vec_scale(counter, p)
        charge_vec_add(counter, p)
        v, guards = sl_penalty_grad(w, alpha)
        guard_events += guards
        _charge_sl_penalty(counter, p)
        g = problem.gram @ w - problem.xty + problem.lam * v
        charge_matvec(counter, p, p)
        charge_vec_add(counter, p)
        charge_vec_scale(counter, p)
        charge_vec_add(counter, p)
        beta_prev = beta
        beta = w - step * g
        charge_vec_scale(counter, p)
        charge_vec_add(counter, p)
        k += 1
        trace.append(k, 0.0, 1, lasso_objective(problem, beta),
                     sl_objective(problem, beta, alpha), counter.total())
    trace.final_beta = beta
    trace.converged = converged
    trace.metadata["guard_events"] = guard_events
    return trace


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


def fista_minimize_to_residual(problem, beta0, tol, max_iters=500_000):
    """Accelerated proximal gradient until the minimum-norm subgradient of
    the objective drops below tol; returns None if the cap is hit."""
    L = problem.eig_max
    if not L > 0:
        return np.zeros(problem.p) if subgradient_residual(problem, np.zeros(problem.p)) <= tol else None
    thr = problem.lam / L
    if thr < 0:
        raise ValueError("threshold must be nonnegative")
    gram, xty = problem.gram, problem.xty
    beta = np.asarray(beta0, dtype=float).copy()
    point = beta.copy()
    momentum = 1.0
    for _ in range(max_iters):
        if subgradient_residual(problem, beta) <= tol:
            return beta
        moved = point - (gram @ point - xty) / L
        beta_new = np.sign(moved) * np.maximum(np.abs(moved) - thr, 0.0)
        momentum_new = (1.0 + math.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        point = beta_new + ((momentum - 1.0) / momentum_new) * (beta_new - beta)
        beta = beta_new
        momentum = momentum_new
    return beta if subgradient_residual(problem, beta) <= tol else None


def cd_minimize_to_residual(problem, beta0, tol, max_iters=500_000):
    """Cyclic coordinate descent until the subgradient residual drops below
    tol; returns None if the sweep cap is hit."""
    p = problem.p
    xtx = problem.gram * problem.n
    xty_raw = problem.xty * problem.n
    diag = np.diag(xtx).copy()
    if np.any(diag <= 0):
        raise ValueError("degenerate column: zero diagonal in X'X")
    thresh = problem.n * problem.lam
    beta = np.asarray(beta0, dtype=float).copy()
    resid = xtx @ beta
    for _ in range(max_iters):
        if subgradient_residual(problem, beta) <= tol:
            return beta
        beta, resid = _cd_sweep(beta, xtx, xty_raw, diag, thresh, resid, None)
    return beta if subgradient_residual(problem, beta) <= tol else None
