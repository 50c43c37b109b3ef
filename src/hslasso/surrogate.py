"""Smoothed absolute-value penalty family used by the homotopy solver.

For a level ``t > 0`` the penalty applied to each coefficient is

    quadratic branch (|x| <= t):   log(1+t)^2 / (3 t^3) * x^2
    outer branch     (|x| >  t):   (log(1+t)/t)^2 |x|
                                   + log(1+t)^2 / (3|x|)
                                   - log(1+t)^2 / t

The two branches agree in value and in first and second derivative at
|x| = t (both one-sided second derivatives equal 2 log(1+t)^2 / (3 t^3));
only the third derivative jumps there.  The function is even and convex,
sits below |x| everywhere, and converges to |x| pointwise as t -> 0.  The
second derivative is the max-form (2/3) log(1+t)^2 * max(|x|, t)^-3 on
both branches; it serves both the step-size constants and the Newton
Hessian of the smoothed objective.

The smoothed objective itself, F_t(b) = ||y - X b||^2/(2n) + lambda
sum_i phi_t(b_i), is defined here too: its value, its gradient and its
damped-Newton minimizer.  The gradient is a map built once per level,
which holds the level's scalars (t, the branch coefficients and lambda) as
float64 vectors the length of the iterate: on vectors of 20 to 80 entries
a ufunc call with a Python-float operand costs about 1.5 times one on two
arrays (numpy 2.4), and the values, hence the bytes, are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import LassoProblem, NumericalFailure, check_number


# Range of a level t and of the iterate bound B, both cubed (t**3 in c_quad,
# B**3 in mu): the cube of a number in this range is a normal float.
LEVEL_RANGE = (1e-100, 1e100)


def check_level(name: str, value: float) -> None:
    lo, hi = LEVEL_RANGE
    if not lo <= value <= hi:  # NaN included
        raise ValueError(f"{name} must be finite and lie in [{lo:g}, {hi:g}], got {value!r}")


def _penalty_grad(x: np.ndarray, t, c_inv, c_lin, two_c_quad) -> np.ndarray:
    """The penalty derivative at the array x, for the level's operands given
    as floats or as arrays that broadcast against x.

    The outer branch's magnitude v = c_lin - c_inv / max(|x|, t)^2 is never
    negative, so copysign(v, x) equals sign(x) * v bit for bit there (a NaN
    x gives a NaN v).  Both branches are written in place into one array,
    the quadratic one by a masked put.
    """
    ax = np.abs(x)
    outer = np.maximum(ax, t)
    np.multiply(outer, outer, out=outer)
    np.divide(c_inv, outer, out=outer)
    np.subtract(c_lin, outer, out=outer)
    np.copysign(outer, x, out=outer)
    np.putmask(outer, ax <= t, two_c_quad * x)
    return outer


@dataclass(frozen=True)
class SurrogateSpec:
    """Homotopy level t with the branch coefficients precomputed."""

    t: float
    c_quad: float = field(init=False)
    c_lin: float = field(init=False)
    c_inv: float = field(init=False)
    c_const: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "t", check_number("surrogate level t", self.t))
        check_level("surrogate level t", self.t)
        log1pt = math.log1p(self.t)
        object.__setattr__(self, "c_quad", log1pt**2 / (3.0 * self.t**3))
        object.__setattr__(self, "c_lin", (log1pt / self.t) ** 2)
        object.__setattr__(self, "c_inv", log1pt**2 / 3.0)
        object.__setattr__(self, "c_const", -(log1pt**2) / self.t)

    def value(self, x):
        """Penalty value, elementwise; even function of x."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        safe = np.maximum(ax, self.t)  # outer branch only selected for ax > t
        outer = self.c_lin * ax + self.c_inv / safe + self.c_const
        out = np.where(ax <= self.t, self.c_quad * x * x, outer)
        return float(out) if out.ndim == 0 else out

    def grad(self, x):
        """First derivative, elementwise; odd and continuous at |x| = t."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(self.grad(x.reshape(1))[0])
        return _penalty_grad(x, self.t, self.c_inv, self.c_lin, 2.0 * self.c_quad)

    def hess_diag(self, beta):
        """Diagonal curvature (2/3) log(1+t)^2 * max(|beta_i|, t)^-3."""
        beta = np.asarray(beta, dtype=float)
        return 2.0 * self.c_inv * np.maximum(np.abs(beta), self.t) ** (-3.0)


def smoothness_constants(problem, spec: SurrogateSpec, B: float) -> tuple[float, float]:
    """Curvature pair (L, mu) of the smoothed objective on {max|beta_i| <= B}.

    The penalty's curvature (2/3) log(1+t)^2 max(|beta_i|, t)^-3 falls as
    |beta_i| grows past t.  L adds its largest value (attained for
    |beta_i| <= t) to the top gram eigenvalue; mu adds its smallest on the
    box, attained at |beta_i| = max(B, t), to the bottom gram eigenvalue.
    When B <= t every iterate lies on the quadratic branch, and mu's
    penalty term is L's, so mu <= L always.  The condition number L / mu
    is left to whoever reports it; mu is 0 only for a rank-deficient gram
    with zero penalty weight.
    """
    check_level("iterate bound B", B)
    lam = problem.lam
    L = problem.eig_max + lam * 2.0 * spec.c_quad
    # lam * 2.0 is not factored out: (lam * 2.0 * c_inv) / B**3 rounds otherwise
    least = lam * 2.0 * spec.c_quad if B <= spec.t else lam * 2.0 * spec.c_inv / B**3
    mu = problem.eig_min + least
    return L, mu


def surrogate_value(problem: LassoProblem, spec: SurrogateSpec, beta) -> float:
    """F_t at beta: the Lasso objective with the l1 penalty replaced by the
    level-t smoothed penalty."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.p,):
        raise ValueError(f"beta must have shape ({problem.p},), got {beta.shape}")
    r = problem.y - problem.X.dot(beta)
    return float(r.dot(r) / (2.0 * problem.n) + problem.lam * np.sum(spec.value(beta)))


def surrogate_grad(problem: LassoProblem, spec: SurrogateSpec):
    """The gradient map beta -> grad F_t(beta) of the level, for iterates of
    shape (p,).  Its operands t, c_inv, c_lin, 2 c_quad and lambda are
    broadcast once, here."""
    p = problem.p
    t, c_inv, c_lin, two_c_quad, lam = (
        np.full(p, v) for v in (spec.t, spec.c_inv, spec.c_lin, 2.0 * spec.c_quad, problem.lam))

    def grad(beta: np.ndarray) -> np.ndarray:
        g = problem.gram @ beta
        g -= problem.xty
        penalty = _penalty_grad(beta, t, c_inv, c_lin, two_c_quad)
        penalty *= lam
        g += penalty
        return g

    return grad


# Multiple of eps * (eig_max ||beta|| + ||X'y/n||), the round-off in the
# gradient's matvec and shift, below which the Newton stop is not asked to go.
NEWTON_ROUNDOFF_ULPS = 4.0


def minimize_surrogate(problem: LassoProblem, spec: SurrogateSpec, beta_init: np.ndarray,
                       grad_tol: float, max_iters: int) -> tuple[np.ndarray, float]:
    """Damped Newton minimizer of the smoothed objective; never charges a
    counter (oracle and diagnostic use only).

    F_t is C^2 and strictly convex: its Hessian gram + diag(lam*hess_diag)
    is positive definite because hess_diag > 0.  Each iteration solves for
    the Newton direction d and halves the step s until the Armijo test
    F(b + s d) <= F(b) + 1e-4 s g'd holds (Boyd & Vandenberghe, Convex
    Optimization, 9.5).  Near the optimum F differences fall below
    round-off, so a step that raises F by at most 4 eps |F| and strictly
    lowers ||g|| is accepted too.  When gram is singular (p > n) and many
    entries sit on the flat outer branch, hess can be singular to working
    precision and the computed direction need not descend; the step then
    falls back to d = -g.  Returns (beta, F(beta)) once ||g|| is at most
    grad_tol or, if larger, the round-off floor
    NEWTON_ROUNDOFF_ULPS * eps * (eig_max ||beta|| + ||X'y/n||) at the
    current beta; raises NumericalFailure after max_iters Newton steps or
    when the step falls below 1e-20.
    """
    ulps = NEWTON_ROUNDOFF_ULPS * np.finfo(float).eps
    xty_norm = float(np.linalg.norm(problem.xty))
    beta = np.array(beta_init, dtype=float)
    grad = surrogate_grad(problem, spec)
    f = surrogate_value(problem, spec, beta)
    g = grad(beta)
    gnorm = float(np.linalg.norm(g))

    def tol_at(b):
        return max(grad_tol, ulps * (problem.eig_max * float(np.linalg.norm(b)) + xty_norm))

    iters = 0
    while gnorm > (tol := tol_at(beta)):
        if iters >= max_iters:
            raise NumericalFailure(f"damped Newton at t={spec.t:g}: ||grad|| = {gnorm:.3g} "
                                   f"> {tol:.3g} after {max_iters} iterations")
        hess = problem.gram + np.diag(problem.lam * spec.hess_diag(beta))
        d = -np.linalg.solve(hess, g)
        slope = float(g.dot(d))
        if not slope < 0.0:  # hess numerically singular: no descent direction
            d = -g
            slope = -gnorm * gnorm
        noise = 4.0 * np.finfo(float).eps * abs(f)
        s = 1.0
        while True:
            cand = beta + s * d
            f_cand = surrogate_value(problem, spec, cand)
            if f_cand <= f + 1e-4 * s * slope:
                g_cand = grad(cand)
                break
            if f_cand <= f + noise:
                g_cand = grad(cand)
                if float(np.linalg.norm(g_cand)) < gnorm:
                    break
            s *= 0.5
            if s < 1e-20:
                raise NumericalFailure(f"damped Newton at t={spec.t:g}: line search stalled "
                                       f"at ||grad|| = {gnorm:.3g} > {tol:.3g}")
        beta, f, g = cand, f_cand, g_cand
        gnorm = float(np.linalg.norm(g))
        iters += 1
    return beta, f
