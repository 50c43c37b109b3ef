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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SurrogateSpec:
    """Homotopy level t with the branch coefficients precomputed."""

    t: float
    log1pt: float = field(init=False)
    c_quad: float = field(init=False)
    c_lin: float = field(init=False)
    c_inv: float = field(init=False)
    c_const: float = field(init=False)

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("surrogate level t must be strictly positive")
        log1pt = math.log1p(self.t)
        object.__setattr__(self, "log1pt", log1pt)
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
        ax = np.abs(x)
        safe = np.maximum(ax, self.t)
        outer = np.sign(x) * (self.c_lin - self.c_inv / (safe * safe))
        out = np.where(ax <= self.t, 2.0 * self.c_quad * x, outer)
        return float(out) if out.ndim == 0 else out

    def hess_diag(self, beta):
        """Diagonal curvature (2/3) log(1+t)^2 * max(|beta_i|, t)^-3."""
        beta = np.asarray(beta, dtype=float)
        return 2.0 * self.c_inv * np.maximum(np.abs(beta), self.t) ** (-3.0)


@dataclass(frozen=True)
class SmoothnessConstants:
    """Gradient Lipschitz constant, strong-convexity modulus, their ratio."""

    L: float
    mu: float
    kappa: float


def smoothness_constants(problem, spec: SurrogateSpec, B: float) -> SmoothnessConstants:
    """Curvature constants of the smoothed objective on {max|beta_i| <= B}.

    L adds the largest diagonal curvature (attained for |beta_i| <= t) to
    the top gram eigenvalue; mu adds the smallest (attained at |beta_i| = B)
    to the bottom gram eigenvalue.  A rank-deficient gram with zero penalty
    weight yields kappa = inf.
    """
    if B <= 0:
        raise ValueError("iterate bound B must be positive")
    if B < spec.t:
        warnings.warn("iterate bound B below surrogate level t; constants assume B >= t")
    lam = problem.lam
    L = problem.eig_max + lam * 2.0 * spec.c_quad
    mu = problem.eig_min + lam * 2.0 * spec.c_inv / B**3
    kappa = L / mu if mu > 0 else math.inf
    return SmoothnessConstants(L=L, mu=mu, kappa=kappa)


def condition_number_bound(problem, B: float, tau: float) -> float:
    """Upper bound on the smoothed objective's condition number over all
    levels t >= tau, assuming iterates bounded entrywise by B."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if B <= 0:
        raise ValueError("B must be positive")
    log_term = math.log1p(tau) ** 2
    return 3.0 * B**3 * problem.eig_max / (2.0 * problem.lam * log_term) + (B / tau) ** 3


def surrogate_gap_bounds(spec: SurrogateSpec, B: float) -> tuple[float, float]:
    """Closed interval containing value(x) - |x| for every |x| <= B.

    The upper bound is always 0; the lower bound is attained at |x| = B
    (valid regime B >= t, warned otherwise).
    """
    if B < spec.t:
        warnings.warn("gap bounds assume B >= t")
    return (float(spec.value(B)) - B, 0.0)
