"""Two-loop homotopy solver for the Lasso objective.

Outer loop: shrink the smoothing level geometrically, t_k = t0*(1-h)^k.
Inner loop: minimize the smoothed objective F_t with accelerated gradient
descent using step constants derived from the curvature bounds, warm
started from the previous outer iterate.  One step map, :func:`agd_map`,
holds the accelerated step; both loops run on the shared driver
``baselines.iterate``, the outer one over levels and the inner one over
the step map's iterate pairs, and each level charges its steps by count.

The start, :func:`ridge_start`, reads one factorization of the gram: it
searches t0 when none is given, by ridge solves at the shift
lambda*log(1+t)^2/(3 t^3), and solves for the initial iterate at the
quadratic branch's stationarity shift 2*lambda*log(1+t0)^2/(3 t0^3).  A
searched t0 at or below tau runs no level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .baselines import iterate
from .opcount import OpCounter
from .problem import (LassoProblem, NumericalFailure, ReferenceSolution, check_number,
                      lasso_objective)
from .surrogate import (LEVEL_RANGE, SurrogateSpec, check_level, minimize_surrogate,
                        smoothness_constants, surrogate_grad)
from .trace import SolverTrace

INNER_STOP_MODES = ("fixed", "theoretical", "gradient")
OUTER_STOP_MODES = ("oracle", "theoretical-count", "t-floor")

# Safety cap on the AGD steps of one level; the bench's fixed-count loop takes 50.
MAX_INNER_STEPS = 100_000
# Safety cap on the levels of one solve; the default tau stops a t0 = 3 solve at 97.
MAX_OUTER = 1000


@dataclass(frozen=True)
class HSConfig:
    """Tunables of the homotopy solver, checked when built.

    ``t0=None`` searches the starting level with :func:`ridge_start`;
    ``B=None`` resolves with :func:`default_iterate_bound`.
    """

    t0: float | None = None
    h: float = 0.1
    epsilon: float = 1e-3
    B: float | None = None
    tau: float = 1e-4
    inner_stop: str = "fixed"
    inner_fixed_count: int = 50
    inner_grad_tol: float = 1e-8
    outer_stop: str = "oracle"
    ref: ReferenceSolution | None = None

    def __post_init__(self) -> None:
        reals = ("h", "epsilon", "tau", "inner_grad_tol") + tuple(
            name for name in ("t0", "B") if getattr(self, name) is not None)
        count = check_number("inner_fixed_count", self.inner_fixed_count, integral=True)
        vars(self).update({name: check_number(name, getattr(self, name)) for name in reals},
                          inner_fixed_count=count)
        if not (self.h < 1.0 and 1.0 - self.h < 1.0):  # else no level shrinks
            raise ValueError("h must lie strictly in (0, 1), with 1 - h < 1 in floating point")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        for name in ("tau", "t0", "B"):  # levels, and the bound that is cubed like them
            if getattr(self, name) is not None:
                check_level(name, getattr(self, name))
        if self.t0 is not None and not self.tau < self.t0:
            raise ValueError("t0 must be larger than tau")
        if self.inner_stop not in INNER_STOP_MODES:
            raise ValueError(f"inner_stop must be one of {INNER_STOP_MODES}")
        if self.outer_stop not in OUTER_STOP_MODES:
            raise ValueError(f"outer_stop must be one of {OUTER_STOP_MODES}")
        if self.inner_fixed_count < 1:
            raise ValueError("inner_fixed_count must be >= 1")
        if not self.inner_grad_tol > 0:
            raise ValueError("inner_grad_tol must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "HSConfig":
        """Build from user settings; ``"t0": "auto"`` means None.  The run's
        target, ``epsilon`` and ``ref``, is the caller's to set."""
        if not isinstance(doc, dict):
            raise ValueError("an HS config must be a JSON object")
        keys = {f.name for f in fields(cls)} - {"epsilon", "ref"}
        unknown = sorted(doc.keys() - keys)
        if unknown:
            raise ValueError(f"no config key {unknown[0]!r}; the keys are {sorted(keys)}")
        if doc.get("t0") == "auto":
            doc = {**doc, "t0": None}
        return cls(**doc)


def agd_coefficients(L: float, mu: float) -> tuple[float, float, float]:
    """Momentum/step constants (alpha, q, gamma) from the curvature pair.

    Degenerate L == mu gives (alpha, q, gamma) = (1, 0, inf), reducing the
    update to an exact gradient step of size 1/mu.
    """
    if not mu > 0:
        raise ValueError("strong convexity modulus must be positive")
    if L <= mu:
        return 1.0, 0.0, math.inf
    alpha = math.sqrt(mu / L)
    ratio = mu / L
    q = (alpha - ratio) / (1.0 - ratio)
    gamma = alpha / (mu * (1.0 - alpha))
    return alpha, q, gamma


def agd_map(L: float, mu: float, grad):
    """The accelerated step on the curvature pair (L, mu) as a map
    (beta, beta_bar) -> (beta, beta_bar).

    The level's coefficients are formed once, here, as 0-d float64 arrays:
    a ufunc call costs the same with a 0-d operand as with a vector, less
    than with a Python float, and the broadcast gives each entry the same
    float, so the map serves a pair of any shape.  With the Euclidean prox
    V(x, z) = ||z - x||^2 / 2 the inner argmin is closed form: beta+ =
    (beta + gamma*mu*mid - gamma*g) / (1 + gamma*mu) where mid is the
    extrapolated point and g = grad(mid); when gamma = inf it is the
    gradient step mid - g/mu.  A step writes no array.
    """
    alpha, q, gamma = agd_coefficients(L, mu)
    gm = gamma * mu
    momentum = not math.isinf(gamma)
    one_q, q, gm, gamma, one_gm, mu, one_alpha, alpha = (
        np.array(c) for c in (1.0 - q, q, gm, gamma, 1.0 + gm, mu, 1.0 - alpha, alpha))

    def step(pair):
        beta, beta_bar = pair
        mid = one_q * beta_bar + q * beta
        g = grad(mid)
        if momentum:
            beta = (beta + gm * mid - gamma * g) / one_gm
        else:
            beta = mid - g / mu
        beta_bar = one_alpha * beta_bar + alpha * beta
        return beta, beta_bar

    return step


def ridge_start(problem: LassoProblem, t0: float | None,
                counter: OpCounter) -> tuple[float, np.ndarray]:
    """The start (t0, beta0) of the homotopy, both read from one ridge
    factorization of the gram and charged to ``counter``.

    A ``t0`` of None is searched: the smallest bracketed level t at which
    the ridge solution with shift lambda*log(1+t)^2/(3 t^3) is bounded
    entrywise by t.  The search probes t = 1, 2, 4, ... until that holds,
    raising NumericalFailure once the 60th doubling fails, then bisects 40
    times between the last failing level (0 when t = 1 holds) and the
    first satisfying one, whose end it keeps; its 1 + doublings + 40 probes
    are charged to setup.  beta0 minimizes the smoothed objective restricted
    to its quadratic branch: (X'X/n + 2*lambda*log(1+t0)^2/(3 t0^3) I) b = X'y/n.
    """
    ridge_solve = problem.ridge_solver()
    if t0 is None:
        def holds(t: float) -> bool:
            shift = problem.lam * math.log1p(t) ** 2 / (3.0 * t**3)
            return float(np.max(np.abs(ridge_solve(shift)))) <= t

        (lo, hi), doublings, found = iterate((0.0, 1.0), lambda b: (b[1], 2.0 * b[1]),
                                             lambda b, k: holds(b[1]), 60)
        if not found:
            raise NumericalFailure("no starting level found after 60 doublings")
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if holds(mid):
                hi = mid
            else:
                lo = mid
        counter.charge("find-t0-probe", problem.p, 1 + doublings + 40)
        t0 = hi
    if not t0 > 0:
        raise ValueError("t0 must be positive")
    shift = 2.0 * problem.lam * math.log1p(t0) ** 2 / (3.0 * t0**3)
    beta = ridge_solve(shift)
    counter.charge("ridge-start", problem.p)
    return t0, beta


def inner_tolerance(lam: float, p: int, B: float, t_k: float) -> float:
    """Early-stopping tolerance of the inner loop at level t_k."""
    if not (lam > 0 and p > 0 and B > 0 and t_k > 0):
        raise ValueError("inner_tolerance arguments must be positive")
    return lam * p * math.log1p(t_k) ** 2 / (3.0 * B)


def outer_iteration_count(lam: float, p: int, t0: float, B: float,
                          h: float, epsilon: float) -> int:
    """Shrink steps sufficient for epsilon precision: smallest k with
    lam*p*(2B+1)*t0*(1-h)^k <= epsilon, clamped below at 0."""
    if not (lam > 0 and p > 0 and t0 > 0 and B > 0 and epsilon > 0):
        raise ValueError("arguments must be positive")
    if not (h < 1.0 and 1.0 - h < 1.0):  # else log(1 - h) is 0
        raise ValueError("h must lie in (0, 1), with 1 - h < 1 in floating point")
    raw = -math.log(lam * p * t0 * (2.0 * B + 1.0) / epsilon) / math.log(1.0 - h)
    return max(0, math.ceil(raw))


def default_iterate_bound(beta0: np.ndarray) -> float:
    """10 * max|beta0| (1.0 for a zero beta0), raised to the least level of
    LEVEL_RANGE; above its top, ValueError names this source of B."""
    m = float(np.max(np.abs(beta0))) if beta0.size else 0.0
    lo, hi = LEVEL_RANGE
    B = max(10.0 * m, lo) if m > 0 else 1.0
    if not B <= hi:
        raise ValueError(f"the default iterate bound 10*max|beta0| = {B!r} exceeds {hi:g}; "
                         "set B in the HS config")
    return B


def inner_solve(problem: LassoProblem, t_k: float, beta_init, config: HSConfig,
                counter: OpCounter, *, B: float) -> tuple[np.ndarray, int, bool, float]:
    """Minimize the level-t_k smoothed objective from beta_init.

    B is the iterate bound of the curvature constants, resolved once by the
    caller (:func:`hs_solve` takes config.B, else :func:`default_iterate_bound`).
    Returns (final averaged iterate, steps taken, whether the step cap was
    hit, largest entry magnitude of any iterate).

    The steps of :func:`agd_map` run on ``baselines.iterate``, which calls
    the stop test once per iterate pair, the start included.  The stop test
    also folds the pair into one running entrywise peak of |beta| and
    |beta_bar|, reduced once per level: max is exact, so for finite iterates
    it is the float that per-step reductions give (a NaN entry is skipped
    once a later pair holds a number there).  The level's constants, its
    steps and, under the gradient stop, its steps + 1 stop tests are
    charged by count to ``counter`` once the loop ends.
    """
    beta_init = np.asarray(beta_init, dtype=float)
    if t_k < config.tau * (1.0 - 1e-12):
        raise ValueError("inner solve called below the level floor tau")
    spec = SurrogateSpec(t_k)
    L, mu = smoothness_constants(problem, spec, B)
    grad = surrogate_grad(problem, spec)
    step = agd_map(L, mu, grad)

    if config.inner_stop == "fixed":
        done = lambda beta_bar, k: k >= config.inner_fixed_count
    elif config.inner_stop == "gradient":
        done = lambda beta_bar, k: float(np.linalg.norm(grad(beta_bar))) <= config.inner_grad_tol
    else:  # theoretical
        # F_t's minimum is a stopping oracle, uncharged: Newton to a gradient
        # norm that certifies a gap below eps_k / 1000.
        eps_k = inner_tolerance(problem.lam, problem.p, B, t_k)
        gtol = math.sqrt(2.0 * mu * max(eps_k * 1e-3, 1e-18)) * 1e-2
        fmin_k = minimize_surrogate(problem, spec, beta_init, gtol)[1]
        done = lambda beta_bar, k: lasso_objective(problem, beta_bar, spec.value) - fmin_k <= eps_k

    peak = np.abs(beta_init)
    scratch = np.empty_like(peak)

    def stop(pair, k):
        for v in pair:
            np.fmax(peak, np.abs(v, out=scratch), out=peak)
        return done(pair[1], k)

    start = beta_init.copy()  # a step rebinds both iterates and writes neither
    (_, beta_bar), steps, stopped = iterate((start, start), step, stop, MAX_INNER_STEPS)
    plain = math.isinf(agd_coefficients(L, mu)[2])
    counter.charge("hs-level", problem.p)
    counter.charge("hs-step-plain" if plain else "hs-step", problem.p, steps)
    if config.inner_stop == "gradient":
        counter.charge("hs-grad-stop", problem.p, steps + 1)
    return beta_bar, steps, not stopped, float(peak.max())


def hs_solve(problem: LassoProblem, config: HSConfig) -> SolverTrace:
    """Run the full two-loop solver and return its trace, which carries the
    solve's op counter.

    The level floor tau is hard in every outer stopping mode; oracle mode
    additionally stops as soon as the objective gap against the reference
    drops to config.epsilon; no solve runs more than MAX_OUTER levels.  A
    theoretical-count plan of more levels than tau and MAX_OUTER allow is a
    ValueError, raised before the first level.
    """
    if config.outer_stop == "oracle" and config.ref is None:
        raise ValueError("oracle outer stop requires config.ref")
    trace = SolverTrace()
    counter = trace.counter

    t0, beta = ridge_start(problem, config.t0, counter)
    B = config.B if config.B is not None else default_iterate_bound(beta)

    # the schedule t_k = t_{k-1}(1-h) down to tau; the loop runs at most
    # MAX_OUTER levels, and one entry more only shows that the cap binds
    levels = [t0]
    while len(levels) < MAX_OUTER + 2 and (t := levels[-1] * (1.0 - config.h)) >= config.tau:
        levels.append(t)

    planned = None
    if config.outer_stop == "theoretical-count":
        planned = outer_iteration_count(problem.lam, problem.p, t0, B,
                                        config.h, config.epsilon)
        allowed = min(MAX_OUTER, len(levels) - 1)
        if allowed < planned:
            raise ValueError(f"theoretical-count plans {planned} levels, but tau = {config.tau!r} "
                             f"and MAX_OUTER = {MAX_OUTER} allow {allowed}")

    trace.metadata = {"method": "hs", "t0": t0, "B": B, "planned_outer": planned}

    def append_row(t, inner_steps, beta):
        trace.append(len(trace.records), t, inner_steps, lasso_objective(problem, beta),
                     lasso_objective(problem, beta, SurrogateSpec(t).value), counter.total())

    def reached(k):  # the configured outer stop; the level floor is checked apart
        if config.outer_stop == "oracle":  # the last row holds the current objective
            return trace.records[-1].f_value - config.ref.f_min <= config.epsilon
        return config.outer_stop == "theoretical-count" and k >= planned

    def level(state):  # (iterate, level index, inner cap hits, peak |beta|)
        beta, k, caps, peak = state
        t = levels[k + 1]
        counter.charge("hs-shrink", problem.p)
        beta, steps, cap_hit, level_max = inner_solve(problem, t, beta, config, counter, B=B)
        append_row(t, steps, beta)
        return beta, k + 1, caps + int(cap_hit), max(peak, level_max)

    append_row(t0, 0, beta)
    (beta, _, inner_caps, max_abs), k_done, stopped = iterate(
        (beta, 0, 0, float(np.max(np.abs(beta)))), level,
        lambda state, k: reached(k) or k + 1 == len(levels), MAX_OUTER)
    converged = stopped and (config.outer_stop == "t-floor" or reached(k_done))
    trace.final_beta = beta
    trace.converged = converged and inner_caps == 0
    trace.metadata.update({
        "outer_iterations": k_done,
        "inner_cap_hits": inner_caps,
        "violated_bound": max_abs > B,
        "max_abs_iterate": max_abs,
    })
    return trace
