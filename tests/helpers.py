"""Shared independent oracles for the test suite: exact 2-d grid search,
multiresolution refinement, finite differences, the soft threshold, a
per-coordinate coordinate-descent sweep, a Jacobi pseudo-inverse,
instance factories, the objective and ops columns of a trace, each bench
cell's first-hit margin, and the closeness sweep's level minimizer.  These deliberately avoid the
library's own solver paths.  The earlier bodies of the CD sweep, the
subgradient residual, the objective, the smoothed objective's value, the
prediction and estimation errors and the Jacobi SVD (these six through
``@``, where the library calls ``ndarray.dot``), the penalty gradient,
the smoothed gradient, the accelerated step (``AGDState``,
``agd_state``, ``agd_step``) and the HS inner loop (a plain loop of
``agd_step``) are kept here too, so that their library versions are
pinned to the same bytes; so is the earlier record of the support
conditions, ``SupportConditionReport``, so that the block ``verify.json``
writes is pinned to the same JSON."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from hslasso import homotopy
from hslasso.baselines import iterate
from hslasso.diagnostics import PINV_RCOND, _pinv_from_svd, jacobi_svd
from hslasso.cli import GEN_DEFAULTS, SIM_PATTERNS
from hslasso.datagen import SyntheticSpec, generate
from hslasso.homotopy import agd_coefficients, default_iterate_bound, inner_tolerance
from hslasso.opcount import OpCounter
from hslasso.problem import LassoProblem
from hslasso.surrogate import SurrogateSpec, minimize_surrogate, smoothness_constants, surrogate_value

# Grid points evaluated on each side of a row's continuous minimizer.
ROW_WINDOW = 3
# Points per objective evaluation in grid_refine: 4096 x 12 residuals fit
# in cache; one 68 921-point grid at once ran 1.7x slower on a 2-vCPU host.
REFINE_CHUNK = 4096


def make_problem(seed, n=12, p=4, lam=0.1, scale=0.5):
    """Small random instance with the minimizer well inside [-3, 3]^p."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta_star = scale * rng.uniform(-1.0, 1.0, size=p)
    y = X @ beta_star + 0.3 * rng.standard_normal(n)
    return LassoProblem(y=y, X=X, lam=lam)


def tiny_problem():
    """20 x 5 instance with y of order 1e-110 and lambda 1e-112: the HS
    default bound 10*max|beta0| is near 1e-109, below the level range."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 5))
    return LassoProblem(1e-110 * rng.standard_normal(20), X, 1e-112)


def bench_problems(scenarios, lam, seed=0):
    """The problems ``run_bench`` draws for a grid of both simulations, in
    its order: problem seed = seed + 1000*sim index + scenario index."""
    for sim_idx, sim in enumerate(SIM_PATTERNS, start=1):
        for scen_idx, (n, p) in enumerate(scenarios):
            spec = SyntheticSpec(n=n, p=p, rho=GEN_DEFAULTS["rho"], snr=GEN_DEFAULTS["snr"],
                                 pattern=SIM_PATTERNS[sim], seed=seed + 1000 * sim_idx + scen_idx)
            yield generate(spec, lam=lam)


def first_hit_margins(grid) -> dict[str, float]:
    """Each cell of ``run_bench(grid)``, ``sim/n{n}p{p}/method``, for a grid
    of both simulations, mapped to the smallest relative distance
    |gap - eps| / eps over its trace's records and the grid's epsilons: how
    near a first hit sits to the rounding edge where ``gap <= eps`` flips.
    The cells run as ``run_bench`` runs them."""
    from hslasso.baselines import reference_minimum
    from hslasso.cli import BENCH_HS, SIM_BETA0, _cell_config, _solve_cell

    eps = np.array(grid.epsilons)
    cells = [(sim, n, p) for sim in SIM_PATTERNS for n, p in grid.scenarios]
    margins = {}
    for (sim, n, p), problem in zip(cells, bench_problems(grid.scenarios, grid.lam, grid.seed)):
        ref = reference_minimum(problem)
        for method in grid.methods:
            cfg = _cell_config(method, eps.min(), BENCH_HS, SIM_BETA0[sim] * np.ones(p))
            gaps = f_values(_solve_cell(problem, cfg, ref)[0]) - ref.f_min
            margins[f"{sim}/n{n}p{p}/{method}"] = float(np.min(np.abs(gaps[:, None] - eps) / eps))
    return margins


def f_values(trace) -> np.ndarray:
    """The objective column of a solver trace."""
    return np.array([r.f_value for r in trace.records])


def trace_ops(trace) -> np.ndarray:
    """The cumulative-ops column of a solver trace."""
    return np.array([r.cumulative_ops for r in trace.records], dtype=np.int64)


def surrogate_minimizer(problem, t) -> np.ndarray:
    """The level-t minimizer that ``verify`` documents: damped Newton from
    zero to ||grad F_t|| <= 1e-10, at most 500 000 steps."""
    return minimize_surrogate(problem, SurrogateSpec(t), np.zeros(problem.p), 1e-10, 500_000)[0]


def objective_on_grid(problem, pts):
    """Vectorized objective over an (m, p) array of points.  The l1 norm
    adds the columns in order, as a row sum would, but without its
    strided reduction."""
    r = problem.y[None, :] - pts @ problem.X.T
    l1 = np.abs(pts[:, 0])
    for d in range(1, pts.shape[1]):
        l1 = l1 + np.abs(pts[:, d])
    return np.einsum("ij,ij->i", r, r) / (2.0 * problem.n) + problem.lam * l1


def soft_threshold(x, alpha):
    """Shrink toward zero by alpha with a dead zone; prox of alpha*|.|."""
    if np.any(np.asarray(alpha) < 0):
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - alpha, 0.0)
    return float(out) if out.ndim == 0 else out


def pinv(a, rcond=PINV_RCOND):
    """Pseudo-inverse through the library's Jacobi SVD and cutoff."""
    return _pinv_from_svd(*jacobi_svd(a), rcond)


def _grid_values(problem, x1, x2):
    """Objective at (x1, x2) via the gram expansion; both searches below
    evaluate this one expression, so their values agree bit for bit."""
    G = problem.gram
    b = problem.xty
    const = float(problem.y @ problem.y) / (2.0 * problem.n)
    return (0.5 * (G[0, 0] * x1 * x1 + 2.0 * G[0, 1] * x1 * x2 + G[1, 1] * x2 * x2)
            - (b[0] * x1 + b[1] * x2) + const
            + problem.lam * (np.abs(x1) + np.abs(x2)))


def grid_search_2d(problem, lo=-3.0, hi=3.0, res=1e-3):
    """The minimum of :func:`grid_search_2d_brute`, from a window per row.

    At fixed x1 the objective is convex in x2, with continuous minimizer
    S(b1 - G01 x1, lambda) / G11, so the row's grid minimum lies beside
    it: only the ROW_WINDOW grid points on each side are evaluated.  Ties
    go to the first point in row-major order, as in the brute force.
    """
    g = np.arange(lo, hi + res / 2.0, res)
    width = 2 * ROW_WINDOW + 1
    x1 = g[:, None]
    z = problem.xty[1] - problem.gram[0, 1] * x1
    x2_star = soft_threshold(z, problem.lam) / problem.gram[1, 1]
    first = np.clip(np.rint((x2_star - lo) / res).astype(int) - ROW_WINDOW, 0, g.size - width)
    x2 = g[first + np.arange(width)]
    val = _grid_values(problem, x1, x2)
    # convex rows: a row minimum on its window's edge, inside the grid, was missed
    j_row = np.argmin(val, axis=1)
    low_edge = (j_row == 0) & (first[:, 0] > 0)
    high_edge = (j_row == width - 1) & (first[:, 0] < g.size - width)
    assert not np.any(low_edge | high_edge), "a row minimum lies outside its window"
    i, j = np.unravel_index(np.argmin(val), val.shape)
    return float(val[i, j]), np.array([x1[i, 0], x2[i, j]])


def grid_search_2d_brute(problem, lo=-3.0, hi=3.0, res=1e-3, chunk=400):
    """Exhaustive objective minimum over the full 2-d grid at the given
    resolution, evaluated in row chunks."""
    g = np.arange(lo, hi + res / 2.0, res)
    best = np.inf
    best_pt = None
    for start in range(0, g.size, chunk):
        x1 = g[start:start + chunk][:, None]
        x2 = g[None, :]
        val = _grid_values(problem, x1, x2)
        flat = np.argmin(val)
        if val.flat[flat] < best:
            best = float(val.flat[flat])
            i, j = np.unravel_index(flat, val.shape)
            best_pt = np.array([x1[i, 0], x2[0, j]])
    return best, best_pt


def grid_refine(problem, lo=-3.0, hi=3.0, points=41, rounds=10, keep_cells=3):
    """Multiresolution grid search for p dims; safe for convex objectives.

    Each round evaluates a full tensor grid, REFINE_CHUNK points at a
    time, and re-centers a window of keep_cells grid cells around the
    first argmin.
    """
    p = problem.p
    lows = np.full(p, lo, dtype=float)
    highs = np.full(p, hi, dtype=float)
    best = np.inf
    best_pt = None
    for _ in range(rounds):
        axes = [np.linspace(lows[d], highs[d], points) for d in range(p)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, p)
        k, val_k = 0, np.inf
        for start in range(0, len(pts), REFINE_CHUNK):
            vals = objective_on_grid(problem, pts[start:start + REFINE_CHUNK])
            j = int(np.argmin(vals))
            if vals[j] < val_k:
                k, val_k = start + j, vals[j]
        if val_k < best:
            best = float(val_k)
            best_pt = pts[k]
        spacing = (highs - lows) / (points - 1)
        lows = pts[k] - keep_cells * spacing
        highs = pts[k] + keep_cells * spacing
    return best, best_pt


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def numeric_prox_argmin(prox_obj, lo, hi, rounds=10):
    """2-d grid-refinement minimizer, independent of any closed form.

    Keep probe scales small so value differences near the minimum stay
    above the double-precision noise floor at 1e-8 resolution.
    """
    for _ in range(rounds):
        xs = np.linspace(lo[0], hi[0], 41)
        ys = np.linspace(lo[1], hi[1], 41)
        vals = np.array([[prox_obj(np.array([a, b])) for b in ys] for a in xs])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        span = (hi - lo) / 40.0
        center = np.array([xs[i], ys[j]])
        lo, hi = center - 2 * span, center + 2 * span
    return center


def identity_problem(y, lam):
    """X = I instance (n = p) with the closed-form minimizer."""
    y = np.asarray(y, dtype=float)
    n = y.size
    return LassoProblem(y=y, X=np.eye(n), lam=lam)


def identity_closed_form(y, n, lam):
    """Per-coordinate solution for the X = I instance."""
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - n * lam, 0.0)


def cd_sweep_per_op(beta, xtx, xty_raw, diag, thresh, resid, counter):
    """Reference coordinate-descent sweep: the array soft threshold on each
    coordinate and one counter increment per arithmetic step.  The
    library's sweep must match it bit for bit, in iterates and in op
    counts."""
    p = beta.size
    c = counter if counter is not None else OpCounter()  # None: charge a throwaway
    for j in range(p):
        z = xty_raw[j] - (resid[j] - diag[j] * beta[j])
        c.mults += 1
        c.adds += 1
        c.adds += 1
        bj = soft_threshold(z, thresh) / diag[j]
        c.comparisons += 2  # soft threshold: two comparisons and one add
        c.adds += 1
        c.mults += 1  # the division by the column norm
        delta = bj - beta[j]
        c.adds += 1
        beta[j] = bj
        resid += delta * xtx[:, j]
        c.mults += p  # the length-p axpy
        c.adds += p
    return beta, resid


def cd_sweep_before(beta, xtx, xty_raw, diag, thresh, resid, counter):
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


def lasso_objective_before(problem, beta) -> float:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.p,):
        raise ValueError(f"beta must have shape ({problem.p},), got {beta.shape}")
    r = problem.y - problem.X @ beta
    return float(r @ r / (2.0 * problem.n) + problem.lam * np.sum(np.abs(beta)))


def subgradient_residual_before(problem, beta) -> float:
    """Sup-norm of the minimum-norm subgradient of the objective at beta.

    Zero exactly at the minimizer; entries at beta_i = 0 contribute the
    distance of the smooth gradient from the interval [-lambda, lambda].
    """
    beta = np.asarray(beta, dtype=float)
    g = problem.gram @ beta - problem.xty
    lam = problem.lam
    r = np.where(beta != 0.0, g + lam * np.sign(beta), g - np.clip(g, -lam, lam))
    return float(np.max(np.abs(r))) if r.size else 0.0


def surrogate_value_before(problem, spec, beta) -> float:
    r = problem.y - problem.X @ beta
    return float(r @ r / (2.0 * problem.n) + problem.lam * np.sum(spec.value(beta)))


def prediction_error_before(problem, beta_tilde, beta_hat) -> float:
    d = problem.X @ (beta_tilde - beta_hat)
    return float(d @ d / problem.n)


def estimation_error_before(beta_tilde, beta_hat) -> float:
    d = beta_tilde - beta_hat
    return float(d @ d)


def jacobi_svd_before(a, tol: float = 1e-13, max_sweeps: int = 60):
    """Thin SVD by one-sided Jacobi rotations: a = U @ diag(s) @ Vt.

    Columns are rotated pairwise until mutually orthogonal; singular
    values sorted descending.  Exact-zero singular values keep zero U
    columns (harmless for reconstruction and pseudo-inversion).
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("need a 2-d matrix")
    transposed = a.shape[0] < a.shape[1]
    if transposed:
        a = a.T
    m, n = a.shape
    u = a.copy()
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                aii = float(u[:, i] @ u[:, i])
                ajj = float(u[:, j] @ u[:, j])
                aij = float(u[:, i] @ u[:, j])
                if aii * ajj > 0:
                    off = max(off, abs(aij) / np.sqrt(aii * ajj))
                if abs(aij) <= tol * np.sqrt(aii * ajj) or aij == 0.0:
                    continue
                zeta = (ajj - aii) / (2.0 * aij)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ui = u[:, i].copy()
                u[:, i] = c * ui - s * u[:, j]
                u[:, j] = s * ui + c * u[:, j]
                vi = v[:, i].copy()
                v[:, i] = c * vi - s * v[:, j]
                v[:, j] = s * vi + c * v[:, j]
        if off < tol:
            break
    sing = np.linalg.norm(u, axis=0)
    order = np.argsort(-sing)
    sing = sing[order]
    u = u[:, order]
    v = v[:, order]
    nonzero = sing > 0
    u[:, nonzero] = u[:, nonzero] / sing[nonzero]
    u[:, ~nonzero] = 0.0
    if transposed:
        return v, sing, u.T
    return u, sing, v.T


@dataclass(frozen=True)
class SupportConditionReport:
    """The earlier record of the support conditions, whose ``to_dict()`` was
    the ``support_conditions`` block of ``verify.json``."""

    s_set: np.ndarray
    frob_pinv_s: float
    frob_pinv_sc: float
    sigma_max_s1: float
    sigma_min_s2: float
    condition3_holds: bool
    svd_method: str = "one-sided-jacobi"

    def to_dict(self) -> dict:
        return {**asdict(self), "s_set": self.s_set.tolist()}


def spec_grad_before(spec, x):
    """First derivative, elementwise; odd and continuous at |x| = t."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    safe = np.maximum(ax, spec.t)
    outer = np.sign(x) * (spec.c_lin - spec.c_inv / (safe * safe))
    out = np.where(ax <= spec.t, 2.0 * spec.c_quad * x, outer)
    return float(out) if out.ndim == 0 else out


def surrogate_grad_before(problem, spec, beta, counter=None):
    """Gradient of the smoothed objective, charged at matvec + O(p)."""
    p = problem.p
    g = problem.gram @ beta - problem.xty
    g = g + problem.lam * spec_grad_before(spec, beta)
    if counter is not None:
        counter.mults += p * p + 4 * p
        counter.adds += p * (p - 1) + 3 * p
        counter.comparisons += p
    return g


@dataclass(frozen=True)
class AGDState:
    """Iterate pair plus the constant step coefficients of one inner loop."""

    beta: np.ndarray
    beta_bar: np.ndarray
    alpha: float
    q: float
    gamma: float
    mu: float


def agd_state(beta, L, mu):
    alpha, q, gamma = agd_coefficients(L, mu)
    beta = np.asarray(beta, dtype=float)
    return AGDState(beta=beta.copy(), beta_bar=beta.copy(),
                    alpha=alpha, q=q, gamma=gamma, mu=mu)


def agd_step(state, grad, counter=None):
    """One accelerated step; the proximal subproblem is solved in closed form.

    With the Euclidean prox V(x, z) = ||z - x||^2 / 2 the inner argmin is
    beta+ = (beta + gamma*mu*mid - gamma*g) / (1 + gamma*mu) where mid is
    the extrapolated point and g its gradient.  Vector work is charged
    once per step: the two weighted averages (mid, beta_bar) cost 2p mults
    and p adds each; the update costs 3p mults and 2p adds, or p mults and
    p adds in the degenerate gamma = inf case.
    """
    p = state.beta.size
    mu = state.mu
    mid = (1.0 - state.q) * state.beta_bar + state.q * state.beta
    g = grad(mid)
    if math.isinf(state.gamma):
        beta_new = mid - g / mu
        if counter is not None:
            counter.mults += 5 * p
            counter.adds += 3 * p
    else:
        gm = state.gamma * mu
        beta_new = (state.beta + gm * mid - state.gamma * g) / (1.0 + gm)
        if counter is not None:
            counter.mults += 7 * p
            counter.adds += 4 * p
    beta_bar_new = (1.0 - state.alpha) * state.beta_bar + state.alpha * beta_new
    return replace(state, beta=beta_new, beta_bar=beta_bar_new)


def inner_solve_before(problem, t_k, beta_init, config, counter=None, B=None):
    """The HS inner loop as a plain loop of ``agd_step`` on an ``AGDState``,
    driven by ``baselines.iterate``, with two max|.| reductions per step and
    the earlier gradient bodies.  Returns what ``inner_solve`` returns."""
    beta_init = np.asarray(beta_init, dtype=float)
    if B is None:
        B = config.B if config.B is not None else default_iterate_bound(beta_init)
    if t_k < config.tau * (1.0 - 1e-12):
        raise ValueError("inner solve called below the level floor tau")
    spec = SurrogateSpec(t_k)
    L, mu = smoothness_constants(problem, spec, B)
    if counter is not None:
        counter.transcendentals += 2
        counter.mults += 10
        counter.adds += 4
    state = agd_state(beta_init, L, mu)
    grad_fn = lambda v: surrogate_grad_before(problem, spec, v, counter)
    max_abs = float(np.max(np.abs(state.beta)))

    def step(state):
        nonlocal max_abs
        state = agd_step(state, grad_fn, counter)
        max_abs = max(max_abs, float(np.max(np.abs(state.beta))),
                      float(np.max(np.abs(state.beta_bar))))
        return state

    if config.inner_stop == "fixed":
        stop = lambda state, k: k >= config.inner_fixed_count
    elif config.inner_stop == "gradient":
        def stop(state, k):
            g = surrogate_grad_before(problem, spec, state.beta_bar, counter)
            if counter is not None:
                counter.mults += problem.p
                counter.adds += problem.p - 1
                counter.transcendentals += 1
                counter.comparisons += 1
            return float(np.linalg.norm(g)) <= config.inner_grad_tol
    else:
        eps_k = inner_tolerance(problem.lam, problem.p, B, t_k)
        gtol = math.sqrt(2.0 * mu * max(eps_k * 1e-3, 1e-18)) * 1e-2
        fmin_k = minimize_surrogate(problem, spec, beta_init, gtol,
                                    homotopy.AUX_NEWTON_MAX_ITERS)[1]
        stop = lambda state, k: surrogate_value(problem, spec, state.beta_bar) - fmin_k <= eps_k

    state, steps, stopped = iterate(state, step, stop, homotopy.MAX_INNER_STEPS)
    return state.beta_bar, steps, not stopped, max_abs
