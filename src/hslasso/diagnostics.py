"""Closeness diagnostics between smoothed-penalty minimizers and the exact
Lasso minimizer: prediction/estimation errors, support extraction, and a
checkable sufficient condition on the design matrix for support-wise
estimation consistency.

Small dense matrices only; the SVD is a one-sided Jacobi implementation
(identifier recorded in the report metadata) and the pseudo-inverse
treats singular values below 1e-12 * sigma_max as zero.  The Jacobi
kernel stacks U above V, caches each column's squared norm and rotates
both factors' columns in place with one update; its factors are byte
for byte those of the plain loop that recomputes three dot products per
pair and copies each rotated column.  It raises ValueError on a NaN or
inf entry, and NumericalFailure, rather than returning factors that are
not orthogonal, when its last sweep still rotates a pair.
"""

from __future__ import annotations

import math
from itertools import count, takewhile

import numpy as np

from .problem import LassoProblem, NumericalFailure, check_number
from .surrogate import SurrogateSpec, minimize_surrogate

SVD_METHOD = "one-sided-jacobi"
PINV_RCOND = 1e-12
# Jacobi's stop, a largest column cosine below JACOBI_TOL, and its sweep cap
JACOBI_TOL = 1e-13
MAX_SWEEPS = 60
# the closeness sweep's Newton stop
SWEEP_GRAD_TOL = 1e-10


def jacobi_svd(a):
    """Thin SVD by one-sided Jacobi rotations: a = U @ diag(s) @ Vt.

    Columns are rotated pairwise until mutually orthogonal; singular
    values sorted descending.  Exact-zero singular values keep zero U
    columns (harmless for reconstruction and pseudo-inversion).

    U is stacked above V, so a rotation is one in-place update of a
    column pair of length m + n through three scratch buffers.  Each
    column's squared norm is cached and recomputed only after the column
    is rotated.  Dot products go through ``ndarray.dot`` on the same
    strided views: the BLAS call of ``@``, with less dispatch, which is
    most of a call's time on vectors this short.  The floating-point
    operations and their order are those of the plain loop with three dot
    products per pair, so the factors are the same bytes.  Raises
    ValueError on a NaN or inf entry, and NumericalFailure when the last of
    MAX_SWEEPS sweeps still finds a column pair with cosine >= JACOBI_TOL:
    its factors would not be orthogonal.
    """
    tol, max_sweeps = JACOBI_TOL, MAX_SWEEPS
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("need a 2-d matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a NaN or inf entry")
    transposed = a.shape[0] < a.shape[1]
    if transposed:
        a = a.T
    m, n = a.shape
    # C order, so each U column is a view with an m x n array's stride:
    # contiguous (Fortran-order) columns change BLAS's dot summation order
    w = np.vstack((a, np.eye(n)))
    wcols = [w[:, k] for k in range(n)]
    ucols = [w[:m, k] for k in range(n)]
    norms = [float(col.dot(col)) for col in ucols]
    cx, sy, sx = np.empty(m + n), np.empty(m + n), np.empty(m + n)
    multiply, subtract, add = np.multiply, np.subtract, np.add
    sqrt, copysign = math.sqrt, math.copysign
    off = math.inf  # MAX_SWEEPS = 0 shows nothing converged
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            ui = ucols[i]
            for j in range(i + 1, n):
                uj = ucols[j]
                aii, ajj = norms[i], norms[j]
                aij = float(ui.dot(uj))
                prod = aii * ajj
                root = sqrt(prod)
                if prod > 0:
                    off = max(off, abs(aij) / root)
                if abs(aij) <= tol * root or aij == 0.0:
                    continue
                zeta = (ajj - aii) / (2.0 * aij)
                t = copysign(1.0, zeta) / (abs(zeta) + sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / sqrt(1.0 + t * t)
                s = c * t
                # x <- c*x - s*y and y <- s*x + c*y in place, each product
                # rounded once; x and y are columns of [U; V]
                x, y = wcols[i], wcols[j]
                multiply(x, c, cx)
                multiply(y, s, sy)
                multiply(x, s, sx)
                subtract(cx, sy, x)
                multiply(y, c, cx)
                add(sx, cx, y)
                norms[i] = float(ui.dot(ui))
                norms[j] = float(uj.dot(uj))
        if off < tol:
            break
    else:
        raise NumericalFailure(
            f"Jacobi SVD of a {m}x{n} matrix not converged after {max_sweeps} sweeps "
            f"(largest column cosine {off:.3g}, tolerance {tol:.3g})")
    u, v = w[:m], w[m:]
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


def _kept(s) -> np.ndarray:
    """The singular values above PINV_RCOND * sigma_max, which a pseudo-inverse inverts."""
    return s > PINV_RCOND * (s[0] if s.size else 0.0)


def _pinv_from_svd(u, s, vt) -> np.ndarray:
    """Pseudo-inverse from the thin SVD a = U diag(s) Vt."""
    sinv = np.where(_kept(s), 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return vt.T @ (sinv[:, None] * u.T)


def support_set(beta, tol: float) -> np.ndarray:
    """Indices with |beta_i| > tol, ascending."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return np.flatnonzero(np.abs(np.asarray(beta, dtype=float)) > tol)


def default_support_tol(beta_hat) -> float:
    """1e-8 relative to the sup norm of the reference minimizer."""
    m = float(np.max(np.abs(beta_hat))) if np.size(beta_hat) else 0.0
    return 1e-8 * m


def prediction_error(problem: LassoProblem, beta_tilde, beta_hat) -> float:
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    if beta_tilde.shape != (problem.p,) or beta_hat.shape != (problem.p,):
        raise ValueError("coefficient vectors must have length p")
    d = problem.X.dot(beta_tilde - beta_hat)
    return float(d.dot(d) / problem.n)


def estimation_error(beta_tilde, beta_hat) -> float:
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    if beta_tilde.shape != beta_hat.shape:
        raise ValueError("coefficient vectors must have equal length")
    d = beta_tilde - beta_hat
    return float(d.dot(d))


def support_conditions_check(X, s_set) -> dict:
    """Evaluate the three design conditions for support-wise closeness.

    Reports ||(X_S' X_S)^-1 X_S'||_F, ||pinv(X_Sc)||_F, and the singular
    value test sigma_max(S1) < min(2, 2*sigma_min(S2)) where S1 comes from
    (X_S'X_S)^-1 X_S' X_Sc + (pinv(X_Sc) X_S)' and S2 = pinv(X_Sc) X_Sc, a
    projector: sigma_min(S2) is exactly 1 if X_Sc has full column rank, else 0.

    Returns the ``support_conditions`` block of ``verify.json``, keys in the
    order written; ``s_set`` lists the sorted distinct indices.
    """
    X = np.asarray(X, dtype=float)
    s_idx = np.asarray(sorted({check_number("support index", i, integral=True)
                               for i in np.asarray(s_set, dtype=object).ravel().tolist()}))
    p = X.shape[1]
    if s_idx.size == 0:
        raise ValueError("support set must be nonempty")
    if s_idx.min() < 0 or s_idx.max() >= p:
        raise ValueError("support indices out of range")
    if s_idx.size >= p:
        raise ValueError("support set must be a proper subset of the columns")
    in_s = np.zeros(p, dtype=bool)
    in_s[s_idx] = True
    xs = X[:, in_s]
    xsc = X[:, ~in_s]

    u_s, s_vals, vt_s = jacobi_svd(xs)
    if np.count_nonzero(_kept(s_vals)) < s_idx.size:
        raise ValueError("X_S is rank deficient")
    # equals (X_S'X_S)^-1 X_S' at full column rank; reuses the rank test's SVD
    gram_s_inv_xs_t = _pinv_from_svd(u_s, s_vals, vt_s)
    u_sc, s_sc, vt_sc = jacobi_svd(xsc)
    pinv_sc = _pinv_from_svd(u_sc, s_sc, vt_sc)

    a_mat = gram_s_inv_xs_t @ xsc + (pinv_sc @ xs).T
    _, s1, _ = jacobi_svd(a_mat)

    sigma_max_s1 = float(s1[0]) if s1.size else 0.0
    sigma_min_s2 = 1.0 if np.count_nonzero(_kept(s_sc)) == xsc.shape[1] else 0.0
    holds = sigma_max_s1 < min(2.0, 2.0 * sigma_min_s2)
    return {
        "s_set": s_idx.tolist(),
        "frob_pinv_s": float(np.linalg.norm(gram_s_inv_xs_t)),
        "frob_pinv_sc": float(np.linalg.norm(pinv_sc)),
        "sigma_max_s1": sigma_max_s1,
        "sigma_min_s2": sigma_min_s2,
        "condition3_holds": holds,
        "svd_method": SVD_METHOD,
    }


def closeness_sweep(problem: LassoProblem, ref, ts) -> list[dict]:
    """Prediction and estimation errors of the smoothed minimizer at each
    level of ts: one row per level given, in the order given, repeats
    included.  Damped Newton to ||grad F_t|| <= SWEEP_GRAD_TOL, uncounted,
    walks the distinct levels down, each from the last minimizer: from zero
    at the largest, or at 1, 0.1, ... above it when it is below 0.1, so that
    no level stalls far out on a rank-deficient gram's null space.
    NumericalFailure after ``surrogate.MAX_NEWTON`` steps at one level."""
    levels = sorted(set(ts), reverse=True)
    ladder = ([] if not levels or levels[0] >= 0.1 else
              list(takewhile(lambda d: d > levels[0], (10.0**-k for k in count()))))
    bt = np.zeros(problem.p)
    minimizers = {}
    for t in ladder + levels:
        bt = minimizers[t] = minimize_surrogate(problem, SurrogateSpec(t), bt, SWEEP_GRAD_TOL)[0]
    return [{"t": t,
             "prediction_error": prediction_error(problem, minimizers[t], ref.beta_hat),
             "estimation_error": estimation_error(minimizers[t], ref.beta_hat)}
            for t in ts]
