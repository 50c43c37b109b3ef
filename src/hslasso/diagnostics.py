"""Closeness diagnostics between smoothed-penalty minimizers and the exact
Lasso minimizer: prediction/estimation errors, support extraction, and a
checkable sufficient condition on the design matrix for support-wise
estimation consistency.

Small dense matrices only; the SVD is a one-sided Jacobi implementation
(identifier recorded in the report metadata) and the pseudo-inverse
treats singular values below 1e-12 * sigma_max as zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .problem import LassoProblem
from .surrogate import SurrogateSpec, minimize_surrogate

SVD_METHOD = "one-sided-jacobi"
PINV_RCOND = 1e-12


def jacobi_svd(a, tol: float = 1e-13, max_sweeps: int = 60):
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


def _kept(s, rcond: float) -> np.ndarray:
    """The singular values above rcond * sigma_max, which a pseudo-inverse inverts."""
    return s > rcond * (s[0] if s.size else 0.0)


def _pinv_from_svd(u, s, vt, rcond: float) -> np.ndarray:
    """Pseudo-inverse from the thin SVD a = U diag(s) Vt."""
    sinv = np.where(_kept(s, rcond), 1.0 / np.where(s > 0, s, 1.0), 0.0)
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
    d = problem.X @ (beta_tilde - beta_hat)
    return float(d @ d / problem.n)


def estimation_error(beta_tilde, beta_hat) -> float:
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    if beta_tilde.shape != beta_hat.shape:
        raise ValueError("coefficient vectors must have equal length")
    d = beta_tilde - beta_hat
    return float(d @ d)


@dataclass(frozen=True)
class SupportConditionReport:
    s_set: np.ndarray
    frob_pinv_s: float
    frob_pinv_sc: float
    sigma_max_s1: float
    sigma_min_s2: float
    condition3_holds: bool
    svd_method: str = SVD_METHOD

    def to_dict(self) -> dict:
        return {**asdict(self), "s_set": self.s_set.tolist()}


def support_conditions_check(X, s_set) -> SupportConditionReport:
    """Evaluate the three design conditions for support-wise closeness.

    Reports ||(X_S' X_S)^-1 X_S'||_F, ||pinv(X_Sc)||_F, and the singular
    value test sigma_max(S1) < min(2, 2*sigma_min(S2)) where S1 comes from
    (X_S'X_S)^-1 X_S' X_Sc + (pinv(X_Sc) X_S)' and S2 = pinv(X_Sc) X_Sc, a
    projector: sigma_min(S2) is exactly 1 if X_Sc has full column rank, else 0.
    """
    X = np.asarray(X, dtype=float)
    s_idx = np.asarray(sorted(set(int(i) for i in np.asarray(s_set).ravel())))
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
    if np.count_nonzero(_kept(s_vals, PINV_RCOND)) < s_idx.size:
        raise ValueError("X_S is rank deficient")
    # equals (X_S'X_S)^-1 X_S' at full column rank; reuses the rank test's SVD
    gram_s_inv_xs_t = _pinv_from_svd(u_s, s_vals, vt_s, PINV_RCOND)
    u_sc, s_sc, vt_sc = jacobi_svd(xsc)
    pinv_sc = _pinv_from_svd(u_sc, s_sc, vt_sc, PINV_RCOND)

    a_mat = gram_s_inv_xs_t @ xsc + (pinv_sc @ xs).T
    _, s1, _ = jacobi_svd(a_mat)

    sigma_max_s1 = float(s1[0]) if s1.size else 0.0
    sigma_min_s2 = 1.0 if np.count_nonzero(_kept(s_sc, PINV_RCOND)) == xsc.shape[1] else 0.0
    holds = sigma_max_s1 < min(2.0, 2.0 * sigma_min_s2)
    return SupportConditionReport(
        s_set=s_idx,
        frob_pinv_s=float(np.linalg.norm(gram_s_inv_xs_t)),
        frob_pinv_sc=float(np.linalg.norm(pinv_sc)),
        sigma_max_s1=sigma_max_s1,
        sigma_min_s2=sigma_min_s2,
        condition3_holds=holds,
    )


def surrogate_minimizer(problem: LassoProblem, t: float,
                        grad_tol: float = 1e-10, max_iters: int = 500_000) -> np.ndarray:
    """Minimizer of the level-t smoothed objective by damped Newton from
    zero to ||grad F_t|| <= grad_tol; uncounted (diagnostic use only).
    Raises NumericalFailure when max_iters Newton steps do not get there."""
    beta, _ = minimize_surrogate(problem, SurrogateSpec(t), np.zeros(problem.p),
                                 grad_tol, max_iters)
    return beta


def closeness_sweep(problem: LassoProblem, ref, ts) -> list[dict]:
    """Prediction and estimation errors of the smoothed minimizer along a
    decreasing grid of levels."""
    rows = []
    for t in ts:
        bt = surrogate_minimizer(problem, t)
        rows.append({
            "t": t,
            "prediction_error": prediction_error(problem, bt, ref.beta_hat),
            "estimation_error": estimation_error(bt, ref.beta_hat),
        })
    return rows
