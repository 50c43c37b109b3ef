"""Lasso problem container, objectives, precision test, certified reference oracle.

The problem instance is immutable after construction: the normalized gram
matrix X'X/n, the vector X'y/n, and the extreme gram eigenvalues are
computed once and shared read-only by every solver.  The eigenvectors,
which only the ridge solves use, are recomputed by each ridge solver and
never stored, so an instance holds no p x p array besides the gram.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

BINARY_MAGIC = b"LSSO"


class NumericalFailure(RuntimeError):
    """Raised when an oracle or factorization cannot reach its tolerance."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


class LassoProblem:
    """Immutable least-squares-plus-l1 instance.

    Objective: (1/(2n)) ||y - X beta||_2^2 + lambda ||beta||_1.
    """

    def __init__(self, y, X, lam: float):
        y = np.asarray(y, dtype=float)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if y.shape != (n,):
            raise ValueError(f"y must have shape ({n},), got {y.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite (no NaN or inf entries)")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite (no NaN or inf entries)")
        if not 0 < lam < np.inf:
            raise ValueError("lambda must be finite and strictly positive")
        self.n = n
        self.p = p
        self.lam = float(lam)
        self.y = _readonly(y)
        self.X = _readonly(X)
        self.gram = _readonly(X.T @ X / n)
        self.xty = _readonly(X.T @ y / n)
        eigvals = np.linalg.eigh(self.gram)[0]
        if eigvals[0] < -1e-10:
            raise ValueError("gram matrix not positive semidefinite within 1e-10")
        self.eig_min = float(max(eigvals[0], 0.0))
        self.eig_max = float(max(eigvals[-1], 0.0))

    def ridge_solver(self):
        """The map shift -> b solving (X'X/n + shift I) b = X'y/n through the
        spectrum, with one eigendecomposition for all the shifts it is given:
        the same deterministic eigh as the one at construction.

        Eigenvalue noise below zero is clamped (the gram is validated
        positive semidefinite at construction).
        """
        evals, vecs = np.linalg.eigh(self.gram)
        evals = np.maximum(evals, 0.0)
        vecs = np.ascontiguousarray(vecs)
        coords = vecs.T @ self.xty

        def solve(shift: float) -> np.ndarray:
            denom = evals + shift
            if np.min(denom) <= 0:
                raise NumericalFailure("ridge system not positive definite")
            return vecs @ (coords / denom)

        return solve

    def __repr__(self):
        return f"LassoProblem(n={self.n}, p={self.p}, lambda={self.lam})"


@dataclass(frozen=True)
class ReferenceSolution:
    """High-accuracy minimizer and its duality gap, which bounds f_min - f*.

    ``method`` names the path that produced beta_hat: "support-kkt" for the
    exact solve on FISTA's sign pattern, "fista" for the FISTA iterate.
    """

    beta_hat: np.ndarray
    f_min: float
    dual_gap: float
    method: str = "fista"


def lasso_objective(problem: LassoProblem, beta) -> float:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.p,):
        raise ValueError(f"beta must have shape ({problem.p},), got {beta.shape}")
    r = problem.y - problem.X @ beta
    return float(r @ r / (2.0 * problem.n) + problem.lam * np.sum(np.abs(beta)))


def epsilon_precision(problem: LassoProblem, beta, ref: ReferenceSolution, epsilon: float) -> bool:
    """True iff the objective at beta is within epsilon of the reference minimum."""
    if not np.isfinite(ref.f_min):
        raise ValueError("reference minimum must be finite")
    return lasso_objective(problem, beta) - ref.f_min <= epsilon


def subgradient_residual(problem: LassoProblem, beta) -> float:
    """Sup-norm of the minimum-norm subgradient of the objective at beta.

    Zero exactly at the minimizer; entries at beta_i = 0 contribute the
    distance of the smooth gradient from the interval [-lambda, lambda].
    """
    beta = np.asarray(beta, dtype=float)
    g = problem.gram @ beta - problem.xty
    lam = problem.lam
    r = np.where(beta != 0.0, g + lam * np.sign(beta), g - np.clip(g, -lam, lam))
    return float(np.max(np.abs(r))) if r.size else 0.0


def support_kkt_solution(problem: LassoProblem, beta, tol: float) -> np.ndarray | None:
    """Exact minimizer on the sign pattern of beta, or None.

    With S = supp(beta) and s = sign(beta_S), solves the stationarity
    condition gram_SS b_S = xty_S - lambda s with b zero off S: the
    active-set step of the exact Lasso homotopy (Osborne, Presnell &
    Turlach, IMA J. Numer. Anal. 2000; LARS, Efron et al., Ann. Stat. 2004).
    b is returned only if it keeps the signs s and its subgradient residual
    is <= tol; a singular gram_SS returns None.
    """
    beta = np.asarray(beta, dtype=float)
    S = np.flatnonzero(beta)
    s = np.sign(beta[S])
    b = np.zeros(problem.p)
    try:
        b[S] = np.linalg.solve(problem.gram[np.ix_(S, S)], problem.xty[S] - problem.lam * s)
    except np.linalg.LinAlgError:
        return None
    if np.array_equal(np.sign(b[S]), s) and subgradient_residual(problem, b) <= tol:
        return b
    return None


def _reference_iterate(problem: LassoProblem, tol: float) -> tuple[np.ndarray | None, str]:
    """FISTA from zero, finished by :func:`support_kkt_solution` at the first
    looser residual where that solve is accepted; otherwise FISTA's own
    iterate at residual <= tol.  Returns (beta or None at the cap, method)."""
    from . import baselines

    accepted = []  # the run returns at the first accepted solve

    def finish(beta):
        exact = support_kkt_solution(problem, beta, tol)
        if exact is not None:
            accepted.append(exact)
        return exact

    beta = baselines.fista_minimize_to_residual(problem, np.zeros(problem.p), tol, finish=finish)
    return beta, "support-kkt" if accepted else "fista"


def reference_minimum(problem: LassoProblem, tol: float) -> ReferenceSolution:
    """Certified ground-truth minimum: the iterate of :func:`_reference_iterate`,
    whose subgradient residual is <= tol, certified by the Lasso duality gap G
    (Gap Safe screening: Fercoq, Gramfort & Salmon, ICML 2015).  With
    r = y - X b, g = X'r/n and a = min(1, lambda/||g||_inf), theta = a r/n is
    dual feasible, so G = f(b) - (theta'y - (n/2)||theta||^2) >= f(b) - f*.
    The residual bound tol bounds G:
      G = (1-a)^2 ||r||^2/(2n) + lambda ||b||_1 - a g'b;
      ||g||_inf <= lambda + tol, so 1-a <= tol/lambda, and g_i b_i >= (lambda - tol)|b_i|;
      so G <= (tol/lambda)^2 ||r||^2/(2n) + (lambda (1-a) + a tol) ||b||_1
           <= (tol/lambda)^2 ||r||^2/(2n) + 2 tol ||b||_1.
    A larger G, beyond 1e-12 max(1, |f|) of round-off, raises NumericalFailure.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    beta, method = _reference_iterate(problem, tol)
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


# ---------------------------------------------------------------------------
# Serialization.  JSON carries the instance as plain lists (X row-major);
# the binary format is a little-endian stream: magic "LSSO", u32 n, u32 p,
# f64 lambda, then y (n doubles) and X in column-major order (n*p doubles).
# ---------------------------------------------------------------------------


def problem_to_json(problem: LassoProblem) -> str:
    doc = {
        "n": problem.n,
        "p": problem.p,
        "lambda": problem.lam,
        "y": problem.y.tolist(),
        "X": problem.X.tolist(),
    }
    return json.dumps(doc)


def problem_from_json(text: str) -> LassoProblem:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a problem document must be a JSON object")
    missing = {"n", "p", "lambda", "y", "X"} - doc.keys()
    if missing:
        raise ValueError(f"problem document missing keys: {sorted(missing)}")
    try:
        X = np.asarray(doc["X"], dtype=float)
        y = np.asarray(doc["y"], dtype=float)
        if X.shape != (doc["n"], doc["p"]):
            raise ValueError("X dimensions disagree with the declared n, p")
        return LassoProblem(y=y, X=X, lam=doc["lambda"])
    except TypeError as exc:  # e.g. "lambda": "0.1" or "y": {...}
        raise ValueError(f"problem value of the wrong type: {exc}") from exc


def save_problem_json(problem: LassoProblem, path) -> None:
    with open(path, "w") as fh:
        fh.write(problem_to_json(problem))


def load_problem_json(path) -> LassoProblem:
    with open(path) as fh:
        return problem_from_json(fh.read())


def save_problem_binary(problem: LassoProblem, path) -> None:
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<IId", problem.n, problem.p, problem.lam))
        fh.write(problem.y.astype("<f8").tobytes())
        fh.write(np.asfortranarray(problem.X).astype("<f8").tobytes(order="F"))


def load_problem_binary(path) -> LassoProblem:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r}; expected {BINARY_MAGIC!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"truncated header: {len(header)} of 16 bytes after the magic")
        n, p, lam = struct.unpack("<IId", header)
        y = np.frombuffer(fh.read(8 * n), dtype="<f8")
        X = np.frombuffer(fh.read(8 * n * p), dtype="<f8").reshape((n, p), order="F")
    return LassoProblem(y=y.copy(), X=X.copy(), lam=lam)
