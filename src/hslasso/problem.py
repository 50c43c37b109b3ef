"""Lasso problem container, objectives, serialization.

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
    for key, kind in (("n", int), ("p", int), ("lambda", (int, float))):
        if isinstance(doc[key], bool) or not isinstance(doc[key], kind):  # a bool is no number
            raise ValueError(f"problem value of the wrong type: {key} = {doc[key]!r}")
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
