"""Lasso problem container, objective, serialization.

The problem instance is immutable after construction: it keeps read-only
copies of y and X, leaving the caller's arrays as they were, and the
normalized gram matrix X'X/n, the vector X'y/n, and the extreme gram
eigenvalues are computed once and shared read-only by every solver.  The
eigenvectors, which only the ridge solves use, are recomputed by each
ridge solver and never stored, so an instance holds no p x p array
besides the gram.
"""

from __future__ import annotations

import contextlib
import json
import numbers
import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

BINARY_MAGIC = b"LSSO"


class NumericalFailure(RuntimeError):
    """Raised when an oracle or factorization cannot reach its tolerance."""


def check_number(name: str, value, integral: bool = False):
    """The one type test of a number given to a record: ``value`` as a Python int
    (``integral``) or float; NumPy's pass, a bool (NumPy's too) raises ValueError."""
    kind, what = (numbers.Integral, "integers") if integral else (numbers.Real, "real numbers")
    if not isinstance(value, bool) and isinstance(value, kind):
        with contextlib.suppress(OverflowError):  # an int past float range
            return int(value) if integral else float(value)
    raise ValueError(f"{name} has the wrong type: {value!r} (values must be {what}, no bool)")


def _readonly(a: np.ndarray) -> np.ndarray:
    """Freeze, without a copy, an array that the library built itself."""
    a.flags.writeable = False
    return a


class LassoProblem:
    """Immutable least-squares-plus-l1 instance.

    Objective: (1/(2n)) ||y - X beta||_2^2 + lambda ||beta||_1.
    """

    def __init__(self, y, X, lam: float):
        # private C-order copies: the caller's arrays stay writeable and unaliased
        y = np.array(y, dtype=float, order="C")
        X = np.array(X, dtype=float, order="C")
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
        lam = check_number("lambda", lam)
        if not 0 < lam < np.inf:
            raise ValueError("lambda must be finite and strictly positive")
        self.n = n
        self.p = p
        self.lam = lam
        self.y = _readonly(y)
        self.X = _readonly(X)
        self.gram = _readonly(X.T @ X / n)
        self.xty = _readonly(X.T @ y / n)
        eigvals = np.linalg.eigh(self.gram)[0]
        self.eig_min = float(max(eigvals[0], 0.0))
        self.eig_max = float(max(eigvals[-1], 0.0))

    def ridge_solver(self):
        """The map shift -> b solving (X'X/n + shift I) b = X'y/n through the
        spectrum, with one eigendecomposition for all the shifts it is given:
        the same deterministic eigh as the one at construction.

        Eigenvalue noise below zero is clamped, as ``eig_min`` is: X'X/n is
        positive semidefinite, so only rounding puts an eigenvalue there.
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


def lasso_objective(problem: LassoProblem, beta, penalty=np.abs) -> float:
    """(1/(2n)) ||y - X beta||^2 + lambda sum_i penalty(beta)_i, the one
    objective evaluator: f with the default penalty |.|, F_t with
    ``SurrogateSpec(t).value`` and sl's with ``baselines.sl_penalty``."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.p,):
        raise ValueError(f"beta must have shape ({problem.p},), got {beta.shape}")
    r = problem.y - problem.X.dot(beta)
    return float(r.dot(r) / (2.0 * problem.n) + problem.lam * penalty(beta).sum())


def subgradient_residual(problem: LassoProblem, beta) -> float:
    """Sup-norm of the minimum-norm subgradient of the objective at beta.

    Zero exactly at the minimizer; entries at beta_i = 0 contribute the
    distance of the smooth gradient from the interval [-lambda, lambda],
    here |g_i| - lambda, negative inside it, which the final max with 0
    clamps.
    """
    beta = np.asarray(beta, dtype=float)
    g = problem.gram.dot(beta) - problem.xty
    lam = problem.lam
    a = np.abs(g + lam * np.sign(beta))  # |g_i| where beta_i = 0
    return max(float(np.where(beta != 0.0, a, a - lam).max()), 0.0)


# ---------------------------------------------------------------------------
# Serialization.  JSON carries the instance as plain lists (X row-major);
# the binary format is a little-endian stream: magic "LSSO", u32 n, u32 p,
# f64 lambda, then y (n doubles) and X in column-major order (n*p doubles).
# ---------------------------------------------------------------------------


def save_problem_json(problem: LassoProblem, path) -> None:
    doc = {
        "n": problem.n,
        "p": problem.p,
        "lambda": problem.lam,
        "y": problem.y.tolist(),
        "X": problem.X.tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # one string: json.dump streams through the slow encoder


def load_problem_json(path) -> LassoProblem:
    with open(path) as fh:
        doc = json.loads(fh.read())
    if not isinstance(doc, dict):
        raise ValueError("a problem document must be a JSON object")
    missing = {"n", "p", "lambda", "y", "X"} - doc.keys()
    if missing:
        raise ValueError(f"problem document missing keys: {sorted(missing)}")
    n, p = (check_number(key, doc[key], integral=True) for key in ("n", "p"))
    try:
        # one C-level pass over the entries' types: numpy would read a bool
        # as 1.0/0.0 and a string of digits as its number
        if not set(map(type, chain.from_iterable(doc["X"]))) | set(map(type, doc["y"])) <= {
                int, float}:
            raise ValueError("X and y entries must be numbers (a bool or string is none)")
        X = np.asarray(doc["X"], dtype=float)
        y = np.asarray(doc["y"], dtype=float)
        if X.shape != (n, p):
            raise ValueError("X dimensions disagree with the declared n, p")
        return LassoProblem(y=y, X=X, lam=doc["lambda"])
    except (TypeError, OverflowError) as exc:  # e.g. "X": 5, or an int past float range
        raise ValueError(f"problem value of the wrong type: {exc}") from exc


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
        body = fh.read()  # the file's own length, whatever the header declares
    if len(body) != 8 * n * (p + 1):
        raise ValueError(f"body of {len(body)} bytes; the header's n={n}, p={p} "
                         f"declare {8 * n * (p + 1)}")
    data = np.frombuffer(body, dtype="<f8")
    return LassoProblem(y=data[:n], X=data[n:].reshape((n, p), order="F"), lam=lam)
