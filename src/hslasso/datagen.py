"""Seeded synthetic problem generator.

Rows of the design are equicorrelated Gaussians built from one shared
factor per observation: x = sqrt(rho)*g0*1 + sqrt(1-rho)*g, giving unit
marginal variance and pairwise correlation exactly rho in population.
Coefficients alternate in sign and decay exponentially, optionally
truncated to the first s entries.  The noise scale is calibrated to a
target signal-to-noise ratio under the population covariance.

Reproducibility: generation is a pure function of the SyntheticSpec,
seed included.  A root ``SeedSequence(seed)`` is spawned into two child
streams in fixed order, ``design`` then ``noise``; the design stream
draws the shared factors g0 (n values) and then the idiosyncratic block
g (n x p, row-major); the noise stream draws z (n values).  Generator:
numpy PCG64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import LassoProblem, check_number

RNG_ID = "numpy-pcg64; SeedSequence(seed).spawn(2) -> [design: g0[n], g[n,p] row-major; noise: z[n]]"

PATTERNS = ("dense-exp", "sparse-exp")


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    p: int
    rho: float
    snr: float = 3.0
    pattern: str = "dense-exp"
    sparsity: int | None = None  # nonzero coefficients of sparse-exp; None: min(10, p)
    seed: int = 0

    def __post_init__(self):
        counts = ("n", "p", "seed") + (() if self.sparsity is None else ("sparsity",))
        vars(self).update({name: check_number(name, getattr(self, name), integral=name in counts)
                           for name in counts + ("rho", "snr")})
        if self.n < 1 or self.p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.sparsity is None:
            object.__setattr__(self, "sparsity", min(10, self.p))
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if not self.snr > 0:
            raise ValueError("snr must be positive")
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}")
        if not 1 <= self.sparsity <= self.p:  # checked for dense-exp too, which ignores it
            raise ValueError("sparsity must satisfy 1 <= sparsity <= p")

    def metadata(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "rho": self.rho,
            "snr": self.snr,
            "pattern": self.pattern,
            "sparsity": self.sparsity if self.pattern == "sparse-exp" else None,
            "seed": self.seed,
            "rng": RNG_ID,
        }


def equicorrelated_design(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw the n x p design; row covariance (1-rho) I + rho 11'."""
    g0 = rng.standard_normal(spec.n)
    g = rng.standard_normal((spec.n, spec.p))
    return math.sqrt(spec.rho) * g0[:, None] + math.sqrt(1.0 - spec.rho) * g


def beta_pattern(spec: SyntheticSpec) -> np.ndarray:
    """Alternating-sign, exponentially decaying coefficients (1-based index):
    beta_i = (-1)^i exp(-2(i-1)/20), zeroed past the sparsity cut if sparse."""
    i = np.arange(1, spec.p + 1)
    beta = (-1.0) ** i * np.exp(-2.0 * (i - 1) / 20.0)
    if spec.pattern == "sparse-exp":
        beta = beta * (i <= spec.sparsity)
    return beta


def noise_scale_for_snr(spec: SyntheticSpec, beta) -> float:
    """q with Var(x'beta)/q^2 = snr under the population covariance:
    beta' Sigma beta = (1-rho)||beta||^2 + rho (sum beta_i)^2."""
    beta = np.asarray(beta, dtype=float)
    if not np.any(beta):
        raise ValueError("beta must not be identically zero")
    signal_var = (1.0 - spec.rho) * float(beta @ beta) + spec.rho * float(np.sum(beta)) ** 2
    return math.sqrt(signal_var / spec.snr)


def generate(spec: SyntheticSpec, lam: float) -> LassoProblem:
    """Full instance: X from the equicorrelated design, y = X beta + q z."""
    design_ss, noise_ss = np.random.SeedSequence(spec.seed).spawn(2)
    X = equicorrelated_design(spec, np.random.Generator(np.random.PCG64(design_ss)))
    beta = beta_pattern(spec)
    q = noise_scale_for_snr(spec, beta)
    z = np.random.Generator(np.random.PCG64(noise_ss)).standard_normal(spec.n)
    y = X @ beta + q * z
    return LassoProblem(y=y, X=X, lam=lam)
