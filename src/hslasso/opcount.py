"""Deterministic arithmetic-operation accounting for solver benchmarks.

Counts are exact integers, so they do not depend on the host platform,
BLAS kernels, or interpreter version.  Every charge is one entry of
:data:`CHARGES`, a closed form in the problem size p: the step maps only
compute, and each driver charges its steps by count through
:meth:`OpCounter.charge`, the one writer of a counter.  Each solve owns
one counter, ``trace.counter``, and the helpers it calls take that counter
as a required argument.  The conventions:

* a dense (rows, cols) matrix-vector product costs ``rows*cols`` mults
  and ``rows*(cols-1)`` adds; an axpy of length m costs m mults and m adds;
* a soft threshold costs 2 comparisons and 1 add per entry, dead zone
  included, so that identical iteration maps charge identical amounts; a
  cd sweep charges each coordinate's axpy even where it does not move, and
  the HS penalty derivative one branch comparison and one branch's
  arithmetic per entry;
* a stop that reads an oracle quantity (the reference or F_t's minimum)
  charges nothing;
* one-off work of a solve goes to ``setup_ops``, which ``total()``
  excludes; benchmark outputs report both, for an inclusive or an
  exclusive reading.

Charged to no method: the gram X'X/n, X'y/n and its extreme eigenvalues,
which each ``LassoProblem`` computes once as shared precomputation, and
the eigendecomposition that each ``ridge_solver()`` call runs (once per
HS solve, in ``ridge_start``).  The projection V'X'y/n, which that call
forms once, is charged once, as one of the ridge start's two spectral
matvecs; a t0 probe charges the one matvec it performs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


def _add(*charges):
    return tuple(map(sum, zip(*charges)))


def _prox_grad(p):  # gram matvec, -X'y/n shift, scaled step, soft threshold
    return p * p + p, p * p + 2 * p, 0, 2 * p, 0


def _hs_gradient(p):  # gram matvec, -X'y/n shift, penalty derivative, lambda scale, sum
    return p * p + 4 * p, p * (p - 1) + 3 * p, 0, p, 0


# name -> p -> (mults, adds, transcendentals, comparisons, setup_ops)
CHARGES = {
    "prox-grad-setup": lambda p: (1, 0, 0, 0, 0),  # ista and fista: the threshold lambda/L
    "prox-grad": _prox_grad,  # an ista step
    # a fista step: the prox-gradient step at the extrapolated point, the
    # momentum (1 sqrt), its weight and the extrapolation
    "fista": lambda p: _add(_prox_grad(p), (p + 3, 2 * p + 2, 1, 0, 0)),
    # n*lambda and the matvec X'X beta0; the rescaled gram and X'y in setup
    "cd-setup": lambda p: (1 + p * p, p * (p - 1), 0, 0, p * p + p),
    # a cd sweep; per coordinate the partial residual (1 mult, 2 adds), the
    # soft threshold, the division by the column norm, the step, the axpy
    "cd": lambda p: (p * (p + 2), p * (p + 4), 0, 2 * p, 0),
    "sl-setup": lambda p: (2, 1, 0, 0, 0),  # the step 1 / (eig_max + lambda*alpha/2)
    # an sl step: momentum weight and extrapolation, penalty derivative (p
    # tanh), gradient matvec with shift and penalty term, step
    "sl": lambda p: (p * p + 5 * p + 1, p * p + 5 * p + 2, p, 0, 0),
    "hs-gradient": _hs_gradient,  # grad F_t, the part of the three entries below
    # an HS AGD step: the gradient, the extrapolated point and the new average
    # (2p mults and p adds each) and the prox update (3p, 2p), or the plain
    # gradient step (p, p) when gamma = inf
    "hs-step": lambda p: _add(_hs_gradient(p), (7 * p, 4 * p, 0, 0, 0)),
    "hs-step-plain": lambda p: _add(_hs_gradient(p), (5 * p, 3 * p, 0, 0, 0)),
    "hs-grad-stop": lambda p: _add(_hs_gradient(p), (p, p - 1, 1, 1, 0)),  # and norm, test
    "hs-shrink": lambda p: (1, 0, 0, 0, 0),  # the next level t*(1-h)
    # a level's constants: log(1+t), the sqrt in alpha, branch and step coefficients
    "hs-level": lambda p: (10, 4, 2, 0, 0),
    # the ridge start: log(1+t0), the shift, two spectral matvecs, the scaling
    "ridge-start": lambda p: (2 * p * p + p + 2, 2 * p * p - p, 1, 0, 0),
    # a t0 probe, in setup: the shift, the division and one spectral matvec
    "find-t0-probe": lambda p: (0, 0, 0, 0, 2 * p * p + p),
}


@dataclass
class OpCounter:
    mults: int = 0
    adds: int = 0
    transcendentals: int = 0
    comparisons: int = 0
    setup_ops: int = 0

    def charge(self, name: str, p: int, times: int = 1) -> "OpCounter":
        """Add ``times`` of ``CHARGES[name]`` at size p; returns the counter."""
        for field, ops in zip(fields(self), CHARGES[name](p)):
            setattr(self, field.name, getattr(self, field.name) + times * ops)
        return self

    def total(self) -> int:
        """Benchmark total: everything except the setup bucket."""
        return self.mults + self.adds + self.transcendentals + self.comparisons
