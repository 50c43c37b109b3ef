"""Deterministic arithmetic-operation accounting for solver benchmarks.

Counts are exact integers, so they do not depend on the host platform,
BLAS kernels, or interpreter version.  Each solver step adds its
closed-form total to the counter once per step, inside one
``if counter is not None:`` block; one-off work is charged the same way.
The conventions, stated here only:

* a dense (rows, cols) matrix-vector product costs ``rows*cols`` mults
  and ``rows*(cols-1)`` adds (``p*(2p-1)`` for a square p x p product);
  an axpy of length m costs m mults and m adds;
* a soft threshold costs 2 comparisons and 1 add per entry, dead zone
  included, so that identical iteration maps charge identical amounts;
* a proximal-gradient step (ista, each fista step): ``p*p + p`` mults,
  ``p*p + 2*p`` adds, ``2*p`` comparisons (gram matvec, ``-X'y/n``
  shift, scaled step, soft threshold); fista's momentum adds 1 sqrt,
  ``p + 3`` mults and ``2*p + 2`` adds (momentum, weight, extrapolation);
* an sl step: ``p`` tanh, ``p*p + 5*p + 1`` mults, ``p*p + 5*p + 2``
  adds (momentum weight and extrapolation, penalty derivative, gradient
  matvec with shift and penalty term, step);
* a coordinate-descent sweep: ``p*(p+2)`` mults, ``p*(p+4)`` adds,
  ``2*p`` comparisons; per coordinate the partial residual (1 mult, 2
  adds), the soft threshold, the division by the column norm (1 mult),
  the step (1 add) and a length-p axpy on the cached ``X'X beta``,
  charged in full even where the coordinate does not move;
* the HS gradient of F_t: ``p*p + 4*p`` mults, ``p*(p-1) + 3*p`` adds,
  ``p`` comparisons (gram matvec, ``-X'y/n`` shift, penalty derivative
  with one branch comparison and one branch's arithmetic per entry,
  lambda scale, sum);
* an HS AGD step on top of its gradient: ``7*p`` mults and ``4*p`` adds
  (the extrapolated point and the new average, 2p mults and p adds each;
  the prox update, 3p mults and 2p adds), or ``5*p`` and ``3*p`` when
  gamma = inf and the update is a plain gradient step;
* an HS level: 1 mult for the shrink ``t*(1-h)``, then 2 transcendentals
  (log(1+t), the sqrt in alpha), 10 mults and 4 adds for its constants;
* the HS gradient-norm stop: ``p`` mults, ``p - 1`` adds, 1 sqrt and 1
  comparison on top of the gradient it evaluates; a stop that reads an
  oracle quantity (the reference or F_t minimum) charges nothing;
* the HS ridge initializer is algorithm work: 1 transcendental
  (log(1+t0)), ``2*p*p + p + 2`` mults and ``2*p*p - p`` adds (shift,
  two matvecs against the spectral factorization, scaling);
* one-time precomputation (gram matrix, ``X'y/n``, eigendecomposition,
  the starting-level search at ``2*p*(2*p-1) + 2*p`` per probe) goes to
  the ``setup_ops`` bucket, which ``total()`` excludes; benchmark outputs
  report both, for an inclusive or an exclusive reading.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    mults: int = 0
    adds: int = 0
    transcendentals: int = 0
    comparisons: int = 0
    setup_ops: int = 0

    def total(self) -> int:
        """Benchmark total: everything except the setup bucket."""
        return self.mults + self.adds + self.transcendentals + self.comparisons
