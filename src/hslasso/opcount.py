"""Deterministic arithmetic-operation accounting for solver benchmarks.

Counts are exact integers, so they do not depend on the host platform,
BLAS kernels, or interpreter version.  Each solver step adds its
closed-form total to the counter once per step, inside one
``if counter is not None:`` block; one-off work is charged the same way.
Convention:

* a dense matrix-vector product of shape (rows, cols) costs
  ``rows*cols`` multiplications and ``rows*(cols-1)`` additions, i.e.
  ``p*(2p-1)`` for a square p x p product;
* an axpy update of length m costs m multiplications and m additions;
* a soft-threshold application costs 2 comparisons and 1 addition per
  entry (the add is charged on every entry, dead zone included, so that
  identical iteration maps always charge identical amounts);
* one proximal-gradient step costs ``p*p + p`` multiplications,
  ``p*p + 2*p`` additions and ``2*p`` comparisons: the gram matvec, the
  ``-X'y/n`` shift, the scaled step and the soft threshold;
* the FISTA momentum update adds 1 transcendental (the square root),
  ``p + 3`` multiplications and ``2*p + 2`` additions per step: the new
  momentum, its weight and the extrapolation;
* one smoothed-penalty (sl) step costs ``p`` transcendentals (tanh),
  ``p*p + 5*p + 1`` multiplications and ``p*p + 5*p + 2`` additions: the
  momentum weight and extrapolation, the penalty derivative, the gradient
  matvec with its shift and penalty term, and the step;
* one cyclic coordinate-descent sweep over p coordinates costs
  ``p*(p+2)`` multiplications, ``p*(p+4)`` additions and ``2*p``
  comparisons: per coordinate the partial residual (1 mult, 2 adds), the
  soft threshold, the division by the column norm (1 mult), the step
  (1 add) and a length-p axpy on the cached ``X'X beta``;
* the homotopy inner loop's gradient-norm stopping test costs ``p``
  multiplications, ``p - 1`` additions, 1 transcendental (the square
  root) and 1 comparison on top of the gradient it evaluates;
* one-time precomputation (gram matrix, eigendecomposition, the search
  for the starting homotopy level) goes into a separate ``setup_ops``
  bucket that is excluded from ``total()``.

Benchmark outputs report both the per-iteration total and the setup
bucket so either an inclusive or an exclusive reading is available.
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
