"""Per-iteration solver trace shared by all solvers.

CSV schema: ``k,t_k,inner_iters,F,F_t,ops``.  Homotopy runs put the
current level in ``t_k``; flat methods write 0 there.  ``F_t`` is the
method's auxiliary objective (smoothed objective for surrogate methods,
equal to ``F`` otherwise).  Each solve owns one op counter,
``SolverTrace.counter``, charges it and returns it on its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opcount import OpCounter

CSV_HEADER = "k,t_k,inner_iters,F,F_t,ops"


@dataclass(frozen=True)
class TraceRecord:
    k: int
    t: float
    inner_iters: int
    f_value: float
    ft_value: float
    cumulative_ops: int


@dataclass
class SolverTrace:
    records: list[TraceRecord] = field(default_factory=list)
    final_beta: np.ndarray | None = None
    converged: bool = False
    metadata: dict = field(default_factory=dict)
    counter: OpCounter = field(default_factory=OpCounter)

    def append(self, k, t, inner_iters, f_value, ft_value, cumulative_ops):
        self.records.append(
            TraceRecord(int(k), float(t), int(inner_iters), float(f_value),
                        float(ft_value), int(cumulative_ops))
        )

    def first_ops_at_gap(self, f_min: float, epsilon: float) -> int | None:
        """Cumulative ops at the first record within epsilon of f_min."""
        for r in self.records:
            if r.f_value - f_min <= epsilon:
                return r.cumulative_ops
        return None

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.k},{r.t!r},{r.inner_iters},{r.f_value!r},{r.ft_value!r},{r.cumulative_ops}"
            )
        return "\n".join(lines) + "\n"
