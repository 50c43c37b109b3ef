"""Certified checks of what the workloads compute.

A reference minimum is certified by a Lasso duality gap, the certificate
of Gap Safe screening (Ndiaye et al., JMLR 2017). For the objective
f(b) = ||y - Xb||^2/(2n) + lam*||b||_1, take r = y - Xb and
theta = s*r with s = min(1/n, lam/||X'r||_inf). Then theta is dual
feasible and D(theta) = theta'y - (n/2)||theta||^2 <= f* <= f(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dual_value(problem, beta) -> float:
    r = problem.y - problem.X @ beta
    corr = float(np.max(np.abs(problem.X.T @ r)))
    s = 1.0 / problem.n if corr == 0.0 else min(1.0 / problem.n, problem.lam / corr)
    theta = s * r
    return float(theta @ problem.y - 0.5 * problem.n * (theta @ theta))


def primal_value(problem, beta) -> float:
    # Evaluated here, not through hslasso.lasso_objective, so that the
    # check does not rest on the code it checks.
    r = problem.y - problem.X @ beta
    return float(r @ r / (2.0 * problem.n) + problem.lam * np.sum(np.abs(beta)))


def dual_gap(problem, beta) -> float:
    return primal_value(problem, beta) - dual_value(problem, beta)


@dataclass
class SolveRecord:
    method: str
    problem: object
    ref: object
    converged: bool
    final_f: float
    f_at_eps: list  # objective at the first record within each eps of f_min, or None
    iters: int  # flat methods: iterations; hs: outer levels
    inner_steps: int  # hs only


class Recorder:
    """Keeps, from each reference and solve call, what the certificates
    and per-layer counts need. Installed in traced and untraced passes
    alike; per solve it scans the trace once and evaluates f once."""

    def __init__(self, epsilons=()):
        self.epsilons = tuple(epsilons)
        self.references: list = []
        self.solves: list[SolveRecord] = []

    def reference(self, fn):
        def recorded(problem, *args, **kwargs):
            ref = fn(problem, *args, **kwargs)
            self.references.append((problem, ref))
            return ref
        return recorded

    def solve(self, fn):
        def recorded(problem, config, *args, **kwargs):
            trace = fn(problem, config, *args, **kwargs)
            # HSConfig carries the reference as outer_ref and has no method.
            ref = getattr(config, "outer_ref", None) or config.ref
            method = getattr(config, "method", "hs")
            f_at = []
            for eps in self.epsilons:
                hit = next((r.f_value for r in trace.records if r.f_value - ref.f_min <= eps), None)
                f_at.append(hit)
            if method == "hs":
                iters = int(trace.metadata["outer_iterations"])
                inner = sum(r.inner_iters for r in trace.records)
            else:
                iters, inner = trace.records[-1].k, 0
            self.solves.append(SolveRecord(
                method, problem, ref, bool(trace.converged),
                primal_value(problem, trace.final_beta), f_at, iters, inner))
            return trace
        return recorded


def hooks(recorder: Recorder) -> list:
    import hslasso.baselines
    import hslasso.cli

    return [
        (hslasso.cli, "reference_minimum", recorder.reference),
        (hslasso.cli, "hs_solve", recorder.solve),
        (hslasso.baselines, "solve", recorder.solve),
    ]


def check(recorder: Recorder, ref_gap_tol: float) -> tuple[float, list[str]]:
    """Returns (largest reference gap, list of failed checks).

    Every reference must be certified within ref_gap_tol. Every precision
    a solve reached must hold against the certified lower bound D, not
    only against the reference value f_min."""
    problems = []
    gaps = []
    for problem, ref in recorder.references:
        gap = dual_gap(problem, ref.beta_hat)
        gaps.append(gap)
        if not gap <= ref_gap_tol:
            problems.append(f"reference of {problem!r}: duality gap {gap!r} > {ref_gap_tol!r}")
    for s in recorder.solves:
        d = dual_value(s.problem, s.ref.beta_hat)
        for eps, f in zip(recorder.epsilons, s.f_at_eps):
            if f is not None and not f - d <= eps:
                problems.append(f"{s.method} on {s.problem!r}: certified gap {f - d!r} > eps {eps!r}")
        if s.converged and not s.final_f - d <= min(recorder.epsilons):
            problems.append(f"{s.method} on {s.problem!r}: converged but final certified gap "
                            f"{s.final_f - d!r} > {min(recorder.epsilons)!r}")
    return max(gaps, default=0.0), problems
