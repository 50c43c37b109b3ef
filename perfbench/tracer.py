"""Spans and counts recorded from outside the package.

Layers are hslasso's modules. Each hook replaces one public name with a
wrapper, at the place where the calling module looks that name up, and
puts the original back on exit. Nothing under ``src/`` is edited, so the
traced run computes exactly what the untraced run computes.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span, or -1. Spans stay in memory until the run ends. Charge
calls of ``hslasso.opcount`` are far too many for one span each (millions
per grid), so they are counted, and their time is folded into the span
that made them.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

LAYERS = ("datagen", "problem", "baselines", "homotopy", "opcount", "diagnostics")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.folded: list[float] = []  # opcount time inside each span
        self.stack: list[int] = []
        self.charge_calls = 0
        self.charge_s = 0.0

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(rec)
            self.folded.append(0.0)
            self.stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
        return traced

    def charge(self, fn):
        def counted(*args, **kwargs):
            t0 = perf_counter()
            fn(*args, **kwargs)
            dt = perf_counter() - t0
            self.charge_calls += 1
            self.charge_s += dt
            if self.stack:
                self.folded[self.stack[-1]] += dt
        return counted

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: a span's duration less its child spans and
        the charge calls made inside it."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - children[i] - self.folded[i]
        out["opcount"] += self.charge_s
        return out

    def covered_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


@contextlib.contextmanager
def patched(targets):
    """Replace ``(module, attribute, make_wrapper)`` targets for the
    duration of the block; ``make_wrapper`` receives the current value."""
    saved = []
    try:
        for module, attr, make_wrapper in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_hooks(tracer: Tracer) -> list:
    """Hooks around each layer's public functions, named ``layer.function``."""
    import hslasso.baselines
    import hslasso.cli
    import hslasso.datagen
    import hslasso.diagnostics
    import hslasso.homotopy
    import hslasso.opcount
    import hslasso.problem

    def span(name):
        return lambda fn: tracer.span(name, fn)

    hooks = [
        (hslasso.cli, "generate", span("datagen.generate")),
        # The class is replaced where generate() and the JSON loader look
        # it up, so construction (gram matrix and eigh) is one span.
        (hslasso.datagen, "LassoProblem", span("problem.build")),
        (hslasso.problem, "LassoProblem", span("problem.build")),
        (hslasso.cli, "reference_minimum", span("problem.reference")),
        # reference_minimum imports these at call time from the module.
        (hslasso.baselines, "fista_minimize_to_residual", span("baselines.ref_fista")),
        (hslasso.baselines, "cd_minimize_to_residual", span("baselines.ref_cd")),
        # baselines.solve() dispatches through these module globals.
        (hslasso.baselines, "ista_solve", span("baselines.ista.solve")),
        (hslasso.baselines, "fista_solve", span("baselines.fista.solve")),
        (hslasso.baselines, "cd_solve", span("baselines.cd.solve")),
        (hslasso.baselines, "sl_solve", span("baselines.sl.solve")),
        (hslasso.cli, "hs_solve", span("homotopy.hs_solve")),
        (hslasso.diagnostics, "closeness_sweep", span("diagnostics.closeness_sweep")),
        (hslasso.diagnostics, "support_conditions_check",
         span("diagnostics.support_conditions")),
    ]
    for module in (hslasso.baselines, hslasso.homotopy):
        for attr in sorted(vars(module)):
            if attr.startswith("charge_") and getattr(module, attr) is getattr(
                    hslasso.opcount, attr, None):
                hooks.append((module, attr, tracer.charge))
    return hooks
