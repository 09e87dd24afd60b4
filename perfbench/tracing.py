"""Spans around torusvar's public functions, recorded from outside the package.

Each traced function is replaced by a wrapper at every name its callers
resolve: the defining module and every torusvar module that imported it by
name (critical_solver binds ``solve_linear_system`` and ``el_residual``,
energetics and cli bind torus_geometry functions).  Leaving the ``Tracer``
context restores the originals.  Calls made outside a task (while a pass is
built or an output checked) run unrecorded.

A span is ``[name, start, end, parent, task, note]``: ``parent`` is the index
of the enclosing span (``None`` for a task's root span), ``task`` the id of
the task that caused it, and ``note`` a small per-call value kept for the
layer metrics.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable


def _bits(solution) -> int:
    """Largest numerator or denominator bit length in a LinearSolution's assignments."""
    best = 0
    for form in solution.assignments.values():
        for c in (form.constant, *form.terms.values()):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


# module -> {function: note(args, result)}; a note runs outside the span's
# interval but inside its parent's, so notes only keep references or sizes
TRACED: dict[str, dict[str, Callable | None]] = {
    "exact_algebra": {
        "solve_linear_system": lambda args, result: (len(args[0]), len(args[1]), result),
    },
    "h_calculus": dict.fromkeys(
        (
            "k_as_hpoly",
            "laplacian_h",
            "grad_h_squared",
            "divbar_h",
            "divbar_bilinear",
            "laplacian_poly",
            "divbar_poly",
        )
    ),
    "shape_equation": dict.fromkeys(("el_system", "el_residual", "el_residual_numeric_scaled")),
    "critical_solver": {
        "solve_pure_h": lambda args, result: result.degeneracy is not None,
        "solve_with_gauss": lambda args, result: result.degeneracy is not None,
        "verify_solution": None,
    },
    "torus_geometry": {
        "lb_numeric": None,
        "divbar_numeric": None,
        "spectral_derivative": lambda args, result: args[0].shape[0],
        "suggest_grid": lambda args, result: result,
    },
    "energetics": dict.fromkeys(("curvature_energy", "second_variation", "willmore_scan")),
    "cli": {"main": None},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.task: int | None = None
        self.in_task = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "torusvar"]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"torusvar.{module_name}")
            for func_name, note in functions.items():
                original = getattr(module, func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original, note)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.in_task:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.task, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn: Callable):
        """Run one task under a root span; its spans get the next task id."""
        self.task = 0 if self.task is None else self.task + 1
        self.in_task = True
        try:
            return self._wrap(f"task {name}", fn, None)()
        finally:
            self.in_task = False

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, task, note in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, covered)]

    def solution_bits(self) -> int:
        return max(
            (_bits(s[5][2]) for s in self.spans if s[0] == "exact_algebra.solve_linear_system"),
            default=0,
        )

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent, task, _ in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "task": task}
                    )
                    + "\n"
                )
