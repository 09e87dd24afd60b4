"""Per-layer metrics: span aggregates from a traced phase, and CLI probes.

Span counts and self times are divided by the number of traced passes, so a
count repeats exactly from run to run and across commits whenever the
program does the same work.  The CLI layer is measured by probes: fresh
interpreters for start-up and import cost, ``-X importtime`` for numpy, and
warm in-process ``cli.main`` calls per README example.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
from time import perf_counter

from cold import CLI_EXAMPLES, ROOT, checkout_env, cli_argv
from tracing import Tracer

# metric group -> traced functions whose calls and self time it sums
GROUPS = {
    "exact_algebra.solve_linear_system": ("exact_algebra.solve_linear_system",),
    "h_calculus.operators": (
        "h_calculus.k_as_hpoly",
        "h_calculus.laplacian_h",
        "h_calculus.grad_h_squared",
        "h_calculus.divbar_h",
        "h_calculus.divbar_bilinear",
        "h_calculus.laplacian_poly",
        "h_calculus.divbar_poly",
    ),
    "shape_equation.el_system": ("shape_equation.el_system",),
    "shape_equation.el_residual": ("shape_equation.el_residual",),
    "shape_equation.el_residual_numeric_scaled": ("shape_equation.el_residual_numeric_scaled",),
    "critical_solver.solve": ("critical_solver.solve_pure_h", "critical_solver.solve_with_gauss"),
    "critical_solver.verify_solution": ("critical_solver.verify_solution",),
    "torus_geometry.operators": ("torus_geometry.lb_numeric", "torus_geometry.divbar_numeric"),
    "torus_geometry.spectral_derivative": ("torus_geometry.spectral_derivative",),
    "torus_geometry.suggest_grid": ("torus_geometry.suggest_grid",),
    "energetics.curvature_energy": ("energetics.curvature_energy",),
    "energetics.second_variation": ("energetics.second_variation",),
    "energetics.willmore_scan": ("energetics.willmore_scan",),
    "cli.main": ("cli.main",),
}
FAMILY_SOLVES = {"pure_h": "critical_solver.solve_pure_h", "gauss": "critical_solver.solve_with_gauss"}
PROBE_REPEATS = 5


def span_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples) from the spans of ``passes`` traced passes."""
    spans = tracer.spans
    selfs = tracer.self_times()
    out: dict[str, tuple[float, str, int]] = {}
    for group, names in GROUPS.items():
        idx = [i for i, s in enumerate(spans) if s[0] in names]
        out[f"{group}.calls"] = (len(idx) / passes, "count/pass", len(idx))
        out[f"{group}.self_ms"] = (1e3 * sum(selfs[i] for i in idx) / passes, "ms/pass", len(idx))

    def notes(name: str) -> list:
        return [s[5] for s in spans if s[0] == name]

    solves = notes("exact_algebra.solve_linear_system")
    out["exact_algebra.solve_linear_system.cells"] = (
        sum(rows * (unknowns + 1) for rows, unknowns, _ in solves) / passes, "count/pass", len(solves)
    )
    out["exact_algebra.solution_bits.max"] = (tracer.solution_bits(), "bits", len(solves))

    # el_system calls per family solve, counted through each span's ancestry
    owner: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[0] in FAMILY_SOLVES.values():
            owner[i] = 0
    for s in spans:
        if s[0] == "shape_equation.el_system":
            parent = s[3]
            while parent is not None and parent not in owner:
                parent = spans[parent][3]
            if parent is not None:
                owner[parent] += 1
    per_kind = {kind: [owner[i] for i in owner if spans[i][0] == name] for kind, name in FAMILY_SOLVES.items()}
    every = [c for counts in per_kind.values() for c in counts]
    out["shape_equation.el_system.calls_per_family"] = (_mean(every), "count", len(every))
    for kind, counts in per_kind.items():
        out[f"shape_equation.el_system.calls_per_family.{kind}"] = (_mean(counts), "count", len(counts))

    degenerate = [i for i in owner if spans[i][5]]
    out["critical_solver.degenerate_families"] = (len(degenerate) / passes, "count/pass", len(owner))
    points = notes("torus_geometry.spectral_derivative")
    out["torus_geometry.spectral_derivative.points"] = (sum(points) / passes, "count/pass", len(points))
    grids = notes("torus_geometry.suggest_grid")
    out["torus_geometry.suggest_grid.points"] = (sum(grids) / passes, "count/pass", len(grids))
    return out


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def _wall_ms(cmd: list[str], env: dict[str, str]) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
    return 1e3 * (perf_counter() - t0)


def _importtime(cmd: list[str], env: dict[str, str]) -> dict[str, int]:
    """Self import time in microseconds per module, from ``-X importtime``."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=60)
    out = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, module = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                out[module.strip()] = int(self_us)
    return out


def cli_probes(repeats: int = PROBE_REPEATS) -> dict[str, tuple[float, str, int]]:
    from torusvar import cli

    env = checkout_env()
    py = sys.executable
    _wall_ms([py, "-c", "import torusvar.cli"], env)  # bytecode cache warm
    bare = statistics.median(_wall_ms([py, "-c", "pass"], env) for _ in range(repeats))
    imported = statistics.median(_wall_ms([py, "-c", "import torusvar.cli"], env) for _ in range(repeats))
    numpy_us = statistics.median(
        _importtime([py, "-X", "importtime", "-c", "import torusvar.cli"], env).get("numpy", 0)
        for _ in range(repeats)
    )
    solve_argv = cli_argv(CLI_EXAMPLES[0][1])
    after_solve = _importtime([py, "-X", "importtime", "-m", "torusvar.cli", *solve_argv], env)
    out = {
        "cli.interpreter_ms": (bare, "ms", repeats),
        "cli.import_ms": (imported - bare, "ms", repeats),
        "cli.import_self_us.numpy": (numpy_us, "us", repeats),
        "cli.numpy_loaded.solve": (float("numpy" in after_solve), "flag", 1),
    }
    for name, argv, _ in CLI_EXAMPLES:
        argv = cli_argv(argv)
        times = []
        for _ in range(repeats + 1):  # the first call warms caches and is dropped
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                cli.main(argv)
                times.append(1e3 * (perf_counter() - t0))
        out[f"cli.command_ms.{name}"] = (statistics.median(times[1:]), "ms", repeats)
    return out
