#!/usr/bin/env python3
"""Benchmark harness for torusvar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in a fresh process.
Workloads: exact-families, numeric-oracles (in-process) and cli-cold (one
fresh CLI process per task).  Each is a closed loop with one client.  Set-up
(input generation, golden loading and one untimed warm-up pass) is done
``SETUP_REPEATS`` times in a row; ``setup_s`` is the import time plus their
median.  Then whole passes run for ``--seconds``, each task timed alone and
its output checked outside the timed interval.  Every pass of the run, the
warm-up passes included, has its own index and so its own inputs.

The host's speed changes in episodes lasting seconds to minutes, so the
latency of a task template is taken as the lowest of its latencies over the
passes: its latency while the host is not slowed.  ``task_ms.p50``
and ``task_ms.p90`` are percentiles of those latencies over the task mix
(one task per template per pass), and ``tasks_per_s`` is the mix's size over
their sum.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the run is split into an untraced and a traced half, and the
last line carries the per-layer metrics, the tracing overhead among them;
the spans are written to ``.perfbench_out/``.  The line before the last is a
report with the environment, the sample count behind each metric and the
failures.  The sources are taken from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tasks import WRONG, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 4
WORKLOAD_MODULES = {"exact-families": "inprocess", "numeric-oracles": "inprocess", "cli-cold": "cold"}


@dataclass
class Phase:
    """Latencies and check outcomes of consecutive whole passes."""

    first: int = 0  # index of the phase's first pass
    latencies: dict[int, list[float]] = field(default_factory=dict)  # template -> seconds
    failures: list[tuple[str, str]] = field(default_factory=list)
    passes: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(xs) for xs in self.latencies.values())

    def template_ms(self) -> list[float]:
        """Each template's lowest latency in milliseconds."""
        return [1e3 * min(xs) for xs in self.latencies.values()]

    def tasks_per_s(self) -> float:
        ms = self.template_ms()
        return 1e3 * len(ms) / sum(ms)


def use_checkout_sources() -> None:
    """Import torusvar from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "torusvar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no torusvar sources in {src}")
    sys.path.insert(0, str(src))


def run_passes(workload: Workload, phase: Phase, seconds: float, tracer=None) -> Phase:
    """Add whole passes to ``phase`` until ``seconds`` have elapsed."""
    start = perf_counter()
    while True:
        for template, task in workload.make_pass(phase.first + phase.passes):
            t0 = perf_counter()
            try:
                out = tracer.call(task.name, task.run) if tracer else task.run()
            except Exception as exc:  # a task that raises is wrong, the run goes on
                elapsed = perf_counter() - t0
                verdict = (WRONG, f"{task.name}: {exc!r}")
            else:
                elapsed = perf_counter() - t0
                verdict = task.check(out)
            phase.latencies.setdefault(template, []).append(elapsed)
            if verdict is not None:
                phase.failures.append(verdict)
        phase.passes += 1
        if perf_counter() - start >= seconds:
            return phase


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report).

    ``tiny`` cuts every task list down and sets up once, for the smoke test.
    """
    t0 = perf_counter()
    module = importlib.import_module(WORKLOAD_MODULES[name])
    import_s = perf_counter() - t0
    preps = []
    warmups = []  # their outputs are checked too

    def set_up() -> Workload:
        t0 = perf_counter()
        workload = module.WORKLOADS[name](seed, tiny)
        warmups.append(run_passes(workload, Phase(first=len(preps)), 0.0))
        preps.append(perf_counter() - t0)
        return workload

    workload = set_up()
    if not trace:
        while len(preps) < (1 if tiny else SETUP_REPEATS):
            workload = set_up()
        phase = run_passes(workload, Phase(first=len(preps)), seconds)
        ms = phase.template_ms()
        metrics = {
            "setup_s": _metric(import_s + statistics.median(preps), "s", len(preps)),
            "tasks_per_s": _metric(phase.tasks_per_s(), "1/s", len(ms)),
            "task_ms.p50": _metric(statistics.median(ms), "ms", len(ms)),
            "task_ms.p90": _metric(statistics.quantiles(ms, n=10, method="inclusive")[8], "ms", len(ms)),
            "peak_rss_mb": _metric(resource.getrusage(module.RSS_WHO).ru_maxrss / 1024, "MB", 1),
        }
        phases = [*warmups, phase]
    else:
        import layers
        from tracing import Tracer

        plain = run_passes(workload, Phase(first=1), seconds / 2)
        with Tracer() as tracer:
            traced = run_passes(workload, Phase(first=1 + plain.passes), seconds / 2, tracer)
        metrics = {k: _metric(*v) for k, v in layers.span_metrics(tracer, traced.passes).items()}
        templates = len(plain.latencies)
        metrics["trace.tasks_per_s.untraced"] = _metric(plain.tasks_per_s(), "1/s", templates)
        metrics["trace.tasks_per_s.traced"] = _metric(traced.tasks_per_s(), "1/s", templates)
        metrics["trace.overhead"] = _metric(plain.tasks_per_s() / traced.tasks_per_s(), "ratio", templates)
        probes = layers.cli_probes(1 if tiny else layers.PROBE_REPEATS)
        metrics.update({k: _metric(*v) for k, v in probes.items()})
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        phases = [*warmups, plain, traced]

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    wrong = sum(1 for kind, _ in failures if kind == WRONG)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "passes": [p.passes for p in phases],
        "attempted": attempted,
        "failed": len(failures),
        "wrong": wrong,
        "failed_frac": len(failures) / attempted,
        "failures": dict(Counter(reason for _, reason in failures).most_common(10)),
        "metrics": metrics,
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_MODULES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for name in WORKLOAD_MODULES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
            subprocess.run([*cmd, "--seconds", str(args.seconds), "--trace", str(args.trace)], check=True)
        return 0
    use_checkout_sources()
    result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
