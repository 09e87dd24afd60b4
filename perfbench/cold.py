"""The cli-cold workload: every README example as a fresh CLI process.

Each task starts ``python -m torusvar.cli`` with ``--format json`` and waits
for it, one process at a time, so interpreter start-up and imports are paid
on every call.  Outputs are checked by exit code and by exact values parsed
from the JSON, never by byte digests.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from tasks import WRONG, Task, Workload, relative_error

RSS_WHO = resource.RUSAGE_CHILDREN
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_cold.json"
PROCESS_TIMEOUT_S = 60
FLOAT_RTOL = 1e-9

# (name, argv without --format json, JSON paths pinned by the golden file);
# identities pins none because its errors sit at roundoff level
CLI_EXAMPLES = (
    ("solve", ["solve", "--degree", "3", "--r", "1"], ["constraint", "coefficients.a2"]),
    (
        "solve-gauss",
        ["solve", "--degree", "4", "--with-gauss", "--a2", "3", "--r", "1"],
        ["coefficients.a5", "degeneracy.delta"],
    ),
    (
        "solve-terms",
        ["solve", "--degree", "4", "--with-gauss", "--terms", "K2,HK", "--r", "1"],
        ["constraint", "coefficients.a5"],
    ),
    ("verify", ["verify", "--degree", "6", "--r", "1"], ["constraint", "coefficients.a5"]),
    ("energy", ["energy", "--degree", "2", "--ratio", "2", "--r", "1"], ["energy.total"]),
    ("identities", ["identities", "--a2", "2", "--r", "1", "--grid", "256"], []),
    ("scan", ["scan", "--degree", "2", "--ratios", "3/2,2,3", "--r", "1"], ["scan"]),
    ("second-variation", ["second-variation", "--degree", "2", "--modes", "cos1=1"], ["energy.total"]),
)


def cli_argv(argv: list[str]) -> list[str]:
    return [*argv, "--format", "json"]


def checkout_env() -> dict[str, str]:
    """Environment in which ``python -m torusvar.cli`` runs the checkout's sources."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def json_path(payload: dict, path: str):
    for key in path.split("."):
        payload = payload[key]
    return payload


def _independent_facts(name: str, payload: dict) -> str | None:
    """Values that do not come from the code under test."""
    if name == "solve" and payload["constraint"] != "6/5":
        return "constraint is not (n^2-n)/(n^2-n-1) = 6/5"
    if name == "verify":
        if payload["constraint"] != "30/29":
            return "constraint is not (n^2-n)/(n^2-n-1) = 30/29"
        if payload["coefficients"]["a5"] != {"a1": "139780065/448"}:
            return "a5 is not 139780065/448 a1"
    if name == "energy" and relative_error(payload["energy"]["total"], 2 * math.pi**2) > FLOAT_RTOL:
        return "energy is not 2 pi^2"
    if name == "identities" and not payload["residuals"]["numeric_max"] < 1e-9:
        return "identity error is not below 1e-9"
    if name == "scan":
        for row in payload["scan"]:
            rho = float(Fraction(row["ratio"]))
            if relative_error(row["energy"], math.pi**2 * rho / math.sqrt(rho - 1.0)) > FLOAT_RTOL:
                return f"energy at a^2/r^2 = {row['ratio']} is off pi^2 s^2 / sqrt(s^2 - 1)"
    return None


def _matches(value, expected) -> bool:
    if isinstance(expected, float):
        return isinstance(value, (int, float)) and relative_error(value, expected) <= FLOAT_RTOL
    if isinstance(expected, list):
        return isinstance(value, list) and len(value) == len(expected) and all(map(_matches, value, expected))
    if isinstance(expected, dict):
        return isinstance(value, dict) and value.keys() == expected.keys() and all(
            _matches(value[k], expected[k]) for k in expected
        )
    return value == expected


class CliCold(Workload):
    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.golden = json.loads(GOLDEN.read_text())
        self.env = checkout_env()
        examples = CLI_EXAMPLES if not tiny else CLI_EXAMPLES[:2]
        self.templates = [
            (lambda k, example=example: self._task(*example)) for example in examples
        ]

    def _task(self, name: str, argv: list[str], paths: list[str]) -> Task:
        cmd = [sys.executable, "-m", "torusvar.cli", *cli_argv(argv)]
        expected = self.golden[name]

        def run():
            return subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S
            )

        def check(proc):
            if proc.returncode != 0:
                return WRONG, f"cli {name}: exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
            payload = json.loads(proc.stdout)
            for path in paths:
                if not _matches(json_path(payload, path), expected[path]):
                    return WRONG, f"cli {name}: {path} differs from the golden value"
            reason = _independent_facts(name, payload)
            return None if reason is None else (WRONG, f"cli {name}: {reason}")

        return Task(f"cli {name}", run, check)


WORKLOADS = {"cli-cold": CliCold}
