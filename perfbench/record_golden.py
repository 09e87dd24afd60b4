#!/usr/bin/env python3
"""Record the golden snapshots the benchmark checks outputs against.

    python3 perfbench/record_golden.py

Writes ``golden/exact_families.json`` (every exact-families template at
r = 1, the generic ones at a^2/r^2 = 3) and ``golden/cli_cold.json`` (the JSON paths each README example pins).
Record once from a commit whose outputs are trusted; a later change that
alters any of these values then shows up as a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from run import use_checkout_sources


def _write(path, entries: dict) -> None:
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entries.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> None:
    use_checkout_sources()
    import cold
    import inprocess
    from torusvar import cli

    families = {}
    for kind, param in inprocess.family_specs():
        _, solve = inprocess.family_solve(kind, param, Fraction(1), inprocess.GOLDEN_GENERIC_RATIO)
        families[inprocess.golden_key(kind, param)] = inprocess.snapshot(solve())
    _write(inprocess.GOLDEN, families)

    examples = {}
    for name, argv, paths in cold.CLI_EXAMPLES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(cold.cli_argv(argv))
        if code != 0:
            raise SystemExit(f"README example {name} exited {code}")
        payload = json.loads(out.getvalue())
        examples[name] = {path: cold.json_path(payload, path) for path in paths}
    _write(cold.GOLDEN, examples)


if __name__ == "__main__":
    main()
