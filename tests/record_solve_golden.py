"""Record the text and JSON output of fixed ``torusvar solve`` runs into
``tests/solve_golden/``, which ``test_solve_golden.py`` compares byte for byte.

Exact output does not depend on the platform, so the files are recorded once
and change only with an intended, versioned format change.  Run from the
repository root, with the sources to record from on the path:

    PYTHONPATH=src python tests/record_solve_golden.py
"""

from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "solve_golden"

# the README's solve examples first, then the degenerate radii of the
# degree-4 and degree-5 K-families and one more --terms family
CASES = (
    "solve --degree 3 --r 1",
    "solve --degree 4 --with-gauss --a2 3 --r 1",
    "solve --degree 4 --with-gauss --terms K2,HK --r 1",
    "solve --degree 4 --with-gauss --a2 2 --r 1",
    "solve --degree 4 --with-gauss --a2 6/5 --r 1",
    "solve --degree 5 --with-gauss --a2 6/5 --r 1",
    "solve --degree 5 --with-gauss --terms K2,HK,H3K --a2 5/2 --r 3/2",
)


def path(case: str, fmt: str) -> Path:
    """The golden file of one case in one format."""
    name = case.replace("solve ", "").replace("--", "").replace(" ", "_").replace("/", "over").replace(",", "-")
    return GOLDEN / f"{name}.{'txt' if fmt == 'text' else 'json'}"


def main() -> None:
    from torusvar.cli import main as cli_main

    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        for fmt in ("text", "json"):
            code = cli_main([*case.split(), "--format", fmt, "--out", str(path(case, fmt))])
            if code != 0:
                raise SystemExit(f"{case} --format {fmt} exited {code}")


if __name__ == "__main__":
    main()
