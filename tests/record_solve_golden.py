"""Record the text and JSON output of fixed ``torusvar solve`` runs into
``tests/solve_golden/``, which ``test_solve_golden.py`` compares byte for byte.

Exact output does not depend on the platform, so the files are recorded once
and change only with an intended, versioned format change.  Run from the
repository root, with the sources to record from on the path:

    PYTHONPATH=src python tests/record_solve_golden.py

It writes only the files that are missing.  If the output of a recorded file
would change, it leaves the file as it is, names it and exits non-zero.
"""

import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "solve_golden"

# the README's solve examples first, then the degenerate radii of the
# degree-4 and degree-5 K-families, one more --terms family and the degree-1
# family, which is critical at every ratio; last the degeneracy notes at
# given radii: none at a generic ratio with the inert K, a pivot swap, and a
# rank drop; then the degree-8 theorem ladder at given radii, the largest
# family solved by substituting the ratio into its reduction over Z[rho];
# two cases at a radius off 1 and 3/2, a pure-H family and the degree-6
# theorem ladder at a^2/r^2 = 28/9; last the degree-4 default K-family at
# r = 3/2 twice, at a^2/r^2 = 3, a ratio solved above at r = 1, and at
# a^2/r^2 = 2, a root of its pivot polynomial, where the generic pivots swap;
# last two constraint ratios read off the top row: the Willmore rho = 2 of
# degree 2, and a degree-5 K-family's 20/19 at r = 3/2 with its radii product
CASES = (
    "solve --degree 3 --r 1",
    "solve --degree 4 --with-gauss --a2 3 --r 1",
    "solve --degree 4 --with-gauss --terms K2,HK --r 1",
    "solve --degree 4 --with-gauss --a2 2 --r 1",
    "solve --degree 4 --with-gauss --a2 6/5 --r 1",
    "solve --degree 5 --with-gauss --a2 6/5 --r 1",
    "solve --degree 5 --with-gauss --terms K2,HK,H3K --a2 5/2 --r 3/2",
    "solve --degree 1 --r 3/2",
    "solve --degree 4 --with-gauss --terms K,K2,HK,H2K --a2 3 --r 1",
    "solve --degree 5 --with-gauss --terms HK,H2K --a2 3 --r 1",
    "solve --degree 4 --with-gauss --terms K --a2 2 --r 1",
    "solve --degree 8 --with-gauss --terms K,HK,H2K,H3K,H4K,H5K,H6K,K2,HK2,H2K2,H3K2,H4K2,K3,HK3,H2K3,K4 --a2 25/8 --r 3/2",
    "solve --degree 12 --r 41/40",
    "solve --degree 6 --with-gauss --terms K,HK,H2K,H3K,H4K,K2,HK2,H2K2,K3 --a2 11767/3600 --r 41/40",
    "solve --degree 4 --with-gauss --a2 27/4 --r 3/2",
    "solve --degree 4 --with-gauss --a2 9/2 --r 3/2",
    "solve --degree 2 --r 1",
    "solve --degree 5 --with-gauss --terms K2,HK --r 3/2",
)


def path(case: str, fmt: str) -> Path:
    """The golden file of one case in one format."""
    name = case.replace("solve ", "").replace("--", "").replace(" ", "_").replace("/", "over").replace(",", "-")
    return GOLDEN / f"{name}.{'txt' if fmt == 'text' else 'json'}"


def main() -> None:
    from torusvar.cli import main as cli_main

    GOLDEN.mkdir(exist_ok=True)
    changed = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for case in CASES:
            for fmt in ("text", "json"):
                code = cli_main([*case.split(), "--format", fmt, "--out", str(out)])
                if code != 0:
                    raise SystemExit(f"{case} --format {fmt} exited {code}")
                target = path(case, fmt)
                if not target.exists():
                    target.write_bytes(out.read_bytes())
                elif target.read_bytes() != out.read_bytes():
                    changed.append(target.name)
    if changed:
        raise SystemExit("output changed, files left as they were: " + ", ".join(changed))


if __name__ == "__main__":
    main()
