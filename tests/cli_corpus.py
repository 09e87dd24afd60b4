"""Print the exit code, stdout and stderr of a fixed list of ``torusvar``
command lines as sorted JSON, so that two source trees can be compared byte
for byte.  pytest does not collect this file.  Run it from the repository
root with the ``src/`` directory to run, once per tree, and diff the two:

    python tests/cli_corpus.py src > after.json
    python tests/cli_corpus.py /path/to/other/src > before.json
    diff before.json after.json

Each command line goes through ``torusvar.cli.main`` in one process, and the
output is ``{command line: [exit code, stdout, stderr]}``.  The list covers
the README examples, the golden solves of ``record_solve_golden.py``, a
sweep of the numeric commands over degrees, radii and named tori, and valid
and bad input to every command, each in text and in JSON.
"""

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from record_solve_golden import CASES

README = Path(__file__).resolve().parent.parent / "README.md"

NEAR_ONE = "1000000000000000001/1000000000000000000"

VALID = [
    *(f"verify --degree {n}" for n in (1, 2, 3, 6)),
    "verify --degree 3 --r 3/2 --grid 512",
    "verify --degree 4 --with-gauss --a2 3",
    "verify --degree 5 --with-gauss --terms K2,HK --a2 5/2 --r 3/2",
    *(f"energy --degree {n}" for n in (1, 2, 3, 6)),
    "energy --degree 2 --ratio 3 --r 3/2",
    "energy --degree 3 --a2 5/2",
    "energy --degree 2 --ratio 2 --grid 128",
    "identities --a2 2",
    "identities --a2 3 --r 3/2 --grid 512",
    "identities --a2 101/100",
    "scan",
    "scan --degree 3 --ratios 5/4,2,7/2 --r 2",
    "scan --ratios 2 --grid 64",
    *(f"second-variation --degree {n}" for n in (1, 2, 3)),
    "second-variation --degree 2 --ratio 3 --modes cos1=1,sin2=0.5",
    "second-variation --degree 2 --modes cos0=1 --grid 128",
]

# every numeric command over degrees 0..6 at three radii, and at named tori
SWEEP = [
    *(
        f"{command} --degree {n} --r {r}"
        for command in ("verify", "energy", "scan", "second-variation")
        for n in range(7)
        for r in ("1", "3/2", "1/1000")
    ),
    *(
        f"{command} --degree {n} {option}"
        for command in ("energy --ratio", "energy --a2", "second-variation --ratio", "scan --ratios")
        for n in (1, 2, 3)
        for option in ("5/4", "3", "3 --r 2/3")
    ),
]

BAD = [
    # the radius rule, the float range and the float radii
    "energy --degree 2 --ratio 1",
    "energy --degree 2 --a2 3 --r 0",
    "scan --ratios 3 --r 0",
    "second-variation --degree 2 --ratio 1",
    "verify --degree 4 --with-gauss --a2 1",
    "identities --a2 1",
    "solve --degree 2 --r -1",
    *(f"{command} --degree 2 --r 1e200" for command in ("verify", "energy", "scan", "second-variation")),
    "verify --degree 2 --r 1e-200",
    "energy --degree 2 --a2 1e400",
    "verify --degree 78 --with-gauss --a2 3e400 --r 1e200",
    *(f"{command} --degree 24 --r 1e-20" for command in ("verify", "energy", "scan", "second-variation")),
    f"energy --degree 2 --ratio {NEAR_ONE}",
    f"scan --ratios {NEAR_ONE}",
    "identities --a2 1000000001/1000000000",
    # negative values, spaced and with =
    *(
        line
        for option in ("--r -1/2", "--r -1e200", "--ratio -2e3", "--a2 -1e5")
        for line in (f"energy --degree 2 {option}", "energy --degree 2 " + option.replace(" ", "=", 1))
    ),
    "solve --degree 3 --r -1/2",
    "scan --degree 2 --ratios -2,3",
    "scan --degree 2 --ratios=-2,3",
    "verify --degree 6 --tolerance -1e-8",
    "verify --degree 6 --tolerance=-1e-8",
    "verify --degree 6 --r -x",
    # options checked before any work, and the parser's rejections
    "second-variation --degree 2 --modes cos64=1",
    "second-variation --degree 2 --modes tan1=1",
    "second-variation --degree 2 --modes cos1=1,cos1=2",
    "second-variation --degree 2 --grid 34",
    "verify --degree 3 --grid 15",
    "identities --a2 2 --grid 131072",
    "identities --a2 2 --tolerance nan",
    "solve --degree 512",
    "solve --degree 3 --grid 64",
    "solve --degree 3 --bogus",
    "energy --degree 2 --ratio 3 --a2 2",
    "energy --degree 2 --ratio ''",
    "scan --ratios ,",
    # the solve's own faults
    "verify --degree 2 --with-gauss --a2 3",
    "solve --degree 2 --with-gauss --terms K2",
    "verify --degree 3 --a2 2",
    "solve --degree 4 --with-gauss --terms X2",
    "energy --degree 0",
    # non-finite results exit 3
    "second-variation --degree 2 --modes cos1=1e200",
    "verify --degree 24 --r 1/10000000000",
]


def readme_commands() -> list[str]:
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line.removeprefix("torusvar").strip() for line in lines if line.startswith("torusvar ")]


def corpus() -> list[list[str]]:
    lines = [*readme_commands(), *CASES, *VALID, *SWEEP, *BAD]
    argvs = [[*shlex.split(line), "--format", fmt] for line in lines for fmt in ("text", "json")]
    return [["--version"], ["--help"], *argvs]


def main() -> None:
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    # argparse wraps --help to the terminal width
    os.environ["COLUMNS"] = "80"
    from torusvar.cli import main as cli_main

    results = {}
    for argv in corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        results[shlex.join(argv)] = [code, out.getvalue(), err.getvalue()]
    print(json.dumps(results, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
