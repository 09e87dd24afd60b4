"""Tasks, verdicts and the pass schedule shared by every workload.

A workload is a list of task templates.  One pass runs every template once,
in an order shuffled from the seed.  Every pass of a run, the set-up passes
included, has its own index ``k``, and its inputs come from ``pass_radii(k)``:
an unbounded sequence of low-height rationals in which no value repeats.  So
every pass does the same kinds of work in nearly the same amounts, while no
input ever comes back within a run and no result cache can stand in for work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

# The task finished but stayed outside the program's own tolerance.
FAILED = "failed"
# The task raised, exited non-zero, or returned a value that contradicts its
# oracle or golden snapshot.
WRONG = "wrong"

Verdict = Optional[Tuple[str, str]]  # None when the output passed its check


def pass_radii(k: int) -> tuple[Fraction, Fraction]:
    """(r, generic a^2/r^2) of pass ``k >= 0``.

    r = (k+17)/(k+16) and a^2/r^2 = 3 + 1/(k+8): both in lowest terms, both
    distinct for every k, and their heights grow only with log k, so the cost
    of exact arithmetic stays nearly flat over a run.  The generic ratio
    stays in (3, 25/8], away from the degenerate ratios 1, 6/5 and 2, so every
    pass meets the same torus shape to within a few percent.
    """
    if k < 0:
        raise ValueError("pass index must be >= 0")
    return Fraction(k + 17, k + 16), Fraction(3 * k + 25, k + 8)


@dataclass(frozen=True)
class Task:
    """One timed call into the program and the check of its output.

    ``run`` is the whole timed interval; ``check`` runs after it, untimed.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


class Workload:
    """Builds passes from ``templates``: callables mapping a pass index to a Task.

    A template is called while its pass is built, outside any timed interval,
    so whatever it computes to set up its task is not timed.
    """

    templates: list[Callable[[int], Task]]

    def __init__(self, seed: int):
        self.seed = seed

    def make_pass(self, index: int) -> list[tuple[int, Task]]:
        """(template index, task) pairs of pass ``index``, in run order."""
        tasks = [(i, template(index)) for i, template in enumerate(self.templates)]
        random.Random(f"{self.seed}:{index}").shuffle(tasks)
        return tasks


def relative_error(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)
