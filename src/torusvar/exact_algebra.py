"""Exact rational kernel: dense univariate polynomials and linear solving.

Everything in this module runs over Python's arbitrary-precision
``fractions.Fraction``, so results are exact: no tolerance ever enters a
comparison here.  Three layers are provided.

* ``HPoly`` -- a dense univariate polynomial with rational coefficients,
  indexed so that ``coeffs[k]`` multiplies ``x**k``.  Trailing zeros are
  trimmed, the zero polynomial has an empty coefficient tuple.  It is the
  value type of the closed forms and of the exact residual, which are
  built from integer tables; it holds no ring arithmetic, only scaling and
  float evaluation.
* ``LinearForm`` -- a sparse linear expression ``sum_i c_i * x_i + const``
  over named unknowns: the rows of a residual system and the solved
  assignments, read by coefficient or evaluated at given values.
* ``solve_rows`` -- exact solving of rational row vectors, entirely in
  integers (sparse fraction-free elimination: a pivot touches only the rows
  with a nonzero entry in its column, and every row is kept coprime);
  ``solve_linear_system`` (``LinearForm`` rows, each read as
  ``form == 0``) and the critical families both go through it.  A kernel
  basis of homogeneous rows is the free-parameter coefficients of the
  solved assignments.  The solved coefficients in the examples of interest
  reach seven-digit numerators, so keeping the integers small matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

__all__ = [
    "HPoly",
    "LinearForm",
    "LinearSolution",
    "solve_rows",
    "solve_linear_system",
    "parse_fraction",
    "format_fraction",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_fraction(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a Fraction (q > 0 after reduction)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_fraction(value: Fraction) -> str:
    """Canonical ``p/q`` rendering (plain ``p`` when the denominator is 1)."""
    return str(Fraction(value))


@dataclass(frozen=True)
class HPoly:
    """Dense univariate polynomial over the rationals.

    ``coeffs[k]`` is the coefficient of the k-th power; the tuple carries no
    trailing zeros, so equality of canonical forms is plain ``==``.
    """

    coeffs: tuple[Fraction, ...] = ()

    @staticmethod
    def of(values: Iterable) -> "HPoly":
        coeffs = [_as_fraction(v) for v in values]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return HPoly(tuple(coeffs))

    @staticmethod
    def zero() -> "HPoly":
        return HPoly(())

    @staticmethod
    def monomial(power: int, coeff=1) -> "HPoly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return HPoly.of([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, factor) -> "HPoly":
        factor = _as_fraction(factor)
        if factor == 0:
            return HPoly.zero()
        return HPoly(tuple(c * factor for c in self.coeffs))

    def eval_float(self, x: float) -> float:
        """Horner evaluation in floats; x may be a numpy array of samples."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def __repr__(self) -> str:
        return f"HPoly({[str(c) for c in self.coeffs]})"


@dataclass(frozen=True)
class LinearForm:
    """Sparse linear expression over named unknowns, plus a rational constant.

    Zero-valued entries are never stored, so two forms are equal exactly when
    they are the same expression.
    """

    terms: Mapping[str, Fraction] = field(default_factory=dict)
    constant: Fraction = Fraction(0)

    def __post_init__(self):
        cleaned = {k: _as_fraction(v) for k, v in self.terms.items() if v != 0}
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "constant", _as_fraction(self.constant))

    @staticmethod
    def variable(name: str, coeff=1) -> "LinearForm":
        return LinearForm({name: _as_fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms and self.constant == 0

    def coefficient(self, name: str) -> Fraction:
        return self.terms.get(name, Fraction(0))

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        total = self.constant
        for name, coeff in self.terms.items():
            total += coeff * _as_fraction(assignment[name])
        return total

    def __str__(self) -> str:
        bits = [f"{v}*{k}" for k, v in sorted(self.terms.items())]
        if self.constant != 0 or not bits:
            bits.append(str(self.constant))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"LinearForm({self})"


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of an exact linear solve.

    ``assignments`` maps every unknown to a LinearForm over the free unknowns
    (a free unknown maps to itself); resubstitution into the original rows
    yields exact zeros.  ``consistent`` is False when some row reduced to
    ``nonzero constant == 0``; the indices of those rows (in the caller's
    ordering) are reported.
    """

    unknowns: tuple[str, ...]
    assignments: dict[str, LinearForm]
    free: tuple[str, ...]
    pivot_unknowns: tuple[str, ...]
    consistent: bool
    offending_rows: tuple[int, ...] = ()


def _cleared(vec: Sequence) -> list[int]:
    """The integer multiple of a nonzero rational vector whose entries are
    coprime, with the sign of ``vec``."""
    if not all(type(v) is int for v in vec):
        denom = lcm(*(v.denominator for v in vec))
        vec = [v.numerator * (denom // v.denominator) for v in vec]
    common = gcd(*vec)
    return vec if common == 1 else [v // common for v in vec]


def solve_rows(
    rows: Sequence[Sequence],
    unknowns: Sequence[str],
    pivot_order: Sequence[str] | None = None,
    scales: Sequence[Fraction] | None = None,
) -> LinearSolution:
    """Solve ``sum_l row[l] * unknowns[l] + row[-1] == 0`` for every row, exactly.

    A row holds rationals (ints or Fractions), one per unknown and the
    constant last; ``offending_rows`` indexes ``rows``.  Columns are offered
    as pivots in ``pivot_order``, so unknowns late in it stay free whenever
    the rank allows.  With ``scales``, column l multiplies
    ``unknowns[l] / scales[l]`` instead, and the assignments are returned in
    the unknowns themselves.

    Everything runs on coprime integer rows.  Forward elimination is sparse:
    a pivot updates only the rows with a nonzero entry in its column, each
    by one cross-multiplication and a division by its content, so zero
    patterns, pivots and offending rows are those of any Gaussian
    elimination with the same pivot choice.  Back substitution clears each
    pivot row of the later pivot columns the same way, and each coefficient
    of an assignment is one Fraction built from the reduced integers.
    """
    unknowns = list(unknowns)
    # every unknown is offered; a repeated offer finds no pivot, since after
    # the first one its column is zero in every remaining row
    order = [*(pivot_order or ()), *unknowns]
    col_of = {u: i for i, u in enumerate(unknowns)}

    remaining = [(idx, _cleared(vec)) for idx, vec in enumerate(rows) if any(vec)]
    pivots: list[tuple[list[int], int]] = []
    for u in order:
        c = col_of[u]
        sel = next((i for i, (_, vec) in enumerate(remaining) if vec[c]), None)
        if sel is None:
            continue
        _, pvec = remaining.pop(sel)
        pivots.append((pvec, c))
        updated = []
        for idx, vec in remaining:
            if vec[c]:
                vec = _eliminated(vec, pvec, c)
                if not any(vec):
                    continue
            updated.append((idx, vec))
        remaining = updated

    offending = tuple(idx for idx, vec in remaining if vec[-1])
    pivot_cols = {c for _, c in pivots}
    free_cols = [l for l in range(len(unknowns)) if l not in pivot_cols]

    reduced: list[tuple[list[int], int]] = []
    for pvec, c in reversed(pivots):
        for qvec, d in reduced:
            if pvec[d]:
                pvec = _eliminated(pvec, qvec, d)
        reduced.append((pvec, c))

    # scale l as an integer pair (num, den); the constant column has scale 1
    ratios = [(1, 1)] * (len(unknowns) + 1)
    if scales is not None:
        ratios[:-1] = [(s.numerator, s.denominator) for s in map(Fraction, scales)]
    forms = {unknowns[l]: LinearForm.variable(unknowns[l]) for l in free_cols}
    for pvec, c in reduced:
        # x_c = -(sum_l pvec[l] x_l s_c / s_l + pvec[-1] s_c) / pvec[c]
        num, den = ratios[c]
        num, den = -num, den * pvec[c]
        terms = {
            unknowns[l]: Fraction(num * pvec[l] * ratios[l][1], den * ratios[l][0])
            for l in free_cols
            if pvec[l]
        }
        forms[unknowns[c]] = LinearForm(terms, Fraction(num * pvec[-1], den))

    return LinearSolution(
        unknowns=tuple(unknowns),
        assignments={u: forms[u] for u in unknowns},
        free=tuple(unknowns[l] for l in free_cols),
        pivot_unknowns=tuple(unknowns[c] for _, c in pivots),
        consistent=not offending,
        offending_rows=offending,
    )


def _eliminated(vec: list[int], pvec: list[int], c: int) -> list[int]:
    """``vec`` cleared of column c by the pivot row ``pvec``, divided by its
    content: a positive multiple of pvec[c] vec - vec[c] pvec."""
    f, g = pvec[c], vec[c]
    common = gcd(f, g)
    if f < 0:
        common = -common
    f, g = f // common, g // common
    out = [f * x - g * y for x, y in zip(vec, pvec)]
    common = gcd(*out)
    return out if common <= 1 else [x // common for x in out]


def solve_linear_system(
    rows: Sequence[LinearForm],
    unknowns: Sequence[str],
    pivot_order: Sequence[str] | None = None,
) -> LinearSolution:
    """Solve ``row == 0`` for every LinearForm row exactly, by :func:`solve_rows`."""
    vectors = [[form.coefficient(u) for u in unknowns] + [form.constant] for form in rows]
    return solve_rows(vectors, unknowns, pivot_order)
