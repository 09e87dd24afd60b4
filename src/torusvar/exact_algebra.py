"""Exact rational kernel: dense univariate polynomials and linear solving.

Everything in this module runs over Python's arbitrary-precision
``fractions.Fraction``, so results are exact: no tolerance ever enters a
comparison here.  Four layers are provided.

* ``HPoly`` -- a dense univariate polynomial with rational coefficients,
  indexed so that ``coeffs[k]`` multiplies ``x**k``.  Trailing zeros are
  trimmed, the zero polynomial has an empty coefficient tuple.  It is the
  value type of the closed forms and of the exact residual, which are
  built from integer tables; it holds no arithmetic, only float
  evaluation.
* ``LinearForm`` -- a sparse linear expression ``sum_i c_i * x_i + const``
  over named unknowns: the rows of a residual system and the solved
  assignments, read by coefficient or evaluated at given values.
* ``reduce_rows`` -- exact solving of rational row vectors, entirely in
  integers (sparse fraction-free elimination: a pivot touches only the rows
  with a nonzero entry in its column, and every row is kept coprime), to a
  ``ReducedRows`` whose ``solution`` builds the assignments with column l
  scaled by r^(weight l), so one reduction serves rows that differ only by
  such scales.
  ``solve_linear_system`` (``LinearForm`` rows, each read as ``form == 0``)
  and the critical families both go through it.
  A kernel basis of homogeneous rows is the free-parameter coefficients of
  the solved assignments.  The solved coefficients in the examples of interest
  reach seven-digit numerators, so keeping the integers small matters.
* ``reduce_pencil`` -- the homogeneous integer rows ``rho U + V`` reduced
  once over Z[rho], to a ``PencilReduction`` that gives the rows
  ``reduce_rows`` gives at any ratio where its pivot polynomial does not
  vanish, by one integer substitution.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "HPoly",
    "LinearForm",
    "LinearSolution",
    "ReducedRows",
    "reduce_rows",
    "PencilReduction",
    "reduce_pencil",
    "solve_linear_system",
    "parse_fraction",
    "format_fraction",
]


_ZERO, _ONE = Fraction(0), Fraction(1)


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


class HPoly(NamedTuple):
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

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def eval_float(self, x: float) -> float:
        """Horner evaluation in floats; x may be a numpy array of samples."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def __repr__(self) -> str:
        return f"HPoly({[str(c) for c in self.coeffs]})"


class LinearForm:
    """Sparse linear expression over named unknowns, plus a rational constant.

    Zero-valued entries are never stored, so two forms are equal exactly when
    they are the same expression.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[str, Fraction] | None = None, constant: Fraction = _ZERO):
        self.terms = {k: _as_fraction(v) for k, v in (terms or {}).items() if v != 0}
        self.constant = _as_fraction(constant)

    @staticmethod
    def _of(terms: dict[str, Fraction], constant: Fraction) -> "LinearForm":
        """The form of nonzero Fraction ``terms`` and a Fraction ``constant``,
        taken as they are: the constructor's cleaning is skipped."""
        form = object.__new__(LinearForm)
        form.terms, form.constant = terms, constant
        return form

    def __eq__(self, other):
        return type(other) is LinearForm and (self.terms, self.constant) == (other.terms, other.constant)

    @staticmethod
    def variable(name: str) -> "LinearForm":
        return LinearForm._of({name: _ONE}, _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.terms and self.constant == 0

    def coefficient(self, name: str) -> Fraction:
        return self.terms.get(name, Fraction(0))

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        total = self.constant
        for name, coeff in self.terms.items():
            value = _as_fraction(assignment[name])
            if value:
                total += coeff * value
        return total

    def __str__(self) -> str:
        bits = [f"{v}*{k}" for k, v in sorted(self.terms.items())]
        if self.constant != 0 or not bits:
            bits.append(str(self.constant))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"LinearForm({self})"


class LinearSolution(NamedTuple):
    """Outcome of an exact linear solve.

    ``assignments`` maps every unknown to a LinearForm over the free unknowns
    (a free unknown maps to itself); resubstitution into the original rows
    yields exact zeros.  ``consistent`` is False when some row reduced to
    ``nonzero constant == 0``.
    """

    assignments: dict[str, LinearForm]
    free: tuple[str, ...]
    pivot_unknowns: tuple[str, ...]
    consistent: bool


def _cleared(vec: Sequence) -> list[int]:
    """The integer multiple of a nonzero rational vector whose entries are
    coprime, with the sign of ``vec``."""
    if not all(type(v) is int for v in vec):
        denom = lcm(*(v.denominator for v in vec))
        vec = [v.numerator * (denom // v.denominator) for v in vec]
    common = gcd(*vec)
    return vec if common == 1 else [v // common for v in vec]


class ReducedRows(NamedTuple):
    """Coprime integer pivot rows, each cleared of every other pivot column.

    ``reduced`` holds (row, pivot column) from the last pivot to the first;
    ``pivot_columns`` are in the order the pivots were taken.
    """

    unknowns: tuple[str, ...]
    reduced: tuple[tuple[tuple[int, ...], int], ...]
    pivot_columns: tuple[int, ...]
    consistent: bool

    def solution(self, r: Fraction = _ONE, weights: Sequence[int] | None = None) -> LinearSolution:
        """The assignments of the reduced rows, column l multiplying
        ``unknowns[l] / r**weights[l]`` (no weights: all 0).  The coefficient
        of x_l in x_c is -a/b r^(w_c - w_l), with a, b the row's integers on
        l and c, built as one Fraction of integers with r's numerator and
        denominator raised to w_c - w_l once for the whole solution; the
        constant column has weight 0."""
        unknowns, pivot_cols = self.unknowns, set(self.pivot_columns)
        free_cols = [l for l in range(len(unknowns)) if l not in pivot_cols]
        weights = [*(weights or [0] * len(unknowns)), 0]
        # r^e as an integer pair (num, den), for e from -span to span
        span = max(weights) - min(weights)
        nums = [*accumulate([1] + [r.numerator] * span, mul)]
        dens = [*accumulate([1] + [r.denominator] * span, mul)]
        power = {e: (nums[e], dens[e]) if e >= 0 else (dens[-e], nums[-e]) for e in range(-span, span + 1)}
        columns = [(unknowns[l], l, weights[l]) for l in free_cols]
        forms = {unknowns[l]: LinearForm.variable(unknowns[l]) for l in free_cols}
        for pvec, c in self.reduced:
            # x_c = -(sum_l pvec[l] x_l r^(w_c - w_l) + pvec[-1] r^w_c) / pvec[c]
            b, wc = pvec[c], weights[c]
            terms = {}
            for name, l, wl in columns:
                if a := pvec[l]:
                    num, den = power[wc - wl]
                    terms[name] = Fraction(-a * num, b * den)
            num, den = power[wc]
            constant = Fraction(-pvec[-1] * num, b * den) if pvec[-1] else _ZERO
            forms[unknowns[c]] = LinearForm._of(terms, constant)

        return LinearSolution(
            assignments={u: forms[u] for u in unknowns},
            free=tuple(unknowns[l] for l in free_cols),
            pivot_unknowns=tuple(unknowns[c] for c in self.pivot_columns),
            consistent=self.consistent,
        )


def reduce_rows(
    rows: Sequence[Sequence],
    unknowns: Sequence[str],
    pivot_order: Sequence[str] | None = None,
) -> ReducedRows:
    """``sum_l row[l] * unknowns[l] + row[-1] == 0`` for every row, reduced to
    coprime integer pivot rows.

    A row holds rationals (ints or Fractions), one per unknown and the
    constant last.  Columns are offered as pivots in ``pivot_order``, so
    unknowns late in it stay free whenever the rank allows.

    Forward elimination is sparse: a pivot updates only the rows with a
    nonzero entry in its column, each by one cross-multiplication and a
    division by its content, so zero patterns, pivots and consistency are
    those of any Gaussian elimination with the same pivot choice.  Back
    substitution clears each pivot row of the later pivot columns the same
    way.
    """
    unknowns = tuple(unknowns)
    # every unknown is offered; a repeated offer finds no pivot, since after
    # the first one its column is zero in every remaining row
    order = [*(pivot_order or ()), *unknowns]
    col_of = {u: i for i, u in enumerate(unknowns)}

    remaining = [_cleared(vec) for vec in rows if any(vec)]
    pivots: list[tuple[list[int], int]] = []
    for u in order:
        c = col_of[u]
        sel = next((i for i, vec in enumerate(remaining) if vec[c]), None)
        if sel is None:
            continue
        pvec = remaining.pop(sel)
        pivots.append((pvec, c))
        updated = []
        for vec in remaining:
            if vec[c]:
                vec = _eliminated(vec, pvec, c)
                if not any(vec):
                    continue
            updated.append(vec)
        remaining = updated

    reduced: list[tuple[tuple[int, ...], int]] = []
    for pvec, c in reversed(pivots):
        for qvec, d in reduced:
            if pvec[d]:
                pvec = _eliminated(pvec, qvec, d)
        reduced.append((tuple(pvec), c))

    return ReducedRows(
        unknowns=unknowns,
        reduced=tuple(reduced),
        pivot_columns=tuple(c for _, c in pivots),
        # every unknown was offered, so a row left over is zero but for its constant
        consistent=not remaining,
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


class PencilReduction:
    """The homogeneous integer rows rho U + V reduced over Z[rho].

    ``pivot_columns`` is the generic bound set G, in the order
    :func:`reduce_rows` takes its pivots.  ``pivot`` holds the integer
    coefficients (of rho^k at k) of the pivot polynomial D, a |G| x |G| minor
    of the rows on the columns G.  ``rows`` holds (c, entries) for each pivot
    column c, from the last pivot to the first, where ``entries`` are the
    (column, coefficients) of P_c = D times the reduced row of c, on c and on
    the columns outside G where it is not zero; it is zero on the rest of G.
    D and each P_c are divided by the largest integer and power of rho that
    divide them, which changes none of their roots but 0.  ``degree`` is the
    largest degree among them, at most |G|.
    """

    __slots__ = ("unknowns", "pivot_columns", "pivot", "rows", "degree")

    def __init__(self, unknowns, pivot_columns, pivot, rows):
        self.unknowns = unknowns
        self.pivot_columns = pivot_columns
        self.pivot = pivot
        self.rows = rows
        self.degree = max([len(pivot), *(len(coeffs) for _, entries in rows for _, coeffs in entries)]) - 1

    def at(self, ratio: Fraction) -> ReducedRows | None:
        """The rows reduced at rho = ``ratio``, each the row of
        :func:`reduce_rows` up to its sign; None at rho = 0 and where
        D(rho) = 0, which holds wherever the pivots differ from G.  At
        rho = num / den each entry is den^degree times its value, one integer
        dot product with a power table shared by all, and each row's nonzero
        entries are divided by its content."""
        num, den = ratio.numerator, ratio.denominator
        nums = accumulate([1] + [num] * self.degree, mul)
        dens = [*accumulate([1] + [den] * self.degree, mul)][::-1]
        # den^degree rho^k for k = 0..degree
        powers = [*map(mul, nums, dens)]
        if not num or not sum(map(mul, self.pivot, powers)):
            return None
        size = len(self.unknowns) + 1
        reduced = []
        for c, entries in self.rows:
            values = [sum(map(mul, coeffs, powers)) for _, coeffs in entries]
            common = gcd(*values)
            vec = [0] * size
            for (l, _), x in zip(entries, values):
                vec[l] = x // common
            reduced.append((tuple(vec), c))
        # the rows have no constant column, so no row is left inconsistent
        return ReducedRows(self.unknowns, tuple(reduced), self.pivot_columns, True)


def reduce_pencil(
    u: Sequence[Sequence[int]],
    v: Sequence[Sequence[int]],
    unknowns: Sequence[str],
    pivot_order: Sequence[str] | None = None,
) -> PencilReduction:
    """``sum_l (rho u[l] + v[l]) * unknowns[l] == 0`` for every row pair,
    reduced over Z[rho] with the pivots of :func:`reduce_rows`.

    It interpolates: at the nodes x = 0, 1, 2, ... the rows x U + V reduce by
    :func:`reduce_rows` to coprime rows r_c, and D(x) r_c / r_c[c] is P_c(x),
    with D the minor on the rows S chosen where the pivots are first met.
    By Cramer's rule every entry of P_c is a minor of the pencil, an integer
    polynomial of degree at most |G|.  Nodes whose pivots differ or where D
    vanishes are passed over, and the pivots kept are the first met at k + 1
    nodes, for k the number of nonzero rows: pivots other than G's occur only
    at roots of a nonzero minor on G, of which there are at most |G| <= k, and
    k + 1 values fix each polynomial.
    """
    unknowns = tuple(unknowns)
    pairs = [(ur, vr) for ur, vr in zip(u, v) if any(ur) or any(vr)]
    found: dict[tuple[int, ...], tuple[tuple[int, ...], list]] = {}
    for x in count():
        at_x = [[x * a + b for a, b in zip(ur, vr)] + [0] for ur, vr in pairs]
        reduced = reduce_rows(at_x, unknowns, pivot_order)
        pivots = reduced.pivot_columns
        if pivots not in found:
            # the first rows, in order, that are independent on the pivot columns
            basis = reduce_rows([[row[c] for row in at_x] + [0] for c in pivots], range(len(at_x))).pivot_columns
            found[pivots] = (basis, [])
        basis, kept = found[pivots]
        det = _determinant([[at_x[i][c] for c in pivots] for i in basis])
        if det:
            kept.append((x, det, {c: pvec for pvec, c in reduced.reduced}))
            if len(kept) > len(pairs):
                break

    nodes, dets, by_pivot = zip(*kept)
    columns, scale = _lagrange_columns(nodes)

    def poly(ys: Sequence[int]) -> tuple[int, ...]:
        coeffs = [sum(map(mul, ys, column)) // scale for column in columns]
        while not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    bound = set(pivots)
    rows = []
    for c in reversed(pivots):
        free = (l for l in range(len(unknowns)) if l not in bound)
        values = [(c, dets), *((l, [d * r[c][l] // r[c][c] for d, r in zip(dets, by_pivot)]) for l in free)]
        # an entry that vanishes at more nodes than its degree is zero
        columns_c, polys = zip(*((l, poly(ys)) for l, ys in values if any(ys)))
        rows.append((c, tuple(zip(columns_c, _primitive(polys)))))
    (pivot,) = _primitive([poly(dets)])
    return PencilReduction(unknowns, pivots, pivot, tuple(rows))


def _primitive(polys: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Nonzero integer polynomials divided by the largest integer and power of
    the variable that divide them all."""
    common = gcd(*(x for p in polys for x in p))
    shift = min(next(k for k, x in enumerate(p) if x) for p in polys)
    return [tuple(x // common for x in p[shift:]) for p in polys]


def _determinant(matrix: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by Bareiss's fraction-free
    elimination (every division is exact)."""
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            m[i] = [0] * (k + 1) + [(m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev for j in range(k + 1, len(m))]
        prev = m[k][k]
    return sign * prev


def _lagrange_columns(nodes: Sequence[int]) -> tuple[list[list[int]], int]:
    """(columns, scale) such that the polynomial of degree < len(nodes) with
    the values ys at the nodes has the coefficient sum(ys[i] * columns[k][i]) /
    scale of x^k: column k holds the x^k coefficients of the Lagrange basis
    polynomials times their common denominator ``scale``."""
    basis, weights = [], []
    for i, xi in enumerate(nodes):
        coeffs = [1]
        weight = 1
        for j, xj in enumerate(nodes):
            if j != i:
                # coeffs times (x - xj)
                coeffs = [a - xj * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
                weight *= xi - xj
        basis.append(coeffs)
        weights.append(weight)
    scale = lcm(*weights)
    scaled = ([c * (scale // w) for c in coeffs] for coeffs, w in zip(basis, weights))
    return [list(column) for column in zip(*scaled)], scale


def solve_linear_system(
    rows: Sequence[LinearForm],
    unknowns: Sequence[str],
    pivot_order: Sequence[str] | None = None,
) -> LinearSolution:
    """Solve ``row == 0`` for every LinearForm row exactly, by :func:`reduce_rows`."""
    vectors = [[form.coefficient(u) for u in unknowns] + [form.constant] for form in rows]
    return reduce_rows(vectors, unknowns, pivot_order).solution()
