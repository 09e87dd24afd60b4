"""The per-process memos of the exact path: the residual tables of each
monomial set, the operator table of each power of H,
each family's rows, each constraint family's ratio and its reduction there,
and each family's reduction over Z[rho].  Nothing is kept per ratio.  A memo
may change how fast a solve runs, never what it returns."""

import ast
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from torusvar import cli, critical_solver, h_calculus, shape_equation
from torusvar.critical_solver import (
    family_lagrangian,
    solve_pure_h,
    solve_with_gauss,
    theorem_kterms,
    verify_solution,
)
from torusvar.exact_algebra import LinearForm
from torusvar.shape_equation import Lagrangian, ResidualRows

from oracles import evaluate

RADII = (Fraction(1), Fraction(3, 2), Fraction(41, 40))
# (name, degree, extra argv, a^2/r^2 or None): pure-H n = 2..12, the reduced
# K set that keeps a ratio constraint, and the degree-4 default K-family and
# the degree-8 theorem ladder at fixed radii
THEOREM_8 = "K,HK,H2K,H3K,H4K,H5K,H6K,K2,HK2,H2K2,H3K2,H4K2,K3,HK3,H2K3,K4"
FAMILIES = (
    [(f"pure_h n={n}", n, [], None) for n in range(2, 13)]
    + [("K2,HK", 4, ["--with-gauss", "--terms", "K2,HK"], None)]
    + [("default K n=4", 4, ["--with-gauss"], Fraction(3))]
    + [("theorem K n=8", 8, ["--with-gauss", "--terms", THEOREM_8], Fraction(25, 8))]
)
K2_HK = ((0, 2), (1, 1))
SRC = Path(h_calculus.__file__).resolve().parent
README = SRC.parent.parent / "README.md"


def clear_memos():
    critical_solver._family.cache_clear()
    critical_solver._constrained.cache_clear()
    critical_solver._pencil.cache_clear()
    shape_equation._rows_tables.cache_clear()
    h_calculus.power_table.cache_clear()


def counted(monkeypatch, name):
    """Calls of ``critical_solver``'s ``name``, counted from now on."""
    calls = []
    wrapped = getattr(critical_solver, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(critical_solver, name, counting)
    return calls


def cli_outputs(capsys, degree, extra, ratio, r):
    """Text and JSON output of one ``solve`` at radius r."""
    argv = ["solve", "--degree", str(degree), *extra, "--r", str(r)]
    if ratio is not None:
        argv += ["--a2", str(ratio * r * r)]
    outputs = []
    for fmt in ("text", "json"):
        assert cli.main([*argv, "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    return tuple(outputs)


@pytest.mark.parametrize("name, degree, extra, ratio", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_output_does_not_depend_on_what_the_memos_hold(capsys, name, degree, extra, ratio):
    fresh = {}
    for r in RADII:
        clear_memos()
        fresh[r] = cli_outputs(capsys, degree, extra, ratio, r)
    for order in (RADII, RADII[::-1]):
        clear_memos()
        for r in order:
            assert cli_outputs(capsys, degree, extra, ratio, r) == fresh[r], (name, r)
    # and once more on the memos as the last order left them
    for r in RADII:
        assert cli_outputs(capsys, degree, extra, ratio, r) == fresh[r], (name, r)


@pytest.mark.parametrize(
    "solve",
    [
        lambda r: solve_pure_h(6, r),
        lambda r: solve_with_gauss(4, r, K2_HK),
        lambda r: solve_with_gauss(4, r, None, 3 * r * r),
    ],
    ids=["pure_h n=6", "K2,HK", "default K n=4"],
)
def test_editing_a_report_changes_no_later_solve(solve):
    clear_memos()
    reference = solve(Fraction(3, 2))
    expected = {name: (dict(form.terms), form.constant) for name, form in reference.assignments.items()}
    free = reference.free_parameters
    member = reference.lagrangian_at({f: Fraction(1) for f in free})

    edited = solve(Fraction(3, 2))
    for form in edited.assignments.values():
        form.terms.clear()
    edited.assignments.clear()
    edited.assignments["a1"] = LinearForm({"a1": 7})

    again = solve(Fraction(3, 2))
    assert {name: (dict(form.terms), form.constant) for name, form in again.assignments.items()} == expected
    assert again.free_parameters == free
    # instantiating members leaves the family's shared Lagrangian as it was
    assert again.lagrangian_at({f: Fraction(1) for f in free}) == member
    shared, _, _ = critical_solver._family(again.degree, again.kterms)
    assert shared == family_lagrangian(again.degree, again.kterms)
    assert all(isinstance(c, str) for c in shared.terms.values())


def test_residual_tables_are_immutable_and_built_once():
    clear_memos()
    rows = ResidualRows.of(Lagrangian({(3, 2): 1, (1, 0): 2}))
    u, v = rows.u[0], rows.v[0]
    assert isinstance(u, tuple) and isinstance(v, tuple)
    assert all(type(x) is int for part in (rows.u, rows.v) for row in part for x in row)
    with pytest.raises(TypeError):
        u[0] = 0
    with pytest.raises(AttributeError):
        v.append(0)
    again = ResidualRows.of(Lagrangian({(3, 2): 5, (1, 0): 7}))
    assert (again.weights, again.u, again.v) == (rows.weights, rows.u, rows.v)
    assert again.u is rows.u and again.v is rows.v
    assert shape_equation._rows_tables.cache_info().hits == 1


def test_a_family_without_a_ratio_raises_every_time_and_keeps_nothing_half_built():
    # the default degree-4 K-family's top row also involves a8
    clear_memos()
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            solve_with_gauss(4, 1)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "no pure radius constraint" in messages[0]
    # the same family at fixed radii still solves, and the ratio still raises
    report = solve_with_gauss(4, 1, a2=3)
    assert report.consistent and report.delta == 18  # (3 - 2)(3 - 1)(15 - 6)
    with pytest.raises(ValueError, match=re.escape(messages[0])):
        solve_with_gauss(4, 1)
    with pytest.raises(ValueError, match="also involves a4"):
        solve_with_gauss(2, 1, [(1, 1)])
    assert solve_with_gauss(2, 1, [(1, 1)], 3).consistent
    assert critical_solver._constrained.cache_info().currsize == 0


def test_the_family_memo_has_a_constant_bound():
    size = critical_solver.FAMILY_MEMO_SIZE
    assert type(size) is int and critical_solver._family.cache_info().maxsize == size
    assert critical_solver._constrained.cache_info().maxsize == size
    assert critical_solver._pencil.cache_info().maxsize == size
    # more distinct families than the bound leave the memo at the bound
    clear_memos()
    subsets = [s for k in range(1, 5) for s in combinations(theorem_kterms(6), k)]
    assert len(subsets) > size
    for kterms in subsets[: size + 8]:
        solve_with_gauss(6, 1, kterms, 3)
    assert critical_solver._family.cache_info().currsize == size
    assert critical_solver._pencil.cache_info().currsize == size


def _decorator_name(node):
    # "lru_cache" for lru_cache, functools.lru_cache and their calls
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_memo_is_bounded_by_a_named_constant_the_readme_gives():
    # a functools cache is bounded by maxsize= a module-level int named
    # *_MEMO_SIZE, which README states with its value; an unbounded cache
    # holds one value at most, so it is allowed on a function of no argument
    readme = README.read_text()
    bounded = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {
            node.targets[0].id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [type(target) for target in node.targets] == [ast.Name]
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                kind = _decorator_name(decorator)
                if kind not in ("lru_cache", "cache"):
                    continue
                where = f"{path.name}: {node.name}"
                sizes = [k.value for k in getattr(decorator, "keywords", ()) if k.arg == "maxsize"]
                if kind == "cache" or (sizes and isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                    arguments = node.args
                    assert not (
                        arguments.posonlyargs or arguments.args or arguments.vararg or arguments.kwonlyargs or arguments.kwarg
                    ), f"unbounded cache on a function with arguments, {where}"
                    continue
                assert isinstance(decorator, ast.Call) and not decorator.args, where
                assert len(sizes) == 1 and isinstance(sizes[0], ast.Name), where
                name = sizes[0].id
                assert name.endswith("_MEMO_SIZE") and name in constants, where
                assert f"`{name} = {constants[name]}`" in readme, where
                bounded.append(name)
    assert {"ROWS_MEMO_SIZE", "POWER_MEMO_SIZE", "FAMILY_MEMO_SIZE", "GRID_MEMO_SIZE"} <= set(bounded)


def test_each_table_memo_stops_at_its_constant():
    clear_memos()
    size = shape_equation.ROWS_MEMO_SIZE
    assert type(size) is int and shape_equation._rows_tables.cache_info().maxsize == size
    for i in range(size + 8):
        ResidualRows.of(Lagrangian({(i, 0): 1}))
    assert shape_equation._rows_tables.cache_info().currsize == size
    size = h_calculus.POWER_MEMO_SIZE
    assert type(size) is int and h_calculus.power_table.cache_info().maxsize == size
    torus = h_calculus.ExactTorus(3, 1)
    for k in range(size // 2 + 8):
        h_calculus.laplacian_power(torus, k)
        h_calculus.divbar_power(torus, k)
    assert h_calculus.power_table.cache_info().currsize == size


def test_a_second_identities_or_verify_builds_no_table(monkeypatch):
    # the first identities check and the first verify of a family build the
    # operator and residual tables, each a products_sum; a new torus, or a
    # new member of the same family, reads them and builds no table
    clear_memos()
    calls = []
    products_sum = h_calculus.products_sum

    def counting(*args):
        calls.append(args)
        return products_sum(*args)

    monkeypatch.setattr(h_calculus, "products_sum", counting)
    report = solve_with_gauss(4, Fraction(3, 2), None, Fraction(27, 4))
    clear_memos()
    checks = []
    for a2, r in (("49/16", "3/2"), ("11767/3600", "41/40")):
        before = len(calls)
        assert cli.main(["identities", "--a2", a2, "--r", r, "--grid", "256"]) == 0
        checks.append(len(calls) - before)
    assert checks[0] > 0 and checks[1] == 0
    # two members with every free value nonzero, so with the same terms
    torus, free = report.exact_torus(), report.free_parameters
    verifies = []
    for values in ({f: Fraction(k + 1) for k, f in enumerate(free)}, {f: Fraction(2 * k + 3, 7) for k, f in enumerate(free)}):
        before = len(calls)
        assert verify_solution(torus, report, values).exact
        verifies.append(len(calls) - before)
    assert verifies[0] > 0 and verifies[1] == 0


def test_a_fixed_radii_family_at_a_known_ratio_is_not_reduced_again(capsys, monkeypatch):
    # the degree-4 default K-family at a^2/r^2 = 3: a second radius
    # substitutes into the reduction over Z[rho] the first one kept, and
    # prints what a fresh solve prints
    clear_memos()
    cli_outputs(capsys, 4, ["--with-gauss"], Fraction(3), Fraction(1))
    reductions = counted(monkeypatch, "reduce_rows")
    pencils = counted(monkeypatch, "reduce_pencil")
    again = cli_outputs(capsys, 4, ["--with-gauss"], Fraction(3), Fraction(3, 2))
    assert not reductions and not pencils
    clear_memos()
    assert cli_outputs(capsys, 4, ["--with-gauss"], Fraction(3), Fraction(3, 2)) == again


def test_solves_at_many_given_ratios_keep_nothing_per_ratio(monkeypatch):
    # the degree-8 theorem ladder at 100 distinct a^2/r^2: each family memo
    # holds the one family, and the rows are reduced at a ratio only where
    # the family's pivot polynomial D vanishes
    n, kterms = 8, theorem_kterms(8)
    clear_memos()
    pivot = critical_solver._pencil(n, kterms).pivot
    reductions = counted(monkeypatch, "reduce_rows")
    for k in range(100):
        r, ratio = Fraction(k + 17, k + 16), Fraction(3 * k + 25, k + 8)
        before = len(reductions)
        assert solve_with_gauss(n, r, kterms, ratio * r * r).consistent
        assert len(reductions) == before or evaluate(pivot, ratio) == 0, ratio
    memos = {name: f for name, f in vars(critical_solver).items() if hasattr(f, "cache_info")}
    assert set(memos) == {"_family", "_constrained", "_pencil"}
    assert all(f.cache_info().currsize <= 1 for f in memos.values()), {name: f.cache_info() for name, f in memos.items()}


def _weights(n, kterms):
    """Each unknown's scaling weight read from its term's exponents: the
    coefficient of H^k K^m scales as r^(k + 2m - 2), the pressure as r^-3."""
    lagrangian = family_lagrangian(n, kterms)
    weight = {name: k + 2 * m - 2 for (k, m), name in lagrangian.terms.items()}
    weight[lagrangian.pressure] = -3
    return weight


# (n, K terms, a^2/r^2 or None): pure-H n = 2..12 and the reduced K set at
# their constraint ratios, and theorem ladders at given radii
SCALED = (
    [(n, (), None) for n in range(2, 13)]
    + [(4, K2_HK, None)]
    + [(n, theorem_kterms(n), Fraction(28, 9)) for n in (4, 6, 9, 14)]
)


@pytest.mark.parametrize(
    "n, kterms, ratio",
    SCALED,
    ids=[f"n={n}" for n in range(2, 13)] + ["K2,HK"] + [f"theorem n={n} rho=28/9" for n in (4, 6, 9, 14)],
)
def test_solves_at_every_radius_follow_the_scale_law(n, kterms, ratio):
    if kterms:
        solve = lambda r: solve_with_gauss(n, r, kterms, None if ratio is None else ratio * r * r)
    else:
        solve = lambda r: solve_pure_h(n, r)
    weight = _weights(n, kterms)
    clear_memos()
    base = solve(Fraction(1))
    for r in (Fraction(3, 2), Fraction(7, 5), Fraction(41, 40)):
        scaled = solve(r)
        assert scaled.constraint == base.constraint and scaled.a2 == base.a2 * r * r
        assert scaled.free_parameters == base.free_parameters
        for name, form in base.assignments.items():
            expected = LinearForm(
                {free: c * r ** (weight[name] - weight[free]) for free, c in form.terms.items()},
                form.constant,
            )
            assert scaled.assignments[name] == expected, (n, r, name)
            # forms are built without the constructor's cleaning, so they
            # must come out canonical: Fractions only, and no zero coefficient
            got = scaled.assignments[name]
            assert all(type(x) is Fraction for x in (got.constant, *got.terms.values())), (n, r, name)
            assert all(got.terms.values()), (n, r, name)
