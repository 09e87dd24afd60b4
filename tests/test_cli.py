import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import torusvar
from torusvar.cli import _parse_term, build_parser, main
from torusvar.critical_solver import solve_pure_h, verify_solution
from torusvar.exact_algebra import parse_fraction
from torusvar.h_calculus import ExactTorus
from torusvar.shape_equation import Lagrangian, el_residual

from oracles import second_difference

README = Path(__file__).resolve().parent.parent / "README.md"
NUMERIC_COMMANDS = ("verify", "energy", "identities", "scan", "second-variation")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _readme_commands() -> list[list[str]]:
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("torusvar ")]


def test_solve_text_output(capsys):
    code, out = run(capsys, "solve", "--degree", "3", "--r", "1")
    assert code == 0
    assert "constraint a^2/r^2 = 6/5" in out
    assert "a2 = 15/2*a1" in out


def test_solve_gauss_reports_delta(capsys):
    code, out = run(capsys, "solve", "--degree", "4", "--with-gauss", "--a2", "3", "--r", "1")
    assert code == 0
    assert "radii polynomial delta = 18" in out


def test_solve_degenerate_radii_note(capsys):
    code, out = run(capsys, "solve", "--degree", "4", "--with-gauss", "--a2", "2", "--r", "1")
    assert code == 0
    assert "degenerate" in out
    assert "a^2-2r^2" in out


def test_solve_reduced_terms_recovers_constraint(capsys):
    code, out = run(
        capsys, "solve", "--degree", "4", "--with-gauss", "--terms", "K2,HK", "--r", "1"
    )
    assert code == 0
    assert "constraint a^2/r^2 = 12/11" in out


@pytest.mark.parametrize(
    "degree, terms, kterms, a2, r",
    [("3", "K3", ((0, 3),), "3", "1"), ("2", "HK,H3K", ((1, 1), (3, 1)), "27/4", "3/2")],
)
def test_solve_terms_longer_than_the_pure_family(capsys, degree, terms, kterms, a2, r):
    # K^3 in degree 3 and H^3 K in degree 2 reach higher powers of H than the
    # pure-H rows; the printed family must be the solution of every row
    from torusvar.critical_solver import _pivot_order, family_lagrangian
    from torusvar.exact_algebra import solve_linear_system
    from torusvar.shape_equation import el_system

    code, out = run(
        capsys, "solve", "--degree", degree, "--with-gauss", "--terms", terms,
        "--a2", a2, "--r", r, "--format", "json",
    )
    assert code == 0
    printed = json.loads(out)["coefficients"]
    n = int(degree)
    torus = ExactTorus(parse_fraction(a2), parse_fraction(r))
    lagrangian = family_lagrangian(n, kterms)
    rows = el_system(torus, lagrangian)
    direct = solve_linear_system(rows, lagrangian.unknowns, _pivot_order(n, len(kterms)))
    assert set(printed) == set(direct.assignments)
    for name, form in direct.assignments.items():
        expected = {free: str(c) for free, c in form.terms.items()}
        if form.constant:
            expected["const"] = str(form.constant)
        assert printed[name] == expected, name


def test_energy_command_value(capsys):
    code, out = run(capsys, "energy", "--degree", "2", "--ratio", "2", "--r", "1")
    assert code == 0
    assert "total: 19.7392088021787" in out


def test_verify_command_autoselects_a_sufficient_grid(capsys):
    # the degree-6 ratio 30/29 needs a finer grid than the default; verify
    # picks it from the spectral decay rate when --grid is omitted
    code, out = run(capsys, "verify", "--degree", "6", "--r", "1")
    assert code == 0
    assert "exact residual zero: True" in out


def test_verify_resolves_the_degree_eight_ratio(capsys):
    # a^2/r^2 = 56/55 sits close to 1; the residual's two derivatives weight
    # the Nyquist mode by k^2, so the suggested grid must cover that as well
    code, out = run(capsys, "verify", "--degree", "8", "--r", "1")
    assert code == 0
    assert "exact residual zero: True" in out


@pytest.mark.parametrize(
    "extra, grid, source",
    [([], 512, "suggest_grid"), (["--grid", "1024"], 1024, "--grid")],
)
def test_verify_json_reports_the_grid_used(capsys, extra, grid, source):
    code, out = run(capsys, "verify", "--degree", "6", "--r", "1", "--format", "json", *extra)
    assert code == 0
    payload = json.loads(out)
    assert payload["diagnostics"] == {"grid": grid, "grid_source": source}
    # the inputs still echo the command line, null when the grid was chosen
    assert payload["inputs"]["grid"] == (grid if extra else None)


@pytest.mark.parametrize("a2", ["1000001/1000000", "1000000001/1000000000"])
def test_verify_rejects_a_ratio_beyond_the_grid_cap(capsys, a2):
    # 1 + 1e-6 would need grid 131072 and 1 + 1e-9 grid 4194304; verify
    # exits as bad input, naming the ratio, before any grid is allocated
    tracemalloc.start()
    try:
        code = main(["verify", "--degree", "4", "--with-gauss", "--a2", a2, "--r", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 4
    assert f"a^2/r^2 = {a2} needs a grid of" in captured.err
    assert captured.out == ""
    assert peak < 1_000_000


def test_identities_command(capsys):
    code, out = run(capsys, "identities", "--a2", "2", "--r", "1", "--grid", "256")
    assert code == 0
    assert "FAIL" not in out
    assert "laplacian(H)" in out


def test_scan_command(capsys):
    code, out = run(capsys, "scan", "--degree", "2", "--r", "1", "--ratios", "3/2,2,3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4  # header + three ratios
    assert lines[2].startswith("2 ")


def test_scan_command_default_ratio_grid(capsys):
    code, out = run(capsys, "scan", "--r", "1")
    assert code == 0
    assert len(out.splitlines()) > 10


def test_second_variation_command(capsys):
    code, out = run(capsys, "second-variation", "--degree", "2", "--r", "1", "--modes", "cos1=1")
    assert code == 0
    assert "second variation:" in out


@pytest.mark.parametrize("mode", [0, 2, 3])
def test_second_variation_first_order_family(capsys, mode):
    # the degree-1 member a1 = 1, a2 = -1/r has no p = 0 sibling, so it is
    # evaluated at its own p = -1/r^2; the profile-curve oracle differences
    # integral E dA - p V along eps * cos(mode u) at that p
    code, out = run(
        capsys, "second-variation", "--degree", "1", "--r", "1", "--ratio", "2",
        "--modes", f"cos{mode}=1", "--format", "json",
    )
    assert code == 0
    total = json.loads(out)["energy"]["total"]
    member = Lagrangian.pure_h({1: 1, 0: -1}, pressure=-1)
    expected = second_difference(member, member.pressure, math.sqrt(2), 1.0, mode)
    assert abs(total - expected) / abs(expected) < 1e-6, (total, expected)


@pytest.mark.parametrize(
    "token, powers",
    [("K", (0, 1)), ("K2", (0, 2)), ("HK", (1, 1)), ("H2K", (2, 1)), ("H0K3", (0, 3)), ("H12K10", (12, 10))],
)
def test_parse_term(token, powers):
    assert _parse_term(token) == powers


@pytest.mark.parametrize("token", ["", "H", "H2", "KH", "HHK", "K0", "H2K0", "X2", "2K", "K2 "])
def test_parse_term_rejects(token):
    with pytest.raises(ValueError, match=r"expected forms like K2, HK, H2K"):
        _parse_term(token)


def test_bad_input_exit_code(capsys):
    assert main(["solve", "--degree", "0", "--r", "1"]) == 4
    capsys.readouterr()
    assert main(["solve", "--degree", "2", "--r", "-1"]) == 4
    capsys.readouterr()
    assert main(["solve", "--degree", "4", "--with-gauss", "--terms", "H2", "--r", "1"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_terms_need_with_gauss(capsys, command):
    assert main([command, "--degree", "3", "--terms", "K2", "--r", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--terms only applies together with --with-gauss" in captured.err


@pytest.mark.parametrize("modes", ["cos=1", "cos1=abc", "tan1=1", "cos-1=1", "sin1=inf", "cos1=1,sin=2"])
def test_bad_modes_name_the_token_and_the_form(capsys, modes):
    assert main(["second-variation", "--degree", "2", "--modes", modes]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    token = modes.split(",")[-1]
    assert f"bad mode {token!r}: expected cosJ=x or sinJ=x" in captured.err


@pytest.mark.parametrize(
    "argv, code, minimum",
    [
        (["energy", "--degree", "2", "--ratio", "2", "--grid", "2"], 4, 16),
        (["energy", "--degree", "2", "--ratio", "2", "--grid", "-4"], 4, 16),
        (["energy", "--degree", "2", "--ratio", "2", "--grid", "0"], 4, 16),
        (["scan", "--grid", "7"], 4, 16),
        (["second-variation", "--degree", "2", "--grid", "16"], 4, 32),
        (["energy", "--degree", "2", "--ratio", "2", "--grid", "16"], 0, None),
        (["second-variation", "--degree", "2", "--grid", "32"], 0, None),
        # above MAX_GRID: no minimum is named, the cap is
        (["identities", "--a2", "2", "--r", "1", "--grid", "131072"], 4, None),
        (["energy", "--degree", "2", "--ratio", "2", "--grid", "65536"], 0, None),
    ],
)
def test_grid_is_validated_at_the_cli_boundary(capsys, argv, code, minimum):
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
    elif minimum is None:
        assert captured.out == ""
        assert "--grid must be at most 65536, got 131072" in captured.err
    else:
        assert captured.out == ""
        assert f"--grid must be an even integer >= {minimum}" in captured.err


def test_solve_takes_no_grid(capsys):
    # solve samples no grid, so --grid is not one of its options
    assert main(["solve", "--degree", "3", "--r", "1", "--grid", "64"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "torusvar: error: unrecognized arguments: --grid 64\n"


def test_json_report_round_trips_and_reverifies(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "solve",
            "--degree",
            "3",
            "--r",
            "1",
            "--format",
            "json",
            "--out",
            str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["command"] == "solve"
    assert payload["constraint"] == "6/5"
    assert payload["version"]
    for key in ("command", "inputs", "constraint", "coefficients", "degeneracy", "energy", "residuals", "version"):
        assert key in payload

    # rebuild the family member from the persisted coefficients and reverify
    frees = {"a1": Fraction(1), "a3": Fraction(2)}
    coeffs = {}
    for name, form in payload["coefficients"].items():
        value = Fraction(0)
        for param, coeff in form.items():
            if param == "const":
                value += parse_fraction(coeff)
            else:
                value += parse_fraction(coeff) * frees[param]
        coeffs[name] = value
    degree = payload["degree"]
    terms = {(degree - i, 0): coeffs[f"a{i + 1}"] for i in range(degree + 1)}
    lag = Lagrangian(terms, pressure=coeffs["p"])
    torus = ExactTorus(parse_fraction(payload["a2"]), parse_fraction(payload["r"]))
    assert el_residual(torus, lag).is_zero


def test_json_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert (
            main(["solve", "--degree", "5", "--r", "2", "--format", "json", "--out", str(p)])
            == 0
        )
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_text_output_is_deterministic(capsys):
    _, first = run(capsys, "energy", "--degree", "4", "--r", "1")
    _, second = run(capsys, "energy", "--degree", "4", "--r", "1")
    assert first == second


@pytest.mark.parametrize(
    "argv, message",
    [
        (["second-variation", "--degree", "2", "--modes", "cos1=1,cos1=2"], "--modes: 'cos1=2' repeats 'cos1=1'"),
        (["second-variation", "--degree", "2", "--modes", "sin2,cos2=1,sin2=0.5"], "--modes: 'sin2=0.5' repeats 'sin2'"),
        (["second-variation", "--degree", "2", "--modes", ""], "--modes: empty list ''"),
        (["second-variation", "--degree", "2", "--modes", ","], "--modes: empty list ','"),
        (["solve", "--degree", "4", "--with-gauss", "--terms", "", "--r", "1"], "--terms: empty list ''"),
        (["verify", "--degree", "4", "--with-gauss", "--terms", " , ", "--a2", "3"], "--terms: empty list ' , '"),
        (["solve", "--degree", "4", "--with-gauss", "--terms", "HK,K2,H1K"], "--terms: 'H1K' repeats 'HK'"),
        (["solve", "--degree", "3", "--terms", ""], "--terms only applies together with --with-gauss"),
        (["scan", "--ratios", ""], "--ratios: empty list ''"),
        (["scan", "--ratios", "3/2,2,4/2"], "--ratios: '4/2' repeats '2'"),
        # an empty exact option is a value that does not parse, not an absent one
        (["energy", "--degree", "2", "--ratio", ""], "not a rational number: ''"),
        (["second-variation", "--degree", "2", "--ratio", ""], "not a rational number: ''"),
        (["solve", "--degree", "4", "--with-gauss", "--terms", "K2,HK", "--a2", "", "--r", "1"], "not a rational number: ''"),
    ],
)
def test_empty_or_repeated_options_are_bad_input(capsys, argv, message):
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("grid, code", [("34", 4), ("46", 4), ("36", 0), ("48", 0)])
def test_second_variation_grid_must_halve_to_an_even_grid(capsys, grid, code):
    assert main(["second-variation", "--degree", "2", "--grid", grid]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert "--grid must be an even integer >= 32 and a multiple of 4" in captured.err
        assert f"got {grid}" in captured.err
    else:
        assert captured.err == "" and "second variation:" in captured.out


@pytest.mark.parametrize("modes", ["cos64=1", "sin1=1,cos64=1", "sin64=0.5"])
def test_second_variation_modes_must_resolve_on_the_half_grid(capsys, modes):
    assert main(["second-variation", "--degree", "2", "--grid", "256", "--modes", modes]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mode 64 is not below grid/4 = 64" in captured.err


def test_second_variation_highest_mode_matches_a_finer_grid(capsys):
    values = []
    for grid in ("256", "1024"):
        code, out = run(capsys, "second-variation", "--degree", "2", "--grid", grid, "--modes", "cos63=1")
        assert code == 0
        values.append(float(out.split("second variation: ")[1].split()[0]))
    assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_second_variation_huge_mode_exits_before_any_evaluation(capsys):
    start = time.perf_counter()
    assert main(["second-variation", "--degree", "2", "--modes", "cos1000000=1"]) == 4
    assert time.perf_counter() - start < 1.0
    assert "mode 1000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, size",
    [
        (
            ["solve", "--degree", "5", "--with-gauss", "--terms", "K1000000000000", "--a2", "3"],
            "1000000000003 rows x 8 columns",
        ),
        (["solve", "--degree", "512"], "514 rows x 514 columns"),
        (["solve", "--degree", "1000"], "1002 rows x 1002 columns"),
        *(
            ([command, "--degree", "1000"], "1002 rows x 1002 columns")
            for command in ("verify", "energy", "scan", "second-variation")
        ),
        (
            ["solve", "--degree", "1000000000", "--with-gauss", "--a2", "3"],
            "1000000002 rows x 250000001000000002 columns",
        ),
    ],
)
def test_family_size_is_bounded_before_any_solve(capsys, monkeypatch, argv, size):
    # every command that takes --degree, before any family is built or solved
    from torusvar import cli

    def no_work(*args):
        raise AssertionError("built or solved a family above the size limit")

    # the default K set is counted, not built
    for name in ("default_kterms", "solve_pure_h", "solve_with_gauss"):
        monkeypatch.setattr(cli, name, no_work)
    start = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"torusvar: error: --degree {argv[2]}: the family's residual has up to {size}, "
        "above the limit of 131072 cells\n"
    )


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["solve", "--degree", "360"], True),
        (["solve", "--degree", "361"], False),
        (["solve", "--degree", "78", "--with-gauss", "--a2", "3"], True),
        (["solve", "--degree", "79", "--with-gauss", "--a2", "3"], False),
        (["solve", "--degree", "4", "--with-gauss", "--terms", "H18000K", "--a2", "3"], True),
        (["solve", "--degree", "4", "--with-gauss", "--terms", "K2,H20000K", "--a2", "3"], False),
        (["verify", "--degree", "64", "--with-gauss", "--a2", "3"], True),
        (["scan", "--degree", "-3"], True),  # left to the solver's own message
        *(([*argv, "--format", "json"], True) for argv in _readme_commands()),
    ],
)
def test_family_size_limit(argv, accepted):
    from torusvar.cli import _check_options

    args = build_parser().parse_args(argv)
    if accepted:
        _check_options(args)
    else:
        with pytest.raises(ValueError, match="above the limit of 131072 cells"):
            _check_options(args)


@pytest.mark.parametrize(
    "degree, terms",
    [(n, None) for n in (1, 2, 3, 4, 5, 6, 9, 12)]
    + [(4, "K2,HK"), (3, "H5K2,K3"), (6, "H2K,K2"), (2, "K")],
)
def test_family_size_bounds_the_residual_rows(degree, terms):
    from torusvar.cli import _family_size
    from torusvar.critical_solver import default_kterms, family_lagrangian
    from torusvar.shape_equation import ResidualRows

    argv = ["solve", "--degree", str(degree), "--with-gauss"] + ([] if terms is None else ["--terms", terms])
    rows, columns = _family_size(build_parser().parse_args(argv))
    kterms = default_kterms(degree) if terms is None else [_parse_term(t) for t in terms.split(",")]
    residual = ResidualRows.of(family_lagrangian(degree, kterms))
    assert len(residual.u) <= rows
    assert len(residual.coefficients) <= columns


def test_degree_256_still_prints(capsys):
    code, out = run(capsys, "solve", "--degree", "256", "--r", "1")
    assert code == 0
    assert "constraint a^2/r^2 = 65280/65279\n" in out


@pytest.mark.parametrize("command", [["verify", "--degree", "3"], ["identities", "--a2", "2"]])
@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf", "-inf"])
def test_tolerance_must_be_finite_and_positive(capsys, monkeypatch, command, tolerance):
    # rejected before any work: the commands must not run at all
    from torusvar import cli

    def no_work(args):
        raise AssertionError("ran with a bad tolerance")

    monkeypatch.setattr(cli, "cmd_verify", no_work)
    monkeypatch.setattr(cli, "cmd_identities", no_work)
    assert main([*command, f"--tolerance={tolerance}"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--tolerance must be a finite number > 0, got {float(tolerance)}" in captured.err


def test_energy_takes_either_ratio_or_a2(capsys):
    # argparse rejects the pair, and main returns the parser's exit code 4
    assert main(["energy", "--degree", "2", "--ratio", "3", "--a2", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --a2: not allowed with argument --ratio" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--degree", "3", "--bogus"], "unrecognized arguments: --bogus"),
        (["solve", "--degree", "3", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    ],
)
def test_parser_rejections_are_returned_as_exit_four(capsys, argv, message):
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_exit_zero(capsys, flag):
    assert main([flag]) == 0
    assert capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(torusvar.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "torusvar.cli", flag], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0 and done.stdout


def test_second_variation_json_reports_only_the_total(capsys):
    argv = ["second-variation", "--degree", "1", "--modes", "cos2=1"]
    _, text = run(capsys, *argv)
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    energy = json.loads(out)["energy"]
    assert set(energy) == {"total"}
    assert energy["total"] == float(text.split("second variation: ")[1].split()[0])


def test_identities_json_reports_no_exact_residual(capsys):
    code, out = run(capsys, "identities", "--a2", "2", "--format", "json")
    assert code == 0
    assert set(json.loads(out)["residuals"]) == {"numeric_max"}


def test_verify_evaluates_a_radius_free_family_at_ratio_two(capsys):
    # the same torus a^2 = 2r^2 that energy, scan and second-variation use
    code, out = run(capsys, "verify", "--degree", "1", "--r", "1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    report = solve_pure_h(1, Fraction(1, 2))
    values = {name: Fraction(name == "a1") for name in report.free_parameters}
    result = verify_solution(
        ExactTorus(Fraction(1, 2), Fraction(1, 2)), report, values, payload["diagnostics"]["grid"]
    )
    # numeric_max alone reads the same at ratio 3; the relative residual does not
    assert payload["residuals"]["numeric_max"] == float(f"{result.numeric_max_residual:.15g}")
    assert payload["residuals"]["numeric_relative"] == float(f"{result.numeric_relative:.15g}")


def test_energy_reports_the_ratio_it_used(capsys):
    # a^2 = 3 at r = 1 is a torus of ratio 3, not the family's constraint 6/5
    code, out = run(capsys, "energy", "--degree", "3", "--a2", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["ratio"] == "3" and payload["inputs"]["a2"] == "3"
    assert payload["constraint"] == "6/5"
    _, ratio_out = run(capsys, "energy", "--degree", "3", "--ratio", "3", "--format", "json")
    assert json.loads(ratio_out)["energy"] == payload["energy"]


def test_energy_picks_a_grid_that_resolves_the_degree_eight_family(capsys):
    # a^2/r^2 = 56/55: grid 256 misses the converged area term by 66
    code, out = run(capsys, "energy", "--degree", "8", "--r", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["diagnostics"] == {"grid": 1024, "grid_source": "suggest_grid"}
    _, text = run(capsys, "energy", "--degree", "8", "--r", "1")
    error = float(text.split("quadrature error estimate: ")[1])
    assert error < 1e-3


def test_scan_near_ratio_one_matches_the_closed_form(capsys):
    code, out = run(capsys, "scan", "--ratios", "101/100", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["scan"]
    rho = 1.01
    closed = math.pi**2 * rho / math.sqrt(rho - 1.0)
    assert abs(row["energy"] - closed) / closed < 1e-13


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    assert main(["energy", "--degree", "2", "--ratio", "3", "--format", "json"]) == 0
    capsys.readouterr()
    code, second = run(capsys, "energy", "--degree", "2")
    assert code == 0
    env = dict(os.environ, PYTHONPATH=str(Path(torusvar.__file__).resolve().parent.parent))
    fresh = subprocess.run(
        [sys.executable, "-m", "torusvar.cli", "energy", "--degree", "2"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert second == fresh.stdout


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    assert len(commands) == 8
    for argv in commands:
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        payload = json.loads(out)
        for key in ("command", "inputs", "constraint", "coefficients", "degeneracy", "energy", "residuals", "version"):
            assert key in payload, (argv, key)
        assert payload["version"] == torusvar.__version__
        if argv[0] in NUMERIC_COMMANDS:
            assert set(payload["diagnostics"]) == {"grid", "grid_source"}, argv
            assert payload["inputs"]["grid"] == (payload["diagnostics"]["grid"] if "--grid" in argv else None)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["energy", "--degree", "2", "--r", "1e200"], "r^2 is about 1e400"),
        (["verify", "--degree", "2", "--r", "1e200"], "r^2 is about 1e400"),
        (["scan", "--r", "1e200"], "r^2 is about 1e400"),
        (["second-variation", "--degree", "2", "--r", "1e200"], "r^2 is about 1e400"),
        # a^2 = 2 r^2 would flush to 0.0, which read as a = 0
        (["verify", "--degree", "2", "--r", "1e-200"], "r^2 is about 1e-400"),
        (["energy", "--degree", "12", "--r", "1e-30"], "the coefficient of H^2 K^0 is about 1e318"),
        (["verify", "--degree", "24", "--r", "1e-20"], "the coefficient of H^10 K^0 is about 1e319"),
        (["scan", "--degree", "30", "--r", "1e-12"], "the coefficient of H^9 K^0 is about 1e312"),
    ],
)
def test_numbers_outside_the_float_range_are_bad_input(capsys, argv, name):
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name}, outside the float range [2.225e-308, 1.798e+308]" in captured.err


@pytest.mark.parametrize("grid", [[], ["--grid", "256"]], ids=["suggested", "given"])
@pytest.mark.parametrize("r, a2", [("19/3", "361/9"), ("38/3", "1444/9"), ("47/3", "2209/9")])
@pytest.mark.parametrize(
    "command",
    [["energy", "--ratio", "1"], ["scan", "--ratios", "1"], ["second-variation", "--ratio", "1"]],
    ids=lambda command: command[0],
)
def test_a_torus_with_a_equal_to_r_is_bad_input(capsys, command, r, a2, grid):
    # a^2 = r^2 exactly, though at these r the float sqrt(a^2) reads above r
    assert main([*command, "--degree", "2", "--r", r, *grid]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"torusvar: error: need a^2 > r^2 and r > 0, got a^2={a2}, r={r}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, bad",
    [
        (["second-variation", "--degree", "2", "--modes", "cos1=1e200"], "energy.total = nan"),
        # every input float is in range, but the degree-24 member overflows on the grid
        (
            ["verify", "--degree", "24", "--r", "1/10000000000"],
            "residuals.numeric_max = nan, residuals.numeric_relative = nan",
        ),
    ],
    ids=["second-variation", "verify"],
)
def test_a_non_finite_result_exits_three_and_prints_nothing(capsys, argv, bad, fmt):
    # numpy's overflow warnings stay silent: the error line is all of stderr
    assert main([*argv, "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"torusvar: error: non-finite result: {bad}\n"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_with_gauss_at_degree_two_asks_for_terms(capsys, command):
    assert main([command, "--degree", "2", "--with-gauss", "--a2", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--with-gauss: degree 2 has no default K terms; name them with --terms" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--degree", "2", "--terms", "K2"], "row H^3 (the rows reach H^4) also involves a4"),
        (["--degree", "3", "--terms", "K3"], "row H^4 (the rows reach H^5) also involves a5"),
        # the default degree-4 terms stop at row H^5, the top row
        (["--degree", "4"], "the top residual row also involves a8"),
    ],
)
def test_a_constraint_error_names_the_rows_it_read(capsys, argv, message):
    assert main(["solve", "--with-gauss", *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"torusvar: error: no pure radius constraint: {message}\n"


NEAR_ONE = "1000000000000000001/1000000000000000000"
RADIUS_RULE = "need a^2 > r^2 and r > 0, got a^2={}, r={}"
FLOAT_RULE = f"a^2/r^2 = {NEAR_ONE} does not give a > r > 0 in floats: the radii round to a=1.0, r=1.0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--degree", "4", "--with-gauss", "--a2", "1"], RADIUS_RULE.format(1, 1)),
        (["verify", "--degree", "4", "--with-gauss", "--a2", "1"], RADIUS_RULE.format(1, 1)),
        (["identities", "--a2", "1"], RADIUS_RULE.format(1, 1)),
        (["energy", "--degree", "2", "--ratio", "1"], RADIUS_RULE.format(1, 1)),
        (["second-variation", "--degree", "2", "--ratio", "1"], RADIUS_RULE.format(1, 1)),
        (["scan", "--ratios", "1"], RADIUS_RULE.format(1, 1)),
        (["energy", "--degree", "2", "--a2", "3", "--r", "0"], RADIUS_RULE.format(3, 0)),
        (["solve", "--degree", "4", "--with-gauss", "--a2", "3", "--r", "-1"], RADIUS_RULE.format(3, -1)),
        # a family solved at its own ratio has no a^2 to check
        (["solve", "--degree", "2", "--r", "-1"], "need r > 0, got r=-1"),
        *(
            ([*command, NEAR_ONE, *grid], FLOAT_RULE)
            for command in (["energy", "--degree", "2", "--ratio"], ["scan", "--ratios"], ["second-variation", "--degree", "2", "--ratio"])
            for grid in ([], ["--grid", "256"])
        ),
    ],
)
def test_each_radius_rule_has_one_message_across_the_commands(capsys, argv, message):
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"torusvar: error: {message}\n"
