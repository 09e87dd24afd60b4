import json
import tracemalloc
from fractions import Fraction

import pytest

from torusvar.cli import main
from torusvar.exact_algebra import parse_fraction
from torusvar.h_calculus import ExactTorus
from torusvar.shape_equation import Lagrangian, el_residual


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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
    system = el_system(torus, family_lagrangian(n, kterms))
    direct = solve_linear_system(system.rows, system.unknowns, _pivot_order(n, len(kterms)))
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


def test_second_variation_first_order_family(capsys):
    code, out = run(capsys, "second-variation", "--degree", "1", "--r", "1", "--modes", "sin1=0.5")
    assert code == 0
    assert "second variation:" in out


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
    ],
)
def test_grid_is_validated_at_the_cli_boundary(capsys, argv, code, minimum):
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert f"--grid must be an even integer >= {minimum}" in captured.err


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
    degree = payload["report"]["degree"]
    terms = {(degree - i, 0): coeffs[f"a{i + 1}"] for i in range(degree + 1)}
    lag = Lagrangian(terms, pressure=coeffs["p"])
    torus = ExactTorus(parse_fraction(payload["report"]["a2"]), parse_fraction(payload["report"]["r"]))
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
