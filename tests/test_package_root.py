"""The package root exports what the demos use; everything else lives in,
and is imported from, its own module."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import torusvar

ROOT = Path(__file__).resolve().parent.parent

# names the root re-exported up to format 0.2.0, each still in its module
MODULE_ONLY = {
    "critical_solver": (
        "DegeneracyInfo", "SolutionReport", "VerificationResult", "constraint_ratio",
        "default_kterms", "family_lagrangian", "solve_lagrangian", "theorem_kterms",
    ),
    "energetics": ("EnergyReport", "MembraneDiagnostics"),
    "exact_algebra": ("HPoly", "LinearForm", "nullspace", "solve_linear_system"),
    "h_calculus": ("divbar_bilinear", "divbar_k", "divbar_poly", "k_as_hpoly", "laplacian_poly"),
    "shape_equation": ("ResidualSystem", "el_residual", "el_system"),
    "torus_geometry": ("AreaVolume", "fundamental_forms", "suggest_grid"),
}


def _root_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "torusvar" and node.level == 0
        for alias in node.names
    }


def test_every_root_name_resolves():
    assert len(torusvar.__all__) == 22
    for name in torusvar.__all__:
        assert getattr(torusvar, name) is not None, name


def test_the_root_exports_what_the_demos_import():
    used = set().union(*map(_root_imports, sorted((ROOT / "demos").glob("*.py"))))
    assert used == set(torusvar.__all__) - {"__version__"}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names]
)
def test_module_only_names_import_from_their_module(module, name):
    assert hasattr(importlib.import_module(f"torusvar.{module}"), name)
    assert name not in torusvar.__all__


def test_every_traced_name_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, functions in tracing.TRACED.items():
        for name in functions:
            assert callable(getattr(importlib.import_module(f"torusvar.{module}"), name)), (module, name)
