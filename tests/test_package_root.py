"""The package root binds only ``__version__``: every name is imported from
the module that defines it."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

import torusvar

ROOT = Path(__file__).resolve().parent.parent

# every name the root has exported, up to format 0.2.0 or after it, that is
# still in the package, each in the module that defines it
MODULE_ONLY = {
    "critical_solver": (
        "DegeneracyInfo", "SolutionReport", "VerificationResult", "default_kterms", "family_lagrangian",
        "solve_pure_h", "solve_with_gauss", "theorem_kterms", "verify_solution",
    ),
    "energetics": ("EnergyReport", "Perturbation", "curvature_energy", "second_variation", "willmore_scan"),
    "exact_algebra": ("HPoly", "LinearForm", "solve_linear_system"),
    "h_calculus": (
        "ExactTorus", "TorusShape", "divbar_bilinear", "divbar_h", "divbar_k", "divbar_poly",
        "grad_h_squared", "k_as_hpoly", "laplacian_h", "laplacian_poly", "suggest_grid",
    ),
    "shape_equation": ("Lagrangian", "el_residual", "el_system", "helfrich_lagrangian", "sphere_residual"),
    "torus_geometry": ("AreaVolume", "area_volume", "curvatures", "divbar_numeric", "lb_numeric"),
}

# what the import system binds on a package: its dunders, and each submodule
# once it is imported
IMPORT_SYSTEM = {
    "__name__", "__doc__", "__package__", "__loader__", "__spec__", "__path__", "__file__", "__cached__", "__builtins__",
}

SUBMODULES = {path.stem for path in (ROOT / "src" / "torusvar").glob("*.py")} - {"__init__"}


def test_one_version_in_the_project_the_package_and_the_golden_reports():
    # a regex, not tomllib, so that the test also runs on Python 3.10
    project = (ROOT / "pyproject.toml").read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    versions = re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert versions == [torusvar.__version__]
    golden = sorted((ROOT / "tests" / "solve_golden").glob("*.json"))
    assert len(golden) == 18
    assert {path.name: json.loads(path.read_text())["version"] for path in golden} == dict.fromkeys(
        (path.name for path in golden), torusvar.__version__
    )


def test_the_root_binds_only_the_version():
    bound = {name for name, value in vars(torusvar).items() if not inspect.ismodule(value)}
    assert bound - IMPORT_SYSTEM == {"__version__"}


def _root_names(path: Path) -> list[str]:
    """Each name a file reads from the bare package: ``from torusvar import
    name`` (``from . import name`` inside it) and ``torusvar.name``."""
    in_package = path.parent == ROOT / "src" / "torusvar"
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            (node.module == "torusvar" and node.level == 0) or (in_package and node.module is None and node.level == 1)
        ):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "torusvar":
            names.append(node.attr)
    return names


def test_the_programs_read_only_submodules_and_the_version_from_the_root():
    read = {(path.relative_to(ROOT).as_posix(), name) for path in _programs() for name in _root_names(path)}
    assert {name for _, name in read} >= {"__version__", "cli"}  # the check is not vacuous
    assert [(path, name) for path, name in sorted(read) if name not in SUBMODULES | {"__version__"}] == []


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names]
)
def test_module_only_names_import_from_their_module(module, name):
    home = importlib.import_module(f"torusvar.{module}")
    assert getattr(home, name).__module__ == home.__name__
    assert not hasattr(torusvar, name)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists_in_its_module():
    tracing = _load_tracing()
    for module, functions in tracing.TRACED.items():
        for name in functions:
            assert callable(getattr(importlib.import_module(f"torusvar.{module}"), name)), (module, name)


def _identifiers(path: Path) -> set[str]:
    """Every name a file reads or writes, bare or as an attribute; a def,
    a class or an ``__all__`` string does not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _programs() -> list[Path]:
    """The files that run the package: src/, demos/ and perfbench/ but its tests."""
    programs = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")]
    return programs + [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]


def _exports():
    """(module, exported name, object) for every module of the package."""
    for path in sorted((ROOT / "src" / "torusvar").glob("*.py")):
        module = importlib.import_module("torusvar" if path.stem == "__init__" else f"torusvar.{path.stem}")
        for name in getattr(module, "__all__", ()):
            yield path.stem, name, getattr(module, name)


def test_every_exported_name_has_a_caller_outside_the_tests():
    # library code that only tests call belongs in tests/oracles.py
    used = set().union(*map(_identifiers, _programs()))
    used |= {name for functions in _load_tracing().TRACED.values() for name in functions}
    unused = [f"{module}.{name}" for module, name, _ in _exports() if name not in used]
    assert unused == []


def _attributes() -> set[str]:
    """Every name the programs read or write as an attribute."""
    return {
        node.attr
        for path in _programs()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def test_every_public_member_of_an_exported_class_has_a_caller_outside_the_tests():
    # the same rule one level down: each public method, property or static
    # method is read as an attribute somewhere in the programs; dunder
    # operators and names that two classes share are out of its reach
    used = _attributes()
    members = (property, staticmethod, classmethod)
    unused = [
        f"{name}.{member}"
        for _, name, cls in _exports()
        if inspect.isclass(cls)
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, members))
        and member not in used
    ]
    assert unused == []


def _fields(cls) -> tuple[str, ...]:
    """A record's fields: a NamedTuple's ``_fields``, else its ``__slots__``."""
    return getattr(cls, "_fields", None) or vars(cls).get("__slots__", ())


def test_every_field_of_an_exported_record_has_a_caller_outside_the_tests():
    # and for data: each field is read as an attribute somewhere in the
    # programs; a field whose name another attribute shares is out of reach
    used = _attributes()
    records = {(name, cls) for _, name, cls in _exports() if inspect.isclass(cls) and _fields(cls)}
    assert len(records) == 15  # nine NamedTuples and six __slots__ classes
    unused = [f"{name}.{field}" for name, cls in records for field in _fields(cls) if field not in used]
    assert unused == []
