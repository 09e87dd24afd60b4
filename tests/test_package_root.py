"""The package root exports what the demos use; everything else lives in,
and is imported from, its own module."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import torusvar

ROOT = Path(__file__).resolve().parent.parent

# names the root re-exported up to format 0.2.0 that are still in the
# package, each in its module
MODULE_ONLY = {
    "critical_solver": (
        "DegeneracyInfo", "SolutionReport", "VerificationResult",
        "default_kterms", "family_lagrangian", "theorem_kterms",
    ),
    "energetics": ("EnergyReport",),
    "exact_algebra": ("HPoly", "LinearForm", "solve_linear_system"),
    "h_calculus": ("divbar_bilinear", "divbar_k", "divbar_poly", "k_as_hpoly", "laplacian_poly"),
    "shape_equation": ("el_residual", "el_system"),
    "torus_geometry": ("AreaVolume", "suggest_grid"),
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
    assert len(torusvar.__all__) == 21
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
    assert len(records) == 16  # nine NamedTuples and seven __slots__ classes
    unused = [f"{name}.{field}" for name, cls in records for field in _fields(cls) if field not in used]
    assert unused == []
