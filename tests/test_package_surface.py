"""The package's public surface, and no import left unused in src or tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import zetalab

_ROOT = Path(__file__).resolve().parent.parent
_SOURCES = sorted((_ROOT / "src" / "zetalab").glob("*.py"))
_TESTS = sorted((_ROOT / "tests").glob("*.py"))
_MODULES = [importlib.import_module(f"zetalab.{info.name}")
            for info in pkgutil.iter_modules(zetalab.__path__)]

# test-only helpers that left the package: the tests check these identities
# against `bessel_k`, `omega` and `verify` themselves
_REMOVED = ("approx_functional_sum", "symmetry_residual", "recurrence_residual",
            "omega_symmetry_residual", "quarter_alpha_residual")


def test_all_lists_exactly_the_public_names_the_package_imports():
    public = {name for name, value in vars(zetalab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(zetalab.__all__) == sorted(public | {"__version__"})
    # everything but the two constants is a function or a class
    constants = {name for name in public
                 if not callable(getattr(zetalab, name))}
    assert constants == {"DEFAULT_QUAD", "STANDARD_S_GRID"}


@pytest.mark.parametrize("name", _REMOVED)
def test_removed_names_are_unreachable(name):
    assert [module.__name__ for module in [zetalab, *_MODULES]
            if hasattr(module, name)] == []


def _unused_imports(path: Path, exported=()) -> list[str]:
    """Names a file imports and never reads (every scope, one namespace)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", _SOURCES + _TESTS, ids=lambda p: p.name)
def test_no_unused_import(path):
    # the package's __init__ imports only to re-export
    init = path == _ROOT / "src" / "zetalab" / "__init__.py"
    assert _unused_imports(path, set(zetalab.__all__) if init else ()) == []


def test_only_quadrature_reads_the_half_line_rows():
    # a node factor kept beside the rows goes through `column_rows`, the
    # one place that sizes a column by `_half_level`
    def reads(path):
        tree = ast.parse(path.read_text(), str(path))
        return any(
            (isinstance(node, ast.Name) and node.id == "_half_level")
            or (isinstance(node, ast.Attribute) and node.attr == "_half_level")
            or (isinstance(node, ast.alias) and node.name == "_half_level")
            for node in ast.walk(tree))

    assert [path.name for path in _SOURCES if reads(path)] == ["quadrature.py"]
