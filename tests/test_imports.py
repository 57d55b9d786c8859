"""Every name a source or test module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fleetlab"
TESTS = pathlib.Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads.
    ``from __future__`` imports are directives, not bindings, and are skipped."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


@pytest.mark.parametrize("path", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_unused_imports_in_tests(path):
    assert unused_imports((TESTS / path).read_text()) == []


def test_unused_import_scan_sees_a_dead_name():
    src = ("from __future__ import annotations\nimport os.path\n"
           "from typing import Sequence as Seq, Optional\n"
           "def f(x: Optional[int]) -> int:\n    return os.sep\n")
    assert unused_imports(src) == ["Seq (line 3)"]


def error_classes(source: str) -> list[str]:
    """Classes that derive, directly or not, from FleetlabError."""
    found = {"FleetlabError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in found for b in node.bases):
            found.add(node.name)
    found.discard("FleetlabError")
    return sorted(found)


def raised_names(source: str) -> set[str]:
    """Names a ``raise`` statement uses: ``raise X``, ``raise X(...)``,
    ``raise mod.X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    raised = set().union(*(raised_names(p.read_text()) for p in SRC.glob("*.py")))
    classes = error_classes((SRC / "errors.py").read_text())
    assert classes
    assert [name for name in classes if name not in raised] == []


def test_error_scan_sees_a_dead_class():
    errors = ("class FleetlabError(Exception): pass\n"
              "class A(FleetlabError): pass\nclass B(A): pass\nclass C(Exception): pass\n")
    assert error_classes(errors) == ["A", "B"]
    assert raised_names("def f():\n    raise A('x')\n") == {"A"}
