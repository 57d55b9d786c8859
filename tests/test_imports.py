"""Every name a source module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fleetlab"


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


def test_unused_import_scan_sees_a_dead_name():
    src = ("from __future__ import annotations\nimport os.path\n"
           "from typing import Sequence as Seq, Optional\n"
           "def f(x: Optional[int]) -> int:\n    return os.sep\n")
    assert unused_imports(src) == ["Seq (line 3)"]
