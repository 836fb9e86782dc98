"""Each module of the package imports only the public names of its siblings,
so a private helper can change without touching another module."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oscbound"


def private_sibling_imports(source: str) -> list[str]:
    """``module.name`` for every ``from .module import _name`` in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_sibling_name():
    assert private_sibling_imports(
        "from .stardomain import StarDomain2D, _coarse\n"
        "from numpy import _private\n") == ["stardomain._coarse"]
    found = {path.name: private_sibling_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 1
    assert {name: names for name, names in found.items() if names} == {}
