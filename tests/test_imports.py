"""Source hygiene: no `rtails` module imports a name from a sibling and never uses it.

The benchmark tracer rebinds functions in every `rtails` namespace by
identity, so a stale ``from .x import f`` is not harmless noise there.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rtails"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_sibling_imports(source: str) -> list:
    """The names bound by a relative ``from ... import`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "from .trees import a, b as c, d\nfrom os import e\nc(d.x)\n"
    assert unused_sibling_imports(source) == ["a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_sibling_imports(path):
    assert unused_sibling_imports(path.read_text()) == []
