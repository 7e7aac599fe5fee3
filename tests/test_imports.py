"""Every name a module of ``heol`` imports at module level is used there or exported by its ``__all__``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heol"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names the module-level imports of ``source`` bind that it neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used | exported]


def test_the_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport sys as system\nfrom math import pi, tau\n"
    source += "__all__ = ['tau']\nprint(os.path.sep)\n"
    assert unused_imports(source) == ["system", "pi"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []
