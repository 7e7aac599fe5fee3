"""Every name a module of ``heol`` imports at module level is used there or exported by its ``__all__``,
and every private module-level name is read by some module of ``heol``."""

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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each private (``_x``) module-level definition in ``sources`` that no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{module}:{name}" for name in names if name.startswith("_") and not name.startswith("__")]
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [entry for entry in defined if entry.partition(":")[2] not in read]


def test_the_guard_finds_a_dead_private_helper():
    sources = {
        "a.py": "__all__ = []\ndef _used():\n    pass\ndef _dead():\n    pass\n_LIMIT = 3\nclass _Dead:\n    pass\n",
        "b.py": "from a import _used\n_used()\n",
    }
    assert dead_private_names(sources) == ["a.py:_dead", "a.py:_LIMIT", "a.py:_Dead"]


def test_no_private_helper_is_dead():
    assert dead_private_names({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []
