"""The public surface: module ``__all__`` lists, the package imports, and the README's list of them."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import heol
from heol.errors import HeolError

README = Path(__file__).resolve().parents[1] / "README.md"


def imported_names(source: str) -> list[str]:
    """The names bound by the top-level ``from ... import`` statements of ``source``."""
    return [a.name for node in ast.parse(source).body if isinstance(node, ast.ImportFrom) for a in node.names]


def test_all_lists_own_names_and_package_imports_only_public_names():
    exported = set()
    for info in pkgutil.iter_modules(heol.__path__):
        mod = importlib.import_module(f"heol.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, f"{mod.__name__}.{name} is a re-export"
            exported.add(name)

    for name in imported_names(Path(heol.__file__).read_text()):
        obj = getattr(heol, name)
        is_error = inspect.isclass(obj) and issubclass(obj, HeolError)
        assert name in exported or is_error, f"heol.{name} is in no module's __all__"


def test_package_imports_the_names_the_readme_lists():
    # the Library tour spells the top level out as one ``from heol import (...)`` block
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1].split("\n## ", 1)[0]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert sorted(imported_names(Path(heol.__file__).read_text())) == sorted(imported_names(block))
