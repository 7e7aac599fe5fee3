"""The public surface: module ``__all__`` lists and the package imports."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import heol
from heol.errors import HeolError


def test_all_lists_own_names_and_package_imports_only_public_names():
    exported = set()
    for info in pkgutil.iter_modules(heol.__path__):
        mod = importlib.import_module(f"heol.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, f"{mod.__name__}.{name} is a re-export"
            exported.add(name)

    tree = ast.parse(Path(heol.__file__).read_text())
    imported = [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    for name in imported:
        obj = getattr(heol, name)
        is_error = inspect.isclass(obj) and issubclass(obj, HeolError)
        assert name in exported or is_error, f"heol.{name} is in no module's __all__"
