"""The public surface: module ``__all__`` lists, the bare package, and the README's imports."""

import ast
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import heol

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_own_names_and_package_imports_only_public_names():
    # the package's half, that it imports nothing, is the next test's
    for info in pkgutil.iter_modules(heol.__path__):
        mod = importlib.import_module(f"heol.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, f"{mod.__name__}.{name} is a re-export"


def test_the_modules_export_at_most_34_names():
    # the public surface only shrinks: 35 names while heol.homeostat exported its finite-difference partial
    names = [name for info in pkgutil.iter_modules(heol.__path__)
             for name in getattr(importlib.import_module(f"heol.{info.name}"), "__all__", ())]
    assert len(names) <= 34, f"{len(names)} public names; a change that raises the bound states why in CHANGES.md"


def test_package_imports_nothing_and_the_readme_imports_each_name_from_its_module():
    # one import path per name: the package re-exports nothing, and a README import names its module's __all__ only
    assert not [node for node in ast.walk(ast.parse(Path(heol.__file__).read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```", README.read_text(encoding="utf-8"), re.M | re.S)
    imports = [node for _, block in blocks for node in ast.walk(ast.parse(textwrap.dedent(block)))
               if isinstance(node, ast.ImportFrom)]
    assert len(imports) >= 7  # the Quick start's and one per module of the Library tour
    for node in imports:
        public = getattr(importlib.import_module(node.module), "__all__", ())
        assert [a.name for a in node.names if a.name not in public] == [], f"README: from {node.module} import ..."
