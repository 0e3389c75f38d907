"""Every public name a ``confdet`` module lists in ``__all__`` exists, and the package re-exports only listed names.

A name deleted from a module but left in its ``__all__``, or still
imported by ``confdet/__init__.py``, fails here rather than at a user's
``from confdet.x import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import confdet


def test_each_module_all_names_exist():
    for info in pkgutil.iter_modules(confdet.__path__):
        module = importlib.import_module(f"confdet.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(confdet.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        module = importlib.import_module(f"confdet.{node.module}")
        unlisted = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert unlisted == [], node.module
