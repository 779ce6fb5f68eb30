"""The package namespace re-exports only public names that exist."""

import ast
import importlib
import pkgutil
from pathlib import Path

import fermitherm


def test_package_imports_only_public_names():
    # every name fermitherm/__init__.py imports is in its module's __all__
    tree = ast.parse(Path(fermitherm.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fermitherm.{node.module}")
        missing = {alias.name for alias in node.names} - set(module.__all__)
        assert not missing, (node.module, missing)


def test_every_public_name_exists():
    for info in pkgutil.iter_modules(fermitherm.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"fermitherm.{info.name}")
        absent = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not absent, (info.name, absent)
