"""Every ``repro`` module's ``__all__`` matches what the module defines.

``__all__`` is the import surface: ``from repro.x import *`` and the
package re-exports both go through it.  A stale entry (a name that was
deleted or renamed) makes the star import raise, and a public function or
class missing from it is invisible to the package namespaces.  Each module
is one case, so a failure names the module it is in.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

MODULE_NAMES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


def public_functions_and_classes(module) -> list:
    """Public top-level ``def`` and ``class`` names in *module*'s source."""
    tree = ast.parse(Path(inspect.getfile(module)).read_text(encoding="utf8"))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_all_lists_exactly_the_public_surface(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module_name} has no __all__"
    assert len(exported) == len(set(exported)), f"{module_name}.__all__ repeats a name"
    stale = [name for name in exported if not hasattr(module, name)]
    assert not stale, f"{module_name}.__all__ names undefined {stale}"
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(exported) <= set(namespace)
    if not module.__file__.endswith("__init__.py"):
        unlisted = sorted(set(public_functions_and_classes(module)) - set(exported))
        assert not unlisted, f"{module_name} defines public {unlisted} outside __all__"
