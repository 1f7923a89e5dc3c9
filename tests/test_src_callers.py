"""Every public top-level name in ``src/repro`` has a caller outside ``tests/``.

A function, class or constant that only tests reference is code the
program never runs: it costs reading and upkeep and proves nothing about
the reproduction.  Reference implementations the tests gate the program
against live in ``tests/oracles.py`` instead.

The scan is by AST.  A name counts as referenced when code under ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/`` loads it (``name`` or
``obj.name``), imports it into a module that is not a package
``__init__``, or spells it as an exact string constant (how ``perfbench``
patches attributes by name).  These do not count:

* uses inside the name's own definition (recursion, a class naming itself);
* ``__all__`` entries and the re-exports of package ``__init__`` modules;
* uses inside another public definition that is itself unreferenced, so a
  helper kept alive only by dead code is reported with it.

Matching is by name, not by resolved binding, so the scan can miss dead
code whose name is reused elsewhere; it never flags live code.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
CALLER_ROOTS = ("src", "benchmarks", "perfbench", "examples")


def _is_all_assignment(node: ast.stmt) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def public_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    """``(name, node)`` for each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not _is_all_assignment(node):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def referenced_names(node: ast.AST, package_init: bool) -> Set[str]:
    """Every name *node* references, by the rules of the module docstring."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and not package_init:
            names.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                names.add(sub.value)
    return names


def uncalled_names() -> List[str]:
    """``path:line: name`` for each public ``src/repro`` name with no caller."""
    definitions: List[Tuple[Path, str, ast.stmt]] = []
    # (names referenced, the top-level statement they appear in)
    sites: List[Tuple[Set[str], ast.stmt]] = []
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
            if path.is_relative_to(SRC):
                definitions.extend((path, name, node) for name, node in public_definitions(tree))
            package_init = path.name == "__init__.py"
            for top in tree.body:
                if not _is_all_assignment(top):
                    sites.append((referenced_names(top, package_init), top))

    dead: Set[int] = set()
    while True:
        callers: Dict[str, List[ast.stmt]] = {}
        for names, top in sites:
            if id(top) not in dead:
                for name in names:
                    callers.setdefault(name, []).append(top)
        newly_dead = [
            node
            for _, name, node in definitions
            if id(node) not in dead and all(top is node for top in callers.get(name, []))
        ]
        if not newly_dead:
            break
        dead.update(id(node) for node in newly_dead)

    return [
        f"{path.relative_to(REPO)}:{node.lineno}: {name}"
        for path, name, node in definitions
        if id(node) in dead
    ]


def test_every_public_src_name_has_a_caller_outside_tests():
    offenders = uncalled_names()
    assert not offenders, (
        "public names in src/repro that nothing outside tests/ references "
        "(delete them, or move a reference implementation to tests/oracles.py):\n  "
        + "\n  ".join(offenders)
    )
