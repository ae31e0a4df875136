"""The package's modules use one another only through public names."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_no_module_imports_a_private_name_of_another():
    """No ``from repro.… import _name`` anywhere under ``src/repro``: a
    leading underscore marks a name its own module may change freely."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "repro"
            ):
                found += [
                    f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


#: The trees searched for uses of the package's names.
USERS = ("src", "jobs", "perfbench", "tests")


def _top_level_names(tree: ast.Module):
    """The functions, classes and constants a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def _uses(tree: ast.AST):
    """Every name a tree reads: loaded names, attributes, and string
    constants (``monkeypatch.setattr(module, "NAME", …)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_top_level_name_is_used():
    """Each module-level function, class and constant under ``src/repro`` is
    read somewhere in ``src``, ``jobs``, ``perfbench`` or ``tests``: a name
    nothing uses is deleted, not kept."""
    root = SRC.parent.parent
    used = set()
    for tree in (
        ast.parse(path.read_text(), str(path))
        for top in USERS
        for path in sorted((root / top).rglob("*.py"))
    ):
        used.update(_uses(tree))
    unused = [
        f"{path.relative_to(SRC)}:{lineno} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, lineno in _top_level_names(ast.parse(path.read_text(), str(path)))
        if name not in used and not name.startswith("__")
    ]
    assert unused == []
