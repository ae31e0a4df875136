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
