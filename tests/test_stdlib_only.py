"""The runtime package imports nothing outside the standard library;
`networkx`, `hypothesis` and `numpy` are test aids only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moddiv"


def _absolute_imports(path: Path) -> list[str]:
    """Top-level module of every absolute import in the file, nested ones too."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    imported = {}
    for path in sources:
        for name in _absolute_imports(path):
            imported.setdefault(name, path.name)
    assert {"json", "math"} <= imported.keys()  # the walk sees real imports
    outside = {name: where for name, where in imported.items()
               if name not in sys.stdlib_module_names}
    assert not outside, outside
