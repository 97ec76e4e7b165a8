"""The runtime package imports nothing outside the standard library;
`networkx`, `hypothesis` and `numpy` are test aids only."""

from __future__ import annotations

import ast
import subprocess
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


def _loaded_by(module: str) -> set[str]:
    """Top-level names of every module a fresh interpreter holds after
    `import <module>`.  `-S`: a site-packages `.pth` file may import
    modules before the probe runs."""
    probe = f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(PACKAGE.parent)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = {name.split(".")[0] for name in run.stdout.split()}
    assert "moddiv" in loaded
    return loaded


def test_importing_the_package_loads_no_process_or_thread_modules():
    # `setup_s` pays for every module `import moddiv` loads; the phase-2
    # helper forks through `os` alone.
    loaded = _loaded_by("moddiv")
    assert not loaded & {"multiprocessing", "concurrent", "subprocess", "threading"}


def test_importing_the_package_loads_no_dataclasses():
    # Records are plain slotted classes: `dataclasses` and the `inspect`
    # it pulls in were most of a cold `import moddiv`.
    assert not _loaded_by("moddiv") & {"dataclasses", "inspect"}


def test_importing_the_cli_loads_no_pathlib():
    # `detect` and `bench` reach their files through `os.path` and `open`;
    # `pathlib` and what only it loads (`urllib.parse`, `ipaddress`,
    # `fnmatch`, `ntpath`) were about a fifth of a site-free import.
    assert "pathlib" not in _loaded_by("moddiv.cli")


def test_importing_the_cli_loads_no_traceback_or_datetime():
    # Only the internal-error exit and stamped artifacts use them, and
    # they import them where they do.
    assert not _loaded_by("moddiv.cli") & {"traceback", "datetime"}
