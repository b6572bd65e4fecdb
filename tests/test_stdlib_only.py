"""The runtime imports only the standard library and liemult itself.

``pyproject.toml`` declares ``dependencies = []``, while the test extra
installs sympy and hypothesis, so a stray runtime import of either would
pass every other test.  This reads each module's imports, at any depth.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liemult"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_roots(path):
    """Top-level names of the absolute imports in a file; relative ones are liemult."""
    roots = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots.append("liemult" if node.level else node.module.split(".")[0])
    return roots


def test_modules_are_found():
    assert {"liealg.py", "multiplier.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib(path):
    foreign = sorted({r for r in _imported_roots(path) if r != "liemult" and r not in sys.stdlib_module_names})
    assert not foreign, f"{path.name} imports {foreign}"
