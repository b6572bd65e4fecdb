"""The runtime imports only the standard library and liemult itself.

``pyproject.toml`` declares ``dependencies = []``, while the test extra
installs sympy and hypothesis, so a stray runtime import of either would
pass every other test.  This reads each module's imports, at any depth,
and checks that a cold import of the CLI leaves out the costly stdlib
modules ``dataclasses`` and ``inspect``, and that a file command loads
neither ``verify`` nor the ``randgen`` it imports.
"""

import ast
import os
import subprocess
import sys
from inspect import signature
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


def _python(code):
    """Stdout of a fresh interpreter that runs code with this liemult on its path."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # compared with the modules the interpreter has loaded before the
    # import, as a site-packages hook may load some of these on its own
    code = ("import sys; before = set(sys.modules); import liemult.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    new = _python(code).split()
    assert "liemult.cli" in new
    assert not {"dataclasses", "inspect"} & set(new)


@pytest.mark.parametrize("argv, loaded", [
    (["info", "FILE"], False),
    (["verify", "--suite", "kunneth"], True),
])
def test_only_verify_loads_verify_and_randgen(tmp_path, argv, loaded):
    algebra = tmp_path / "h1.lie"
    algebra.write_text("dim 3\n[e1,e2] = e3\n")
    argv = [str(algebra) if a == "FILE" else a for a in argv]
    code = ("import sys; from liemult.cli import main; "
            f"assert main({argv!r}) == 0; "
            "print(' '.join(m for m in ('liemult.verify', 'liemult.randgen') if m in sys.modules))")
    last = _python(code).splitlines()[-1]
    assert last.split() == (["liemult.verify", "liemult.randgen"] if loaded else [])


def test_literal_arities_and_suite_flags_match_the_signatures():
    # the runtime writes these down instead of reading them with inspect
    from liemult import catalog, verify

    for family, (make, _) in catalog._FAMILIES.items():
        arity = len(signature(make).parameters)
        assert catalog.entry(family, (1,) * arity) == make(*(1,) * arity)
        with pytest.raises(ValueError, match=rf"^{family} takes {arity} parameters?, got {arity + 1}$"):
            catalog.entry(family, (1,) * (arity + 1))
    assert verify.SUITE_FLAGS == {name: tuple(signature(run).parameters)
                                  for name, run in verify.SUITES.items()}
