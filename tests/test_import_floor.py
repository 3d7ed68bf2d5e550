"""The import floor: a command-line call loads only the modules its command runs.

``import psidiff`` loads no submodule, since the package resolves its public
names on first use (PEP 562). ``cli`` imports ``numspec``, ``imf`` and
``theorems`` inside the commands that run them, ``theorems`` takes tau's expansion
from ``contfrac``, so the sharpness commands, which read no number spec, load no
``numspec``, and the records derive from
``exact.Record``, so no module loads ``dataclasses`` (and, with it,
``inspect``). The package imports only the standard library, and the
large-radicand commands run with ``sympy`` blocked. The subprocess checks run a
fresh interpreter, since this one has every module loaded.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import psidiff

PACKAGE = pathlib.Path(psidiff.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {path.stem for path in SOURCES} - {"__init__"}

# ``python -m psidiff.cli <argv>``; a nonzero exit fails the child
CLI = """
import runpy, sys
sys.argv = ["psidiff", *{argv!r}]
try:
    runpy.run_module("psidiff.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
"""


def loaded_submodules(code: str) -> set[str]:
    """The psidiff submodules, by short name, loaded once code has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    code += "\nimport sys\nprint(sorted(m[8:] for m in sys.modules if m.startswith('psidiff.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_import_psidiff_loads_no_submodule():
    assert loaded_submodules("import psidiff") == set()


def test_one_name_loads_its_home_module():
    loaded = loaded_submodules("from psidiff import psi")
    assert "imf" in loaded and "theorems" not in loaded


@pytest.mark.parametrize("argv, unused", [
    (["constants"], {"contfrac", "numspec", "imf", "theorems"}),
    (["expand", "--number", "surd:(0+sqrt(2))/1"], {"imf", "theorems"}),
    (["psi", "--number", "tau", "--t", "100"], {"theorems"}),
    (["word", "--alpha", "tau", "--beta", "surd:(0+sqrt(2))/1", "--count", "3"], {"theorems"}),
    (["construct-optimal", "--epsilon", "0.06"], {"numspec"}),
    (["verify-optimal", "--epsilon", "0.06", "--bound", "10000000"], {"numspec"}),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_cli_command_loads_only_what_it_runs(argv, unused):
    loaded = loaded_submodules(CLI.format(argv=argv))
    assert "exact" in loaded and not unused & loaded, f"{argv[0]} loaded {sorted(loaded)}"


def imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level name) of every absolute ``import`` and ``from``, also inside functions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.partition(".")[0]))
    return found


def dataclass_imports(source: str) -> list[int]:
    """Lines that import ``dataclasses`` or a name from it."""
    return [line for line, name in imports(source) if name == "dataclasses"]


def test_no_module_imports_dataclasses():
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in dataclass_imports(path.read_text())]
    assert not offenders, f"dataclasses imported at {', '.join(offenders)}"


def test_dataclass_guard_sees_each_form():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "def f():\n    import os, dataclasses as dc\n"
              "from . import dataclasses_like\nimport dataclasses_like\n")
    assert dataclass_imports(source) == [1, 2, 4]


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"psidiff"}
    offenders = [f"{path.name}:{line} {name}" for path in SOURCES
                 for line, name in imports(path.read_text()) if name not in allowed]
    assert not offenders, f"outside the standard library: {', '.join(offenders)}"


def test_import_guard_sees_each_form():
    source = ("import os.path, sympy as sp\nfrom __future__ import annotations\n"
              "def f():\n    from sympy.ntheory import factorint\n"
              "from . import exact\nfrom .contfrac import tail\n")
    assert imports(source) == [(1, "os"), (1, "sympy"), (2, "__future__"), (4, "sympy")]


@pytest.mark.parametrize("argv", [
    ["psi", "--number", "surd:(0+sqrt(20011))/1", "--t", "1000000"],
    ["psi", "--number", "surd:(0+sqrt(99991))/1", "--t", str(10**12)],
    ["psi", "--number", "surd:(1+sqrt(100000007))/2", "--t", "1000000"],
], ids=["20011", "99991", "100000007"])
def test_large_radicands_need_no_sympy(argv):
    # a None entry in sys.modules makes every import of sympy raise ImportError
    loaded_submodules("import sys\nsys.modules['sympy'] = None\n" + CLI.format(argv=argv))


# -- the lazy package surface -------------------------------------------------------


def test_every_public_name_is_its_home_modules_object():
    for name in psidiff.__all__:
        home = importlib.import_module(f"psidiff.{psidiff._HOME[name]}")
        assert getattr(psidiff, name) is getattr(home, name), name
        assert vars(psidiff)[name] is getattr(home, name), f"{name} is not kept after first use"
    assert set(psidiff._HOME.values()) <= MODULES


def test_table_lists_each_name_once_and_dir_lists_all():
    assert len(psidiff.__all__) == sum(map(len, psidiff._EXPORTS.values()))
    assert set(psidiff.__all__) <= set(dir(psidiff))
    assert "__version__" in dir(psidiff)


def test_star_import():
    namespace: dict = {}
    exec("from psidiff import *", namespace)
    assert set(psidiff.__all__) <= set(namespace)
    assert namespace["psi"] is importlib.import_module("psidiff.imf").psi


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        psidiff.no_such_name
    with pytest.raises(ImportError):
        exec("from psidiff import no_such_name", {})
    assert not hasattr(psidiff, "no_such_name")

