"""Declared packaging matches the code: modules, entry points and runtime
dependencies."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracspec"


def project() -> dict:
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_script_targets_import_and_are_callable():
    for name, target in project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def module_names():
    """The dotted name of every module of the package, in path order."""
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


def source_modules():
    """Every module of the package, imported by name, in path order."""
    return map(importlib.import_module, module_names())


def test_every_source_module_imports():
    # run against an installed copy (from outside the checkout, src not on
    # the path), a module the build left out fails to import here
    package_dir = pathlib.Path(importlib.import_module("fracspec").__file__).parent
    for module in source_modules():
        assert pathlib.Path(module.__file__).is_relative_to(package_dir), module.__file__


def test_imports_leave_mpmath_unloaded():
    # mpmath is imported on the first Mittag-Leffler point that needs it
    # (fraccalc._series_mp), never by importing the package or a module; a
    # fresh interpreter imports each in turn, from where this run finds them
    location = pathlib.Path(importlib.import_module("fracspec").__file__).parent.parent
    path = os.pathsep.join(p for p in (str(location), os.environ.get("PYTHONPATH")) if p)
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "    if 'mpmath' in sys.modules:\n"
        "        sys.exit('importing ' + name + ' loaded mpmath')\n"
    )
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code, *module_names()], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_every_public_name_resolves():
    # a name left in an __all__ after its definition was removed fails here
    for module in source_modules():
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_no_unused_imports():
    # every name a module-level import binds is read somewhere in the module
    # or re-exported through __all__; `from __future__` binds no name
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused = sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)
        assert not unused, f"{path.relative_to(ROOT)} imports unused names: {unused}"


def test_third_party_imports_are_declared():
    declared = {
        re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0].lower().replace("-", "_")
        for dep in project()["dependencies"]
    }
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fracspec"}
    assert third_party <= declared, f"undeclared runtime imports: {sorted(third_party - declared)}"
