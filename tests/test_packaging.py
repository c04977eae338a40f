"""Declared packaging matches the code: modules, entry points and runtime
dependencies."""

import ast
import importlib
import pathlib
import re
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


def test_every_source_module_imports():
    # run against an installed copy (from outside the checkout, src not on
    # the path), a module the build left out fails to import here
    package_dir = pathlib.Path(importlib.import_module("fracspec").__file__).parent
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        assert pathlib.Path(module.__file__).is_relative_to(package_dir), module.__file__


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
