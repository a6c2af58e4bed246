"""The package source keeps no orphaned import and no unused private helper,
reads, creates and removes files only in ``io``, and every name the benchmark
reads from it still exists; the tests keep every bit pin in ``golden``."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import czfid

import conftest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "czfid").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read in ``tree``: bare names, attributes and names imported from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def module_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return names


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_every_module_level_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    assert sorted(imported - used) == []


def test_every_private_name_is_referenced():
    referenced = set().union(*map(loaded_names, TREES.values()))
    unused = [f"{module}:{name}" for module, tree in TREES.items() for name in module_level_names(tree)
              if name.startswith("_") and not name.startswith("__") and name not in referenced]
    assert unused == []


def test_only_io_opens_or_parses_a_file():
    # io is the one home of every file format, and the one module that reads, creates or removes
    # a file or decides whether an output would replace an input.  A method name matches on any
    # object ("open" matches os.open too); a function name matches only in full, since cli calls
    # dataclasses.replace
    methods = ("open", "read_bytes", "read_text", "write_text", "write_bytes", "mkdir", "unlink", "samefile")
    functions = ("json.load", "json.loads", "os.replace", "os.rename", "tempfile.mkstemp")
    calls = [f"{module}:{node.lineno}: {ast.unparse(node.func)}"
             for module, tree in TREES.items() if module != "io.py"
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (ast.unparse(node.func).split(".")[-1] in methods or ast.unparse(node.func) in functions)]
    assert calls == []


def test_every_name_the_benchmark_reads_exists():
    # bench/child.py imports only the standard library at module level, so loading it runs nothing
    path = ROOT / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert child.LAYERS
    missing = [f"czfid.{layer}.{name}" for layer, names in child.LAYERS.items()
               for name in names if not hasattr(importlib.import_module(f"czfid.{layer}"), name)]
    missing += [f"czfid.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "czfid"
                for alias in node.names if not hasattr(czfid, alias.name)]
    missing += [f"conftest.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "conftest" and not hasattr(conftest, node.attr)]
    assert missing == []


def significant_digits(value: float) -> int:
    """Digits of ``repr(value)`` between its first and last nonzero one."""
    return len(repr(abs(value)).split("e")[0].replace(".", "").strip("0"))


def test_every_bit_pin_lives_in_golden():
    # tests/golden.py is the one home of the values pinned bit for bit and of
    # the platform they hold on: no digest and no full-precision float elsewhere
    pins = [f"{path.name}:{node.lineno}: {node.value!r}"
            for path in sorted((ROOT / "tests").glob("*.py")) if path.name != "golden.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant)
            and (isinstance(node.value, str) and re.fullmatch("[0-9a-fA-F]{64}", node.value)
                 or isinstance(node.value, float) and significant_digits(node.value) >= 15)]
    assert pins == []
