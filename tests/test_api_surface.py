"""The package keeps no API that only tests use, and no module of the
package or of the tests imports a name it never uses.

Every public top-level function or class, and every public method, defined
in ``src/ordercky/`` must be referenced from ``src/ordercky/`` or
``perfbench/`` outside its own definition.  A name, an attribute or an
exact string constant counts as a reference; an import alone does not.
"""

import ast
import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ordercky"
PROGRAM_DIRS = (PACKAGE, ROOT / "perfbench")

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree):
    """(name, node) of every public top-level def or class and public method."""
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFS) and not member.name.startswith("_"):
                        yield member.name, member


def references(tree):
    """(name, line) of every name, attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_public_name_has_a_program_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for folder in PROGRAM_DIRS for path in sorted(folder.glob("*.py"))}
    refs = defaultdict(list)  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in references(tree):
            refs[name].append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(where != path or line not in own for where, line in refs[name]):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "defined but referenced by no program code: " + ", ".join(unused)


def resolves(module, name):
    """``from module import name`` finds an attribute or a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    return hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_package_name_the_benchmark_imports_resolves():
    # read, not imported: setup_probe.py does its work at import time
    imported = [(path.name, node.module, alias.name)
                for path in sorted((ROOT / "perfbench").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ordercky"
                for alias in node.names]
    assert ("harness.py", "ordercky.trainer", "load_checkpoint") in imported
    missing = [f"{where}: from {module} import {name}" for where, module, name in imported
               if not resolves(module, name)]
    assert not missing, "perfbench imports names the package lacks: " + "; ".join(missing)


def imported_names(tree):
    """(name, line) of every name an import binds; ``from __future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported_names(tree) if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)
