"""No function of the package calls itself.

A best tree can be as deep as its sentence, and a treebank's trees can
nest to any depth, so no function in any module of the package, nested
closures included, may call itself, by its bare name or as a method of its
own name.  The one exception is bounded: the brute-force oracle's
enumerators only run for n <= 8.

Nor may a dataclass of the package hold itself: the ``==``, ``hash`` and
``repr`` that dataclasses generate recurse once per level of such a nest.
"""

import ast
import dataclasses
import importlib
import typing
from pathlib import Path
from typing import Optional, Union

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ordercky"

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

BOUNDED = {
    # bounded by brute_force_best's n <= 8
    "decoder.py": {"_shapes", "brute_force_best.fill", "brute_force_best.build"},
}


def functions(node, prefix=""):
    """(qualified name, node) of every function and method, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCS):
            yield prefix + child.name, child
            yield from functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}{child.name}.")
        else:
            yield from functions(child, prefix)


def is_super(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "super"


def callee(call):
    """The called name: ``f`` of ``f(...)`` and of ``x.f(...)``; None for
    ``super().f(...)``, which calls another class's method."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute) and not is_super(call.func.value):
        return call.func.attr
    return None


def calls_itself(func):
    return any(isinstance(node, ast.Call) and callee(node) == func.name for node in ast.walk(func))


def recursive_functions(module):
    path = PACKAGE / module
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {name for name, func in functions(tree) if calls_itself(func)} - BOUNDED.get(module, set())


MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def test_every_module_is_checked():
    assert {"decoder.py", "trees.py", "selfcheck.py", "trainer.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_function_calls_itself(module):
    recursive = recursive_functions(module)
    assert not recursive, "calls itself: " + ", ".join(sorted(recursive))


def test_a_method_call_of_the_own_name_counts():
    tree = ast.parse("class N(M):\n"
                     "    def __init__(self):\n        super().__init__()\n"
                     "    def walk(self):\n        return [c.walk() for c in self.children]\n")
    assert [name for name, func in functions(tree) if calls_itself(func)] == ["N.walk"]


def self_nesting_fields(cls):
    """The fields of dataclass ``cls`` whose resolved type holds ``cls``,
    looking through the arguments of tuple, Union and other generics."""
    hints = typing.get_type_hints(cls)
    out = []
    for field in dataclasses.fields(cls):
        pending = [hints[field.name]]
        while pending:
            hint = pending.pop()
            if hint is cls:
                out.append(field.name)
                break
            pending.extend(typing.get_args(hint))
    return out


def package_dataclasses():
    for module in MODULES:
        owner = importlib.import_module(f"ordercky.{module[:-3]}")
        for obj in vars(owner).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == owner.__name__:
                yield obj


def test_no_dataclass_holds_itself():
    classes = list(package_dataclasses())
    assert {"BinaryTree", "Sentence", "EvalReport"} <= {cls.__name__ for cls in classes}
    nests = [f"{cls.__module__}.{cls.__name__}.{name}" for cls in classes for name in self_nesting_fields(cls)]
    assert not nests, "a dataclass holds itself: " + ", ".join(nests)


@dataclasses.dataclass(frozen=True)
class _Leaf:
    word: str


@dataclasses.dataclass(frozen=True)
class _Nest:
    label: str
    children: tuple[Union["_Nest", _Leaf], ...]
    parent: Optional["_Nest"] = None


def test_a_nest_through_tuple_union_and_optional_counts():
    assert self_nesting_fields(_Nest) == ["children", "parent"]
    assert self_nesting_fields(_Leaf) == []
