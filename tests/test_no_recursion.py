"""The decoders build trees, and the tree walks read them, without recursion.

A best tree can be as deep as its sentence, so no function in
``decoder.py`` or ``trees.py``, nested closures included, may call itself,
by its bare name or as a method of its own name.  The exceptions are
bounded: the brute-force oracle's enumerators only run for n <= 8, and
``binarize``/``read_trees`` run on trees read from a file, which
``trees.MAX_DEPTH`` bounds.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ordercky"

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

BOUNDED = {
    # bounded by brute_force_best's n <= 8
    "decoder.py": {"_shapes", "brute_force_best.fill", "brute_force_best.build", "brute_force_best.build_a"},
    # they run on trees read from a file, which MAX_DEPTH bounds
    "trees.py": {"binarize.rec", "read_trees.strip"},
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
    return {name for name, func in functions(tree) if calls_itself(func)} - BOUNDED[module]


def test_no_decoder_function_calls_itself():
    recursive = recursive_functions("decoder.py")
    assert not recursive, "calls itself: " + ", ".join(sorted(recursive))


def test_no_tree_function_calls_itself():
    recursive = recursive_functions("trees.py")
    assert not recursive, "calls itself: " + ", ".join(sorted(recursive))


def test_a_method_call_of_the_own_name_counts():
    tree = ast.parse("class N(M):\n"
                     "    def __init__(self):\n        super().__init__()\n"
                     "    def walk(self):\n        return [c.walk() for c in self.children]\n")
    assert [name for name, func in functions(tree) if calls_itself(func)] == ["N.walk"]
