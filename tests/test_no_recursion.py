"""The decoders build trees without recursion.

A best tree can be as deep as its sentence, so no function in
``decoder.py``, nested closures included, may call itself.  The brute-force
oracle's enumerators are the exception: they only run for n <= 8.
"""

import ast
from pathlib import Path

DECODER = Path(__file__).resolve().parent.parent / "src" / "ordercky" / "decoder.py"

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# bounded by brute_force_best's n <= 8
ORACLE_ENUMERATORS = {"_shapes", "brute_force_best.fill", "brute_force_best.build", "brute_force_best.build_a"}


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


def calls_itself(func):
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == func.name
               for node in ast.walk(func))


def test_no_decoder_function_calls_itself():
    tree = ast.parse(DECODER.read_text(encoding="utf-8"), str(DECODER))
    recursive = {name for name, func in functions(tree) if calls_itself(func)} - ORACLE_ENUMERATORS
    assert not recursive, "calls itself: " + ", ".join(sorted(recursive))
