"""Constructed ids are rendered only by the builders that own them.

Every other function reads ids from its builder's table, so a change to how
ids are rendered has one place per table shape to change.
"""

import ast
from collections import Counter
from pathlib import Path

import gpdkit

ID_OWNERS = {
    "tuple_groupoid": 1,  # arrow ids of every product-shaped groupoid
    "direct_product": 1,  # pair ids of G x H
    "strict_pullback": 1,  # object ids of the strict apex
    "weak_pullback": 1,  # object ids of the weak apex
    "_balanced_classes": 1,  # balanced-product class ids
    "equivariant_anafunctorify": 1,  # anchored-triple class ids
}


def _render_id_callers() -> Counter:
    """Calls of ``render_id`` in ``src/gpdkit``, counted by innermost enclosing function."""
    callers = Counter()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "render_id":
            callers[owner] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(gpdkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return callers


def test_only_id_owning_builders_render_ids():
    assert dict(_render_id_callers()) == ID_OWNERS
