"""Items are grouped by key in one place only.

Every group-by in the library that keeps item order goes through
:func:`gpdkit.core.fibers`, so the order that decides constructed ids,
compose-row order and population order has one place to change.  Three
hand-written group-bys stay: ``hom_index`` (hot, and owns its index),
``tuple_groupoid``'s arrow ids by source, and ``_write_compose``'s
pre-encoded row prefixes.
"""

import ast
from collections import Counter
from pathlib import Path

import gpdkit

GROUP_BY_OWNERS = {
    "core.fibers": 1,
    "core.FiniteGroupoid.hom_index": 1,
    "core.tuple_groupoid": 1,
    "documents._write_compose": 1,
}


def _is_group_by(node) -> bool:
    """``<d>.setdefault(<key>, []).append(...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "append"):
        return False
    inner = node.func.value
    return (
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Attribute)
        and inner.func.attr == "setdefault"
        and len(inner.args) == 2
        and isinstance(inner.args[1], ast.List)
        and not inner.args[1].elts
    )


def _group_bys() -> Counter:
    """Hand-written group-bys in ``src/gpdkit``, by module and enclosing class and function."""
    found = Counter()

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}"
        if _is_group_by(node):
            found[owner] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(gpdkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_only_fibers_and_the_named_exceptions_group_by_hand():
    assert dict(_group_bys()) == GROUP_BY_OWNERS
