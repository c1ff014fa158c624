"""A failed validation report becomes an error in one place only.

Every ``validate_*`` report that a construction or a reader refuses is
raised through :meth:`ValidationReport.require`, which formats
``<what>: <first violation>``; no other ``raise`` reads a report's
violations, so the message format has one place to change.
"""

import ast
from collections import Counter
from pathlib import Path

import gpdkit


def _violation_raisers() -> Counter:
    """``raise`` statements whose exception reads ``.violations``, by enclosing class and function."""
    raisers = Counter()

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            if any(isinstance(n, ast.Attribute) and n.attr == "violations" for n in ast.walk(node.exc)):
                raisers[owner] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(gpdkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return raisers


def test_only_require_raises_from_a_report():
    assert dict(_violation_raisers()) == {"ValidationReport.require": 1}
