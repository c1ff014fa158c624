"""Values kept on an instance live in declared fields, not in its ``__dict__``.

Under CPython 3.11 an entry written into an instance ``__dict__`` after
``__init__`` takes every later attribute read of that instance off the
specialized path.  A value computed once and kept on a frozen dataclass
(``_kept_generators``, ``_kept_sequence``, ``_kept_report``) is a field with
``init=False, compare=False, repr=False``, set with ``object.__setattr__``.
"""

import ast
from pathlib import Path

import gpdkit


def _instance_dict_writes() -> list[str]:
    """``<module>:<line>`` of each ``<expr>.__dict__[...]`` assigned to in ``src/gpdkit``."""
    found = []
    for path in sorted(Path(gpdkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "__dict__"
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_value_is_written_into_an_instance_dict():
    assert _instance_dict_writes() == []
