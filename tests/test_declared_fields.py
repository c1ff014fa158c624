"""Values kept on an instance live in declared fields, not in its ``__dict__``.

Under CPython 3.11 an entry written into an instance ``__dict__`` after
``__init__`` takes every later attribute read of that instance off the
specialized path.  A value computed once and kept on a frozen dataclass (a
``_kept_*`` field) is a field with ``init=False, compare=False, repr=False``
and default ``None``, set with ``object.__setattr__``, so a
``dataclasses.replace`` copy carries none and derives its own.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import gpdkit
from gpdkit.core import action_groupoid
from gpdkit.equivariant import property_report
from gpdkit.localization import Anafunctor, identity_two_cell
from gpdkit.morita import weak_equivalence_report

KEPT = {
    "FiniteGroupoid._kept_generators",
    "FiniteGroup._kept_sequence",
    "FiniteGroup._kept_right",
    "GroupoidFunctor._kept_report",
    "GroupoidFunctor._kept_self_pullback",
    "ActionGroupoid._kept_properties",
}


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


def _kept_fields() -> dict[str, dataclasses.Field]:
    """``<class>.<field>`` -> field, for each ``_kept_*`` field declared by a dataclass in ``src/gpdkit``."""
    found = {}
    for info in pkgutil.iter_modules(gpdkit.__path__):
        module = importlib.import_module(f"gpdkit.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                for f in dataclasses.fields(cls):
                    if f.name.startswith("_kept_"):
                        found[f"{cls.__name__}.{f.name}"] = f
    return found


def test_every_kept_value_is_a_declared_field_outside_init_compare_and_repr():
    kept = _kept_fields()
    assert set(kept) == KEPT
    for name, f in kept.items():
        assert (f.init, f.compare, f.repr, f.default) == (False, False, False, None), name


def test_the_core_docstring_lists_every_kept_value():
    assert [name for name in sorted(KEPT) if f"``{name}``" not in gpdkit.core.__doc__] == []


def test_a_copied_action_derives_its_own_property_report(klein_action):
    kept = property_report(klein_action)
    assert klein_action._kept_properties is kept
    fixed = {key: key[1] for key in klein_action.act}
    copy = dataclasses.replace(klein_action, act=fixed)
    assert copy._kept_properties is None
    assert property_report(copy) == property_report(action_groupoid(copy.group, copy.carrier, copy.act))
    assert property_report(copy) != kept


def test_a_copied_functor_derives_its_own_report_and_self_pullback(collapse_swap, swap_to_loop):
    leg = dataclasses.replace(collapse_swap)
    assert weak_equivalence_report(leg) is leg._kept_report
    pb = identity_two_cell(Anafunctor(leg, swap_to_loop)).pullback
    assert leg._kept_self_pullback is pb
    copy = dataclasses.replace(leg)
    assert (copy._kept_report, copy._kept_self_pullback) == (None, None)
    again = identity_two_cell(Anafunctor(copy, swap_to_loop)).pullback
    assert copy._kept_self_pullback is again and again is not pb
    assert again.apex == pb.apex
