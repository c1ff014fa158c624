"""What the law suite builds at ``group=4,carrier=3``, checked as it is built.

Every action groupoid and strict and weak pullback the suite makes is compared,
key order included, with its table filled one pair at a time; and no
functor's weak-equivalence report is computed twice.
"""

import sys
from collections import Counter

import pytest

from gpdkit import core, morita
from gpdkit.workbench import InstanceBudget, build_instances, run_law_suite

from oracles import oracle_action_compose, oracle_strict_pullback_compose, oracle_weak_pullback_compose

BUDGETS = [InstanceBudget(4, 3), InstanceBudget(4, 3, 7, 1)]


def _run_suite(budget: InstanceBudget) -> None:
    assert run_law_suite(budget, build_instances(budget)).all_ok


def _wrap_everywhere(monkeypatch, module, name: str, wrap) -> None:
    """Rebind ``module.name`` to ``wrap(it)`` in every gpdkit module that holds it."""
    original = getattr(module, name)
    wrapped = wrap(original)
    for module_name, held in list(sys.modules.items()):
        if module_name.split(".")[0] == "gpdkit" and getattr(held, name, None) is original:
            monkeypatch.setattr(held, name, wrapped)


# construction -> (its module, the groupoid it built and the per-pair table, from its arguments and result)
PER_PAIR = {
    "action_groupoid": (core, lambda args, a: (a.induced, oracle_action_compose(a))),
    "strict_pullback": (morita, lambda args, pb: (pb.apex, oracle_strict_pullback_compose(*args, pb))),
    "weak_pullback": (morita, lambda args, pb: (pb.apex, oracle_weak_pullback_compose(*args, pb))),
}


@pytest.mark.parametrize("budget", BUDGETS, ids=["exhaustive", "sampled"])
def test_every_product_table_is_the_per_pair_table(monkeypatch, budget):
    built = []

    def recording(name):
        def wrap(fn):
            def wrapped(*args):
                out = fn(*args)
                built.append((name, args, out))
                return out

            return wrapped

        return wrap

    for name, (module, _) in PER_PAIR.items():
        _wrap_everywhere(monkeypatch, module, name, recording(name))
    _run_suite(budget)

    assert {name for name, _, _ in built} == set(PER_PAIR)
    for name, args, out in built:
        g, per_pair = PER_PAIR[name][1](args, out)
        assert list(g.compose.items()) == list(per_pair.items()), name


@pytest.mark.parametrize("budget", BUDGETS, ids=["exhaustive", "sampled"])
def test_no_functor_report_is_computed_twice(monkeypatch, budget):
    computed = []  # every functor whose report was computed, kept alive so no id is reused
    calls = Counter()
    compute = morita._weak_equivalence_report

    def counting(phi):
        computed.append(phi)
        return compute(phi)

    def counting_calls(fn):
        def wrapped(phi):
            calls["report"] += 1
            return fn(phi)

        return wrapped

    monkeypatch.setattr(morita, "_weak_equivalence_report", counting)
    _wrap_everywhere(monkeypatch, morita, "weak_equivalence_report", counting_calls)
    _run_suite(budget)

    per_object = Counter(map(id, computed))
    assert computed and max(per_object.values()) == 1
    assert calls["report"] > len(computed), "the suite asks again for reports it already has"
