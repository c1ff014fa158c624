"""Every law's full check sequence, pinned by a digest, and the caps that cut them.

The suite-report goldens pin only each law's instance count and verdict, so a
reordered or reworded check in an all-pass run leaves them unchanged while it
changes the witness a later failure would carry.  Here ``workbench._law`` is
wrapped to record each law's whole ``(description, ok)`` list, and
``tests/golden/law_checks.json`` holds, per budget and law, the instance count
and the sha256 of the JSON-encoded list.

The cap tests set each named population cap of ``workbench`` to a value that
binds, and check that exactly the laws, or the instance populations, that
read it change: an inline literal left in place of a cap fails them.  The cap
tables name every cap ``workbench`` defines, so a cap cannot be added or
removed without its binding test.

To capture the golden again after a deliberate change to a law, run
``PYTHONPATH=src python tests/test_law_checks.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from gpdkit import workbench
from gpdkit.workbench import InstanceBudget

GOLDEN = Path(__file__).resolve().parent / "golden" / "law_checks.json"

BUDGETS = {
    "group=4,carrier=3": InstanceBudget(max_group_order=4, max_carrier_size=3),
    "group=4,carrier=3,objects=7,seed=1": InstanceBudget(
        max_group_order=4, max_carrier_size=3, max_objects=7, sample_seed=1
    ),
}


def law_checks(budget: InstanceBudget) -> dict[str, dict]:
    """Each law's instance count and the digest of its full check list."""
    recorded = {}
    run = workbench._law

    def recording(name, checks):
        checks = [[description, ok] for description, ok in checks]
        digest = hashlib.sha256(json.dumps(checks).encode("utf-8")).hexdigest()
        recorded[name] = {"instances": len(checks), "sha256": digest}
        return run(name, iter(checks))

    workbench._law = recording
    try:
        workbench.run_law_suite(budget)
    finally:
        workbench._law = run
    return recorded


@pytest.mark.parametrize("key", sorted(BUDGETS))
def test_every_law_check_sequence_matches_its_golden(key):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[key]
    assert law_checks(BUDGETS[key]) == golden


# each cap the suite reads, and the laws whose population it cuts
SUITE_CAPS = {
    "PULLBACK_PLAIN_WES": {"core: whiskers and comparisons validate", "morita: pullback projections keep their class"},
    "PULLBACK_EQUIVARIANT_WES": {"equivariant: pullbacks realize as action groupoids"},
    "ISO_SEARCH_GROUPOIDS": {"core: iso search symmetric"},
    "FACTORIZATION_CANDIDATES": {"morita: factorizations are unique"},
    "FACTORIZATION_SPANS": {"morita: factorizations are unique"},
    "NORMALIZATION_CELLS": {"localization: normalization idempotent and stable"},
    "CELL_EQUALITY_CELLS": {"localization: 2-cell equality is an equivalence"},
    "VERTICAL_COMPOSITION_CELLS": {"localization: vertical composition unital and associative"},
    "ANAFUNCTORIFY_SPANS": {"localization: strictification and span replacement"},
    "STRICTIFIED_COMPOSITES": {"localization: strictification and span replacement"},
    "EQUIVARIANT_REPLACEMENT_SPANS": {"equivariant: spans replace by action-groupoid spans"},
}

# each cap the instance build reads, and the populations it cuts
BUILD_CAPS = {
    "SAMPLED_ACTIONS": {"actions", "functor_pairs", "spans"},
    "SAMPLED_WEAK_EQUIVALENCES": {"weak_equivalences", "functor_pairs", "spans"},
    "SAMPLED_FUNCTOR_PAIRS": {"functor_pairs"},
    "KEPT_SPANS": {"spans"},
    "LARGER_COMPOSITE_HOSTS": {"weak_equivalences", "functor_pairs"},
    "IDENTITY_SPANS": {"spans"},
    "ROUND_TRIPS": {"spans"},
    "SPAN_POOL": {"spans"},
}


def test_the_cap_tables_name_every_cap():
    # every upper-case int of workbench but the budget defaults is a cap
    caps = {name for name, value in vars(workbench).items()
            if name.isupper() and type(value) is int and not name.startswith("DEFAULT_")}
    assert SUITE_CAPS.keys() | BUILD_CAPS.keys() == caps


def _instance_counts(budget, instances) -> dict[str, int]:
    return {law.name: law.instances for law in workbench.run_law_suite(budget, instances).laws}


@pytest.fixture(scope="module")
def small_population():
    budget = BUDGETS["group=4,carrier=3"]
    instances = workbench.build_instances(budget)
    return budget, instances, _instance_counts(budget, instances)


@pytest.mark.parametrize("cap", sorted(SUITE_CAPS))
def test_each_suite_cap_cuts_exactly_the_laws_that_read_it(cap, small_population, monkeypatch):
    budget, instances, counts = small_population
    monkeypatch.setattr(workbench, cap, 1)
    capped = _instance_counts(budget, instances)
    assert {name for name in counts if capped[name] != counts[name]} == SUITE_CAPS[cap]


def test_a_factorization_past_the_candidate_cap_is_skipped_as_a_pass(small_population, monkeypatch):
    """Neither budget reaches ``FACTORIZATION_CANDIDATES``, so the skip is
    forced with a cap of 1, which a span with more than one candidate passes."""
    budget, instances, _ = small_population
    recorded = {}
    run = workbench._law

    def recording(name, checks):
        recorded[name] = list(checks)
        return run(name, iter(recorded[name]))

    monkeypatch.setattr(workbench, "FACTORIZATION_CANDIDATES", 1)
    monkeypatch.setattr(workbench, "_law", recording)
    laws = workbench.run_law_suite(budget, instances).laws
    law = next(law for law in laws if law.name == "morita: factorizations are unique")
    checks = recorded[law.name]
    assert ("skipped: too many candidates", True) in checks
    assert all(ok for _, ok in checks)
    assert law.ok and law.instances == len(checks)


@pytest.mark.parametrize("cap", sorted(BUILD_CAPS))
def test_each_build_cap_cuts_exactly_the_populations_that_read_it(cap, monkeypatch):
    # the sampled budget: in an exhaustive run the round trips do not survive the span cut
    budget = BUDGETS["group=4,carrier=3,objects=7,seed=1"]
    built = workbench.build_instances(budget)
    monkeypatch.setattr(workbench, cap, 0)
    capped = workbench.build_instances(budget)
    fields = ("actions", "weak_equivalences", "functor_pairs", "spans")
    assert {f for f in fields if getattr(capped, f) != getattr(built, f)} == BUILD_CAPS[cap]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    results = {key: law_checks(budget) for key, budget in BUDGETS.items()}
    GOLDEN.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
