"""Build finite groups and action groupoids, and see validation at work.

Run:  python demos/01_groupoids_and_groups.py
"""

from gpdkit import (
    FiniteGroupoid,
    action_groupoid,
    cyclic_group,
    direct_product,
    group_catalog,
    orbits,
    stabilizer,
    validate_groupoid,
)
from gpdkit.catalog import flip_group

# The built-in catalog covers every group the workbench enumerates.
print("catalog groups:")
for name, group in group_catalog():
    print(f"  {name}: order {group.order}, elements {group.elements[:4]}{'...' if group.order > 4 else ''}")

# An action groupoid from a group plus an action table.  Here Z/2 swaps two
# points; the groupoid gets one object per point and one arrow per
# (element, point) pair.
c2 = cyclic_group(2)
swap = action_groupoid(
    c2,
    ("0", "1"),
    {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "0"},
)
print("\nswap groupoid:", len(swap.induced.objects), "objects,", len(swap.induced.arrows), "arrows")
print("validates:", validate_groupoid(swap.induced).ok)

# The Klein four-group acting on the compass points by its two reflections;
# direct_product also returns its table (first, second) -> element id.
flip = flip_group()
v4, pair_ids = direct_product(flip, flip)
compass = ("N", "S", "E", "W")


def reflect(pair, point):
    """The first factor's t swaps N and S, the second's swaps E and W."""
    ns = {"N": "S", "S": "N"}
    ew = {"E": "W", "W": "E"}
    first, second = pair
    if first == "t":
        point = ns.get(point, point)
    if second == "t":
        point = ew.get(point, point)
    return point


klein = action_groupoid(v4, compass, {(g, x): reflect(pair, x) for pair, g in pair_ids.items() for x in compass})
print("\nklein groupoid orbits:", orbits(klein))
print("stabilizer of N:", stabilizer(klein, "N"))

# Validation names the failing axiom and the offending tuple.  Corrupt one
# entry of the composition table and watch it get caught.
g = klein.induced
broken_compose = dict(g.compose)
key = next(iter(broken_compose))
broken_compose[key] = next(
    a for a in g.arrows
    if a != broken_compose[key]
    and g.src[a] == g.src[broken_compose[key]]
    and g.tgt[a] == g.tgt[broken_compose[key]]
)
broken = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, broken_compose, g.unit, g.inv)
report = validate_groupoid(broken)
print("\ncorrupted table validates:", report.ok)
print("first violation:", report.violations[0].axiom, "at", report.violations[0].witness)
