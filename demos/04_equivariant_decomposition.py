"""The compass-point story: properties, quotients, and the decomposition.

The Klein four-group acts on four compass points by two reflections.  The
action is effective, but quotienting by the freely acting half-turn subgroup
leaves two points whose full isotropy is invisible to the quotient group:
effectiveness is lost, while freeness and transitivity verdicts survive.

Run:  python demos/04_equivariant_decomposition.py
"""

from gpdkit import (
    action_groupoid,
    balanced_product,
    compose_equivariant,
    decompose,
    direct_product,
    morita_oracle,
    property_report,
    quotient_action,
    stabilizer,
    subgroup,
    weak_equivalence_report,
)
from gpdkit.catalog import flip_group

flip = flip_group()
e, t = flip.elements
# the Klein four-group and its table (first, second) -> element id
v4, pair_ids = direct_product(flip, flip)
compass = ("N", "S", "E", "W")


def reflect(pair, point):
    """The first factor's t swaps N and S, the second's swaps E and W."""
    ns = {"N": "S", "S": "N"}
    ew = {"E": "W", "W": "E"}
    first, second = pair
    if first == t:
        point = ns.get(point, point)
    if second == t:
        point = ew.get(point, point)
    return point


klein = action_groupoid(v4, compass, {(g, x): reflect(pair, x) for pair, g in pair_ids.items() for x in compass})

report = property_report(klein)
print("original action:")
print("  effective:", report.effective.value)
print("  free:", report.free.value, "(witness:", report.free.witness, ")")
print("  transitive:", report.transitive.value)

# The half-turn subgroup acts freely, so the quotient is again an action
# groupoid; its two points each keep an isotropy group of order two.
half_turn = (pair_ids[(e, e)], pair_ids[(t, t)])
q = quotient_action(klein, half_turn)
print("\nquotient by the half-turn subgroup:")
print("  points:", q.quotient.carrier)
print("  isotropy orders:", [len(stabilizer(q.quotient, x)) for x in q.quotient.carrier])
print("  effective:", property_report(q.quotient).effective.value)
print("  still Morita-equivalent:", morita_oracle(klein.induced, q.quotient.induced))

# Balanced product: induce a Klein action from the half-turn subgroup acting
# on the compass points.  The inclusion is a weak equivalence but not
# surjective on objects.
k = subgroup(v4, half_turn)
inner = action_groupoid(k, compass, {(g, x): klein.act[(g, x)] for g in k.elements for x in compass})
bp = balanced_product(v4, inner)
rep = weak_equivalence_report(bp.inclusion.functor)
print("\nbalanced product carrier size:", len(bp.product.carrier))
print("inclusion: weak equivalence", rep.is_weak_equivalence, "| surjective on objects", rep.object_map_surjective)

# Every equivariant weak equivalence factors as an inclusion after a
# projection.  Compose a projection with an inclusion, then watch decompose
# recover exactly the two recorded stages.
composite = compose_equivariant(balanced_product(q.quotient.group, q.quotient).inclusion, q.projection)
dec = decompose(composite)
print("\ndecomposition of a projection-then-inclusion composite:")
print("  kernel:", dec.kernel.elements)
print("  middle points:", dec.middle.carrier)
print("  projection surjective weak equivalence:", weak_equivalence_report(dec.projection.functor).is_ssw)
print("  inclusion weak equivalence:", weak_equivalence_report(dec.inclusion.functor).is_weak_equivalence)
print("  recovered projection equals the recorded one:",
      dec.quotient.projection.functor == q.projection.functor)
