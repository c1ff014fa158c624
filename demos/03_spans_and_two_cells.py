"""Spans, their two compositions, and the decidable 2-cell calculus.

Run:  python demos/03_spans_and_two_cells.py
"""

from gpdkit import (
    Anafunctor,
    GroupoidFunctor,
    action_groupoid,
    anafunctorify,
    as_diagram,
    compose_anafunctors,
    compose_generalized,
    cyclic_group,
    identity_anafunctor,
    identity_two_cell,
    morita_oracle,
    normalize_two_cell,
    strictify_composition,
    terminal_groupoid,
    two_cells_equal,
    validate_nat_trans,
    validate_two_cell,
    vertical_compose_ana,
)
from gpdkit.localization import AnaTwoCell

c2 = cyclic_group(2)
swap = action_groupoid(
    c2, ("0", "1"),
    {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "0"},
)
loop = action_groupoid(c2, ("p",), {("r0", "p"): "p", ("r1", "p"): "p"})
terminal = terminal_groupoid()

collapse = GroupoidFunctor(
    swap.induced, terminal,
    {x: "*" for x in swap.induced.objects},
    {a: "u" for a in swap.induced.arrows},
)
onto_loop = GroupoidFunctor(
    swap.induced, loop.induced,
    {x: "p" for x in swap.induced.objects},
    {a: loop.arrow_id(swap.arrow_pairs[a][0], "p") for a in swap.induced.arrows},
)

# A span with a surjective weak equivalence on the left.  This one goes
# terminal <- swap orbit -> one-point Z/2.
span = Anafunctor(collapse, onto_loop)
print("span middle:", len(span.middle.objects), "objects; feet:",
      len(span.left_foot.objects), "and", len(span.right_foot.objects))

# Spans compose two ways: through the strict pullback (for anafunctors) or
# the arrow-anchored pullback (for all spans).  The canonical diagram between
# the two composites validates, and both composites are Morita-equal.
other = identity_anafunctor(terminal)
strictly = compose_anafunctors(other, span)
weakly = compose_generalized(other, span)
print("\nstrict composite middle:", len(strictly.middle.arrows), "arrows;",
      "anchored composite middle:", len(weakly.middle.arrows), "arrows")
bridge = strictify_composition(other, span)
print("bridge diagram validates:", validate_two_cell(bridge).ok)
print("composite middles Morita-equal:", morita_oracle(bridge.top.middle, bridge.bottom.middle))

# The unit 2-cell of the span is computed from the triple-map inverse; over
# the crossing pairs of the self-pullback its component is the genuine loop.
iota = identity_two_cell(span)
print("\nunit 2-cell components:", iota.component)

# A second, different 2-cell between the same pair: post-compose by the loop.
# The cell is given by its spans and one component per pullback object.
flip = AnaTwoCell(
    span, span,
    {o: loop.induced.compose[(loop.arrow_id("r1", "p"), c)] for o, c in iota.component.items()},
)
print("flip cell natural:", validate_nat_trans(flip.transformation).ok)

# Equality of 2-cells is decided by normalizing both presentations and
# comparing pointwise; the two cells above are genuinely different.
print("\nunit vs unit:", two_cells_equal(as_diagram(iota), as_diagram(iota)))
print("unit vs flip:", two_cells_equal(as_diagram(iota), as_diagram(flip)))

# Normal forms are stable: re-normalizing a normal form changes nothing.
normal = normalize_two_cell(as_diagram(flip))
print("normalization fixpoint:", normal.transformation == flip.transformation)

# Vertical composition picks any object over the shared foot and composes
# components; the flip squares to the unit.
print("flip stacked on flip is the unit:",
      vertical_compose_ana(flip, flip).transformation == iota.transformation)

# Any span becomes an anafunctor: anchor the middle over the left foot.  The
# replacement comes with a diagram witnessing the equivalence.
replaced = anafunctorify(compose_generalized(span, identity_anafunctor(loop.induced)))
print("\nreplacement witness validates:", validate_two_cell(replaced.witness).ok)
