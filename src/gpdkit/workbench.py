"""Instance enumeration and the executable law suite.

Enumerates small group actions (every action of a catalog group on a small
carrier, up to relabeling, assembled from its orbit types: the coset actions
``G/K``, one per conjugacy class of subgroups), derives a population of
equivariant weak equivalences from quotient projections and balanced-product
inclusions, and runs every stated algebraic law over the population.
Identical budget and seed give a byte-identical report.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass

from . import catalog
from .core import (
    ActionGroupoid,
    FiniteGroupoid,
    GroupoidFunctor,
    NaturalTransformation,
    action_groupoid,
    all_subgroups,
    class_reps,
    compose_functors,
    fibers,
    fixed_point,
    groupoid_iso_search,
    identity_functor,
    identity_transformation,
    inverse_transformation,
    is_normal,
    is_subgroup_of,
    subgroup,
    trivial_group,
    validate_groupoid,
    validate_nat_trans,
    vertical_compose_nat,
    whisker,
)
from .documents import dumps
from .equivariant import (
    INVARIANT_PROPERTIES,
    EquivariantFunctor,
    balanced_product,
    compose_equivariant,
    equivariant_anafunctorify,
    equivariant_strict_pullback,
    equivariant_weak_pullback,
    decompose,
    identity_equivariant,
    property_report,
    quotient_action,
)
from .localization import (
    Anafunctor,
    GeneralizedMorphism,
    TwoCellDiagram,
    anafunctorify,
    as_diagram,
    compose_generalized,
    identity_anafunctor,
    identity_two_cell,
    normalize_two_cell,
    strictify_composition,
    two_cells_equal,
    validate_two_cell,
    vertical_compose_ana,
)
from .morita import (
    morita_oracle,
    strict_pullback,
    weak_equivalence_report,
    weak_pullback,
)

DEFAULT_GROUP_ORDER = 8
DEFAULT_CARRIER_SIZE = 4
DEFAULT_OBJECTS = 6

# per-category subsample caps, applied only in the sampled (over-default) regime
SAMPLE_CAPS = {
    "actions": 150,
    "weak_equivalences": 300,
    "functor_pairs": 400,
    "spans": 40,
}

# Every other population cap.  Each fixes which instances the build or a law
# takes, and so the suite report.
# The build: composites through at most one host larger than the quotient
# group, identity spans on the first actions, a few round trips through a
# pullback apex, and the smallest spans as the pool.  The round trips sort
# after every kept span at the default budget, so none reaches a law there;
# at group=4,carrier=3,objects=7, seed 1, two are kept, at positions 21 and
# 30 (from 0) of the 40 spans.
LARGER_COMPOSITE_HOSTS = 1
IDENTITY_SPANS = 12
ROUND_TRIPS = 4
SPAN_POOL = 3 * SAMPLE_CAPS["spans"]
# The shared (f, f) pullback pass: plain pullbacks of the first weak
# equivalences, equivariant ones of the first surjective ones.
PULLBACK_PLAIN_WES = 40
PULLBACK_EQUIVARIANT_WES = 25
# The iso-search law pairs up the first action groupoids.
ISO_SEARCH_GROUPOIDS = 10
# A leg with more candidate transformations than this is skipped, not counted.
FACTORIZATION_CANDIDATES = 4096
FACTORIZATION_SPANS = 10
# The 2-cell laws take the first spans whose left leg is a surjective weak
# equivalence; normal forms are computed per object, so these caps fix which
# spans the laws check, not what a check may cost.
NORMALIZATION_CELLS = 15
CELL_EQUALITY_CELLS = 12
VERTICAL_COMPOSITION_CELLS = 12
ANAFUNCTORIFY_SPANS = 10
STRICTIFIED_COMPOSITES = 10
EQUIVARIANT_REPLACEMENT_SPANS = 20


@dataclass(frozen=True)
class InstanceBudget:
    """Size limits for the law suite's instance population.

    ``max_group_order`` and ``max_carrier_size`` bound the enumerated catalog
    groups and carriers.  While every field is at most its default the run is
    exhaustive; above any default it subsamples each instance category to
    ``SAMPLE_CAPS`` with ``sample_seed``.

    ``max_objects`` bounds no groupoid size: it only takes part in that
    regime switch.  It stays all the same, since the benchmark worker builds a
    budget positionally from ``(group, carrier, objects)``, the sampled
    workload (``group=4,carrier=3,objects=7``) is sampled only through
    ``objects=7``, and the suite report's header prints it.
    """

    max_group_order: int = DEFAULT_GROUP_ORDER
    max_carrier_size: int = DEFAULT_CARRIER_SIZE
    max_objects: int = DEFAULT_OBJECTS
    sample_seed: int = 0

    @property
    def exhaustive(self) -> bool:
        return (
            self.max_group_order <= DEFAULT_GROUP_ORDER
            and self.max_carrier_size <= DEFAULT_CARRIER_SIZE
            and self.max_objects <= DEFAULT_OBJECTS
        )


def _least_relabeling(table: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The least table over all relabelings of the carrier: the canonical form of an action.

    ``table`` holds one row per group element, in declaration order, and
    ``row[i]`` is the image of point ``i``.
    """
    size = len(table[0])
    best = None
    for sigma in itertools.permutations(range(size)):
        inv_sigma = [0] * size
        for i, j in enumerate(sigma):
            inv_sigma[j] = i
        relabeled = tuple(tuple(sigma[row[inv_sigma[i]]] for i in range(size)) for row in table)
        if best is None or relabeled < best:
            best = relabeled
    return best


def _coset_table(group, sub: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """The table of ``group`` acting on its left cosets of ``sub`` by left multiplication."""
    coset_rep = class_reps(group.elements, lambda g: [group.mul[(g, k)] for k in sub])
    label = {rep: i for i, rep in enumerate(dict.fromkeys(coset_rep.values()))}
    return tuple(tuple(label[coset_rep[group.mul[(g, rep)]]] for rep in label) for g in group.elements)


def actions_of_group(group, max_size: int) -> list[ActionGroupoid]:
    """All actions of ``group`` on carriers of size 1..max_size, up to relabeling.

    Every finite action is a disjoint union of orbits, each isomorphic to a
    coset action ``G/K``, and ``G/K`` and ``G/K'`` are isomorphic exactly when
    ``K`` and ``K'`` are conjugate.  So the actions on ``n`` points are the
    multisets of orbit types whose sizes sum to ``n``.  Each action is listed
    once, as its least relabeled table, and each carrier size in table order.
    """
    small = [sub for sub in all_subgroups(group) if group.order // len(sub) <= max_size]
    orbits = sorted({_least_relabeling(_coset_table(group, sub)) for sub in small})
    out = []
    for size in range(1, max_size + 1):
        carrier = tuple(f"p{i}" for i in range(size))
        tables = set()
        for count in range(1, size + 1):
            for combo in itertools.combinations_with_replacement(orbits, count):
                offsets = list(itertools.accumulate((len(orbit[0]) for orbit in combo), initial=0))
                if offsets[-1] != size:
                    continue
                union = tuple(
                    tuple(offset + x for offset, orbit in zip(offsets, combo) for x in orbit[gi])
                    for gi in range(group.order)
                )
                tables.add(_least_relabeling(union))
        for table in sorted(tables):
            act = {
                (g, carrier[i]): carrier[table[gi][i]]
                for gi, g in enumerate(group.elements)
                for i in range(size)
            }
            out.append(action_groupoid(group, carrier, act))
    return out


def enumerate_actions(budget: InstanceBudget):
    """Every catalog-group action within the budget, in a fixed order."""
    for _, group in catalog.group_catalog():
        if group.order > budget.max_group_order:
            continue
        yield from actions_of_group(group, budget.max_carrier_size)


@dataclass(frozen=True)
class GeneratedWeakEquivalence:
    functor: EquivariantFunctor
    kind: str  # identity | projection | inclusion | composite
    stages: tuple = ()  # (projection, inclusion) when built in that order


def generate_weak_equivalences(budget: InstanceBudget) -> list[GeneratedWeakEquivalence]:
    """Equivariant weak equivalences with known provenance.

    Quotient projections (by free normal subgroups), balanced-product
    inclusions (for every subgroup choice within the budget), identities, and
    projection-then-inclusion composites whose factorization is recorded.
    """
    actions = list(enumerate_actions(budget))
    out = [GeneratedWeakEquivalence(identity_equivariant(a), "identity") for a in actions]
    # the catalogue groups, each with the one subgroup list both loops below read
    groups = list({id(a.group): a.group for a in actions}.values())
    subgroups = {id(g): all_subgroups(g) for g in groups}
    # each distinct group's actions, enumerated once: the inclusions reuse the
    # list of any earlier group equal to their subgroup
    known = [(g, [a for a in actions if a.group is g]) for g in groups]

    projections = []
    for a in actions:
        for sub in subgroups[id(a.group)]:
            if len(sub) == 1 or not is_normal(a.group, sub):
                continue
            if fixed_point(a, sub) is not None:
                continue
            q = quotient_action(a, sub)
            projections.append(q)
            out.append(GeneratedWeakEquivalence(q.projection, "projection"))

    for big in groups:
        for sub in subgroups[id(big)]:
            inner_group = subgroup(big, sub)
            inner_actions = next((acts for g, acts in known if g == inner_group), None)
            if inner_actions is None:
                inner_actions = actions_of_group(inner_group, budget.max_carrier_size)
                known.append((inner_group, inner_actions))
            for inner in inner_actions:
                bp = balanced_product(big, inner)
                out.append(GeneratedWeakEquivalence(bp.inclusion, "inclusion"))

    for q in projections:
        larger = [g for g in groups if g.order > q.quotient.group.order and is_subgroup_of(q.quotient.group, g)]
        hosts = [q.quotient.group, *larger[:LARGER_COMPOSITE_HOSTS]]
        for host in hosts:
            bp = balanced_product(host, q.quotient)
            composite = compose_equivariant(bp.inclusion, q.projection)
            out.append(
                GeneratedWeakEquivalence(composite, "composite", stages=(q.projection, bp.inclusion))
            )
    return out


@dataclass(frozen=True)
class WorkbenchInstances:
    """The instance population a law-suite run works over."""

    budget: InstanceBudget
    actions: tuple[ActionGroupoid, ...]
    weak_equivalences: tuple[GeneratedWeakEquivalence, ...]
    functor_pairs: tuple[tuple[GroupoidFunctor, GroupoidFunctor], ...]
    spans: tuple[tuple[GeneralizedMorphism, ActionGroupoid, ActionGroupoid], ...]


def _span_size(span: GeneralizedMorphism) -> int:
    return len(span.middle.arrows) + len(span.left_foot.arrows) + len(span.right_foot.arrows)


def build_instances(budget: InstanceBudget) -> WorkbenchInstances:
    wes = generate_weak_equivalences(budget)
    actions = [w.functor.dom_action for w in wes if w.kind == "identity"]

    rng = random.Random(budget.sample_seed)

    def maybe_sample(items: list, cap_key: str) -> list:
        cap = SAMPLE_CAPS[cap_key]
        if budget.exhaustive or len(items) <= cap:
            return items
        picked = sorted(rng.sample(range(len(items)), cap))
        return [items[i] for i in picked]

    actions = maybe_sample(actions, "actions")
    wes = maybe_sample(wes, "weak_equivalences")

    # functors to feed composability-style laws: the generated weak
    # equivalences plus collapse-to-a-point functors, which often are not
    # weak equivalences
    point = _one_point()
    pool: list[tuple[GroupoidFunctor, ActionGroupoid, ActionGroupoid]] = []
    for w in wes:
        pool.append((w.functor.functor, w.functor.dom_action, w.functor.cod_action))
    for a in actions:
        pool.append((_collapse_to_point(a.induced, point), a, point))

    buckets = fibers(pool, lambda entry: (entry[1].group.elements, entry[1].carrier))
    pairs = []
    for f, _, cod_a in pool:
        for g2, dom2, _ in buckets.get((cod_a.group.elements, cod_a.carrier), ()):
            if dom2.induced == f.cod:
                pairs.append((f, g2))
    pairs = maybe_sample(pairs, "functor_pairs")

    # spans between action groupoids: identity spans, Morita spans built from
    # projections, and inclusion spans whose left leg is not surjective
    spans: list[tuple[GeneralizedMorphism, ActionGroupoid, ActionGroupoid]] = []
    for a in actions[:IDENTITY_SPANS]:
        spans.append((identity_anafunctor(a.induced), a, a))
    for w in wes:
        if w.kind == "projection":
            f = w.functor
            spans.append((GeneralizedMorphism(f.functor, identity_functor(f.dom_action.induced)), f.cod_action, f.dom_action))
            spans.append((GeneralizedMorphism(identity_functor(f.dom_action.induced), f.functor), f.dom_action, f.cod_action))
        elif w.kind == "inclusion":
            f = w.functor
            spans.append((GeneralizedMorphism(f.functor, identity_functor(f.dom_action.induced)), f.cod_action, f.dom_action))
    # a few round trips whose middle is a pullback apex rather than a carrier;
    # the default budget keeps none of them (see ROUND_TRIPS)
    composed = 0
    for span, left_action, _ in list(spans):
        if composed >= ROUND_TRIPS or span.left == span.right:
            continue
        if not weak_equivalence_report(span.right).is_weak_equivalence:
            continue
        reverse = GeneralizedMorphism(span.right, span.left)
        spans.append((compose_generalized(span, reverse), left_action, left_action))
        composed += 1
    # smallest spans first; the cut below fixes the span population
    spans.sort(key=lambda s: _span_size(s[0]))
    spans = spans[:SPAN_POOL]
    spans = spans[: SAMPLE_CAPS["spans"]] if budget.exhaustive else maybe_sample(spans, "spans")

    return WorkbenchInstances(
        budget=budget,
        actions=tuple(actions),
        weak_equivalences=tuple(wes),
        functor_pairs=tuple(pairs),
        spans=tuple(spans),
    )


@dataclass(frozen=True)
class LawResult:
    name: str
    instances: int
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    budget: InstanceBudget
    laws: tuple[LawResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(law.ok for law in self.laws)

    def to_bytes(self) -> bytes:
        doc = {
            "budget": asdict(self.budget),
            "laws": [
                {"name": law.name, "instances": law.instances, "ok": law.ok, "witness": law.witness}
                for law in sorted(self.laws, key=lambda l: l.name)
            ],
            "ok": self.all_ok,
        }
        return dumps(doc)


def _delete_object(g: FiniteGroupoid, x: str) -> FiniteGroupoid:
    dead = {a for a in g.arrows if g.src[a] == x or g.tgt[a] == x}
    return _without_arrows(g, dead, drop_objects={x})


def _without_arrows(g: FiniteGroupoid, dead: set[str], drop_objects=frozenset()) -> FiniteGroupoid:
    objects = tuple(o for o in g.objects if o not in drop_objects)
    arrows = tuple(a for a in g.arrows if a not in dead)
    live = set(arrows)
    return FiniteGroupoid(
        objects=objects,
        arrows=arrows,
        src={a: g.src[a] for a in arrows},
        tgt={a: g.tgt[a] for a in arrows},
        compose={
            (a2, a1): c
            for (a2, a1), c in g.compose.items()
            if a2 in live and a1 in live and c in live
        },
        unit={o: g.unit[o] for o in objects},
        inv={a: g.inv[a] for a in arrows},
    )


def _groupoid_fails(g: FiniteGroupoid) -> bool:
    try:
        return not validate_groupoid(g).ok
    except Exception:
        return False  # malformed is a different failure class; stop shrinking into it


def shrink_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """Greedily delete objects, then arrows, while validation still fails."""
    improved = True
    while improved:
        improved = False
        for x in g.objects:
            g2 = _delete_object(g, x)
            if _groupoid_fails(g2):
                g = g2
                improved = True
                break
        if improved:
            continue
        for a in g.arrows:
            if a == g.inv.get(a):
                dead = {a}
            else:
                dead = {a, g.inv[a]}
            g2 = _without_arrows(g, dead)
            if _groupoid_fails(g2):
                g = g2
                improved = True
                break
    return g


def _law(name: str, checks) -> LawResult:
    """Run (description, ok) checks; first failure becomes the law witness."""
    count = 0
    for description, ok in checks:
        count += 1
        if not ok:
            return LawResult(name, count, False, description)
    return LawResult(name, count, True)


def _describe_functor(f: GroupoidFunctor) -> str:
    return (
        f"functor {len(f.dom.objects)}x{len(f.dom.arrows)} -> "
        f"{len(f.cod.objects)}x{len(f.cod.arrows)}"
    )


def _groupoids_validate(actions, weak_equivalences):
    """Each distinct action groupoid validates; a failure is shrunk."""
    ends = (a for w in weak_equivalences for a in (w.functor.dom_action, w.functor.cod_action))
    distinct: dict[tuple, FiniteGroupoid] = {}
    for a in itertools.chain(actions, ends):
        distinct.setdefault((a.induced.objects, a.induced.arrows), a.induced)
    for g in distinct.values():
        try:
            rep = validate_groupoid(g)
        except Exception as exc:
            yield (f"malformed groupoid: {exc}", False)
            continue
        if rep.ok:
            yield ("ok", True)
        else:
            small = shrink_groupoid(g)
            first = validate_groupoid(small).violations[0]
            yield (
                f"groupoid with {len(small.objects)} objects / {len(small.arrows)} arrows "
                f"violates {first.axiom} at {first.witness}",
                False,
            )


def _self_pullback_pass(weak_equivalences) -> tuple[list, list, list]:
    """The comparison, projection and equivariant-pullback checks, from one pass.

    The pass builds the pullbacks of each generated weak equivalence ``f``
    with itself for the three laws that read them: the equivariant-pullback
    law takes the first ``PULLBACK_EQUIVARIANT_WES`` surjective ones, and the
    whisker and projection laws the first ``PULLBACK_PLAIN_WES``, reusing the
    plain pullbacks inside the equivariant ones.  Only the checks are kept,
    and each pullback is dropped when ``_self_pullback_checks`` returns:
    holding all of them until the default run ends raised its peak memory
    from 50 MB to 81 MB.
    """
    checks = ([], [], [])
    equivariant_left = PULLBACK_EQUIVARIANT_WES
    for i, w in enumerate(weak_equivalences):
        if i >= PULLBACK_PLAIN_WES and not equivariant_left:
            break
        rep = weak_equivalence_report(w.functor.functor)
        equivariant = rep.is_ssw and equivariant_left > 0
        equivariant_left -= equivariant
        _self_pullback_checks(w, rep, equivariant, i < PULLBACK_PLAIN_WES, *checks)
    return checks


def _self_pullback_checks(w, rep, equivariant, plain, comparison_checks, projection_checks, equivariant_checks):
    f, foot = w.functor.functor, w.functor.dom_action
    sp = wp = None
    if equivariant:
        esp = equivariant_strict_pullback(w.functor, w.functor)
        ewp = equivariant_weak_pullback(foot, f, foot, f)
        sp, wp = esp.plain, ewp.plain
        equivariant_checks.append(("strict matches plain", compose_functors(sp.pr2, esp.iso) == esp.pr2.functor))
        equivariant_checks.append(("weak matches plain", compose_functors(wp.pr3, ewp.iso) == ewp.pr3.functor))
        reps = [property_report(a) for a in (foot, esp.action, ewp.action)]
        for name in INVARIANT_PROPERTIES:
            foot_v, strict_v, weak_v = (r.verdict(name).value for r in reps)
            equivariant_checks.append((f"strict inherits {name}", strict_v == foot_v))
            equivariant_checks.append((f"weak inherits {name}", weak_v == foot_v))
    if not plain:
        return
    wp = wp or weak_pullback(f, f)
    round_trip = vertical_compose_nat(inverse_transformation(wp.comparison), wp.comparison)
    comparison_checks.extend([
        ("comparison natural", validate_nat_trans(wp.comparison).ok),
        ("left whisker natural", validate_nat_trans(whisker(wp.comparison, identity_functor(f.cod), "left")).ok),
        ("right whisker natural", validate_nat_trans(whisker(wp.comparison, identity_functor(wp.apex), "right")).ok),
        ("stacked with inverse is natural", validate_nat_trans(round_trip).ok),
        ("stacked with inverse is the identity", round_trip == identity_transformation(wp.comparison.source)),
    ])
    # the constructions re-verify their own projection classes; the law
    # confirms the reports from outside as well
    if rep.is_ssw:
        projection_checks.append(("strict pr2 ssw", weak_equivalence_report((sp or strict_pullback(f, f)).pr2).is_ssw))
    if rep.is_weak_equivalence:
        projection_checks.append(("weak pr3 ssw", weak_equivalence_report(wp.pr3).is_ssw))


def _iso_search_symmetric(groupoids):
    for g, h in itertools.combinations(groupoids, 2):
        fwd = groupoid_iso_search(g, h) is not None
        back = groupoid_iso_search(h, g) is not None
        yield (f"asymmetric search on {len(g.objects)}/{len(h.objects)} objects", fwd == back)


def _three_for_two(functor_pairs):
    for f, g in functor_pairs:
        a = weak_equivalence_report(f).is_weak_equivalence
        b = weak_equivalence_report(g).is_weak_equivalence
        c = weak_equivalence_report(compose_functors(g, f)).is_weak_equivalence
        ok = (not (a and b) or c) and (not (a and c) or b) and (not (b and c) or a)
        yield (f"{_describe_functor(f)} then {_describe_functor(g)}: {a}/{b}/{c}", ok)


def _ff_surjective_implies_we(functor_pairs):
    seen = set()
    for f, g in functor_pairs:
        for functor in (f, g):
            if id(functor) in seen:
                continue
            seen.add(id(functor))
            rep = weak_equivalence_report(functor)
            if rep.ff_map_bijective and rep.object_map_surjective:
                yield (_describe_functor(functor), rep.is_weak_equivalence)
            else:
                yield ("not applicable", True)


def _skeleton_preserved(weak_equivalences):
    for w in weak_equivalences:
        f = w.functor.functor
        yield (f"{w.kind} {_describe_functor(f)}", morita_oracle(f.dom, f.cod))


def _factorizations(phi: GroupoidFunctor, side: str) -> int | None:
    """How many transformations of the identity on ``phi``'s domain
    (``side="left"``) or codomain (``"right"``) whisker with ``phi`` to the
    whiskered identity; ``None`` past ``FACTORIZATION_CANDIDATES`` candidates."""
    g = phi.dom if side == "left" else phi.cod
    hom = g.hom_index()
    ident = identity_functor(g)
    target = whisker(identity_transformation(ident), phi, side)
    options = [hom.get((z, z), []) for z in g.objects]
    total = 1
    for opts in options:
        total *= max(len(opts), 1)
    if total > FACTORIZATION_CANDIDATES:
        return None
    solutions = 0
    for combo in itertools.product(*options):
        trial = NaturalTransformation(ident, ident, dict(zip(g.objects, combo)))
        if validate_nat_trans(trial).ok and whisker(trial, phi, side) == target:
            solutions += 1
    return solutions


def _factorizations_unique(spans):
    for span in spans:
        phi = span.left
        rep = weak_equivalence_report(phi)
        # fully faithful side: factor a left-whiskered identity back out
        solutions = _factorizations(phi, "left") if rep.ff_map_bijective else None
        if solutions is None:
            yield ("skipped: too many candidates", True)
            continue
        yield (f"{solutions} factorizations through a fully faithful leg", solutions == 1)
        if not rep.is_ssw:
            continue
        # surjective side: factor a right-whiskered identity back out
        solutions = _factorizations(phi, "right")
        if solutions is None:
            yield ("skipped: too many candidates", True)
            continue
        yield (f"{solutions} factorizations through a surjective leg", solutions == 1)


def _normalization_idempotent(cell_spans):
    for ana in cell_spans:
        d = as_diagram(identity_two_cell(ana))
        n = normalize_two_cell(d)
        again = normalize_two_cell(as_diagram(n))
        yield ("identity cell", again.transformation == n.transformation)
        perturbed = _perturb_diagram(d)
        yield ("perturbed diagram validates", validate_two_cell(perturbed).ok)
        n2 = normalize_two_cell(perturbed)
        yield ("perturbed normal form agrees", n2.transformation == n.transformation)


def _two_cell_equality_equivalence(cell_spans):
    for ana in cell_spans:
        d1 = as_diagram(identity_two_cell(ana))
        d2 = _perturb_diagram(d1)
        d3 = as_diagram(normalize_two_cell(d2))
        yield ("reflexive", two_cells_equal(d1, d1))
        ab, ba = two_cells_equal(d1, d2), two_cells_equal(d2, d1)
        yield ("symmetric", ab == ba)
        if ab and two_cells_equal(d2, d3):
            yield ("transitive", two_cells_equal(d1, d3))


def _vertical_composition(cell_spans):
    for ana in cell_spans:
        iota = identity_two_cell(ana)
        twice = vertical_compose_ana(iota, iota)
        yield ("unit law", twice.transformation == iota.transformation)
        assoc1 = vertical_compose_ana(twice, iota)
        assoc2 = vertical_compose_ana(iota, twice)
        yield ("associativity", assoc1.transformation == assoc2.transformation)


def _composable_spans(spans):
    """Each pair ``(f, g)`` of spans where ``g`` leaves ``f``'s right foot by a surjective left leg."""
    by_foot = fibers(spans, lambda s: (s.left_foot.objects, s.left_foot.arrows))
    for f in spans:
        for g in by_foot.get((f.right_foot.objects, f.right_foot.arrows), ()):
            if g.left_foot == f.right_foot and weak_equivalence_report(g.left).is_ssw:
                yield f, g


def _strictify_and_replace(spans, composable_pairs):
    for f in spans:
        out = anafunctorify(f)
        yield ("replacement witness validates", validate_two_cell(out.witness).ok)
        yield ("replacement left leg surjective", weak_equivalence_report(out.anafunctor.left).is_ssw)
    for f, g in composable_pairs:
        d = strictify_composition(f, g)
        yield ("strictified diagram validates", validate_two_cell(d).ok)
        yield ("composite skeletons agree", morita_oracle(d.top.middle, d.bottom.middle))


def _property_invariance(weak_equivalences, budget: InstanceBudget):
    effectiveness_divergences = 0
    for w in weak_equivalences:
        f = w.functor
        rep_dom = property_report(f.dom_action)
        rep_cod = property_report(f.cod_action)
        for name in INVARIANT_PROPERTIES:
            yield (f"{w.kind}: {name}", rep_dom.verdict(name).value == rep_cod.verdict(name).value)
        if rep_dom.effective.value != rep_cod.effective.value:
            effectiveness_divergences += 1
    if budget.max_group_order >= 4 and budget.max_carrier_size >= 4:
        # the four-element two-reflection action on four points loses
        # effectiveness under its half-turn quotient
        yield ("an effectiveness counterexample occurs", effectiveness_divergences > 0)


def _decomposition(weak_equivalences):
    for w in weak_equivalences:
        dec = decompose(w.functor)
        yield (
            f"{w.kind}: stages compose",
            compose_functors(dec.inclusion.functor, dec.projection.functor) == w.functor.functor,
        )
        if w.kind == "composite" and w.stages:
            projection, inclusion = w.stages
            yield ("recorded projection recovered", dec.quotient.projection.functor == projection.functor)
            yield (
                "recorded inclusion recovered",
                compose_functors(dec.inclusion.functor, dec.middle_iso.functor) == inclusion.functor,
            )


def _equivariant_span_replacement(spans):
    for span, left, right in spans:
        out = equivariant_anafunctorify(span, left, right)
        yield ("witness validates", validate_two_cell(out.witness).ok)
        yield ("middle matches left foot", morita_oracle(out.middle_action.induced, left.induced))


def _generator_soundness(weak_equivalences):
    for w in weak_equivalences:
        yield (w.kind, weak_equivalence_report(w.functor.functor).is_weak_equivalence)


def run_law_suite(budget: InstanceBudget, instances: WorkbenchInstances | None = None) -> SuiteReport:
    """Execute every module's stated laws over the enumerated instances.

    Each law is one entry of the ``laws`` table below: its name and the
    ``(description, ok)`` checks of its generator over its population, cut by
    the named caps.  Failures are data: each failing law carries a minimal
    witness (groupoid witnesses are shrunk by deletion).  Deterministic for a
    fixed budget and seed.
    """
    inst = instances if instances is not None else build_instances(budget)
    wes = inst.weak_equivalences
    comparison, projection, equivariant = _self_pullback_pass(wes)
    spans = [span for span, _, _ in inst.spans]
    cells = [Anafunctor(span.left, span.right) for span in spans if weak_equivalence_report(span.left).is_ssw]
    laws = {
        "core: action groupoids validate": _groupoids_validate(inst.actions, wes),
        "core: whiskers and comparisons validate": comparison,
        "core: iso search symmetric": _iso_search_symmetric([a.induced for a in inst.actions[:ISO_SEARCH_GROUPOIDS]]),
        "morita: three-for-two": _three_for_two(inst.functor_pairs),
        "morita: fully faithful and surjective implies weak equivalence": _ff_surjective_implies_we(inst.functor_pairs),
        "morita: pullback projections keep their class": projection,
        "morita: skeleton invariant preserved": _skeleton_preserved(wes),
        "morita: factorizations are unique": _factorizations_unique(spans[:FACTORIZATION_SPANS]),
        "localization: normalization idempotent and stable": _normalization_idempotent(cells[:NORMALIZATION_CELLS]),
        "localization: 2-cell equality is an equivalence": _two_cell_equality_equivalence(cells[:CELL_EQUALITY_CELLS]),
        "localization: vertical composition unital and associative": _vertical_composition(
            cells[:VERTICAL_COMPOSITION_CELLS]
        ),
        "localization: strictification and span replacement": _strictify_and_replace(
            spans[:ANAFUNCTORIFY_SPANS], itertools.islice(_composable_spans(spans), STRICTIFIED_COMPOSITES)
        ),
        "equivariant: invariant verdicts agree, effectiveness may differ": _property_invariance(wes, budget),
        "equivariant: decomposition succeeds and retracts": _decomposition(wes),
        "equivariant: pullbacks realize as action groupoids": equivariant,
        "equivariant: spans replace by action-groupoid spans": _equivariant_span_replacement(
            inst.spans[:EQUIVARIANT_REPLACEMENT_SPANS]
        ),
        "workbench: generator soundness": _generator_soundness(wes),
    }
    return SuiteReport(budget, tuple(_law(name, checks) for name, checks in laws.items()))


def _one_point() -> ActionGroupoid:
    """The trivial group acting on one point."""
    return action_groupoid(trivial_group(), ("*",), {("e", "*"): "*"})


def _collapse_to_point(g: FiniteGroupoid, point: ActionGroupoid) -> GroupoidFunctor:
    """The functor from ``g`` onto the one object of ``point`` and its unit arrow."""
    (x,) = point.carrier
    unit = point.arrow_id(point.group.unit, x)
    return GroupoidFunctor(g, point.induced, {y: x for y in g.objects}, {a: unit for a in g.arrows})


def _perturb_diagram(d: TwoCellDiagram) -> TwoCellDiagram:
    """Pre-compose the mediator with a surjective weak equivalence onto it.

    The inflation is the product with a two-object indiscrete groupoid, C2
    swapping two points, so its size is linear in the mediator.
    """
    swap = {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "0"}
    pair = action_groupoid(catalog.cyclic_group(2), ("0", "1"), swap).induced
    point = _one_point()
    doubled = strict_pullback(_collapse_to_point(d.mediator, point), _collapse_to_point(pair, point))
    sigma = doubled.pr1
    return TwoCellDiagram(
        top=d.top,
        bottom=d.bottom,
        to_top=compose_functors(d.to_top, sigma),
        to_bottom=compose_functors(d.to_bottom, sigma),
        left_cell=whisker(d.left_cell, sigma, "right"),
        right_cell=whisker(d.right_cell, sigma, "right"),
    )
