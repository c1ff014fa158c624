"""Seeded input corpus for the ``constructions`` workload.

The generator builds every document itself, from products of cyclic groups
acting on unions of coset spaces, and never imports gpdkit: a change to the
library (its catalog, its constructions, its id rendering) cannot change the
inputs it is measured on.  The seed chooses every label, every declaration
order, the free subgroup to quotient by, the map onto the order-2 foot and the
request order; the shapes, and with them the work, are fixed by ``FAMILIES``
so that runs with different seeds stay comparable.

Each request carries the exit code the library must return, worked out here
from the construction (a quotient by a free normal subgroup is a weak
equivalence, a collapse to a point is one only for a free transitive action,
...), never by asking the library.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import string

QUERY = "query"
CONSTRUCT = "construct"

QUERY_COMMANDS = ("validate", "check-we", "check-properties", "skeleton", "2cells-equal")
CONSTRUCT_COMMANDS = (
    "pullback",
    "compose-ana",
    "compose-gen",
    "decompose",
    "balanced-product",
    "anafunctorify",
    "normalize-2cell",
    "demo-klein",
)

# (moduli of the abelian group, stabilizer generators of each orbit, generator
# of the free subgroup to quotient by).  A stabilizer [] is the regular orbit.
FAMILIES = (
    ((2, 4), ([],), (1, 0)),
    ((2, 4), ([], [(0, 2)]), (1, 0)),
    ((2, 2), ([], [(0, 1)]), (1, 0)),
    ((6,), ([], [(2,)]), (3,)),
    ((3, 3), ([(0, 1)],), (1, 0)),
    ((2, 2, 2), ([(0, 0, 1)], [(0, 1, 0)]), (1, 0, 0)),
)
# (big group, inner subgroup generators, stabilizer generators of each inner orbit)
BALANCED = (
    ((2, 4), [(0, 1)], ([], [(0, 2)])),
    ((2, 2, 2), [(1, 0, 0), (0, 1, 0)], ([], [(1, 0, 0)])),
    ((6,), [(2,)], ([],)),
)
# 2-cell normalization builds pullbacks over pullbacks, so these stay small;
# the 2-cell calculus at scale is the suite-sampled workload's job
CELLS = (
    ((2, 2), ([(0, 1)],), (1, 0)),
    ((2, 2), ([(1, 0)],), (0, 1)),
)
# weak pullbacks (and anafunctorify, which builds one over the left foot) are
# quadratic in the arrows and write documents of tens of megabytes beyond
# these sizes, which would make a few requests the whole workload
WEAK_PULLBACK_ARROWS = 24
# the strict pullback over the one-object foot has half the squared arrows
STRICT_OVER_FOOT_ARROWS = 64
COMPOSE_GEN_ARROWS = 32
ANAFUNCTORIFY_ARROWS = 48
EQUIVARIANT_ANAFUNCTORIFY_ARROWS = 12


class Group:
    """A product of cyclic groups, elements as tuples, with seeded labels."""

    def __init__(self, moduli, elements, labels):
        self.moduli = tuple(moduli)
        self.elements = list(elements)
        self.labels = labels

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def unit(self):
        return tuple(0 for _ in self.moduli)

    def span(self, gens):
        members = {self.unit()}
        frontier = [self.unit()]
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = self.add(a, tuple(g))
                if b not in members:
                    members.add(b)
                    frontier.append(b)
        return frozenset(members)

    def payload(self):
        lab = self.labels
        return {
            "elements": [lab[a] for a in self.elements],
            "mul": [[lab[a], lab[b], lab[self.mul(a, b)]] for a in self.elements for b in self.elements],
            "unit": lab[self.unit()],
        }

    def mul(self, a, b):
        return self.add(a, b)


class QuotientGroup(Group):
    """G/N with least-tuple coset representatives as elements."""

    def __init__(self, big: Group, normal, labels):
        self.big = big
        self.normal = normal
        reps = sorted({self.canon(g) for g in big.elements})
        super().__init__(big.moduli, reps, labels)

    def canon(self, g):
        return min(self.big.add(g, n) for n in self.normal)

    def mul(self, a, b):
        return self.canon(self.big.add(a, b))

    def unit(self):
        return self.canon(self.big.unit())


class Action:
    """A group acting on a disjoint union of coset spaces G/H_i."""

    def __init__(self, group: Group, stabilizers, labels):
        self.group = group
        self.stabilizers = [frozenset(h) for h in stabilizers]
        self.points = [(i, self.canon(i, g)) for i, h in enumerate(self.stabilizers) for g in group.elements]
        self.points = list(dict.fromkeys(self.points))
        self.labels = labels

    def canon(self, i, g):
        return min(self.group.mul(g, h) for h in self.stabilizers[i])

    def act(self, g, x):
        i, r = x
        return (i, self.canon(i, self.group.mul(g, r)))

    def doc(self):
        glab, plab = self.group.labels, self.labels
        return {
            "kind": "action_groupoid",
            "group": self.group.payload(),
            "set": [plab[x] for x in self.points],
            "action": [[glab[g], plab[x], plab[self.act(g, x)]] for g in self.group.elements for x in self.points],
        }

    def arrow(self, g, x):
        return arrow_id(self.group.labels[g], self.labels[x])

    def arrow_count(self):
        return len(self.group.elements) * len(self.points)

    def free(self):
        return all(len(h) == 1 for h in self.stabilizers)

    def transitive(self):
        return len(self.stabilizers) == 1

    def effective(self):
        return len(frozenset.intersection(*self.stabilizers)) == 1

    def groupoid_doc(self):
        """The action groupoid written out as a plain ``groupoid`` document."""
        g_el, pts = self.group.elements, self.points
        arrows = [(g, x) for g in g_el for x in pts]
        zero = self.group.unit()
        inverse = {g: next(h for h in g_el if self.group.mul(g, h) == zero) for g in g_el}
        return {
            "kind": "groupoid",
            "objects": [self.labels[x] for x in pts],
            "arrows": [
                {"id": self.arrow(g, x), "src": self.labels[x], "tgt": self.labels[self.act(g, x)]}
                for g, x in arrows
            ],
            "compose": [
                [self.arrow(g2, self.act(g1, x)), self.arrow(g1, x), self.arrow(self.group.mul(g2, g1), x)]
                for g2 in g_el
                for g1, x in arrows
            ],
            "identity": {self.labels[x]: self.arrow(zero, x) for x in pts},
            "inverse": {self.arrow(g, x): self.arrow(inverse[g], self.act(g, x)) for g, x in arrows},
        }


def arrow_id(g_label: str, x_label: str) -> str:
    """The documented id ``(g,x)`` of the arrow g: x -> g.x of an action groupoid."""
    return f"({g_label},{x_label})"


class Labels:
    """Unique seeded four-letter labels; none contains a separator character."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            label = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(4))
            if label not in self.used:
                self.used.add(label)
                return label

    def for_keys(self, keys) -> dict:
        return {k: self.fresh() for k in keys}


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _group(rng, labels: Labels, moduli) -> Group:
    elements = list(itertools.product(*(range(m) for m in moduli)))
    zero = elements[0]
    # the unit is declared first, like every built-in group; the rest is seeded
    order = [zero] + _shuffled(rng, elements[1:])
    return Group(moduli, order, labels.for_keys(order))


def _action(rng, labels: Labels, group: Group, stabilizer_gens) -> Action:
    stabs = [group.span(gens) for gens in stabilizer_gens]
    a = Action(group, stabs, {})
    a.points = _shuffled(rng, a.points)
    a.labels = labels.for_keys(a.points)
    return a


def _quotient(rng, labels: Labels, a: Action, normal) -> tuple[Action, dict, dict]:
    """The quotient action by a free subgroup, with the projection's maps."""
    qgroup = QuotientGroup(a.group, normal, {})
    qgroup.elements = [qgroup.unit()] + _shuffled(rng, [e for e in qgroup.elements if e != qgroup.unit()])
    qgroup.labels = labels.for_keys(qgroup.elements)
    q = Action(qgroup, [frozenset(qgroup.canon(s) for s in h) for h in a.stabilizers], {})
    q.points = _shuffled(rng, q.points)
    q.labels = labels.for_keys(q.points)
    group_hom = {g: qgroup.canon(g) for g in a.group.elements}
    obj_map = {x: (x[0], q.canon(x[0], qgroup.canon(x[1]))) for x in a.points}
    return q, group_hom, obj_map


def _functor_doc(dom_name, cod_name, dom: Action, cod: Action, group_hom, obj_map) -> dict:
    return {
        "kind": "functor",
        "dom": dom_name,
        "cod": cod_name,
        "obj_map": {dom.labels[x]: cod.labels[obj_map[x]] for x in dom.points},
        "arr_map": {
            dom.arrow(g, x): cod.arrow(group_hom[g], obj_map[x]) for g in dom.group.elements for x in dom.points
        },
        "equivariant": {"group_hom": {dom.group.labels[g]: cod.group.labels[group_hom[g]] for g in dom.group.elements}},
    }


def _point(labels: Labels) -> Action:
    group = Group((1,), [(0,)], labels.for_keys([(0,)]))
    a = Action(group, [group.span([])], {})
    a.labels = labels.for_keys(a.points)
    return a


def _free_subgroup(rng, group: Group, stabs, gen) -> frozenset:
    """The subgroup generated by ``gen`` or, seeded, one of the same order acting freely."""
    want = len(group.span([gen]))
    options = []
    for g in group.elements:
        sub = group.span([g])
        if len(sub) == want and all(len(sub & h) == 1 for h in stabs) and sub not in options:
            options.append(sub)
    return rng.choice(sorted(options, key=sorted))


def _order_two_foot(rng, labels: Labels, group: Group):
    """The one-object groupoid of Z/2, with a seeded map of ``group`` onto it."""
    k = _group(rng, labels, (2,))
    foot = Action(k, [k.span([(1,)])], {})
    foot.labels = labels.for_keys(foot.points)
    onto = [
        coeffs
        for coeffs in itertools.product((0, 1), repeat=len(group.moduli))
        if any(coeffs) and all(c == 0 or m % 2 == 0 for c, m in zip(coeffs, group.moduli))
    ]
    # a group of odd order has only the trivial map
    coeffs = rng.choice(onto) if onto else (0,) * len(group.moduli)
    rho = {g: (sum(c * x for c, x in zip(coeffs, g)) % 2,) for g in group.elements}
    return foot, rho


class Corpus:
    """Bundles (name -> document) and requests for one seed."""

    def __init__(self):
        self.bundles: dict[str, dict] = {}
        self.requests: list[dict] = []

    def add_bundle(self, name: str, documents: dict) -> str:
        self.bundles[name] = {"kind": "bundle", "documents": documents}
        return name

    def request(self, cls: str, command: list, bundle: str | None, expect: int):
        self.requests.append({"class": cls, "command": command, "bundle": bundle, "expect": expect})

    def files(self) -> dict[str, bytes]:
        """Every generated file, canonical JSON, keyed by file name."""
        out = {f"{name}.json": _canonical(doc) for name, doc in self.bundles.items()}
        out["requests.json"] = _canonical({"requests": self.requests})
        return out

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, data in sorted(self.files().items()):
            h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        return "sha256:" + h.hexdigest()


def _canonical(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _family_bundle(rng, corpus: Corpus, index: int, moduli, stab_gens, normal_gen):
    labels = Labels(rng)
    group = _group(rng, labels, moduli)
    a = _action(rng, labels, group, stab_gens)
    normal = _free_subgroup(rng, group, a.stabilizers, normal_gen)
    q, hom, obj = _quotient(rng, labels, a, normal)
    pt = _point(labels)
    collapse_hom = {g: (0,) for g in group.elements}
    collapse_obj = {x: pt.points[0] for x in a.points}
    foot, rho = _order_two_foot(rng, labels, group)
    right_obj = {x: foot.points[0] for x in a.points}
    # a second span B <- A2 -> B: Z/2 x Z/2 acts on two points through its
    # second factor, and keeping the first factor is a surjective weak
    # equivalence onto B
    g2 = _group(rng, labels, (2, 2))
    a2 = _action(rng, labels, g2, ([(1, 0)],))
    hom2 = {g: (g[0],) for g in g2.elements}
    obj2 = {x: foot.points[0] for x in a2.points}
    docs = {
        "A": a.doc(),
        "Q": q.doc(),
        "P": pt.doc(),
        "B": foot.doc(),
        "A2": a2.doc(),
        "proj": _functor_doc("A", "Q", a, q, hom, obj),
        "collapse": _functor_doc("A", "P", a, pt, collapse_hom, collapse_obj),
        "R": _functor_doc("A", "B", a, foot, rho, right_obj),
        "proj2": _functor_doc("A2", "B", a2, foot, hom2, obj2),
        "s1": {"kind": "span", "left": "proj", "right": "R"},
        "s2": {"kind": "span", "left": "proj2", "right": "proj2"},
    }
    name = corpus.add_bundle(f"family{index}", docs)
    collapse_we = a.free() and a.transitive()
    props_ok = a.free() and a.transitive() and a.effective()
    arrows = a.arrow_count()
    corpus.request(QUERY, ["validate", name], name, 0)
    corpus.request(QUERY, ["check-we", name, "proj"], name, 0)
    corpus.request(QUERY, ["check-we", name, "collapse"], name, 0 if collapse_we else 1)
    corpus.request(QUERY, ["check-properties", name, "A", "--props", "free,transitive,effective"], name, 0 if props_ok else 1)
    corpus.request(QUERY, ["skeleton", name, "A"], name, 0)
    corpus.request(QUERY, ["skeleton", name, "Q"], name, 0)
    corpus.request(CONSTRUCT, ["decompose", name, "proj"], name, 0)
    corpus.request(CONSTRUCT, ["pullback", "--mode", "strict", name, "proj", "proj"], name, 0)
    corpus.request(CONSTRUCT, ["compose-ana", name, "s1", "s2"], name, 0)
    if arrows <= STRICT_OVER_FOOT_ARROWS:
        corpus.request(CONSTRUCT, ["pullback", "--mode", "strict", name, "R", "R"], name, 0)
    if arrows <= ANAFUNCTORIFY_ARROWS:
        corpus.request(CONSTRUCT, ["anafunctorify", name, "s1"], name, 0)
    if arrows <= WEAK_PULLBACK_ARROWS:
        corpus.request(CONSTRUCT, ["pullback", "--mode", "weak", name, "proj", "proj"], name, 0)
    if arrows <= COMPOSE_GEN_ARROWS:
        corpus.request(CONSTRUCT, ["compose-gen", name, "s1", "s2"], name, 0)


def _balanced_bundle(rng, corpus: Corpus, index: int, moduli, inner_gens, stab_gens):
    labels = Labels(rng)
    big = _group(rng, labels, moduli)
    members = big.span(inner_gens)
    inner_group = Group(moduli, [e for e in big.elements if e in members], big.labels)
    inner = _action(rng, labels, inner_group, stab_gens)
    # G x_H (H/K) is G/K for abelian G: the inclusion sends hK to hK
    outer = _action(rng, labels, big, stab_gens)
    incl_obj = {x: (x[0], outer.canon(x[0], x[1])) for x in inner.points}
    docs = {
        "G": {"kind": "group", **big.payload()},
        "I": inner.doc(),
        "Z": outer.doc(),
        "incl": _functor_doc("I", "Z", inner, outer, {g: g for g in inner_group.elements}, incl_obj),
        "s3": {"kind": "span", "left": "incl", "right": "incl"},
    }
    name = corpus.add_bundle(f"balanced{index}", docs)
    corpus.request(QUERY, ["validate", name], name, 0)
    corpus.request(QUERY, ["check-we", name, "incl"], name, 0)
    corpus.request(CONSTRUCT, ["balanced-product", name, "G", "I"], name, 0)
    corpus.request(CONSTRUCT, ["decompose", name, "incl"], name, 0)
    if inner.arrow_count() <= EQUIVARIANT_ANAFUNCTORIFY_ARROWS:
        corpus.request(CONSTRUCT, ["anafunctorify", name, "s3"], name, 0)
        corpus.request(CONSTRUCT, ["anafunctorify", name, "s3", "--equivariant"], name, 0)


def _cell_bundle(rng, corpus: Corpus, index: int, moduli, stab_gens, normal_gen):
    labels = Labels(rng)
    group = _group(rng, labels, moduli)
    a = _action(rng, labels, group, stab_gens)
    normal = _free_subgroup(rng, group, a.stabilizers, normal_gen)
    q, hom, obj = _quotient(rng, labels, a, normal)
    foot, rho = _order_two_foot(rng, labels, group)
    right_obj = {x: foot.points[0] for x in a.points}
    identity = {
        "kind": "functor",
        "dom": "A",
        "cod": "A",
        "obj_map": {a.labels[x]: a.labels[x] for x in a.points},
        "arr_map": {a.arrow(g, x): a.arrow(g, x) for g in group.elements for x in a.points},
    }
    unit_q = q.group.unit()
    unit_k = foot.group.unit()
    flip_k = next(k for k in foot.group.elements if k != unit_k)

    def cell(right_element):
        # the identity 2-cell of the anafunctor (proj, R); with the non-unit
        # element of the abelian foot group in every right component it is
        # still natural, but a different 2-cell
        return {
            "kind": "two_cell_diagram",
            "top": "s1",
            "bottom": "s1",
            "mediator": "A",
            "alpha": identity,
            "alpha_prime": identity,
            "eta1": {"component": {a.labels[x]: q.arrow(unit_q, obj[x]) for x in a.points}},
            "eta2": {"component": {a.labels[x]: foot.arrow(right_element, foot.points[0]) for x in a.points}},
        }

    docs = {
        "A": a.doc(),
        "Q": q.doc(),
        "B": foot.doc(),
        "proj": _functor_doc("A", "Q", a, q, hom, obj),
        "R": _functor_doc("A", "B", a, foot, rho, right_obj),
        "s1": {"kind": "span", "left": "proj", "right": "R"},
        "cell": cell(unit_k),
        "twisted": cell(flip_k),
    }
    name = corpus.add_bundle(f"cells{index}", docs)
    corpus.request(QUERY, ["validate", name], name, 0)
    corpus.request(QUERY, ["2cells-equal", name, "cell", "cell"], name, 0)
    corpus.request(QUERY, ["2cells-equal", name, "cell", "twisted"], name, 1)
    corpus.request(CONSTRUCT, ["normalize-2cell", name, "cell"], name, 0)
    corpus.request(CONSTRUCT, ["normalize-2cell", name, "twisted"], name, 0)


def _broken_bundle(rng, corpus: Corpus, index: int):
    """A groupoid whose composition breaks the unit law at one seeded entry."""
    labels = Labels(rng)
    group = _group(rng, labels, (2, 2))
    a = _action(rng, labels, group, ([(1, 0)], []))
    doc = a.groupoid_doc()
    zero = group.unit()
    # hom-sets on the first orbit have two arrows, so g*1 can be made another arrow
    x = next(p for p in a.points if p[0] == 0)
    g = rng.choice([h for h in group.elements if h != zero])
    other = next(h for h in group.elements if h != g and a.act(h, x) == a.act(g, x))
    for row in doc["compose"]:
        if row[0] == a.arrow(g, x) and row[1] == a.arrow(zero, x):
            row[2] = a.arrow(other, x)
    name = corpus.add_bundle(f"broken{index}", {"H": doc})
    corpus.request(QUERY, ["validate", name], name, 1)


def generate(seed: int) -> Corpus:
    """The whole corpus for ``seed``; the same seed gives the same bytes."""
    rng = random.Random(seed)
    corpus = Corpus()
    for i, spec in enumerate(FAMILIES):
        _family_bundle(rng, corpus, i, *spec)
    for i, spec in enumerate(BALANCED):
        _balanced_bundle(rng, corpus, i, *spec)
    for i, spec in enumerate(CELLS):
        _cell_bundle(rng, corpus, i, *spec)
    for i in range(2):
        _broken_bundle(rng, corpus, i)
    corpus.request(CONSTRUCT, ["demo-klein"], None, 0)
    rng.shuffle(corpus.requests)
    for i, req in enumerate(corpus.requests):
        req["id"] = i
    return corpus
