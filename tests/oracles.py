"""Independent brute-force oracles, kept free of the library's own code paths.

Each oracle restates a definition in its most literal form (double loops over
the categorical definition) so that test expectations are computed along a
different route than the implementation under test.
"""

from __future__ import annotations

import itertools


def oracle_essentially_surjective(phi) -> bool:
    """Every codomain object receives an arrow from an object in the image."""
    h = phi.cod
    for y in h.objects:
        hit = False
        for x in phi.dom.objects:
            for a in h.arrows:
                if h.src[a] == y and h.tgt[a] == phi.obj_map[x]:
                    hit = True
        if not hit:
            return False
    return True


def oracle_fully_faithful(phi) -> bool:
    """hom(x, x') maps bijectively onto hom(phi x, phi x') for every pair."""
    g, h = phi.dom, phi.cod
    for x in g.objects:
        for x2 in g.objects:
            dom_hom = [a for a in g.arrows if g.src[a] == x and g.tgt[a] == x2]
            cod_hom = [b for b in h.arrows if h.src[b] == phi.obj_map[x] and h.tgt[b] == phi.obj_map[x2]]
            images = [phi.arr_map[a] for a in dom_hom]
            if sorted(images) != sorted(cod_hom):
                return False
            if len(set(images)) != len(images):
                return False
    return True


def oracle_weak_equivalence(phi) -> bool:
    return oracle_essentially_surjective(phi) and oracle_fully_faithful(phi)


def oracle_surjective_weak_equivalence(phi) -> bool:
    return oracle_weak_equivalence(phi) and set(phi.obj_map.values()) == set(phi.cod.objects)


def oracle_components(g) -> list[frozenset]:
    """Connected components of the objects under the arrow relation."""
    remaining = set(g.objects)
    out = []
    while remaining:
        seed = next(x for x in g.objects if x in remaining)
        comp = {seed}
        changed = True
        while changed:
            changed = False
            for a in g.arrows:
                if g.src[a] in comp and g.tgt[a] not in comp:
                    comp.add(g.tgt[a])
                    changed = True
                if g.tgt[a] in comp and g.src[a] not in comp:
                    comp.add(g.src[a])
                    changed = True
        out.append(frozenset(comp))
        remaining -= comp
    return out


def oracle_tuple_compose(ids, src, tgt, compose) -> dict:
    """``tuple_groupoid``'s compose table filled one pair at a time.

    ``ids`` maps arrow keys to ids in declaration order, and ``compose(after,
    first)`` is the key of one composite: for each first arrow in order, each
    after arrow out of its target in order gets ``compose(after, first)``."""
    leaving: dict = {}
    for a in ids:
        leaving.setdefault(src(a), []).append(a)
    return {(ids[a2], ids[a1]): ids[compose(a2, a1)] for a1 in ids for a2 in leaving.get(tgt(a1), ())}


def oracle_action_compose(action) -> dict:
    """The action groupoid's table by :func:`oracle_tuple_compose`: (h, g·x) ∘ (g, x) = (hg, x)."""
    mul = action.group.mul
    return oracle_tuple_compose(
        action.arrow_ids, lambda a: a[1], lambda a: action.act[a], lambda q, p: (mul[(q[0], p[0])], p[1])
    )


def oracle_strict_pullback_compose(phi, psi, pullback) -> dict:
    """The strict pullback's table by :func:`oracle_tuple_compose`: pairs compose pairwise."""
    g, h = phi.dom, psi.dom
    return oracle_tuple_compose(
        pullback.arrow_ids,
        lambda p: (g.src[p[0]], h.src[p[1]]),
        lambda p: (g.tgt[p[0]], h.tgt[p[1]]),
        lambda q, p: (g.compose[(q[0], p[0])], h.compose[(q[1], p[1])]),
    )


def oracle_weak_pullback_compose(phi, psi, pullback) -> dict:
    """The weak pullback's table by :func:`oracle_tuple_compose`: (u, k', v) ∘ (a, k, b) = (u∘a, k, v∘b)."""
    g, h, k = phi.dom, psi.dom, phi.cod

    def moved(t):
        return k.compose[(psi.arr_map[t[2]], k.compose[(t[1], k.inv[phi.arr_map[t[0]]])])]

    return oracle_tuple_compose(
        pullback.arrow_ids,
        lambda t: (g.src[t[0]], t[1], h.src[t[2]]),
        lambda t: (g.tgt[t[0]], moved(t), h.tgt[t[2]]),
        lambda u, t: (g.compose[(u[0], t[0])], t[1], h.compose[(u[2], t[2])]),
    )


def oracle_validate_groupoid(g) -> list[tuple]:
    """``validate_groupoid``'s violations as ``(axiom, witness)`` pairs, by a
    scan of every object, every pair and every triple of declared arrows
    against a plain copy of the compose table: unit endpoints, then entries
    at pairs that do not compose, composable pairs with no entry, entries
    with the wrong endpoints, triples whose bracketings differ or are
    undefined, and the unit and inverse laws at each arrow."""
    table = dict(g.compose)
    arrows, src, tgt, unit, inv = g.arrows, g.src, g.tgt, g.unit, g.inv
    out = [("unit-endpoints", (x, unit[x])) for x in g.objects if (src[unit[x]], tgt[unit[x]]) != (x, x)]
    out += [("composability", (a2, a1)) for a2, a1 in table if src[a2] != tgt[a1]]
    out += [
        ("totality", (a2, a1))
        for a1 in arrows
        for a2 in arrows
        if src[a2] == tgt[a1] and (a2, a1) not in table
    ]
    out += [
        ("composite-endpoints", (a2, a1, a3))
        for (a2, a1), a3 in table.items()
        if src[a3] != src[a1] or tgt[a3] != tgt[a2]
    ]
    for a1 in arrows:
        for a2 in arrows:
            if src[a2] != tgt[a1] or (a2, a1) not in table:
                continue
            for a3 in arrows:
                if src[a3] == tgt[a2]:
                    left = table.get((a3, table[(a2, a1)]))
                    right = table.get((table.get((a3, a2)), a1))
                    if left is None or left != right:
                        out.append(("associativity", (a3, a2, a1)))
    for a in arrows:
        if table.get((a, unit[src[a]])) != a:
            out.append(("right-unit", (a,)))
        if table.get((unit[tgt[a]], a)) != a:
            out.append(("left-unit", (a,)))
        if table.get((inv[a], a)) != unit[src[a]]:
            out.append(("left-inverse", (a,)))
        if table.get((a, inv[a])) != unit[tgt[a]]:
            out.append(("right-inverse", (a,)))
    return out


def oracle_validate_functor(f) -> list[tuple]:
    """``validate_functor``'s violations as ``(axiom, witness)`` pairs, by a scan
    of every arrow, every object and every entry of the domain's table."""
    dom, cod = f.dom, f.cod
    out = []
    for a in dom.arrows:
        b = f.arr_map[a]
        if cod.src[b] != f.obj_map[dom.src[a]] or cod.tgt[b] != f.obj_map[dom.tgt[a]]:
            out.append(("endpoint preservation", (a, b)))
    for x in dom.objects:
        if f.arr_map[dom.unit[x]] != cod.unit[f.obj_map[x]]:
            out.append(("unit preservation", (x,)))
    for a in dom.arrows:
        if f.arr_map[dom.inv[a]] != cod.inv[f.arr_map[a]]:
            out.append(("inverse preservation", (a,)))
    for (a2, a1), a3 in dom.compose.items():
        if cod.compose.get((f.arr_map[a2], f.arr_map[a1])) != f.arr_map[a3]:
            out.append(("composition preservation", (a2, a1)))
    return out


def oracle_validate_nat_trans(eta) -> list[tuple]:
    """``validate_nat_trans``'s violations as ``(axiom, witness)`` pairs: each
    component's endpoints, then the square of each domain arrow, from a plain
    copy of the codomain's compose table."""
    source, target, component = eta.source, eta.target, eta.component
    if source.dom != target.dom or source.cod != target.cod:
        return [("parallelism", ())]
    dom, cod = source.dom, source.cod
    table = dict(cod.compose)
    out = []
    for z in dom.objects:
        c = component[z]
        if (cod.src[c], cod.tgt[c]) != (source.obj_map[z], target.obj_map[z]):
            out.append(("endpoints", (z, c)))
    for a in dom.arrows:
        down_then_across = (component[dom.tgt[a]], source.arr_map[a])
        across_then_down = (target.arr_map[a], component[dom.src[a]])
        if down_then_across not in table or table.get(across_then_down) != table[down_then_across]:
            out.append(("naturality", (a,)))
    return out


def oracle_validate_group(g) -> list[tuple]:
    """``validate_group``'s violations as ``(axiom, witness)`` pairs: every
    triple in order, then the unit and inverse laws at each element."""
    mul = g.mul
    out = [
        ("associativity", (a, b, c))
        for a in g.elements
        for b in g.elements
        for c in g.elements
        if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]
    ]
    for a in g.elements:
        if mul[(g.unit, a)] != a or mul[(a, g.unit)] != a:
            out.append(("unit", (a,)))
        b = g.inv[a]
        if b not in g.elements or mul[(b, a)] != g.unit or mul[(a, b)] != g.unit:
            out.append(("inverse", (a,)))
    return out


def oracle_action_axiom_error(group, carrier, act) -> str | None:
    """The message ``action_groupoid`` raises for a total table ``act``, from
    a scan of every point, then of every (g1, g2, x) in order; None for an action."""
    for x in carrier:
        if act[(group.unit, x)] != x:
            return f"unit must act trivially, moves {x!r}"
    for g1 in group.elements:
        for g2 in group.elements:
            for x in carrier:
                if act[(g1, act[(g2, x)])] != act[(group.mul[(g1, g2)], x)]:
                    return f"action not compatible with multiplication at ({g1!r}, {g2!r}, {x!r})"
    return None


def oracle_action_groupoid(group, carrier, act):
    """``action_groupoid`` built one key at a time: the axioms by ordered
    scans, each raising what ``action_groupoid`` raises, then every id,
    endpoint, unit, inverse and composite looked up by its arrow key."""
    from gpdkit.core import (
        ActionAxiomError,
        ActionGroupoid,
        DanglingIdError,
        FiniteGroupoid,
        PreconditionError,
        RowTable,
    )

    carrier = tuple(carrier)
    for i, x in enumerate(carrier):
        if x in carrier[:i]:
            raise DanglingIdError(f"duplicate carrier point id {x!r}")
    for g in group.elements:
        for x in carrier:
            if (g, x) not in act:
                raise DanglingIdError(f"action table is missing ({g!r}, {x!r})")
            if act[(g, x)] not in carrier:
                raise DanglingIdError(f"action value act[({g!r}, {x!r})] is undeclared")
    message = oracle_action_axiom_error(group, carrier, act)
    if message is not None:
        raise ActionAxiomError(message)
    ids = {(g, x): "(" + g + "," + x + ")" for g in group.elements for x in carrier}
    if len(set(ids.values())) != len(ids):
        clash = next(i for i in ids.values() if list(ids.values()).count(i) > 1)
        raise PreconditionError(f"tuple_groupoid: two distinct arrow keys have the id {clash!r}")
    src = {i: x for (g, x), i in ids.items()}
    tgt = {i: act[key] for key, i in ids.items()}
    out: dict = {}
    for i in ids.values():
        out.setdefault(src[i], []).append(i)
    pairs = {i: key for key, i in ids.items()}
    # (h, g·x) ∘ (g, x) = (hg, x), for each arrow (h, g·x) out of g·x in order
    rows = {
        i: [ids[(group.mul[(pairs[after][0], g)], x)] for after in out[act[(g, x)]]]
        for (g, x), i in ids.items()
    }
    induced = FiniteGroupoid(
        objects=carrier,
        arrows=tuple(ids.values()),
        src=src,
        tgt=tgt,
        compose=RowTable(rows, out, src, tgt),
        unit={x: ids[(group.unit, x)] for x in carrier},
        inv={i: ids[(group.inv[g], act[(g, x)])] for (g, x), i in ids.items()},
    )
    gens = oracle_generating_sequence(group) or (group.unit,)
    object.__setattr__(induced, "_kept_generators", tuple(ids[(s, x)] for s in gens for x in carrier))
    return ActionGroupoid(group, carrier, act, induced, pairs, ids)


def oracle_closure(group, seed) -> tuple:
    """The subgroup generated by ``seed``, in declaration order: new elements
    are multiplied by every member on both sides until nothing new appears."""
    members = {group.unit}
    frontier = [group.unit] + [a for a in seed if a not in members]
    members.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (group.mul[(a, b)], group.mul[(b, a)]):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(a for a in group.elements if a in members)


def oracle_generating_sequence(group) -> tuple:
    """Each element, in declaration order, outside the closure of those before it."""
    gens = []
    for a in group.elements:
        if a not in oracle_closure(group, gens):
            gens.append(a)
    return tuple(gens)


def oracle_orbit(action, x) -> frozenset:
    return frozenset(action.act[(g, x)] for g in action.group.elements)


def oracle_stabilizer(action, x) -> frozenset:
    return frozenset(g for g in action.group.elements if action.act[(g, x)] == x)


def oracle_effective(action) -> bool:
    for g in action.group.elements:
        if g == action.group.unit:
            continue
        if all(action.act[(g, x)] == x for x in action.carrier):
            return False
    return True


def oracle_all_transformations(source, target):
    """Every per-object arrow assignment with the right endpoints (generator)."""
    import itertools

    cod = source.cod
    per_object = []
    for z in source.dom.objects:
        per_object.append(
            [
                a
                for a in cod.arrows
                if cod.src[a] == source.obj_map[z] and cod.tgt[a] == target.obj_map[z]
            ]
        )
    for combo in itertools.product(*per_object):
        yield dict(zip(source.dom.objects, combo))


def oracle_natural(source, target, component) -> bool:
    dom, cod = source.dom, source.cod
    for a in dom.arrows:
        z, z2 = dom.src[a], dom.tgt[a]
        left = cod.compose.get((component[z2], source.arr_map[a]))
        right = cod.compose.get((target.arr_map[a], component[z]))
        if left is None or left != right:
            return False
    return True


def oracle_normalize_two_cell(d):
    """Normal-form transformation of a 2-cell diagram, built through pullbacks.

    The reference construction the library's per-object formula replaced:
    pull the mediator back over the strict pullback of the left legs (weak
    pullback), factor the left-foot data through the fully faithful bottom
    left leg, then factor the right-foot composite through the surjective
    projection of the weak pullback.
    """
    from gpdkit.core import compose_functors, inverse_transformation, vertical_compose_nat, whisker
    from gpdkit.localization import as_anafunctor
    from gpdkit.morita import coff_factorize, ff_factorize, strict_pullback, weak_pullback

    top, bottom = as_anafunctor(d.top), as_anafunctor(d.bottom)
    pb = strict_pullback(top.left, bottom.left)
    lifted = weak_pullback(pb.pr1, d.to_top)  # pr1 -> pullback apex, pr3 -> mediator
    mid = ff_factorize(
        bottom.left,
        compose_functors(pb.pr2, lifted.pr1),
        compose_functors(d.to_bottom, lifted.pr3),
        vertical_compose_nat(
            whisker(d.left_cell, lifted.pr3, "right"),
            whisker(lifted.comparison, top.left, "left"),
        ),
    )
    composite = vertical_compose_nat(
        whisker(inverse_transformation(mid), bottom.right, "left"),
        vertical_compose_nat(
            whisker(d.right_cell, lifted.pr3, "right"),
            whisker(lifted.comparison, top.right, "left"),
        ),
    )
    return coff_factorize(
        lifted.pr1,
        compose_functors(top.right, pb.pr1),
        compose_functors(bottom.right, pb.pr2),
        composite,
    )


def oracle_compose_rows(g) -> list[list[str]]:
    """The ``compose`` rows of a groupoid document: every ordered pair of declared arrows, tested."""
    return [[a2, a1, g.compose[(a2, a1)]] for a2 in g.arrows for a1 in g.arrows if (a2, a1) in g.compose]


def oracle_arrow_rows(g) -> list[dict]:
    """The ``arrows`` rows of a groupoid document: one ``{id, src, tgt}`` object per declared arrow."""
    return [{"id": a, "src": g.src[a], "tgt": g.tgt[a]} for a in g.arrows]


def oracle_associativity(g) -> list[tuple]:
    """Witnesses ``(a3, a2, a1)`` of every composable triple whose two
    bracketings differ or are undefined, in the order ``validate_groupoid``
    lists them: ``a1`` in declaration order, then each ``a2`` out of its
    target with ``a2 ∘ a1`` in the table, then each ``a3`` out of the target
    of ``a2``."""
    out = []
    for a1 in g.arrows:
        for a2 in g.arrows:
            if g.src[a2] != g.tgt[a1] or (a2, a1) not in g.compose:
                continue
            for a3 in g.arrows:
                if g.src[a3] != g.tgt[a2]:
                    continue
                left = g.compose.get((a3, g.compose[(a2, a1)]))
                right = g.compose.get((g.compose.get((a3, a2)), a1))
                if left is None or left != right:
                    out.append((a3, a2, a1))
    return out


def oracle_actions_of_group(group, max_size: int) -> list[dict]:
    """Action tables of ``group`` on carriers of size 1..max_size, up to relabeling.

    The brute-force search the library's enumeration by orbit type replaced:
    every tuple of generator images in the symmetric group is closed into a
    candidate homomorphism, and each table found is relabeled every way to
    find the least.  Returns the ``act`` dicts, carrier by carrier, in
    sorted table order.
    """
    import itertools

    from gpdkit.core import _generating_sequence

    out = []
    gens = _generating_sequence(group)
    for size in range(1, max_size + 1):
        carrier = tuple(f"p{i}" for i in range(size))
        perms = list(itertools.permutations(range(size)))
        identity = tuple(range(size))

        def compose_perm(p, q):
            return tuple(p[q[i]] for i in range(size))

        tables = []
        for images in itertools.product(perms, repeat=len(gens)):
            gen_map = dict(zip(gens, images))
            mapping = {group.unit: identity}
            frontier = [group.unit]
            ok = True
            while frontier and ok:
                nxt = []
                for a in frontier:
                    for x, p in gen_map.items():
                        c = group.mul[(x, a)]
                        img = compose_perm(p, mapping[a])
                        if c in mapping:
                            if mapping[c] != img:
                                ok = False
                                break
                        else:
                            mapping[c] = img
                            nxt.append(c)
                    if not ok:
                        break
                frontier = nxt
            if not ok or len(mapping) != group.order:
                continue
            if any(
                compose_perm(mapping[a], mapping[b]) != mapping[group.mul[(a, b)]]
                for a in group.elements
                for b in group.elements
            ):
                continue
            tables.append(tuple(mapping[g] for g in group.elements))
        canonical = set()
        for table in tables:
            best = None
            for sigma in perms:
                inv_sigma = [0] * size
                for i, j in enumerate(sigma):
                    inv_sigma[j] = i
                relabeled = tuple(tuple(sigma[row[inv_sigma[i]]] for i in range(size)) for row in table)
                if best is None or relabeled < best:
                    best = relabeled
            canonical.add(best)
        for table in sorted(canonical):
            out.append(
                {(g, carrier[i]): carrier[table[gi][i]] for gi, g in enumerate(group.elements) for i in range(size)}
            )
    return out


def oracle_orbits(action) -> list[tuple]:
    """Orbit partition by a walk over the carrier, as ``core.orbits`` computed it
    before class tables were shared: each unseen point adds its whole orbit."""
    seen = set()
    out = []
    for x in action.carrier:
        if x not in seen:
            hit = {action.act[(g, x)] for g in action.group.elements}
            o = tuple(y for y in action.carrier if y in hit)
            seen.update(o)
            out.append(o)
    return out


def oracle_connected_components(g) -> list[tuple]:
    """Components by breadth-first search from each unseen object, as
    ``connected_components`` computed them before class tables were
    shared; each lists its objects in declaration order."""
    neighbours = {x: set() for x in g.objects}
    for a in g.arrows:
        neighbours[g.src[a]].add(g.tgt[a])
        neighbours[g.tgt[a]].add(g.src[a])
    seen = set()
    out = []
    for x in g.objects:
        if x in seen:
            continue
        comp = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for z in neighbours[y]:
                    if z not in comp:
                        comp.add(z)
                        nxt.append(z)
            frontier = nxt
        seen.update(comp)
        out.append(tuple(y for y in g.objects if y in comp))
    return out


def oracle_groupoid_isomorphic(g, h) -> bool:
    """Some object bijection and arrow bijection preserve endpoints and composites.

    Backtracks over every object bijection, then over arrows in declaration
    order, each sent to an unused arrow between the image endpoints and kept
    only if every composite among the arrows sent so far is preserved.  A
    bijection preserving composites preserves units and inverses as well.
    """
    if len(g.objects) != len(h.objects) or len(g.arrows) != len(h.arrows):
        return False
    for image in itertools.permutations(h.objects):
        obj = dict(zip(g.objects, image))
        arr: dict = {}

        def extend(i: int) -> bool:
            if i == len(g.arrows):
                return True
            a = g.arrows[i]
            for b in h.arrows:
                if b in arr.values() or h.src[b] != obj[g.src[a]] or h.tgt[b] != obj[g.tgt[a]]:
                    continue
                arr[a] = b
                if all(
                    h.compose.get((arr[a2], arr[a1])) == arr[g.compose[(a2, a1)]]
                    for a2 in arr
                    for a1 in arr
                    if (a2, a1) in g.compose and g.compose[(a2, a1)] in arr
                ) and extend(i + 1):
                    return True
                del arr[a]
            return False

        if extend(0):
            return True
    return False


def oracle_decomposition(phi) -> dict:
    """The tables ``equivariant.decompose`` must produce for ``phi``, from the definitions.

    Returns the kernel elements; the middle (image group elements, image
    points, action); the quotient of the domain by the kernel (coset
    representatives, point-orbit representatives, action), each class named
    by its least-index member; and the map from balanced-product classes
    [g, y] = [g * k^-1, k·y] (g in the codomain group, y in the middle, k in
    the image group), named "(g,y)" after their least-index pair, to g·y.
    """
    dom, cod = phi.dom_action, phi.cod_action
    g, h = dom.group, cod.group
    kernel = tuple(a for a in g.elements if phi.group_hom[a] == h.unit)

    image = tuple(b for b in h.elements if any(phi.group_hom[a] == b for a in g.elements))
    points = tuple(y for y in cod.carrier if any(phi.obj_map[x] == y for x in dom.carrier))
    middle_act = {(b, y): cod.act[(b, y)] for b in image for y in points}

    def coset_rep(a):
        for r in g.elements:
            for k in kernel:
                if g.mul[(r, k)] == a:
                    return r

    def orbit_rep(x):
        for p in dom.carrier:
            for k in kernel:
                if dom.act[(k, p)] == x:
                    return p

    reps = tuple(dict.fromkeys(coset_rep(a) for a in g.elements))
    qpoints = tuple(dict.fromkeys(orbit_rep(x) for x in dom.carrier))
    quotient_mul = {(r1, r2): coset_rep(g.mul[(r1, r2)]) for r1 in reps for r2 in reps}
    quotient_act = {(r, p): orbit_rep(dom.act[(r, p)]) for r in reps for p in qpoints}

    pairs = [(b, y) for b in h.elements for y in points]

    def pair_rep(pair):
        b, y = pair
        for c, z in pairs:
            for k in image:
                if c == h.mul[(b, h.inv[k])] and z == cod.act[(k, y)]:
                    return (c, z)

    classes = dict.fromkeys(pair_rep(p) for p in pairs)
    bijection = {f"({b},{y})": cod.act[(b, y)] for b, y in classes}
    return {
        "kernel": kernel,
        "middle": (image, points, middle_act),
        "quotient": (reps, quotient_mul, qpoints, quotient_act),
        "carrier_bijection": bijection,
    }
