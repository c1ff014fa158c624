"""A small catalog of finite groups as explicit multiplication tables.

Covers the cyclic groups of order 1-8, the Klein four-group, the symmetric
group on three letters, the symmetries of a square, and the quaternion group.
Tables are built from first principles (modular addition, permutation
composition, an explicit sign table) with no external algebra system.
"""

from __future__ import annotations

import itertools

from .core import FiniteGroup, closure, direct_product, subgroup


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements r0..r{n-1}, rj * ri = r{(i+j) mod n}."""
    if n < 1:
        raise ValueError("cyclic_group needs n >= 1")
    els = tuple(f"r{i}" for i in range(n))
    mul = {(f"r{i}", f"r{j}"): f"r{(i + j) % n}" for i in range(n) for j in range(n)}
    inv = {f"r{i}": f"r{(-i) % n}" for i in range(n)}
    return FiniteGroup(els, mul, "r0", inv)


def flip_group() -> FiniteGroup:
    """Z/2 with elements e and t."""
    mul = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}
    return FiniteGroup(("e", "t"), mul, "e", {"e": "e", "t": "t"})


def klein_four_group() -> FiniteGroup:
    """Z/2 x Z/2 with elements (e,e), (e,t), (t,e), (t,t)."""
    return direct_product(flip_group(), flip_group())[0]


def _perm_group(points: str, generators: list[str]) -> FiniteGroup:
    """Group of permutations (one-line strings over ``points``) generated by ``generators``."""

    def compose(p: str, q: str) -> str:
        # apply q first, then p
        return "".join(p[points.index(c)] for c in q)

    els = tuple("".join(p) for p in itertools.permutations(points))
    mul = {(p, q): compose(p, q) for p in els for q in els}
    inv = {p: "".join(points[p.index(c)] for c in points) for p in els}
    sym = FiniteGroup(els, mul, points, inv)
    return subgroup(sym, closure(sym, generators))


def symmetric_group_3() -> FiniteGroup:
    """All permutations of three letters, as one-line strings over 012."""
    return _perm_group("012", ["120", "102"])


def dihedral_group_8() -> FiniteGroup:
    """Symmetries of a square, as permutations of its corners 0123."""
    return _perm_group("0123", ["1230", "1032"])


def quaternion_group() -> FiniteGroup:
    """The eight quaternion units with the usual sign table."""
    base = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("i", "i"): "-1", ("i", "j"): "k", ("i", "k"): "-j",
        ("j", "1"): "j", ("j", "i"): "-k", ("j", "j"): "-1", ("j", "k"): "i",
        ("k", "1"): "k", ("k", "i"): "j", ("k", "j"): "-i", ("k", "k"): "-1",
    }
    els = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")

    def split(a: str) -> tuple[int, str]:
        return (-1, a[1:]) if a.startswith("-") else (1, a)

    def join(sign: int, u: str) -> str:
        if u.startswith("-"):
            sign, u = -sign, u[1:]
        return u if sign == 1 else "-" + u

    mul = {}
    for a, b in itertools.product(els, repeat=2):
        sa, ua = split(a)
        sb, ub = split(b)
        mul[(a, b)] = join(sa * sb, base[(ua, ub)])
    inv = {}
    for a in els:
        for b in els:
            if mul[(a, b)] == "1":
                inv[a] = b
    return FiniteGroup(els, mul, "1", inv)


def group_catalog() -> list[tuple[str, FiniteGroup]]:
    """The built-in groups, in a fixed order."""
    entries = [(f"C{n}", cyclic_group(n)) for n in range(1, 9)]
    entries.append(("V4", klein_four_group()))
    entries.append(("S3", symmetric_group_3()))
    entries.append(("D4", dihedral_group_8()))
    entries.append(("Q8", quaternion_group()))
    return entries
