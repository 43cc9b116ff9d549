"""The class function xi and the conjugacy-class side of the degrees.

xi(g) counts pairs (X, Y) with X a subgroup of <g>, Y any subgroup of
G, and [X, Y] = 1.  It is constant on conjugacy classes and depends on
g only through the cyclic subgroup it generates, which the lattice
holds at position ``lat.cyclic[g]``.
"""

from __future__ import annotations

from fractions import Fraction

from latdeg.degrees import phi_rows
from latdeg.groups import Group, bit_positions
from latdeg.lattice import Lattice


def xi(lat: Lattice, element: int) -> int:
    if not 0 <= element < lat.group.order:
        raise ValueError(f"element index {element} out of range")
    rows = phi_rows(lat)
    below = lat.down[lat.cyclic[element]]
    return sum(rows[i].bit_count() for i in bit_positions(below))


def ssd_cyclic(lat: Lattice, element: int) -> Fraction:
    """xi(g) normalized by |L(<g>)| * |L(G)|; equals the n = 1 iterated
    degree of the cyclic subgroup generated by the element."""
    value = xi(lat, element)  # checks the element index
    lsub = lat.down[lat.cyclic[element]].bit_count()
    return Fraction(value, lsub * len(lat))


def class_count(g: Group) -> int:
    return len(g.conjugacy_classes())


def equal_generator_invariance(lat: Lattice) -> list[tuple[int, int]]:
    """Violation pairs (x, y) with <x> = <y> but xi(x) != xi(y); empty
    when the invariance holds."""
    by_subgroup: dict[int, list[int]] = {}
    for a, cyc in enumerate(lat.cyclic):
        by_subgroup.setdefault(cyc, []).append(a)
    violations = []
    for elems in by_subgroup.values():
        first = xi(lat, elems[0])
        for other in elems[1:]:
            if xi(lat, other) != first:
                violations.append((elems[0], other))
    return violations
