"""The class function xi and the conjugacy-class side of the degrees.

xi(g) counts pairs (X, Y) with X a subgroup of <g>, Y any subgroup of
G, and [X, Y] = 1.  It is constant on conjugacy classes and depends on
g only through the cyclic subgroup it generates, which the lattice
holds at position ``lat.cyclic[g]``.  The element index passes the one
check of an integer input, ``groups._parameter``: a bool, a non-integer
or an index outside 0..|G|-1 raises ValueError ("element index must be
at most 5, got 6").
"""

from __future__ import annotations

from fractions import Fraction

from latdeg.degrees import phi_rows
from latdeg.groups import Group, _parameter, bit_positions
from latdeg.lattice import Lattice


def xi(lat: Lattice, element: int) -> int:
    element = _parameter(element, "element index", 0, lat.group.order - 1)
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
