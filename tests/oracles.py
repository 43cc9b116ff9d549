"""Independent brute-force reference implementations for the tests.

Everything here works on the raw multiplication table with plain Python
sets and explicit tuple loops, deliberately sharing no code with the
package kernels: these are the oracles the fast paths are checked
against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def inverse(table, a):
    return table[a].index(0)


def commutator(table, x, y):
    ix, iy = inverse(table, x), inverse(table, y)
    return table[table[table[ix][iy]][x]][y]


def closure(table, gens):
    members = {0} | set(gens)
    while True:
        new = {table[a][b] for a in members for b in members} - members
        if not new:
            return frozenset(members)
        members |= new


def conjugates(table, s_set):
    """The class of the element set S: g^-1 S g for every element g."""
    return {
        frozenset(table[table[inverse(table, g)][x]][g] for x in s_set)
        for g in range(len(table))
    }


def product_set(table, a_set, b_set):
    return {table[a][b] for a in a_set for b in b_set}


def commutator_subgroup(table, h_set, k_set):
    return closure(table, {commutator(table, h, k) for h in h_set for k in k_set})


def centralizer(table, k_set, h_set):
    return {
        k for k in k_set if all(table[k][h] == table[h][k] for h in h_set)
    }


def conjugacy_classes(table):
    n = len(table)
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = {table[table[a][g]][inverse(table, a)] for a in range(n)}
        classes.append(frozenset(orbit))
        seen |= orbit
    return classes


def subgroups(table):
    """Every subgroup, as closures of generator tuples where each new
    generator lies outside the closure so far."""
    n = len(table)
    found = {frozenset({0})}

    def extend(current):
        for g in range(1, n):
            if g in current:
                continue
            bigger = closure(table, set(current) | {g})
            if bigger not in found:
                found.add(bigger)
                extend(bigger)

    extend(frozenset({0}))
    return found


def subgroups_by_subset_filter(table):
    """Literal filter over all subsets; only usable for tiny groups."""
    n = len(table)
    out = set()
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            s = set(combo)
            if 0 not in s:
                continue
            if all(table[a][b] in s for a in s for b in s):
                out.add(frozenset(s))
    return out


def d(table):
    n = len(table)
    good = sum(
        1 for a in range(n) for b in range(n) if table[a][b] == table[b][a]
    )
    return Fraction(good, n * n)


def d_pair(table, h_set, k_set):
    good = sum(
        1 for h in h_set for k in k_set if table[h][k] == table[k][h]
    )
    return Fraction(good, len(h_set) * len(k_set))


def d_multi(table, n, elements=None):
    elements = list(elements) if elements is not None else list(range(len(table)))
    good = 0
    for tup in itertools.product(elements, repeat=n + 1):
        acc = tup[0]
        for x in tup[1:]:
            acc = commutator(table, acc, x)
        if acc == 0:
            good += 1
    return Fraction(good, len(elements) ** (n + 1))


def sd(table):
    subs = sorted(subgroups(table), key=sorted)
    good = sum(
        1
        for h in subs
        for k in subs
        if product_set(table, h, k) == product_set(table, k, h)
    )
    return Fraction(good, len(subs) ** 2)


def ssd(table):
    subs = sorted(subgroups(table), key=sorted)
    good = sum(
        1
        for h in subs
        for k in subs
        if commutator_subgroup(table, h, k) == frozenset({0})
    )
    return Fraction(good, len(subs) ** 2)


def ssd_multi(table, h_set, n, codomain=None):
    """Direct tuple enumeration of the iterated lattice degree."""
    all_subs = sorted(subgroups(table), key=sorted)
    dom = [s for s in all_subs if s <= h_set]
    if codomain is None:
        cod = all_subs
    else:
        cod = [s for s in all_subs if s <= codomain]
    good = 0
    for tup in itertools.product(dom, repeat=n):
        acc = tup[0]
        for s in tup[1:]:
            acc = commutator_subgroup(table, acc, s)
        for k in cod:
            if commutator_subgroup(table, acc, k) == frozenset({0}):
                good += 1
    return Fraction(good, len(dom) ** n * len(cod))


def xi(table, g):
    all_subs = sorted(subgroups(table), key=sorted)
    cyc = closure(table, {g})
    dom = [s for s in all_subs if s <= cyc]
    return sum(
        1
        for x in dom
        for y in all_subs
        if commutator_subgroup(table, x, y) == frozenset({0})
    )
