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


def normalizer(table, s_set):
    """N_G(S): the elements g with g^-1 S g = S."""
    s_set = frozenset(s_set)
    return {
        g
        for g in range(len(table))
        if {table[table[inverse(table, g)][x]][g] for x in s_set} == s_set
    }


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


# Multiplication tables of the built-in families by their textbook rules,
# one entry at a time.


def cyclic_table(n):
    """C_n: a * b = (a + b) mod n."""
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_table(n):
    """D_n of order 2n, element s*n + r for x^s y^r with x^2 = y^n = 1 and
    x^-1 y x = y^-1, so x^s1 y^r1 x^s2 y^r2 = x^(s1+s2) y^(r1 (-1)^s2 + r2)."""
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for s1, r1, s2, r2 in itertools.product((0, 1), range(n), (0, 1), range(n)):
        s = (s1 + s2) % 2
        r = (r1 * (-1) ** s2 + r2) % n
        table[s1 * n + r1][s2 * n + r2] = s * n + r
    return table


def quaternion_table():
    """Q8, element s*4 + r for a^r b^s with a^4 = 1, b^2 = a^2 and
    b^-1 a b = a^-1, so a^r1 b^s1 a^r2 b^s2 = a^(r1 + (-1)^s1 r2) b^(s1+s2),
    times b^2 = a^2 when s1 = s2 = 1."""
    table = [[0] * 8 for _ in range(8)]
    for s1, r1, s2, r2 in itertools.product((0, 1), range(4), (0, 1), range(4)):
        r = (r1 + (-1) ** s1 * r2 + 2 * (s1 * s2)) % 4
        table[s1 * 4 + r1][s2 * 4 + r2] = (s1 + s2) % 2 * 4 + r
    return table


def modular_table(p, m):
    """M(p, m) of order p^m, element i*q + j for y^i x^j with q = p^(m-1),
    x^q = y^p = 1 and y^-1 x y = x^t, t = p^(m-2) + 1; so x^j y^i = y^i x^(j t^i)
    and y^i1 x^j1 y^i2 x^j2 = y^(i1+i2) x^(j1 t^i2 + j2)."""
    q = p ** (m - 1)
    t = p ** (m - 2) + 1
    order = p**m
    table = [[0] * order for _ in range(order)]
    for i1, j1, i2, j2 in itertools.product(range(p), range(q), range(p), range(q)):
        table[i1 * q + j1][i2 * q + j2] = (i1 + i2) % p * q + (j1 * t**i2 + j2) % q
    return table


def symmetric_table(n):
    """S_n on the permutations of range(n) in lexicographic order, with
    (a b)(i) = a(b(i))."""
    perms = list(itertools.permutations(range(n)))
    return [
        [perms.index(tuple(a[b[i]] for i in range(n))) for b in perms] for a in perms
    ]


def product_table(t1, t2):
    """G1 x G2, element a*|G2| + b for (a, b): (a1, b1)(a2, b2) = (a1 a2, b1 b2)."""
    n1, n2 = len(t1), len(t2)
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1, b1, a2, b2 in itertools.product(range(n1), range(n2), range(n1), range(n2)):
        table[a1 * n2 + b1][a2 * n2 + b2] = t1[a1][a2] * n2 + t2[b1][b2]
    return table


def family_table(family):
    """The table of a group's ``family``, e.g. ("D", 4) or ("Q8",)."""
    kind, *params = family
    rules = {
        "C": cyclic_table,
        "D": dihedral_table,
        "Q8": quaternion_table,
        "M": modular_table,
        "S": symmetric_table,
    }
    return rules[kind](*params)
