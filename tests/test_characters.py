from __future__ import annotations

from fractions import Fraction

import oracles
from latdeg import (
    class_count,
    d_group,
    enumerate_subgroups,
    equal_generator_invariance,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    make_symmetric,
    ssd_multi,
    xi,
)


def test_xi_at_identity_is_lattice_size(builtin16):
    for g, lat in builtin16:
        assert xi(lat, 0) == len(lat)


def test_xi_s3_transposition():
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    transpositions = [a for a in range(1, 6) if s3.table[a][a] == 0]
    values = {xi(lat, a) for a in transpositions}
    assert values == {8}


def test_xi_of_central_elements_dominates_lattice_size(builtin16):
    for g, lat in builtin16:
        for a in range(g.order):
            if all(g.table[a][b] == g.table[b][a] for b in range(g.order)):
                assert xi(lat, a) >= len(lat)


def test_xi_matches_oracle():
    for g in (make_symmetric(3), make_dihedral(4), make_quaternion()):
        lat = enumerate_subgroups(g)
        for a in range(g.order):
            assert xi(lat, a) == oracles.xi(g.table, a)


def test_xi_class_function(builtin24):
    for g, lat in builtin24:
        values = [xi(lat, a) for a in range(g.order)]
        for cls in g.conjugacy_classes():
            assert len({values[a] for a in cls}) == 1


def test_ssd_cyclic(builtin16):
    # ssd(<g>) at n = 1, read at the lattice position of <g>, is xi(g)
    # normalized by |L(<g>)| * |L(G)|
    for g, lat in builtin16:
        for a in range(g.order):
            c = lat.cyclic[a]
            value = ssd_multi(lat, lat[c], 1)
            assert value * lat.down[c].bit_count() * len(lat) == xi(lat, a)
    s3 = make_symmetric(3)
    lat = enumerate_subgroups(s3)
    assert ssd_multi(lat, lat[lat.cyclic[0]], 1) == 1
    t = next(a for a in range(1, 6) if s3.table[a][a] == 0)
    assert ssd_multi(lat, lat[lat.cyclic[t]], 1) == Fraction(2, 3)
    q8 = make_quaternion()
    latq = enumerate_subgroups(q8)
    t = q8.table
    minus_one = next(
        a for a in range(1, 8) if all(t[a][b] == t[b][a] for b in range(8))
    )
    assert ssd_multi(latq, latq[latq.cyclic[minus_one]], 1) == 1


def test_class_count():
    assert class_count(make_cyclic(7)) == 7
    assert class_count(make_symmetric(3)) == 3
    assert class_count(make_dihedral(4)) == 5


def test_class_count_equals_order_times_d(builtin24):
    for g, _ in builtin24:
        assert class_count(g) == g.order * d_group(g)


def test_equal_generator_invariance(builtin24):
    for g, lat in builtin24:
        assert equal_generator_invariance(lat) == []
