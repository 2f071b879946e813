"""Property tests on generated quandles: the orbits of Inn(q) are the
closure of each element under every R_y and move with a relabeling, and a
relabeling keeps the dimension of the derivation algebra.

Inputs are generated Alexander quandles (n ≤ 12, alpha a unit) and seeded
relabelings of dihedral quandles (n ≤ 12), conjugation quandles of Z_n
(n ≤ 8) and the catalog.  The runs are derandomized, so every run checks
the same examples.
"""

import random
from math import gcd

from hypothesis import given, settings, strategies as st

from quandlib.derivations import derivation_space
from quandlib.fields import GF, RATIONALS
from quandlib.quandles import (
    alexander,
    catalog_labels,
    catalog_lookup,
    conjugation,
    cyclic_group_table,
    dihedral,
    props,
    relabel,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
FIELDS = (RATIONALS, GF(2), GF(3))


@st.composite
def alexander_quandles(draw):
    n = draw(st.integers(1, 12))
    return alexander(n, draw(st.sampled_from([a for a in range(n) if gcd(a, n) == 1])))


QUANDLES = st.one_of(
    alexander_quandles(),
    st.integers(1, 12).map(dihedral),
    st.integers(1, 8).map(lambda n: conjugation(cyclic_group_table(n))),
    st.sampled_from(catalog_labels()).map(catalog_lookup),
)


@st.composite
def relabelings(draw):
    """A quandle and a seeded permutation of its elements."""
    q = draw(QUANDLES)
    perm = list(range(q.n))
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(perm)
    return q, perm


def _closure_orbits(q):
    """The orbits of Inn(q) by breadth-first closure of each element under
    every R_y, each orbit increasing and the orbits ordered by least element."""
    seen, orbits = set(), []
    for start in range(q.n):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for image in q.table[x]:
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


@PROPERTY
@given(relabelings())
def test_orbits_move_with_a_relabeling(case):
    q, perm = case
    moved = sorted(tuple(sorted(perm[x] for x in orbit)) for orbit in props(q).orbits)
    assert props(relabel(q, perm)).orbits == tuple(moved)


@PROPERTY
@given(relabelings())
def test_orbits_are_the_closure_under_every_right_multiplication(case):
    q, perm = case
    for p in (q, relabel(q, perm)):
        assert props(p).orbits == _closure_orbits(p)


@settings(PROPERTY, max_examples=60)
@given(relabelings())
def test_relabeling_keeps_the_derivation_dimension(case):
    q, perm = case
    p = relabel(q, perm)
    for f in FIELDS:
        assert derivation_space(p, f).dim == derivation_space(q, f).dim
