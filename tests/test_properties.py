"""Property tests on generated quandles: the orbits of Inn(q) are the
closure of each element under every R_y and move with a relabeling, and a
relabeling keeps the dimension of the derivation algebra.  The structure
check names the first Leibniz defect that algebra multiplication finds, the
equality classes read from one element per orbit are those of every
equality row, and the dimension over Q is at most that over each GF(p).

Inputs are generated Alexander quandles (n ≤ 12, alpha a unit) and seeded
relabelings of dihedral quandles (n ≤ 12), conjugation quandles of Z_n
(n ≤ 8) and, for the orbit and class tests, the catalog.  The runs are
derandomized, so every run checks the same examples.
"""

import random
from math import gcd

from hypothesis import given, settings, strategies as st

from quandlib.derivations import derivation_space, verify_structure_relations
from quandlib.fields import GF, RATIONALS
from quandlib.linalg import Matrix
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
from test_derivations import _perturbed, leibniz_defect
from test_equality_classes import _classes_from_rows, _orbit_classes

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
FIELDS = (RATIONALS, GF(2), GF(3))


@st.composite
def alexander_quandles(draw, least=1):
    n = draw(st.integers(least, 12))
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


def _relabeled(q, seed):
    perm = list(range(q.n))
    random.Random(seed).shuffle(perm)
    return relabel(q, perm)


SEEDS = st.integers(0, 2**32 - 1)
# Order 1 has nothing to check; left in, it would be drawn most often.
SOLVE_QUANDLES = st.one_of(
    alexander_quandles(least=2),
    st.builds(_relabeled, st.integers(2, 12).map(dihedral), SEEDS),
    st.builds(_relabeled, st.integers(2, 8).map(lambda n: conjugation(cyclic_group_table(n))), SEEDS),
)


@PROPERTY
@given(SOLVE_QUANDLES, st.sampled_from([GF(2), GF(3)]), SEEDS)
def test_structure_witness_is_the_first_leibniz_defect(q, f, seed):
    rng = random.Random(seed)
    n = q.n
    shaped = list(derivation_space(q, f).basis[:2]) or [Matrix.zeros(f, n, n)]
    random_matrix = Matrix(f, n, n, tuple(f.from_int(rng.randrange(f.p)) for _ in range(n * n)))
    for m in shaped + [_perturbed(m, rng) for m in shaped] + [random_matrix]:
        assert verify_structure_relations(m, q).witness == leibniz_defect(m, q, f)


# The catalog holds 4.3, where the equality rows of the representatives
# alone give too many classes and the closure under the renamings matters.
CATALOG = st.builds(_relabeled, st.sampled_from(catalog_labels()).map(catalog_lookup), SEEDS)


@PROPERTY
@given(st.one_of(SOLVE_QUANDLES, CATALOG).filter(lambda q: len(props(q).orbits) > 1))
def test_orbit_classes_are_the_classes_of_every_equality_row(q):
    assert _orbit_classes(q) == _classes_from_rows(q)


@PROPERTY
@given(SOLVE_QUANDLES, st.sampled_from([2, 3, 5, 7]))
def test_rational_dimension_is_at_most_the_prime_field_dimension(q, p):
    assert derivation_space(q, RATIONALS).dim <= derivation_space(q, GF(p)).dim
