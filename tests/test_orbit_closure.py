"""The orbit closure of the Leibniz solve: each R_y renames the Leibniz rows
onto Leibniz rows, the kept R_y have the orbits of Inn(q), each kept R_y
permutes the equality classes, and the closed span from one element per
orbit has the same kernel as the dense system."""

import random

import pytest

from quandlib import linalg
from quandlib.derivations import (
    _leibniz_sparse_rows,
    derivation_space,
    leibniz_system,
)
from quandlib.fields import GF, RATIONALS
from quandlib.linalg import nullspace
from quandlib.quandles import (
    S3_TABLE,
    _inner_orbits,
    alexander,
    catalog,
    conjugation,
    dihedral,
    props,
    relabel,
)
from test_equality_classes import CASES, _orbit_classes

IDS = list(CASES)


@pytest.mark.parametrize("q", CASES.values(), ids=IDS)
def test_each_right_multiplication_renames_rows_onto_rows(q):
    n = q.n
    rows = list(_leibniz_sparse_rows(q))
    for y0 in range(n):
        s = q.column_perm(y0)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    renamed = {s[a // n] * n + s[a % n]: v for a, v in rows[(x * n + y) * n + z].items()}
                    assert rows[(s[x] * n + s[y]) * n + s[z]] == renamed


@pytest.mark.parametrize("q", CASES.values(), ids=IDS)
def test_kept_generators_have_the_inner_orbits(q):
    gens, root = _inner_orbits(q)
    reps = [x for x, r in enumerate(root) if r == x]
    orbits = []
    for start in reps:
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for y in gens:
                if q.table[x][y] not in orbit:
                    orbit.add(q.table[x][y])
                    frontier.append(q.table[x][y])
        orbits.append(tuple(sorted(orbit)))
    assert tuple(sorted(orbits)) == props(q).orbits
    assert reps == [orbit[0] for orbit in orbits]


@pytest.mark.parametrize("q", CASES.values(), ids=IDS)
def test_class_permutation_is_well_defined(q):
    n = q.n
    cls, m = _orbit_classes(q)
    for y in _inner_orbits(q)[0]:
        s = q.column_perm(y)
        images = [set() for _ in range(m)]
        for a in range(n * n):
            images[cls[a]].add(cls[s[a // n] * n + s[a % n]])
        assert all(len(image) == 1 for image in images)
        # The permutation derivation_space reads off the renaming.
        perm = [0] * m
        for a in range(n * n):
            perm[cls[a]] = cls[s[a // n] * n + s[a % n]]
        assert [image.pop() for image in images] == perm
        assert sorted(perm) == list(range(m))


def _relabeled(q, seed):
    perm = list(range(q.n))
    random.Random(seed).shuffle(perm)
    return relabel(q, perm)


MULTI_ORBIT = {q.label: q for q in catalog(4) if len(props(q).orbits) > 1}
MULTI_ORBIT.update({"conjugation-s3": conjugation(S3_TABLE), "alexander8-3": alexander(8, 3),
                    "alexander12-5": alexander(12, 5)})
FIELDS = {"Q": RATIONALS, "GF2": GF(2), "GF3": GF(3)}


@pytest.mark.parametrize("fname", FIELDS)
@pytest.mark.parametrize("name", MULTI_ORBIT)
def test_closed_solve_matches_dense_nullspace(name, fname):
    q, f = _relabeled(MULTI_ORBIT[name], len(name)), FIELDS[fname]
    assert len(props(q).orbits) > 1
    assert nullspace(leibniz_system(q, f)) == derivation_space(q, f).subspace


def test_orbit_closure_bounds_the_inserts(monkeypatch):
    calls = []
    insert = linalg._Echelon.insert

    def counted(self, row):
        calls.append(row)
        return insert(self, row)

    monkeypatch.setattr(linalg._Echelon, "insert", counted)
    assert derivation_space(dihedral(24), GF(3)).dim == 14
    # The full stream over the classes makes 6912 inserts.
    assert len(calls) <= 1300
