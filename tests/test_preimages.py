"""Preimage lists and the sparse Leibniz rows built from them, checked
against brute force on quandles whose left multiplications are not
bijective: some preimage lists are empty and others hold several entries."""

import random

import pytest

from quandlib.algebra import AlgebraElement, basis_element, multiply
from quandlib.derivations import _leibniz_sparse_rows, derivation_space, verify_structure_relations
from quandlib.fields import GF, RATIONALS
from quandlib.linalg import Matrix
from quandlib.quandles import _preimages, alexander, catalog_lookup, dihedral, relabel, trivial
from test_derivations import leibniz_defect

QUANDLES = {
    "relabeled-dihedral6": relabel(dihedral(6), (3, 0, 5, 1, 4, 2)),
    "alexander8-3": alexander(8, 3),
    "trivial4": trivial(4),
    "catalog3.2": catalog_lookup("3.2"),
    "catalog4.2": catalog_lookup("4.2"),
}
FIELDS = {"Q": RATIONALS, "GF2": GF(2), "GF3": GF(3)}
CASES = [(q, f) for q in QUANDLES.values() for f in FIELDS.values()]
IDS = [f"{qn}-{fn}" for qn in QUANDLES for fn in FIELDS]


def test_preimages_match_brute_force():
    rng = random.Random(14)
    maps = [(), (0,), (2, 2, 2), (0, 0, 1, 1)]
    for n in range(1, 9):
        maps.append(tuple(rng.randrange(n) for _ in range(n)))
        maps.append(tuple(rng.randrange(max(1, n // 2)) for _ in range(n)))
        maps.append(tuple(rng.sample(range(n), n)))
    for w in maps:
        assert _preimages(w) == [[y for y in range(len(w)) if w[y] == u] for u in range(len(w))]


def test_quandle_left_multiplications_are_not_all_bijective():
    # The cases below exercise empty and multi-entry preimage lists.
    for q in QUANDLES.values():
        sizes = {len(p) for row in q.table for p in _preimages(row)}
        assert 0 in sizes and max(sizes) >= 2


def _random_matrix(q, f, rng):
    return Matrix.from_rows(f, [[rng.randrange(-3, 4) for _ in range(q.n)] for _ in range(q.n)])


@pytest.mark.parametrize("q, f", CASES, ids=IDS)
def test_sparse_rows_are_the_leibniz_residuals(q, f):
    # Row (x, y, z) applied to D is the e_z coefficient of
    # D(e_x·e_y) - D(e_x)·e_y - e_x·D(e_y), computed by multiplying.
    n = q.n
    rng = random.Random(n)
    for _ in range(2):
        D = _random_matrix(q, f, rng)
        rows = iter(_leibniz_sparse_rows(q))
        for x in range(n):
            for y in range(n):
                image = D.col(q.table[x][y])
                left = multiply(AlgebraElement(f, D.col(x)), basis_element(f, n, y), q).coeffs
                right = multiply(basis_element(f, n, x), AlgebraElement(f, D.col(y)), q).coeffs
                for z in range(n):
                    residual = f.zero()
                    for k, v in next(rows).items():
                        residual = f.add(residual, f.mul(f.from_int(v), D.entry(*divmod(k, n))))
                    assert residual == f.sub(f.sub(image[z], left[z]), right[z]), (x, y, z)
        assert next(rows, None) is None


@pytest.mark.parametrize("q, f", CASES, ids=IDS)
def test_structure_check_witness_matches_direct_defect(q, f):
    rng = random.Random(q.n + 1)
    basis = derivation_space(q, f).basis
    candidates = list(basis) + [_random_matrix(q, f, rng) for _ in range(3)]
    # A derivation changed in one entry fails late in the scan, if at all.
    for D in basis:
        ents = list(D.entries)
        ents[rng.randrange(len(ents))] = f.add(ents[0], f.one())
        candidates.append(Matrix(f, q.n, q.n, tuple(ents)))
    for D in candidates:
        check = verify_structure_relations(D, q)
        assert check.witness == leibniz_defect(D, q, f)
        assert check.ok == (check.witness is None)
