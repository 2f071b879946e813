import random
from fractions import Fraction
from itertools import product

import pytest

from quandlib.fields import GF, RATIONALS
from quandlib.linalg import (
    Matrix,
    SubspaceBasis,
    _Echelon,
    contains,
    coordinates,
    nullspace,
    rref,
    span_from_vectors,
    span_intersect,
    span_sum,
)

Q = RATIONALS


# ---------------------------------------------------------------------------
# rref


def test_rref_identity():
    m = Matrix.identity(Q, 3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == [0, 1, 2]


def test_rref_zero():
    m = Matrix.zeros(Q, 2, 2)
    r, pivots = rref(m)
    assert r == m
    assert pivots == []


def test_rref_rank_one():
    # Hand Gaussian elimination: R2 := R2 - (1/2) R1, then scale R1.
    m = Matrix.from_rows(Q, [[2, 4], [1, 2]])
    r, pivots = rref(m)
    assert r.to_lists() == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(7)
    for field in (Q, GF(2), GF(3)):
        for _ in range(25):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            m = Matrix.from_rows(
                field, [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
            )
            r1, p1 = rref(m)
            r2, p2 = rref(r1)
            assert r1 == r2 and p1 == p2


def test_rref_shape_and_field_preserved():
    m = Matrix.from_rows(GF(5), [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    r, pivots = rref(m)
    assert (r.nrows, r.ncols) == (3, 3)
    assert pivots == [0, 2]


def _oracle_rref(rows, ncols, p):
    """Plain dense Gauss-Jordan: Fractions over Q, residues over GF(p)."""
    if p is None:
        m = [[Fraction(v) for v in row] for row in rows]
    else:
        m = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        if p is None:
            s = 1 / m[r][c]
            m[r] = [v * s for v in m[r]]
        else:
            s = pow(m[r][c], -1, p)
            m[r] = [v * s % p for v in m[r]]
        for i in range(len(m)):
            t = m[i][c]
            if i != r and t:
                if p is None:
                    m[i] = [a - t * b for a, b in zip(m[i], m[r])]
                else:
                    m[i] = [(a - t * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _random_integer_matrices(p):
    """Seeded integer matrices with zero rows, multiples of p and large entries."""
    rng = random.Random(2024 if p is None else p)
    q = p or 5
    values = [0, 0, 0, 1, -1, 2, -3, 5, q, -q, 2 * q, q + 1, 3 * q - 1, 2 ** 40 + 3]
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [0] * ncols
        yield rows, ncols


FIELDS = pytest.mark.parametrize("p", [None, 2, 3, 2147483647], ids=["Q", "GF2", "GF3", "GF2^31-1"])


@FIELDS
def test_rref_matches_dense_gauss_jordan_oracle(p):
    field = Q if p is None else GF(p)
    for rows, ncols in _random_integer_matrices(p):
        want, want_pivots = _oracle_rref(rows, ncols, p)
        got, got_pivots = rref(Matrix.from_rows(field, rows))
        assert got.to_lists() == want and got_pivots == want_pivots


@FIELDS
def test_echelon_takes_raw_integer_rows(p):
    # insert reduces unreduced integer rows itself; after every insert the
    # stored rows are reduced, and finalize matches the oracle on the prefix
    # without changing them.
    field = Q if p is None else GF(p)
    for rows, ncols in _random_integer_matrices(p):
        ech = _Echelon(field, ncols)
        for i, row in enumerate(rows, 1):
            ech.insert({c: v for c, v in enumerate(row) if v})
            for c, stored in ech.rows.items():
                assert all(k == c or k not in ech.rows for k in stored)
            before = {c: dict(stored) for c, stored in ech.rows.items()}
            finalized = ech.finalize()
            assert ech.rows == before
            want, want_pivots = _oracle_rref(rows[:i], ncols, p)
            assert [c for c, _ in finalized] == want_pivots
            assert [list(row) for _, row in finalized] == want[: len(want_pivots)]


def test_insert_reduces_integer_rows_mod_p():
    ech = _Echelon(GF(3), 2)
    assert ech.insert({0: 3, 1: 4})
    assert ech.rows == {1: {1: 1}}
    assert not ech.insert({0: 6})


@pytest.mark.parametrize("vec", [[1.5, 1], [0.5, 1], [0, 2.0]])
def test_dense_insert_rejects_floats(vec):
    with pytest.raises(TypeError, match="floating-point"):
        span_from_vectors(Q, 2, [vec])


@pytest.mark.parametrize("p", [3, 5, 2147483647])
def test_dense_insert_coerces_fractions_into_gf_p(p):
    f = GF(p)
    vec = [Fraction(1, 2), 1]
    assert span_from_vectors(f, 2, [vec]) == span_from_vectors(f, 2, [[f.coerce(v) for v in vec]])
    assert contains(span_from_vectors(f, 2, [vec]), vec)


def test_dense_insert_agrees_with_matrix_coercion():
    rows = [[Fraction(1, 2), "2/3", 3], ["0", "-1/6", Fraction(5, 4)]]
    for f in (Q, GF(7)):
        coerced = Matrix.from_rows(f, rows).to_lists()
        assert span_from_vectors(f, 3, rows) == span_from_vectors(f, 3, coerced)


# ---------------------------------------------------------------------------
# nullspace


def test_nullspace_identity_empty():
    for n in (1, 2, 4):
        assert nullspace(Matrix.identity(Q, n)).dim == 0


def test_nullspace_zero_map_full():
    ns = nullspace(Matrix.zeros(Q, 2, 3))
    assert ns.dim == 3
    assert ns == span_from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_nullspace_gf2_ones_row_vs_enumeration():
    m = Matrix.from_rows(GF(2), [[1, 1, 1]])
    ns = nullspace(m)
    assert ns.dim == 2
    # Exhaustive oracle over GF(2)^3.
    solutions = {v for v in product(range(2), repeat=3) if sum(v) % 2 == 0}
    members = {v for v in product(range(2), repeat=3) if contains(ns, v)}
    assert members == solutions


def test_nullspace_vectors_satisfy_system_exactly():
    m = Matrix.from_rows(Q, [[1, 2, 3, 4], [0, 1, 1, 0], [1, 3, 4, 4]])
    ns = nullspace(m)
    for v in ns.vectors:
        assert all(x == 0 for x in m.matvec(v))
    assert ns.dim == 4 - len(rref(m)[1])


def test_nullspace_of_random_matrices_with_non_unit_leads():
    # Stored rows with leading entries other than 1 over Q, and pivots of
    # free columns shared by several rows, exercise the lcm scaling.
    rng = random.Random(11)
    for field in (Q, GF(3), GF(5)):
        for _ in range(40):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 7)
            m = Matrix.from_rows(
                field, [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
            )
            ns = nullspace(m)
            for v in ns.vectors:
                assert not any(m.matvec(v))
            assert ns.dim == cols - len(rref(m)[1])


def test_nullspace_dim_matches_enumeration_gf2_random():
    rng = random.Random(2024)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Matrix.from_rows(GF(2), [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])
        ns = nullspace(m)
        count = sum(
            1 for v in product(range(2), repeat=cols)
            if all(x == 0 for x in m.matvec(v))
        )
        assert count == 2 ** ns.dim


# ---------------------------------------------------------------------------
# span arithmetic


def _span(field, ambient, vecs):
    return span_from_vectors(field, ambient, vecs)


def test_span_sum_of_axes():
    a = _span(Q, 3, [[1, 0, 0]])
    b = _span(Q, 3, [[0, 1, 0]])
    assert span_sum(a, b).dim == 2


def test_span_sum_idempotent():
    v = _span(Q, 3, [[1, 2, 3], [0, 1, 1]])
    assert span_sum(v, v) == v


def test_span_sum_spans_plane():
    a = _span(Q, 3, [[1, 1, 0]])
    b = _span(Q, 3, [[1, -1, 0]])
    assert span_sum(a, b) == _span(Q, 3, [[1, 0, 0], [0, 1, 0]])


def test_span_intersect_self():
    v = _span(Q, 4, [[1, 0, 2, 0], [0, 1, 1, 1]])
    assert span_intersect(v, v) == v


def test_span_intersect_axes_trivial():
    a = _span(Q, 2, [[1, 0]])
    b = _span(Q, 2, [[0, 1]])
    assert span_intersect(a, b).dim == 0


def test_span_intersect_plane_line():
    a = _span(Q, 2, [[1, 0], [0, 1]])
    b = _span(Q, 2, [[1, 1]])
    got = span_intersect(a, b)
    assert got == b
    # dimension formula
    assert span_sum(a, b).dim + got.dim == a.dim + b.dim


def test_dimension_formula_random_subspaces():
    rng = random.Random(99)
    for field in (Q, GF(3)):
        for _ in range(20):
            ambient = rng.randrange(2, 6)
            gen = lambda: [
                [field.from_int(rng.randrange(-2, 3)) for _ in range(ambient)]
                for _ in range(rng.randrange(1, 4))
            ]
            a = _span(field, ambient, gen())
            b = _span(field, ambient, gen())
            assert span_sum(a, b).dim + span_intersect(a, b).dim == a.dim + b.dim


def _random_subspace_pair(rng, field, ambient):
    def gen():
        return [[field.from_int(rng.randrange(-2, 3)) for _ in range(ambient)]
                for _ in range(rng.randrange(0, 4))]
    return _span(field, ambient, gen()), _span(field, ambient, gen())


@pytest.mark.parametrize("p", [2, 3])
def test_span_intersect_members_match_enumeration(p):
    # Every combination of the intersection's basis, against every vector
    # of GF(p)^ambient that lies in both spaces.
    field = GF(p)
    rng = random.Random(40 + p)
    for _ in range(40):
        ambient = rng.randrange(1, 5)
        a, b = _random_subspace_pair(rng, field, ambient)
        inter = span_intersect(a, b)
        members = {tuple(sum(c * v[k] for c, v in zip(coeffs, inter.vectors)) % p
                         for k in range(ambient))
                   for coeffs in product(range(p), repeat=inter.dim)}
        both = {v for v in product(range(p), repeat=ambient) if contains(a, v) and contains(b, v)}
        assert members == both
        assert len(members) == p ** inter.dim


def test_span_intersect_basis_lies_in_both_spaces_over_q():
    rng = random.Random(17)
    for _ in range(40):
        ambient = rng.randrange(1, 5)
        a, b = _random_subspace_pair(rng, Q, ambient)
        inter = span_intersect(a, b)
        assert all(contains(a, v) and contains(b, v) for v in inter.vectors)


def test_canonical_under_generator_permutation():
    gens = [[1, 2, 0, 1], [0, 1, 1, 0], [2, 5, 1, 2], [1, 1, 1, 1]]
    rng = random.Random(5)
    base = _span(Q, 4, gens)
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert _span(Q, 4, shuffled) == base


# ---------------------------------------------------------------------------
# membership


def test_contains_zero_vector():
    basis = _span(Q, 3, [[1, 1, 0]])
    assert coordinates(basis, [0, 0, 0]) == (Fraction(0),)


def test_contains_rejects_off_axis():
    basis = _span(Q, 2, [[1, 0]])
    assert not contains(basis, [0, 1])
    assert coordinates(basis, [0, 1]) is None


def test_coordinates_solve_2x2():
    basis = _span(Q, 2, [[1, 1], [1, -1]])
    coords = coordinates(basis, [3, 1])
    assert coords is not None
    # Coordinates are in terms of the echelonized basis; recombine to check.
    recombined = [
        sum(c * v for c, v in zip(coords, col))
        for col in zip(*basis.vectors)
    ]
    assert recombined == [3, 1]
    # And in terms of the original generators the solution is (2, 1).
    assert 2 * 1 + 1 * 1 == 3 and 2 * 1 + 1 * (-1) == 1


def test_contains_dimension_mismatch():
    basis = _span(Q, 3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        contains(basis, [1, 0])


def test_subspace_basis_validates_rref():
    with pytest.raises(ValueError):
        SubspaceBasis(Q, 2, ((Fraction(2), Fraction(0)),))  # pivot not 1
    with pytest.raises(ValueError):
        SubspaceBasis(
            Q, 2,
            ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),
        )  # entry above the second pivot not cleared


def test_matrix_ops_and_shape_checks():
    a = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    b = Matrix.identity(Q, 2)
    assert (a @ b) == a
    assert (a - a).is_zero
    assert a.scale(2).entry(1, 0) == 6
    with pytest.raises(ValueError):
        a @ Matrix.identity(Q, 3)
    with pytest.raises(ValueError):
        a + Matrix.identity(GF(2), 2)
