import random
from math import gcd

import pytest

from quandlib.fields import GF, RATIONALS
from quandlib.linalg import Matrix, contains, span_from_vectors, span_sum
from quandlib.algebra import (
    augmentation,
    augmentation_ideal,
    basis_element,
    element,
    jx_ideal,
    left_mult,
    multiply,
    right_mult,
    zero_element,
)
from quandlib.quandles import (
    S3_TABLE,
    alexander,
    catalog,
    conjugation,
    cyclic_group_table,
    dihedral,
    props,
    trivial,
)

Q = RATIONALS


def _e(f, n, x):
    return basis_element(f, n, x)


# ---------------------------------------------------------------------------
# the product


def test_trivial_product_projects_left():
    q = trivial(4)
    for x in range(4):
        for y in range(4):
            assert multiply(_e(Q, 4, x), _e(Q, 4, y), q) == _e(Q, 4, x)


def test_dihedral3_basis_product():
    q = dihedral(3)
    assert multiply(_e(Q, 3, 0), _e(Q, 3, 1), q) == _e(Q, 3, 2)  # 2*1-0 = 2


def test_bilinearity_example():
    q = dihedral(3)
    a = _e(Q, 3, 0) + _e(Q, 3, 1)
    got = multiply(a, _e(Q, 3, 1), q)
    assert got == _e(Q, 3, 2) + _e(Q, 3, 1)


def test_product_shape_checks():
    q = dihedral(3)
    with pytest.raises(ValueError):
        multiply(_e(Q, 3, 0), _e(Q, 4, 0), q)
    with pytest.raises(ValueError):
        multiply(_e(Q, 4, 0), _e(Q, 4, 0), q)
    with pytest.raises(ValueError):
        multiply(_e(Q, 3, 0), _e(GF(2), 3, 0), q)


def test_product_not_associative_on_dihedral3():
    """The algebra product admits non-associative triples."""
    q = dihedral(3)
    witnesses = [
        (a, b, c)
        for a in range(3) for b in range(3) for c in range(3)
        if multiply(multiply(_e(Q, 3, a), _e(Q, 3, b), q), _e(Q, 3, c), q)
        != multiply(_e(Q, 3, a), multiply(_e(Q, 3, b), _e(Q, 3, c), q), q)
    ]
    assert witnesses  # e.g. (e_a e_b) e_c = e_{2c-2b+a} vs 2(c-b)+... differ


# ---------------------------------------------------------------------------
# augmentation


def test_augmentation_basics():
    assert augmentation(_e(Q, 3, 1)) == 1
    assert augmentation(element(Q, [2, -1, 0])) == 1
    assert augmentation(_e(Q, 3, 0) - _e(Q, 3, 2)) == 0


def test_augmentation_multiplicative_random():
    rng = random.Random(11)
    for f in (Q, GF(3), GF(5)):
        for q in (dihedral(4), trivial(3), catalog(4)[3]):
            n = q.n
            for _ in range(20):
                a = element(f, [f.from_int(rng.randrange(-4, 5)) for _ in range(n)])
                b = element(f, [f.from_int(rng.randrange(-4, 5)) for _ in range(n)])
                assert augmentation(multiply(a, b, q)) == f.mul(augmentation(a), augmentation(b))


def test_augmentation_ideal_dimension_and_membership():
    for q in catalog(3) + catalog(4) + [dihedral(5)]:
        ideal = augmentation_ideal(q, Q)
        assert ideal.dim == q.n - 1
        e0 = [1] + [0] * (q.n - 1)
        e1_minus_e0 = [-1, 1] + [0] * (q.n - 2)
        assert contains(ideal, e1_minus_e0)
        assert not contains(ideal, e0)


# ---------------------------------------------------------------------------
# multiplication operators


def test_right_mult_trivial_is_identity():
    q = trivial(3)
    for x in range(3):
        assert right_mult(x, q, Q) == Matrix.identity(Q, 3)


def test_left_mult_trivial_is_projection():
    q = trivial(3)
    l1 = left_mult(1, q, Q)
    for y in range(3):
        assert l1.col(y) == tuple(_e(Q, 3, 1).coeffs)


def test_left_mult_dihedral3_permutation():
    # 0 ⊳ y = 2y mod 3 swaps 1 and 2, fixing 0.
    l0 = left_mult(0, dihedral(3), Q)
    assert l0.col(0) == tuple(_e(Q, 3, 0).coeffs)
    assert l0.col(1) == tuple(_e(Q, 3, 2).coeffs)
    assert l0.col(2) == tuple(_e(Q, 3, 1).coeffs)


def test_mult_operators_reproduce_product_on_basis():
    for q in catalog(3) + [dihedral(4)]:
        n = q.n
        for f in (Q, GF(2)):
            for x in range(n):
                lx = left_mult(x, q, f)
                rx = right_mult(x, q, f)
                for y in range(n):
                    assert lx.col(y) == multiply(_e(f, n, x), _e(f, n, y), q).coeffs
                    assert rx.col(y) == multiply(_e(f, n, y), _e(f, n, x), q).coeffs


def test_right_mult_always_permutation_matrix():
    for q in catalog(4):
        for x in range(q.n):
            m = right_mult(x, q, Q)
            for j in range(q.n):
                col = m.col(j)
                assert sum(1 for v in col if v) == 1
            assert sorted(m.col(j).index(1) for j in range(q.n)) == list(range(q.n))


def test_mult_index_range():
    with pytest.raises(IndexError):
        left_mult(3, dihedral(3), Q)
    with pytest.raises(IndexError):
        right_mult(-1, dihedral(3), Q)


# ---------------------------------------------------------------------------
# the commutator-difference right ideal


def test_jx_zero_for_dihedral3():
    # x ⊳ y = y ⊳ x holds throughout Z_3, so the generators all vanish.
    assert jx_ideal(dihedral(3), Q).dim == 0


def test_jx_equals_augmentation_ideal_for_trivial():
    for n in (2, 3, 4):
        q = trivial(n)
        assert jx_ideal(q, Q) == augmentation_ideal(q, Q)


def test_jx_contained_in_augmentation_ideal():
    for q in catalog(3) + catalog(4) + [dihedral(n) for n in range(3, 7)]:
        for f in (Q, GF(2)):
            jx = jx_ideal(q, f)
            ideal = augmentation_ideal(q, f)
            assert span_sum(jx, ideal) == ideal  # jx ⊆ ideal


def _jx_inputs():
    alexanders = [alexander(n, a) for n in range(1, 10) for a in range(n) if gcd(a, n) == 1]
    groups = [cyclic_group_table(4), cyclic_group_table(6), S3_TABLE]
    return (catalog(3) + catalog(4) + [dihedral(n) for n in range(3, 13)] + alexanders
            + [conjugation(g) for g in groups] + [trivial(4)])


JX_FIELDS = (Q, GF(2), GF(3))


def _right_product(vec, z, q, f):
    out = [f.zero()] * q.n
    for x, v in enumerate(vec):
        if v:
            out[q.table[x][z]] = f.add(out[q.table[x][z]], v)
    return out


def test_jx_right_ideal_closure():
    for q in _jx_inputs():
        for f in JX_FIELDS:
            jx = jx_ideal(q, f)
            for vec in jx.vectors:
                for z in range(q.n):
                    assert contains(jx, _right_product(vec, z, q, f))


def _left_product(vec, z, q, f):
    out = [f.zero()] * q.n
    for x, v in enumerate(vec):
        if v:
            out[q.table[z][x]] = f.add(out[q.table[z][x]], v)
    return out


def test_jx_left_closure_when_medial():
    medial_quandles = [q for q in _jx_inputs() if props(q).medial]
    assert medial_quandles
    for q in medial_quandles:
        for f in JX_FIELDS:
            jx = jx_ideal(q, f)
            for vec in jx.vectors:
                for z in range(q.n):
                    assert contains(jx, _left_product(vec, z, q, f))


def test_jx_is_span_of_generators():
    for q in _jx_inputs():
        for f in JX_FIELDS:
            gens = []
            for x in range(q.n):
                for y in range(q.n):
                    vec = [f.zero()] * q.n
                    vec[q.table[x][y]] = f.add(vec[q.table[x][y]], f.one())
                    vec[q.table[y][x]] = f.sub(vec[q.table[y][x]], f.one())
                    gens.append(vec)
            assert jx_ideal(q, f) == span_from_vectors(f, q.n, gens)


def test_element_arithmetic():
    a = element(Q, [1, 2, 3])
    b = element(Q, [0, 1, 1])
    assert (a - b).coeffs == (1, 1, 2)
    assert (-a).coeffs == (-1, -2, -3)
    assert a.scale(2).coeffs == (2, 4, 6)
    assert zero_element(Q, 3).coeffs == (0, 0, 0)
