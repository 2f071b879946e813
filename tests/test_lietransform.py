import hashlib
from itertools import combinations

import pytest

from quandlib.fields import GF, RATIONALS
from quandlib.linalg import Matrix, contains, span_from_vectors, span_sum
from quandlib.algebra import left_mult, right_mult
from quandlib.lietransform import (
    alexander_canonical_form,
    commutator,
    flatten_operator,
    inner_derivations,
    lie_transformation_algebra,
    lr_form_bound,
    operator_from_flat,
)
from quandlib.quandles import S3_TABLE, alexander, catalog_lookup, conjugation, dihedral, trivial
from test_closure_oracle import pairwise_closure

Q = RATIONALS


def _projection(f, n, i):
    """The map sending every basis vector to e_i."""
    return Matrix(f, n, n, tuple(f.one() if u == i else f.zero() for u in range(n) for x in range(n)))


# ---------------------------------------------------------------------------
# commutators


def test_commutator_with_self_vanishes():
    m = left_mult(0, dihedral(5), Q)
    assert commutator(m, m).is_zero


def test_commutator_trivial_quandle_brackets():
    q = trivial(3)
    for i in range(3):
        for j in range(3):
            li, lj = left_mult(i, q, Q), left_mult(j, q, Q)
            assert commutator(li, lj) == li - lj


def test_commutator_dihedral3_on_reduced_basis():
    # In the basis u = e0+e1+e2, v = e1-e0, w = e2-e0 the bracket [L0, L1]
    # kills u and acts on (v, w) by the matrix ((-1, -2), (2, 1)).
    q = dihedral(3)
    b = commutator(left_mult(0, q, Q), left_mult(1, q, Q))
    u = (1, 1, 1)
    v = (-1, 1, 0)
    w = (-1, 0, 1)
    assert b.matvec(u) == (0, 0, 0)
    def lincomb(cv, cw):
        return tuple(cv * a + cw * bb for a, bb in zip(v, w))
    assert b.matvec(v) == lincomb(-1, 2)
    assert b.matvec(w) == lincomb(-2, 1)


def test_commutator_shape_checks():
    with pytest.raises(ValueError):
        commutator(Matrix.identity(Q, 2), Matrix.identity(Q, 3))
    with pytest.raises(ValueError):
        commutator(Matrix.identity(Q, 2), Matrix.identity(GF(2), 2))


# ---------------------------------------------------------------------------
# the transformation algebra


def test_trivial3_transformation_algebra():
    q = trivial(3)
    t = lie_transformation_algebra(q, Q)
    # All right multiplications are the identity, so the algebra is spanned
    # by the identity and the three projections L_x; these are independent.
    expected = span_from_vectors(
        Q, 9,
        [flatten_operator(Matrix.identity(Q, 3))]
        + [flatten_operator(left_mult(x, q, Q)) for x in range(3)],
    )
    assert t.subspace == expected
    assert t.dim == 4


def test_catalog32_transformation_algebra_span():
    q = catalog_lookup("3.2")
    t = lie_transformation_algebra(q, Q)
    gens = [
        Matrix.identity(Q, 3),
        left_mult(0, q, Q),
        left_mult(1, q, Q),
        right_mult(2, q, Q),
        _projection(Q, 3, 0),
        _projection(Q, 3, 1),
        _projection(Q, 3, 2),
    ]
    claimed = span_from_vectors(Q, 9, [flatten_operator(m) for m in gens])
    assert t.subspace == claimed
    # The seven generators are linearly dependent; the rank is 6.
    assert t.dim == claimed.dim == 6


def test_dihedral3_transformation_algebra_span():
    q = dihedral(3)
    t = lie_transformation_algebra(q, Q)
    gens = [Matrix.identity(Q, 3)] + [left_mult(x, q, Q) for x in range(3)]
    gens.append(commutator(left_mult(0, q, Q), left_mult(1, q, Q)))
    claimed = span_from_vectors(Q, 9, [flatten_operator(m) for m in gens])
    assert t.subspace == claimed
    assert t.dim == claimed.dim == 5


def test_transformation_algebra_contains_generators():
    for q in (trivial(2), dihedral(4), catalog_lookup("4.3")):
        t = lie_transformation_algebra(q, Q)
        assert t.contains_operator(Matrix.identity(Q, q.n))
        for x in range(q.n):
            assert t.contains_operator(left_mult(x, q, Q))
            assert t.contains_operator(right_mult(x, q, Q))
        assert t.generator_log[0] == "id"


# Full generator logs in which R_0 and a later R_x join the generating set.
# The canonical basis cannot see the order in which the seeds are tried;
# only the log can.
GENERATOR_LOG_PINS = [
    (dihedral(6), GF(3), (
        "id", "L0", "R0", "L1", "[L1,L0]", "[L1,R0]", "[L0,[L1,L0]]", "[R0,[L1,L0]]",
        "[L1,[L1,L0]]", "[R0,[L1,R0]]", "[R0,[R0,[L1,L0]]]", "R1", "[R1,R0]", "[R0,[R1,R0]]",
    )),
    (conjugation(S3_TABLE), Q, (
        "id", "L0", "L1", "[L1,L0]", "L2", "L3", "[L3,L0]", "[L3,L1]", "[L3,[L1,L0]]",
        "[L3,L2]", "L4", "[L4,L1]", "[L4,L3]", "[L3,[L4,L3]]", "[L4,[L4,L3]]",
        "[L3,[L3,[L4,L3]]]", "[L4,[L3,[L4,L3]]]", "R1", "R3",
    )),
]


@pytest.mark.parametrize("q, f, log", GENERATOR_LOG_PINS, ids=["dihedral6-GF3", "conjugation-s3-Q"])
def test_generator_log_pinned(q, f, log):
    t = lie_transformation_algebra(q, f)
    assert t.generator_log == log
    assert t.dim == len(log)


def test_transformation_algebra_bracket_closed():
    for q, f in [(dihedral(3), Q), (catalog_lookup("3.2"), Q), (dihedral(4), GF(2))]:
        t = lie_transformation_algebra(q, f)
        for a in t.matrices:
            for b in t.matrices:
                assert t.contains_operator(commutator(a, b))


def test_tower_closure_agrees_with_full_closure():
    # Bracketing only with a generating set of seeds must give the same
    # algebra as the full pairwise closure.
    from quandlib.quandles import catalog
    cases = [(q, Q) for q in catalog(3) + catalog(4)]
    cases += [(dihedral(n), Q) for n in (3, 4, 5, 6)]
    cases += [(dihedral(3), GF(3)), (catalog_lookup("4.5"), GF(2))]
    for q, f in cases:
        assert pairwise_closure(q, f) == lie_transformation_algebra(q, f).subspace


def test_jacobi_identity_on_basis_triples():
    t = lie_transformation_algebra(dihedral(3), Q)
    for a, b, c in combinations(t.matrices, 3):
        total = (
            commutator(commutator(a, b), c)
            + commutator(commutator(b, c), a)
            + commutator(commutator(c, a), b)
        )
        assert total.is_zero


def test_operator_flattening_round_trip():
    m = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    flat = flatten_operator(m)
    assert flat == (1, 3, 2, 4)  # column-major
    assert operator_from_flat(Q, 2, flat) == m


# ---------------------------------------------------------------------------
# inner derivations


def test_inner_derivations_dihedral3_trivial():
    r = inner_derivations(dihedral(3), Q)
    assert (r.derivation_dim, r.inner_dim, r.outer_dim) == (0, 0, 0)


def test_inner_derivations_trivial3():
    """Computed ground truth: the inner derivations of the trivial quandle of
    order 3 are the column-sum-zero elements of the transformation algebra,
    spanned by id - L0, L0 - L1, L1 - L2 (dimension 3)."""
    q = trivial(3)
    r = inner_derivations(q, Q)
    ident = Matrix.identity(Q, 3)
    l = [left_mult(x, q, Q) for x in range(3)]
    witnesses = [ident - l[0], l[0] - l[1], l[1] - l[2]]
    for w in witnesses:
        # each witness is a derivation (columns sum to zero) ...
        assert all(sum(w.col(j)) == 0 for j in range(3))
        # ... and lies in the inner span
        assert contains(r.basis, flatten_operator(w))
    assert span_from_vectors(Q, 9, [flatten_operator(w) for w in witnesses]).dim == 3
    assert r.inner_dim == 3
    assert r.outer_dim == r.derivation_dim - 3 == 3


def test_inner_derivations_order_one():
    r = inner_derivations(trivial(1), Q)
    assert r.inner_dim == 0 and r.transformation_dim == 1


def test_inner_contained_in_both_spaces():
    from quandlib.derivations import derivation_space
    for q in (trivial(3), catalog_lookup("4.5")):
        r = inner_derivations(q, Q)
        der = derivation_space(q, Q)
        der_flat = span_from_vectors(Q, q.n * q.n, [flatten_operator(m) for m in der.basis])
        t = lie_transformation_algebra(q, Q)
        assert span_sum(r.basis, der_flat) == der_flat
        assert span_sum(r.basis, t.subspace) == t.subspace


# ---------------------------------------------------------------------------
# products of multiplication operators


def test_lr_span_contains_transformation_algebra_for_catalog():
    from quandlib.quandles import catalog
    for q in catalog(3) + catalog(4):
        r = lr_form_bound(q, Q)
        assert r.contains_transformation_algebra


def test_lr_span_contains_left_multiplications():
    q = trivial(3)
    r = lr_form_bound(q, Q)
    for x in range(3):
        assert contains(r.basis, flatten_operator(left_mult(x, q, Q)))


def test_lr_span_dihedral3_not_strict():
    # Computed: both spaces are 5-dimensional, so the inclusion is equality.
    r = lr_form_bound(dihedral(3), Q)
    assert r.contains_transformation_algebra
    assert r.lr_dim == r.transformation_dim == 5
    assert not r.strict


def test_lr_span_strict_for_some_quandles():
    # Computed: catalog 4.3 has a strictly larger product span (9 vs 8).
    r = lr_form_bound(catalog_lookup("4.3"), Q)
    assert r.strict and (r.lr_dim, r.transformation_dim) == (9, 8)


# ---------------------------------------------------------------------------
# affine quandles


def test_alexander_form_dihedral3():
    rep = alexander_canonical_form(dihedral(3), Q)
    assert rep.all_contained and rep.failures == ()


def test_alexander_form_trivial():
    for n in (1, 3, 4):
        rep = alexander_canonical_form(trivial(n), Q)
        assert rep.all_contained


def test_alexander_form_various_parameters():
    for n, a in [(5, 2), (7, 3), (8, 3)]:
        rep = alexander_canonical_form(alexander(n, a), Q)
        assert rep.all_contained


def test_alexander_form_requires_affine_tag():
    with pytest.raises(ValueError):
        alexander_canonical_form(catalog_lookup("3.2"), Q)


def _basis_digest(basis):
    text = "\n".join(" ".join(map(str, v)) for v in basis.vectors)
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded from the library before the product spans became single word
# closures; beyond the order-8 dense oracles of test_closure_oracle.py.
PRODUCT_SPAN_PINS = [
    (alexander(11, 2), GF(3), "44f36455ea09da47710e2fdef570af8da7fa27f48bb01546fcb6797c6225d97e",
     (101, 101, True, False), (True, (), 101, 101)),
    (dihedral(12), Q, "4ebe07567d3d6e56cd08a91f01df085ff98efd064c92c7ea526605d1fd8e7633",
     (41, 38, True, True), (True, (), 41, 38)),
]


@pytest.mark.parametrize("q, f, digest, lr, affine", PRODUCT_SPAN_PINS,
                         ids=["alexander11-2-GF3", "dihedral12-Q"])
def test_lr_and_affine_spans_pinned(q, f, digest, lr, affine):
    r = lr_form_bound(q, f)
    a = alexander_canonical_form(q, f)
    assert _basis_digest(r.basis) == digest
    assert (r.lr_dim, r.transformation_dim, r.contains_transformation_algebra, r.strict) == lr
    assert (a.all_contained, a.failures, a.span_dim, a.transformation_dim) == affine


def test_left_right_commute_for_affine_quandles():
    # [L_x, R_x] = 0 on every affine quandle of order up to 8.
    for n in range(2, 9):
        for a in range(1, n):
            try:
                q = alexander(n, a)
            except ValueError:
                continue
            for x in range(n):
                assert commutator(left_mult(x, q, Q), right_mult(x, q, Q)).is_zero


def test_left_right_commute_in_trivial_quandle_generally():
    # R maps are the identity there, so every [L_x, R_y] vanishes.
    q = trivial(4)
    for x in range(4):
        for y in range(4):
            assert commutator(left_mult(x, q, Q), right_mult(y, q, Q)).is_zero
