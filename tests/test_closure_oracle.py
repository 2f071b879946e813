"""Dense-matrix oracles for the operator spans of ``quandlib.lietransform``.

The library builds its operator spans from functional maps: a tower of
sparse integer brackets for the Lie transformation algebra, and words as
image tuples for the product spans.  The oracles below build the same
spans the direct way, from ``Matrix`` products over the field:

- ``pairwise_closure``: full pairwise commutator closure of the canonical
  basis, round after round, until the dimension is stable;
- ``lr_span_by_matmul``: canonical left- and right-word layers from matrix
  products, with all products of total length T added until the span is
  unchanged for two consecutive totals;
- ``affine_span_by_matmul``: the products head·L_0^a·R_0^b over all heads
  L_x, R_x and all distinct powers.

They are slow and kept only as references; the tests require equal
canonical bases.
"""

import random

import pytest

from quandlib.fields import GF, RATIONALS
from quandlib.linalg import Matrix, SubspaceBasis, _Echelon, contains
from quandlib.algebra import left_mult, right_mult
from quandlib.lietransform import (
    alexander_canonical_form,
    commutator,
    flatten_operator,
    lie_transformation_algebra,
    lr_form_bound,
    operator_from_flat,
)
from quandlib.quandles import alexander, catalog, dihedral, relabel, trivial

Q = RATIONALS
FIELDS = (Q, GF(2), GF(3), GF(2147483647))


def _canonical(f, n, ech):
    return SubspaceBasis(f, n * n, tuple(row for _, row in ech.finalize()))


def _seed_operators(q, f):
    return ([Matrix.identity(f, q.n)] + [left_mult(x, q, f) for x in range(q.n)]
            + [right_mult(x, q, f) for x in range(q.n)])


def pairwise_closure(q, f):
    """Commutator closure of {id} ∪ {L_x} ∪ {R_x} by full pairwise brackets."""
    n = q.n
    ech = _Echelon(f, n * n)
    for mat in _seed_operators(q, f):
        ech.insert_dense(flatten_operator(mat))
    basis = _canonical(f, n, ech)
    while True:
        mats = [operator_from_flat(f, n, v) for v in basis.vectors]
        grew = False
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                bracket = commutator(mats[i], mats[j])
                if not bracket.is_zero and ech.insert_dense(flatten_operator(bracket)):
                    grew = True
        if not grew:
            return basis
        basis = _canonical(f, n, ech)


def _next_matrix_layer(layers, gens, f, n):
    ech = _Echelon(f, n * n)
    for g in gens:
        for w in layers[-1]:
            ech.insert_dense(flatten_operator(g @ w))
    layers.append(tuple(operator_from_flat(f, n, v) for v in _canonical(f, n, ech).vectors))


def lr_span_by_matmul(q, f):
    """Span of (left-word)·(right-word) products, stopped after two stable totals."""
    n = q.n
    lgens = [left_mult(x, q, f) for x in range(n)]
    rgens = [right_mult(x, q, f) for x in range(n)]
    lw = [(Matrix.identity(f, n),)]
    rw = [(Matrix.identity(f, n),)]
    ech = _Echelon(f, n * n)
    stable_rounds = 0
    for total in range(2 * n * n + 3):
        while len(lw) <= total:
            _next_matrix_layer(lw, lgens, f, n)
            _next_matrix_layer(rw, rgens, f, n)
        before = ech.rank
        for m in range(total + 1):
            for a in lw[m]:
                for b in rw[total - m]:
                    ech.insert_dense(flatten_operator(a @ b))
        if ech.rank == before and total > 0:
            stable_rounds += 1
            if stable_rounds >= 2:
                break
        else:
            stable_rounds = 0
    return _canonical(f, n, ech)


def _matrix_powers(m):
    powers = [Matrix.identity(m.field, m.nrows)]
    cur = powers[0]
    while True:
        cur = cur @ m
        if cur in powers:
            return powers
        powers.append(cur)


def affine_span_by_matmul(q, f):
    """Span of head·L_0^a·R_0^b over the heads L_x, R_x and all distinct powers."""
    n = q.n
    ech = _Echelon(f, n * n)
    heads = [left_mult(x, q, f) for x in range(n)] + [right_mult(x, q, f) for x in range(n)]
    for head in heads:
        for la in _matrix_powers(left_mult(0, q, f)):
            for rb in _matrix_powers(right_mult(0, q, f)):
                ech.insert_dense(flatten_operator(head @ la @ rb))
    return _canonical(f, n, ech)


# ---------------------------------------------------------------------------
# seeded relabelings


def _relabeled(q, seed):
    perm = list(range(q.n))
    random.Random(seed).shuffle(perm)
    return relabel(q, perm)


RELABELED = {"dihedral6": _relabeled(dihedral(6), 1), "dihedral8": _relabeled(dihedral(8), 2),
             "alexander5": _relabeled(alexander(5, 2), 3),
             "alexander7": _relabeled(alexander(7, 3), 4)}


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("q", RELABELED.values(), ids=RELABELED.keys())
def test_closure_matches_pairwise_oracle_on_relabeled_quandles(q, f):
    assert lie_transformation_algebra(q, f).subspace == pairwise_closure(q, f)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("q", RELABELED.values(), ids=RELABELED.keys())
def test_lr_span_matches_matmul_oracle_on_relabeled_quandles(q, f):
    assert lr_form_bound(q, f).basis == lr_span_by_matmul(q, f)


@pytest.mark.parametrize("f", (Q, GF(2), GF(3)), ids=lambda f: f.name)
def test_lr_span_matches_matmul_oracle_on_the_catalog(f):
    for q in catalog(3) + catalog(4):
        assert lr_form_bound(q, f).basis == lr_span_by_matmul(q, f), q.label


def _affine_case(q, f):
    return pytest.param(q, f, id=f"n{q.n}a{q.alexander.alpha}-{f.name}")


# Even dihedral orders, trivial quandles and alexander(8, 3) (1 - α not a
# unit) have a non-bijective L_0 or R_0: its powers reach a cycle only after
# a tail, and the span of its powers stops growing before the powers repeat.
AFFINE_CASES = (
    [_affine_case(q, f) for q in (trivial(3), dihedral(3), alexander(5, 2), alexander(7, 3),
                                  alexander(9, 2), dihedral(4), dihedral(6), trivial(4))
     for f in FIELDS]
    + [_affine_case(alexander(8, 3), f) for f in (Q, GF(2))]
)


@pytest.mark.parametrize("q, f", AFFINE_CASES)
def test_affine_form_matches_matmul_oracle(q, f):
    report = alexander_canonical_form(q, f)
    span = affine_span_by_matmul(q, f)
    closure = pairwise_closure(q, f)
    assert report.span_dim == span.dim
    assert report.transformation_dim == closure.dim
    assert report.failures == tuple(
        i for i, v in enumerate(closure.vectors) if not contains(span, v))
