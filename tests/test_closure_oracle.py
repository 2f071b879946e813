"""Dense-matrix oracles for the operator spans of ``quandlib.lietransform``.

The library builds its operator spans from functional maps: sparse
integer brackets with a small generating set of seeds for the Lie
transformation algebra, and words as image tuples for the product spans.  The oracles below build the same
spans the direct way, from matrix products:

- ``pairwise_closure``: commutator closure by integer matrix products,
  every pair of kept matrices bracketed once;
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
    _compose,
    _keep_independent,
    _outside,
    _word_closure,
    alexander_canonical_form,
    flatten_operator,
    lie_transformation_algebra,
    lr_form_bound,
    operator_from_flat,
)
from quandlib.quandles import alexander, catalog, dihedral, parse_quandle_spec, relabel, trivial

Q = RATIONALS
FIELDS = (Q, GF(2), GF(3), GF(2147483647))


def _canonical(f, n, ech):
    return SubspaceBasis(f, n * n, tuple(row for _, row in ech.finalize()))


def _functional_matrix(w):
    """The integer matrix, as a list of rows, of the map e_y ↦ e_{w[y]}."""
    n = len(w)
    m = [[0] * n for _ in range(n)]
    for y, u in enumerate(w):
        m[u][y] = 1
    return m


def _seed_matrices(q):
    """id, L_x and R_x as integer matrices."""
    n = q.n
    return ([_functional_matrix(range(n))] + [_functional_matrix(q.table[x]) for x in range(n)]
            + [_functional_matrix(q.column_perm(x)) for x in range(n)])


def _int_commutator(a, b):
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    return [[sum(x * y for x, y in zip(ra, cb)) - sum(x * y for x, y in zip(rb, ca))
             for ca, cb in zip(cols_a, cols_b)] for ra, rb in zip(a, b)]


def _column_major_row(m):
    n = len(m)
    return {x * n + u: m[u][x] for x in range(n) for u in range(n) if m[u][x]}


def pairwise_closure(q, f):
    """Commutator closure of {id} ∪ {L_x} ∪ {R_x} by brackets of every pair.

    Each matrix that grows the span is kept and bracketed with every matrix
    kept before it; the closure ends when no bracket is left.  The matrices
    are integer, and the echelon reduces them mod p over GF(p).
    """
    n = q.n
    ech = _Echelon(f, n * n)
    kept = []
    todo = _seed_matrices(q)
    for m in todo:
        if ech.insert(_column_major_row(m)):
            todo += [_int_commutator(k, m) for k in kept]
            kept.append(m)
    return _canonical(f, n, ech)


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


# Inputs whose closure needs generators beyond id, L_0 and R_0: over every
# field below, some later seed grows the span and joins the generating set.
WIDE_GENERATION = {"dihedral8": _relabeled(dihedral(8), 5), "dihedral10": _relabeled(dihedral(10), 6),
                   "conjugation-s3": parse_quandle_spec("conjugation:s3"), "trivial4": trivial(4),
                   "alexander8": alexander(8, 3)}


def _later_generators(log):
    return [name for name in log if not name.startswith("[") and name not in ("id", "L0", "R0")]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("q", WIDE_GENERATION.values(), ids=WIDE_GENERATION.keys())
def test_closure_over_a_grown_generating_set_matches_pairwise_oracle(q, f):
    t = lie_transformation_algebra(q, f)
    assert _later_generators(t.generator_log)
    assert t.subspace == pairwise_closure(q, f)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("q", WIDE_GENERATION.values(), ids=WIDE_GENERATION.keys())
def test_closure_certificate(q, f):
    """The span holds every seed and is closed under ad(L_x) and ad(R_x)."""
    n = q.n
    basis = lie_transformation_algebra(q, f).subspace
    ech = _Echelon(f, n * n)
    for v in basis.vectors:
        ech.insert_dense(v)
    seeds = _seed_matrices(q)
    for s in seeds:
        ech.insert(_column_major_row(s))
    for v in basis.vectors:
        row = ech.integer_row(v)
        m = [[row.get(x * n + u, 0) for x in range(n)] for u in range(n)]
        for s in seeds[1:]:
            ech.insert(_column_major_row(_int_commutator(s, m)))
    assert ech.rank == basis.dim


@pytest.mark.parametrize("q, f", AFFINE_CASES)
def test_kernel_membership_agrees_with_contains(q, f):
    n = q.n
    heads = [q.table[x] for x in range(n)] + [q.column_perm(x) for x in range(n)]
    words, _ = _word_closure(f, n, [q.table[0], q.column_perm(0)])
    ech = _Echelon(f, n * n)
    _keep_independent(ech, (_compose(h, w) for h in heads for w in words), set())
    basis = ech.basis()
    units = [tuple(f.one() if k == c else f.zero() for k in range(n * n)) for c in range(n * n)]
    probes = list(lie_transformation_algebra(q, f).subspace.vectors) + units
    outside = _outside(ech, probes)
    assert outside == tuple(i for i, v in enumerate(probes) if not contains(basis, v))
    assert 0 < len(outside) < len(probes)


# R_y·L_x = L_{x⊳y}·R_y (axiom III), so the span of the products
# (L-word)·(R-word) is the unital algebra that every L_x and R_x generate,
# and it holds the Lie transformation algebra.
LR_IDENTITY_CASES = (
    [pytest.param(q, f, id=f"{name}-{f.name}")
     for name, q in list(RELABELED.items()) + list(WIDE_GENERATION.items()) for f in FIELDS]
    + [pytest.param(q, f, id=f"catalog{q.label}-{f.name}")
       for q in catalog(3) + catalog(4) for f in FIELDS]
)


@pytest.mark.parametrize("q, f", LR_IDENTITY_CASES)
def test_lr_span_is_the_algebra_generated_by_all_multiplications(q, f):
    n = q.n
    gens = [q.table[x] for x in range(n)] + [q.column_perm(x) for x in range(n)]
    r = lr_form_bound(q, f)
    assert r.basis == _word_closure(f, n, gens)[1].basis()
    assert r.contains_transformation_algebra
