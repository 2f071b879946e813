"""Lie transformation algebras of quandle algebras and inner derivations.

The Lie transformation algebra of an algebra A is the smallest Lie algebra
of linear operators containing the identity together with every left and
right multiplication.  A derivation lying inside it is an inner derivation.

Every seed operator (id, L_x, R_x) is a functional map e_y ↦ e_φ(y), and so
is every product of seeds.  Nothing here multiplies matrices:

- the closure brackets each kept operator M with a small generating set
  of seeds φ, which grows only by a seed outside the span; each [φ, M] is
  a sparse scatter and gather on integer rows that go straight into the
  echelon kernel, which reduces them mod p over GF(p); see
  ``lie_transformation_algebra``;
- product spans are word closures: the smallest span that holds some
  start words and is closed under left multiplication by some generators
  (``_word_closure``); words are image tuples, a product is composition,
  and a word seen before is not inserted again.  Axiom III gives
  R_y·L_x = L_{x⊳y}·R_y, which makes one closure enough for each span.
  Membership in a product span is tested against its echelon
  (``_outside``).  See ``lr_form_bound`` and ``alexander_canonical_form``.

Operators are flattened column-major into n²-dimensional coordinate space:
coordinate x·n + u holds the coefficient of e_u in the image of e_x.  The
sparse rows, the canonical bases and the golden outputs all use this one
convention.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .fields import FieldSpec, Scalar
from .linalg import Matrix, SubspaceBasis, _Echelon, contains, span_from_vectors, span_intersect
from .quandles import Quandle, _preimages
from .derivations import derivation_space

# The image tuple of a functional map: the map sends e_y to e_{w[y]}.
Word = tuple[int, ...]


def flatten_operator(m: Matrix) -> tuple[Scalar, ...]:
    """Column-major flattening: image coordinates of e_0, then of e_1, ..."""
    n = m.nrows
    return tuple(m.entry(u, x) for x in range(n) for u in range(n))


def operator_from_flat(f: FieldSpec, n: int, vec: Sequence[Scalar]) -> Matrix:
    ents = [f.zero()] * (n * n)
    for x in range(n):
        for u in range(n):
            ents[u * n + x] = vec[x * n + u]
    return Matrix(f, n, n, tuple(ents))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """AB - BA."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.nrows != b.nrows or a.ncols != b.ncols or a.nrows != a.ncols:
        raise ValueError("commutator needs square matrices of equal order")
    return (a @ b) - (b @ a)


# ---------------------------------------------------------------------------
# functional maps


def _word_row(w: Word) -> dict[int, int]:
    """The column-major indicator row of the functional map ``w``."""
    n = len(w)
    return {y * n + u: 1 for y, u in enumerate(w)}


def _compose(a: Word, b: Word) -> Word:
    """The product a·b: e_y ↦ e_{a(b(y))}."""
    return tuple(map(a.__getitem__, b))


def _keep_independent(ech: _Echelon, words: Iterable[Word], seen: set[Word]) -> list[Word]:
    """The words whose indicator rows grew the span of ``ech``, in order.

    A word already in ``seen`` is skipped, since its row was inserted
    before; every word tried joins ``seen``.
    """
    kept = []
    for w in words:
        if w not in seen:
            seen.add(w)
            if ech.insert(_word_row(w)):
                kept.append(w)
    return kept


def _bracket(phi: Word, preimages: Sequence[Sequence[int]], row: dict[int, int]) -> dict[int, int]:
    """The column-major row of [φ, M] = φM − Mφ from the row of M.

    φM is a scatter, (φM)[φ(u), y] += M[u, y]; Mφ is a gather, column z of
    Mφ is column φ(z) of M, so M[u, y] lands in every column z ∈ φ⁻¹(y).
    """
    n = len(phi)
    out: dict[int, int] = {}
    get = out.get
    for k, v in row.items():
        y, u = divmod(k, n)
        c = y * n + phi[u]
        out[c] = get(c, 0) + v
        for z in preimages[y]:
            c = z * n + u
            out[c] = get(c, 0) - v
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the transformation algebra


@dataclass(frozen=True)
class OperatorSpace:
    """A commutator-closed operator subspace with its generation history.

    ``generator_log`` names, in insertion order, the elements that grew the
    span: each seed that joined the generating set ("id", "L0", "R2", ...)
    and each right-normed bracket of a generator with an element kept
    before it ("[L1,L0]", "[L0,[L1,L0]]", ...).  It is diagnostic only; the
    canonical basis is ``subspace``, and ``matrices`` holds the same basis as
    ``Matrix`` objects, built on first access.
    """

    field: FieldSpec
    n: int
    subspace: SubspaceBasis
    generator_log: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @cached_property
    def matrices(self) -> tuple[Matrix, ...]:
        return tuple(operator_from_flat(self.field, self.n, v) for v in self.subspace.vectors)

    def contains_operator(self, m: Matrix) -> bool:
        return contains(self.subspace, flatten_operator(m))


def lie_transformation_algebra(q: Quandle, f: FieldSpec) -> OperatorSpace:
    """The Lie algebra g generated by S = {id} ∪ {L_x} ∪ {R_x} acting on k[X].

    Closed over a generating set S′ ⊆ S that grows as needed.  The seeds are
    inserted in the order id, L_0, R_0, L_1, ..., L_{n-1}, R_1, ..., R_{n-1};
    a seed that grows the span joins S′.  Every element that grew the span
    is kept and bracketed once with every generator: a new generator with
    each element kept before it, a new bracket with each generator in S′.  A
    bracket that grows the span is kept in turn.  The next seed is inserted
    only when no bracket is left to try.  The identity is central, so it is
    kept but never bracketed.

    Why the span V at the end is all of g: V is spanned by the kept
    elements, since a dropped row lies in the span already.  Each kept
    element is a generator or a bracket of a generator with a kept element,
    so V ⊆ Lie(S′).  Each kept element has been bracketed with each
    generator but id, whose brackets vanish, so [s, V] ⊆ V for every
    s ∈ S′.  The elements a of gl(k[X]) with [a, V] ⊆ V form a Lie
    subalgebra (Jacobi: [[a,b],v] = [a,[b,v]] − [b,[a,v]]) that contains
    S′, hence all of Lie(S′) ⊇ V; so V is a Lie subalgebra containing S′,
    and V = Lie(S′).  Every seed was inserted, so S ⊆ V, and
    g = Lie(S) ⊆ V = Lie(S′) ⊆ Lie(S) = g.  (Right-normed brackets of
    generators span the free Lie algebra; Reutenauer, *Free Lie Algebras*,
    1993.)

    Each seed is a functional map, so a bracket costs O(nnz) sparse integer
    updates (``_bracket``) instead of two dense matrix products.
    """
    n = q.n
    ech = _Echelon(f, n * n)
    seeds = [("id", tuple(range(n))), ("L0", q.table[0]), ("R0", q.column_perm(0))]
    seeds += [(f"L{x}", q.table[x]) for x in range(1, n)]
    seeds += [(f"R{x}", q.column_perm(x)) for x in range(1, n)]
    gens: list[tuple[str, Word, list[list[int]]]] = []
    kept: list[tuple[str, dict[int, int]]] = []
    # Brackets left to try, as (index into gens, index into kept).
    work: deque[tuple[int, int]] = deque()
    for name, w in seeds:
        row = _word_row(w)
        if not ech.insert(row):
            continue
        if name != "id":
            work.extend((len(gens), t) for t in range(1, len(kept)))  # kept[0] is id
            gens.append((name, w, _preimages(w)))
        kept.append((name, row))
        while work:
            g, t = work.popleft()
            s_name, phi, preimages = gens[g]
            t_name, t_row = kept[t]
            bracket = _bracket(phi, preimages, t_row)
            if bracket and ech.insert(bracket):
                work.extend((i, len(kept)) for i in range(len(gens)))
                kept.append((f"[{s_name},{t_name}]", bracket))
    return OperatorSpace(field=f, n=n, subspace=ech.basis(),
                         generator_log=tuple(name for name, _ in kept))


# ---------------------------------------------------------------------------
# inner derivations


@dataclass(frozen=True)
class InnerDerivations:
    """Derivations lying inside the Lie transformation algebra."""

    basis: SubspaceBasis  # column-major flattened, canonical
    inner_dim: int
    outer_dim: int
    derivation_dim: int
    transformation_dim: int


def _inner_split(q: Quandle, f: FieldSpec, transf: OperatorSpace) -> InnerDerivations:
    """The inner/outer split of the derivations against a computed algebra."""
    der = derivation_space(q, f)
    der_flat = span_from_vectors(
        f, q.n * q.n, [flatten_operator(m) for m in der.basis]
    )
    inner = span_intersect(der_flat, transf.subspace)
    return InnerDerivations(
        basis=inner,
        inner_dim=inner.dim,
        outer_dim=der.dim - inner.dim,
        derivation_dim=der.dim,
        transformation_dim=transf.dim,
    )


def inner_derivations(q: Quandle, f: FieldSpec) -> InnerDerivations:
    return _inner_split(q, f, lie_transformation_algebra(q, f))


# ---------------------------------------------------------------------------
# products of left and right multiplication operators


@dataclass(frozen=True)
class LrSpan:
    """The span of (left-word)·(right-word) operator products.

    ``contains_transformation_algebra`` reports the inclusion of the Lie
    transformation algebra in this span, which ``lr_form_bound`` proves and
    still computes; ``strict`` whether the inclusion is proper.
    """

    basis: SubspaceBasis
    lr_dim: int
    transformation_dim: int
    contains_transformation_algebra: bool
    strict: bool


def _word_closure(f: FieldSpec, n: int, gens: Sequence[Word],
                  start: Iterable[Word] | None = None) -> tuple[list[Word], _Echelon]:
    """Kept words and echelon of the smallest span V that holds ``start``
    (by default the identity) and is closed under left multiplication by
    ``gens``: each word that grew V is extended once by every generator.
    """
    ech = _Echelon(f, n * n)
    seen: set[Word] = set()
    frontier = _keep_independent(ech, [tuple(range(n))] if start is None else start, seen)
    kept = list(frontier)
    while frontier:
        frontier = _keep_independent(ech, (_compose(g, w) for w in frontier for g in gens), seen)
        kept += frontier
    return kept, ech


def _outside(ech: _Echelon, vectors: Iterable[Sequence[Scalar]]) -> tuple[int, ...]:
    """The indices of the dense ``vectors`` that lie outside the span of ``ech``."""
    return tuple(i for i, v in enumerate(vectors) if ech.reduce(ech.integer_row(v)))


def lr_form_bound(q: Quandle, f: FieldSpec) -> LrSpan:
    """Span W of all products a·w, a an L-word and w an R-word.

    W is the closure of the R-words (the kept words of the closure of id
    under the R_x) under the L_x: W holds every R-word and L_x·a is an
    L-word, and a span holding every R-word and closed under the L_x holds
    each a·w, by induction on the length of a.

    W is also the unital algebra generated by the L_x and R_x: axiom III
    reads R_y·L_x = L_{x⊳y}·R_y, so w·a' = a''·w for an L-word a'', and
    (a·w)·(a'·w') = (a·a'')·(w·w') ∈ W.  That algebra holds every
    commutator of its elements, so ``contains_transformation_algebra`` is
    always true; the inclusion is still computed, as a certificate.
    """
    n = q.n
    rwords, _ = _word_closure(f, n, [q.column_perm(x) for x in range(n)])
    _, ech = _word_closure(f, n, [q.table[x] for x in range(n)], start=rwords)
    basis = ech.basis()
    transf = lie_transformation_algebra(q, f)
    contained = not _outside(ech, transf.subspace.vectors)
    return LrSpan(
        basis=basis,
        lr_dim=basis.dim,
        transformation_dim=transf.dim,
        contains_transformation_algebra=contained,
        strict=contained and basis.dim > transf.dim,
    )


# ---------------------------------------------------------------------------
# the affine (Alexander) canonical form


@dataclass(frozen=True)
class AlexanderFormReport:
    """Membership of the transformation algebra in the affine product span.

    The span collects L_f·L_0^a·R_0^b and R_g·L_0^a·R_0^b over all basis
    indices f, g and all powers a, b ≥ 0.  By axioms III and I,
    R_0·L_0 = L_{0⊳0}·R_0 = L_0·R_0, so the words in L_0 and R_0 are exactly
    the L_0^a·R_0^b, and the span is the heads L_x, R_x times the closure
    of id under {L_0, R_0}.
    """

    all_contained: bool
    failures: tuple[int, ...]
    span_dim: int
    transformation_dim: int


def alexander_canonical_form(q: Quandle, f: FieldSpec) -> AlexanderFormReport:
    """Test the transformation algebra for membership in the affine span
    (see ``AlexanderFormReport``): the heads times the kept words."""
    if q.alexander is None:
        raise ValueError("quandle does not carry affine parameters")
    n = q.n
    heads = [q.table[x] for x in range(n)] + [q.column_perm(x) for x in range(n)]
    words, _ = _word_closure(f, n, [q.table[0], q.column_perm(0)])
    ech = _Echelon(f, n * n)
    _keep_independent(ech, (_compose(h, w) for h in heads for w in words), set())
    transf = lie_transformation_algebra(q, f)
    failures = _outside(ech, transf.subspace.vectors)
    return AlexanderFormReport(
        all_contained=not failures,
        failures=failures,
        span_dim=ech.rank,
        transformation_dim=transf.dim,
    )
