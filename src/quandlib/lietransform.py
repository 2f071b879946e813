"""Lie transformation algebras of quandle algebras and inner derivations.

The Lie transformation algebra of an algebra A is the smallest Lie algebra
of linear operators containing the identity together with every left and
right multiplication.  A derivation lying inside it is an inner derivation.

Every seed operator (id, L_x, R_x) is a functional map e_y ↦ e_φ(y), and so
is every product of seeds.  Nothing here multiplies matrices:

- the closure is a tower of brackets [φ, M] of a seed with an operator,
  each a sparse scatter and gather on integer rows that go straight into
  the echelon kernel, which reduces them mod p over GF(p); see
  ``lie_transformation_algebra``;
- product spans are products of word closures: the kept words spanning
  every product of some generators (``_word_closure``), multiplied factor
  by factor (``_product_span``); words are image tuples and a product is
  composition.  See ``lr_form_bound`` and ``alexander_canonical_form``.

Operators are flattened column-major into n²-dimensional coordinate space:
coordinate x·n + u holds the coefficient of e_u in the image of e_x.  The
sparse rows, the canonical bases and the golden outputs all use this one
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import FieldSpec, Scalar
from .linalg import Matrix, SubspaceBasis, _Echelon, contains, span_from_vectors, span_intersect
from .quandles import Quandle
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


def _seed_words(q: Quandle) -> list[tuple[str, Word]]:
    """id, then L_x: y ↦ x ⊳ y, then R_x: y ↦ y ⊳ x."""
    seeds = [("id", tuple(range(q.n)))]
    seeds += [(f"L{x}", q.table[x]) for x in range(q.n)]
    seeds += [(f"R{x}", q.column_perm(x)) for x in range(q.n)]
    return seeds


def _keep_independent(ech: _Echelon, words: Iterable[Word]) -> list[Word]:
    """The words whose indicator rows grew the span of ``ech``, in order."""
    return [w for w in words if ech.insert(_word_row(w))]


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
    span: the seeds first ("id", "L0", "R2", ...), then the right-normed
    brackets of seeds, stage by stage ("[L0,R1]", "[R2,[L0,R1]]", ...).  It
    is diagnostic only; the canonical basis is ``matrices``.
    """

    field: FieldSpec
    n: int
    subspace: SubspaceBasis
    matrices: tuple[Matrix, ...]
    generator_log: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def contains_operator(self, m: Matrix) -> bool:
        return contains(self.subspace, flatten_operator(m))


def lie_transformation_algebra(q: Quandle, f: FieldSpec) -> OperatorSpace:
    """The Lie algebra generated by S = {id} ∪ {L_x} ∪ {R_x} acting on k[X].

    Built as a tower.  Stage 1 holds the seeds that grow the span; stage
    k+1 holds the brackets [s, t] of each stage-1 seed s with each stage-k
    element t that grew the span.  The loop ends when a stage adds nothing.

    Why this is the whole algebra g generated by S: write V_k for the span
    after stage k and B_k for the elements stage k kept.  Every bracket
    stage k+1 drops already lies in the span, so V_{k+1} = V_k + [S, B_k],
    and by induction V_{k+1} = V_k + [S, V_k] (the brackets with V_{k-1}
    lie in V_k already).  Brackets with a dropped seed are combinations of
    brackets with the kept ones.  When stage k+1 adds nothing, [s, V_k] ⊆
    V_k for every seed s.  The elements a of g with [a, V_k] ⊆ V_k form a
    Lie subalgebra (Jacobi: [[a,b],v] = [a,[b,v]] − [b,[a,v]]) that
    contains S, hence all of g ⊇ V_k; so V_k is a Lie subalgebra containing
    S, and V_k = g.  (Right-normed brackets of generators span the free Lie
    algebra; Reutenauer, *Free Lie Algebras*, 1993.)

    Each seed is a functional map, so a bracket costs O(nnz) sparse integer
    updates (``_bracket``) instead of two dense matrix products.
    """
    n = q.n
    ech = _Echelon(f, n * n)
    gens: list[tuple[str, Word, list[list[int]]]] = []
    stage: list[tuple[str, dict[int, int]]] = []
    for name, w in _seed_words(q):
        row = _word_row(w)
        if ech.insert(row):
            preimages: list[list[int]] = [[] for _ in range(n)]
            for z, y in enumerate(w):
                preimages[y].append(z)
            gens.append((name, w, preimages))
            stage.append((name, row))
    log = [name for name, _ in stage]
    while stage:
        next_stage = []
        for s_name, phi, preimages in gens:
            for t_name, t_row in stage:
                bracket = _bracket(phi, preimages, t_row)
                if bracket and ech.insert(bracket):
                    next_stage.append((f"[{s_name},{t_name}]", bracket))
        log += [name for name, _ in next_stage]
        stage = next_stage
    basis = ech.basis()
    mats = tuple(operator_from_flat(f, n, vec) for vec in basis.vectors)
    return OperatorSpace(field=f, n=n, subspace=basis, matrices=mats, generator_log=tuple(log))


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

    The span is the product of the word closures of the L_x and of the R_x.
    ``contains_transformation_algebra`` reports the inclusion of the Lie
    transformation algebra in this span; ``strict`` whether the inclusion is
    proper.
    """

    basis: SubspaceBasis
    lr_dim: int
    transformation_dim: int
    contains_transformation_algebra: bool
    strict: bool


def _word_closure(f: FieldSpec, n: int, gens: Sequence[Word]) -> list[Word]:
    """Kept words spanning every product of ``gens``, the empty product included.

    Each word that grew the span is extended once by every generator on the
    left, so the span is closed under left multiplication by ``gens``.
    """
    ech = _Echelon(f, n * n)
    frontier = _keep_independent(ech, [tuple(range(n))])
    kept = list(frontier)
    while frontier:
        frontier = _keep_independent(ech, (_compose(g, w) for w in frontier for g in gens))
        kept += frontier
    return kept


def _product_span(f: FieldSpec, n: int, *factors: Sequence[Word]) -> SubspaceBasis:
    """The canonical span of every product a·b·… with one word from each factor.

    Folded from the right, keeping only independent words after each factor:
    span{a·w : a ∈ A, w ∈ W} = A·span(W), so dropped words add nothing.
    """
    words: list[Word] = [tuple(range(n))]
    for factor in reversed(factors):
        ech = _Echelon(f, n * n)
        words = _keep_independent(ech, (_compose(a, w) for a in factor for w in words))
    return ech.basis()


def lr_form_bound(q: Quandle, f: FieldSpec) -> LrSpan:
    """Span of all products (m left multiplications)·(k right multiplications).

    By bilinearity this is span(L-words)·span(R-words), the product of the
    two word closures.  The Lie transformation algebra is then tested for
    membership.
    """
    n = q.n
    lwords = _word_closure(f, n, [q.table[x] for x in range(n)])
    rwords = _word_closure(f, n, [q.column_perm(x) for x in range(n)])
    basis = _product_span(f, n, lwords, rwords)
    transf = lie_transformation_algebra(q, f)
    contained = all(contains(basis, v) for v in transf.subspace.vectors)
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
    indices f, g and all powers a, b ≥ 0: the product of the heads L_x, R_x
    with the word closures of L_0 and of R_0.
    """

    all_contained: bool
    failures: tuple[int, ...]
    span_dim: int
    transformation_dim: int


def alexander_canonical_form(q: Quandle, f: FieldSpec) -> AlexanderFormReport:
    if q.alexander is None:
        raise ValueError("quandle does not carry affine parameters")
    n = q.n
    heads = [q.table[x] for x in range(n)] + [q.column_perm(x) for x in range(n)]
    basis = _product_span(f, n, heads, _word_closure(f, n, [q.table[0]]),
                          _word_closure(f, n, [q.column_perm(0)]))
    transf = lie_transformation_algebra(q, f)
    failures = tuple(
        i for i, v in enumerate(transf.subspace.vectors) if not contains(basis, v)
    )
    return AlexanderFormReport(
        all_contained=not failures,
        failures=failures,
        span_dim=basis.dim,
        transformation_dim=transf.dim,
    )
