"""Derivations of quandle algebras.

A derivation is a linear map D with D(a·b) = D(a)·b + a·D(b).  On the basis
this is one linear condition per triple (x, y, z), giving an n³ × n² system
whose kernel, reshaped, is the space of derivation matrices.  The unknowns
are the matrix entries D[u][t] (the coefficient of e_u in D(e_t)), flattened
row-major: unknown index = u*n + t.  One generator, ``_leibniz_sparse_rows``,
writes every row.  The solver takes the rows of one element per orbit of
the inner automorphism group, merges the unknowns that their equality rows
equate into classes, and closes the classes and then the span of the other
rows under the renamings of the unknowns by a few inner automorphisms R_y:
an automorphism maps Leibniz rows onto Leibniz rows (see
``derivation_space``).  The solver is the ground truth here; the dihedral
symmetry relations and the closed-form dimension counts are checked against
it, never used to shortcut it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import Callable, Iterator, Sequence

from .fields import FieldSpec, Scalar
from .linalg import Matrix, SubspaceBasis, _Echelon, _nullspace_from_echelon
from .quandles import Quandle, _check_group, _inner_orbits, _preimages, _root


# ---------------------------------------------------------------------------
# the Leibniz system


def _leibniz_sparse_rows(q: Quandle, cls: Sequence[int] | None = None,
                         xs: Sequence[int] | None = None) -> Iterator[dict[int, int]]:
    """Integer coefficient rows of the Leibniz system, one per (x, y, z).

    Row (x, y, z) encodes the coefficient of e_z in
    D(e_{x⊳y}) - D(e_x)·e_y - e_x·D(e_y): +1 at D[z][x⊳y], -1 at D[ẑ][x] and
    -1 at each D[w][y], for ẑ the one preimage of z under R_y and w the
    preimages of z under L_x; equal keys are added up and zeros dropped.
    This is the only code that places a row's entries: the solve, the
    equality classes and the structure check all read their rows here.
    With a class map ``cls`` the unknown a is written as column cls[a], the
    coefficients of one class added up, and the rows with L_x⁻¹(z) empty are
    skipped: over the classes they are empty (see ``derivation_space``).
    ``xs`` limits x to the given elements, all of them by default.
    """
    n = q.n
    table = q.table
    col = range(n * n) if cls is None else cls
    # Axiom II: each R_y is a bijection, so R_y⁻¹(z) is a single element.
    right_inv = [[x for (x,) in _preimages(column)] for column in zip(*table)]
    for x in range(n) if xs is None else xs:
        row_x = table[x]
        pre_x = _preimages(row_x)
        zs = range(n) if cls is None else [z for z in range(n) if pre_x[z]]
        for y in range(n):
            xy = row_x[y]
            inv_y = right_inv[y]
            for z in zs:
                lead = col[z * n + xy]
                row = {lead: 1}
                key = col[inv_y[z] * n + x]
                row[key] = row.get(key, 0) - 1
                for w in pre_x[z]:
                    key = col[w * n + y]
                    row[key] = row.get(key, 0) - 1
                # Only the +1 can cancel.
                if not row[lead]:
                    del row[lead]
                yield row


def leibniz_system(q: Quandle, f: FieldSpec) -> Matrix:
    """The dense n³ × n² Leibniz system, rows in (x, y, z) lexicographic order."""
    n = q.n
    zero = f.zero()
    ents: list[Scalar] = []
    for row in _leibniz_sparse_rows(q):
        dense = [zero] * (n * n)
        for k, v in row.items():
            dense[k] = f.from_int(v)
        ents.extend(dense)
    return Matrix(f, n ** 3, n * n, tuple(ents))


# ---------------------------------------------------------------------------
# the derivation space


@dataclass(frozen=True)
class DerivationBasis:
    """Canonical basis of the derivation Lie algebra of k[X].

    ``subspace`` holds the echelonized kernel of the Leibniz system in the
    row-major flattening; ``basis`` holds the same vectors reshaped to
    matrices.
    """

    quandle: Quandle
    field: FieldSpec
    subspace: SubspaceBasis
    basis: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return self.subspace.dim


def matrix_from_flat(f: FieldSpec, n: int, vec: Sequence[Scalar]) -> Matrix:
    """Reshape a row-major flattened coefficient vector into a map matrix."""
    return Matrix(f, n, n, tuple(vec))


def flatten_matrix(m: Matrix) -> tuple[Scalar, ...]:
    """Row-major flattening; inverse of matrix_from_flat."""
    return m.entries


def _equality_classes(q: Quandle, reps: Sequence[int],
                      renamings: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The classes of unknowns that the equality rows merge.

    The equality rows of the elements ``reps`` are the rows of
    ``_leibniz_sparse_rows`` with two entries that sum to 0, +1 and -1.
    Each merge of unknowns a and b also merges σa and σb for every
    renaming σ in ``renamings``; with one element per orbit of the group the
    renamings generate, that is the partition of every equality row (see
    ``derivation_space``).  Returns the class of each of the n² unknowns and
    the number m of classes, numbered by their least member in increasing
    order.
    """
    size = q.n * q.n
    parent = list(range(size))
    # Only an x whose L_x is not onto has equality rows.
    xs = [x for x in reps if len(set(q.table[x])) < q.n]
    for row in _leibniz_sparse_rows(q, xs=xs):
        if len(row) != 2 or sum(row.values()):
            continue
        todo = [tuple(row)]
        while todo:
            a, b = todo.pop()
            ra, rb = _root(parent, a), _root(parent, b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
                todo += ((s[a], s[b]) for s in renamings)
    # Each root is the least member of its class, so it is numbered first.
    number: dict[int, int] = {}
    cls = [number.setdefault(_root(parent, a), len(number)) for a in range(size)]
    return cls, len(number)


def derivation_space(q: Quandle, f: FieldSpec) -> DerivationBasis:
    """Canonical basis of the kernel of the Leibniz system over ``f``.

    Equality rows.  Row (x, y, z) has +1 at z·n + x⊳y, -1 at ẑ·n + x and -1
    at w·n + y for each of the k preimages w of z under L_x, so its
    coefficients sum to 1 - 1 - k = -k; adding up equal keys and dropping
    zeros keeps that sum.  An equality row, with exactly two entries +1 and
    -1, sums to 0, so k = 0; and a row with k = 0 is +1 and -1 at its two
    keys, empty if they coincide.  So a row is an equality row exactly when
    L_x⁻¹(z) is empty and its two keys differ.  It says D_a = D_b over Q and
    over every GF(p), since ±1 is a unit in each, and merges a and b in a
    union-find over the n² unknowns.  The kernel of the full system is the
    set of vectors that are constant on each class and satisfy the other
    rows; on such a vector a row reads as its rewrite onto classes, with the
    coefficients of each class added up.  Written over the classes, a row
    with L_x⁻¹(z) empty is empty and every other row keeps its sum -k ≠ 0.

    Renamings.  Each R_y is an automorphism σ of the quandle (axioms II and
    III), so σ(x⊳y) = σx⊳σy, R_{σy}⁻¹(σz) = σ(R_y⁻¹(z)) and L_{σx}⁻¹(σz) =
    σ(L_x⁻¹(z)): row (σx, σy, σz) is row (x, y, z) with each unknown u·n + t
    renamed σu·n + σt.  Let G be the group the kept R_y generate
    (``quandles._inner_orbits``), whose orbits are those of Inn(q); only the
    rows of the least element x₀ of each orbit are generated.

    Classes (``_equality_classes``).  Let P be the partition that all
    equality rows generate, and P' the one built from the equality rows of
    the x₀ by merging σa and σb with each merge of a and b, for every kept
    σ: the finest partition holding the pairs of the x₀ and closed under
    each kept σ, hence under the finite group G.  P is G-closed too, since
    σ maps equality rows onto equality rows, so P' refines P.  The equality
    row (x, y, z), for x = σx₀ with σ ∈ G, is σ of the equality row
    (x₀, σ⁻¹y, σ⁻¹z), so its pair lies in P' and P refines P'.  So P' = P,
    σ maps classes onto classes, σ̄[cls[a]] = cls[σa] permutes the m
    classes, and the span R of the rows over the classes is σ̄-invariant.

    The span.  Each row of an x₀ that grows the echelon is kept, its image
    under every σ̄ is inserted, and an image that grows the echelon is kept
    in turn.  The span V at the end is spanned by the kept rows, and the
    image of each kept row under each σ̄ was inserted, so V is invariant
    under every σ̄ and hence under G.  Every inserted row lies in R, since R
    is G-invariant, so V ⊆ R.  Every row (x, y, z) is the image under some
    σ ∈ G of the row (x₀, σ⁻¹y, σ⁻¹z) of its orbit's x₀, so R ⊆ V.  Hence
    V = R.  Once the rank reaches m, V is everything and no more row is
    inserted.  The solve inserts at most o·n² + rank·|Y| rows, for o orbits
    and |Y| kept R_y; each kept R_y joins two orbits, so |Y| ≤ n - o, and
    with rank ≤ n² that is at most n³.  A quandle whose R_y are all the
    identity (a trivial quandle) keeps none and generates every row.

    The kernel is the lift a ↦ v[class(a)] of the kernel of those rows over
    the m classes, and the lift is injective.  Classes are numbered by their
    least member in increasing order, so the lift keeps pivot order, pivot
    entries and the zeros beside each pivot: the lifted RREF basis is the
    canonical RREF of the full kernel.
    """
    n = q.n
    gens, root = _inner_orbits(q)
    reps = [x for x, r in enumerate(root) if r == x]
    renamings = [[r[u] * n + r[t] for u in range(n) for t in range(n)]
                 for r in map(q.column_perm, gens)]
    cls, m = _equality_classes(q, reps, renamings)
    perms = [{cls[a]: cls[b] for a, b in enumerate(s)} for s in renamings]
    ech = _Echelon(f, m)
    for row in _leibniz_sparse_rows(q, cls, reps):
        todo = [row]
        while todo and ech.rank < m:
            row = todo.pop()
            if ech.insert(row):
                todo += ({perm[k]: v for k, v in row.items()} for perm in perms)
    kernel = _nullspace_from_echelon(f, m, ech)
    if m < n * n:
        kernel = SubspaceBasis(f, n * n, tuple(tuple(map(vec.__getitem__, cls))
                                               for vec in kernel.vectors))
    mats = tuple(matrix_from_flat(f, n, vec) for vec in kernel.vectors)
    return DerivationBasis(quandle=q, field=f, subspace=kernel, basis=mats)


# ---------------------------------------------------------------------------
# structure-constant characterization


@dataclass(frozen=True)
class StructureCheck:
    ok: bool
    witness: tuple[int, int, int] | None


def verify_structure_relations(D: Matrix, q: Quandle) -> StructureCheck:
    """Check c_{x⊳y}^z = c_x^ẑ + sum over w in x⁻¹(z) of c_y^w for all x, y, z.

    The two sums run over the preimages of R_y and of L_x: ẑ is the unique
    element with ẑ ⊳ y = z and x⁻¹(z) = {w : x ⊳ w = z}.  Relation (x, y, z)
    is row (x, y, z) of ``_leibniz_sparse_rows`` evaluated on the entries of
    D, read row-major like the unknowns; the witness is the first (x, y, z)
    in lexicographic order where it is not zero.  Agrees exactly with
    membership in the derivation space.
    """
    n = q.n
    if D.nrows != n or D.ncols != n:
        raise ValueError("matrix order does not match quandle order")
    # D scaled by the lcm of its denominators (1 over GF(p)): integer
    # entries with the same vanishing relations.
    den = lcm(*(v.denominator for v in D.entries))
    ents = [int(v * den) for v in D.entries]
    p = D.field.p
    for idx, row in zip(product(range(n), repeat=3), _leibniz_sparse_rows(q)):
        total = sum(v * ents[k] for k, v in row.items())
        if total % p if p else total:
            return StructureCheck(False, idx)
    return StructureCheck(True, None)


# ---------------------------------------------------------------------------
# dihedral symmetry relations


@dataclass(frozen=True)
class RelationCheck:
    applicable: bool
    holds: bool | None
    counterexample: tuple[int, ...] | None
    description: str


@dataclass(frozen=True)
class SymmetryReport:
    n: int
    checks: dict[str, RelationCheck]


# The four classes of dihedral order that the relations distinguish.
_ODD, _TWICE_ODD, _EVEN_QUARTER, _ODD_QUARTER = "odd", "2 mod 4", "0 mod 8", "4 mod 8"


def _order_class(n: int) -> tuple[str, int]:
    """The class of the order n and its k: n = 4k for orders 0 mod 4 (split
    by the parity of the quarter k), n = 2k for orders 2 mod 4, k = 0 if odd."""
    if n % 2:
        return _ODD, 0
    if n % 4:
        return _TWICE_ODD, n // 2
    k = n // 4
    return (_ODD_QUARTER if k % 2 else _EVEN_QUARTER), k


@dataclass(frozen=True)
class _Relation:
    """The coefficient relation c at ``lhs`` = sign · c at ``rhs``.

    ``sides(k, *idx)`` gives the (t, x) positions ``(lhs, rhs)`` for one
    index tuple of length ``arity``, each index running over 0..n-1.  Sign 0
    means the left side vanishes (``rhs`` is None).  ``text(k)`` describes the
    relation where it applies; ``not_applicable`` holds the text for every
    class of n where it does not.  ``scan(D)``, where given, finds the same
    first counterexample as the walk over every index tuple, faster.
    """

    name: str
    arity: int
    sides: Callable[..., tuple[tuple[int, int], tuple[int, int] | None]]
    sign: int
    text: Callable[[int], str]
    not_applicable: dict[str, str]
    scan: Callable[[Matrix], tuple[int, ...] | None] | None = None


def _reflection_counterexample(D: Matrix) -> tuple[int, int, int] | None:
    """The first (t, d, x) where c_{t+2d}^x = c_t^{2t+2d-x} fails on D.

    With s = t + 2d and r = 2t + 2d the relation equates column s with
    column t reversed and rotated, x ↦ c_t^{(r-x) mod n}.  The pairs (t, d)
    are compared whole in lexicographic order, and x is scanned only inside
    the first pair that differs, so the witness is that of the n³ walk.
    """
    n, ents = D.nrows, D.entries
    cols = [ents[s::n] for s in range(n)]
    for t, d in product(range(n), repeat=2):
        s, r = (t + 2 * d) % n, (2 * t + 2 * d) % n
        mirrored = cols[t][r::-1] + cols[t][:r:-1]
        if cols[s] != mirrored:
            return t, d, next(x for x in range(n) if cols[s][x] != mirrored[x])
    return None


_EVEN_ONLY = "even order only"
_MOD4_ONLY = "order 0 mod 4 only"
_RELATIONS = (
    _Relation("reflection", 3, lambda k, t, d, x: ((t + 2 * d, x), (t, 2 * t + 2 * d - x)), 1,
              lambda k: "c_{t+2d}^x = c_t^{2t+2d-x}",
              {_ODD: "c_{t+2d}^x = c_t^{2t+2d-x} (even order only)"}, _reflection_counterexample),
    _Relation("half_shift_sign", 2, lambda k, t, x: ((t, x), (t, x + 2 * k)), -1,
              lambda k: f"c_t^x = -c_t^(x+{2 * k})",
              {_ODD: _EVEN_ONLY, _TWICE_ODD: "c_t^x = -c_t^(x+2k) (order 0 mod 4 only)"}),
    _Relation("half_shift_period", 2, lambda k, t, x: ((t, x), (t + 2 * k, x + 2 * k)), 1,
              lambda k: f"c_t^x = c_(t+{2 * k})^(x+{2 * k})",
              {_ODD: _EVEN_ONLY, _TWICE_ODD: "c_t^x = c_(t+2k)^(x+2k) (order 0 mod 4 only)"}),
    _Relation("quarter_shift_period", 2, lambda k, t, x: ((t, x), (t + k, x + k)), 1,
              lambda k: f"c_t^x = c_(t+{k})^(x+{k})",
              {_ODD: _EVEN_ONLY, _TWICE_ODD: _MOD4_ONLY,
               _ODD_QUARTER: "c_t^x = c_(t+k)^(x+k) (even quarter only)"}),
    _Relation("near_quarter_shift_period", 2, lambda k, t, x: ((t, x), (t + k - 1, x + k - 1)), 1,
              lambda k: f"c_t^x = c_(t+{k - 1})^(x+{k - 1})",
              {_ODD: _EVEN_ONLY, _TWICE_ODD: _MOD4_ONLY,
               _EVEN_QUARTER: "c_t^x = c_(t+k-1)^(x+k-1) (odd quarter only)"}),
    _Relation("half_shift_sign_twice_odd", 2, lambda k, t, x: ((t, x), (t, x + k)), -1,
              lambda k: f"c_t^x = -c_t^(x+{k})",
              {_ODD: _EVEN_ONLY,
               _EVEN_QUARTER: "c_t^x = -c_t^(x+k) (order 2 mod 4 only)",
               _ODD_QUARTER: "c_t^x = -c_t^(x+k) (order 2 mod 4 only)"}),
    _Relation("diagonal_shift_zero", 1, lambda k, t: ((t, t + k), None), 0,
              lambda k: f"c_t^(t+{k}) = 0",
              {_ODD: _EVEN_ONLY}),
)
_RELATION = {rel.name: rel for rel in _RELATIONS}


def _counterexample(rel: _Relation, D: Matrix, k: int) -> tuple[int, ...] | None:
    """The first index tuple, in lexicographic order, where ``rel`` fails on D."""
    if rel.scan:
        return rel.scan(D)
    n, f, ents = D.nrows, D.field, D.entries
    zero = f.zero()
    for idx in product(range(n), repeat=rel.arity):
        (t, x), rhs = rel.sides(k, *idx)
        want = zero
        if rel.sign:
            t2, x2 = rhs
            want = ents[x2 % n * n + t2 % n]
            if rel.sign < 0:
                want = f.neg(want)
        if ents[x % n * n + t % n] != want:
            return idx
    return None


def dihedral_symmetry_report(D: Matrix, n: int) -> SymmetryReport:
    """Evaluate the dihedral coefficient symmetries on a map matrix.

    Coefficient convention: c_t^x is the entry at row x, column t, indices
    mod n.  Relations whose hypotheses do not fit this n are marked not
    applicable.
    """
    if D.nrows != n or D.ncols != n:
        raise ValueError("matrix order mismatch")
    order_class, k = _order_class(n)
    checks: dict[str, RelationCheck] = {}
    for rel in _RELATIONS:
        if order_class in rel.not_applicable:
            checks[rel.name] = RelationCheck(False, None, None, rel.not_applicable[order_class])
        else:
            witness = _counterexample(rel, D, k)
            checks[rel.name] = RelationCheck(True, witness is None, witness, rel.text(k))
    return SymmetryReport(n=n, checks=checks)


# ---------------------------------------------------------------------------
# block shape of dihedral derivations


@dataclass(frozen=True)
class BlockReport:
    """Block structure of a candidate derivation matrix of even dihedral order.

    For n = 4k: ``fits`` says whether D = (P, -P; -P, P); when the quarter k
    is even, ``fits_uv`` additionally reports P = (U, V; -V, U).  For
    n = 2k with k odd, ``fits`` reports the row relation c_t^{x+k} = -c_t^x
    and ``top_half`` carries the upper half of the matrix.
    """

    n: int
    form: str
    fits: bool
    p_block: Matrix | None = None
    fits_uv: bool | None = None
    u_block: Matrix | None = None
    v_block: Matrix | None = None
    top_half: Matrix | None = None


def _submatrix(D: Matrix, r0: int, c0: int, size_r: int, size_c: int) -> Matrix:
    ents = tuple(
        D.entry(r0 + i, c0 + j) for i in range(size_r) for j in range(size_c)
    )
    return Matrix(D.field, size_r, size_c, ents)


def block_decomposition(D: Matrix, n: int) -> BlockReport:
    """The block shape of D, read off the dihedral relations.

    (P, -P; -P, P) holds iff both half shifts hold, P = (U, V; -V, U) iff the
    quarter shift holds as well, and the half-rows form of orders 2 mod 4 is
    the relation ``half_shift_sign_twice_odd``.
    """
    order_class, k = _order_class(n)
    if order_class == _ODD:
        raise ValueError("block decomposition needs even order")
    if D.nrows != n or D.ncols != n:
        raise ValueError("matrix order mismatch")

    def holds(name: str) -> bool:
        return _counterexample(_RELATION[name], D, k) is None

    h = n // 2
    if order_class == _TWICE_ODD:
        return BlockReport(n=n, form="half_rows", fits=holds("half_shift_sign_twice_odd"),
                           top_half=_submatrix(D, 0, 0, h, n))
    fits = holds("half_shift_sign") and holds("half_shift_period")
    p = _submatrix(D, 0, 0, h, h)
    if order_class == _ODD_QUARTER:
        return BlockReport(n=n, form="quadrant", fits=fits, p_block=p)
    return BlockReport(n=n, form="quadrant", fits=fits, p_block=p,
                       fits_uv=fits and holds("quarter_shift_period"),
                       u_block=_submatrix(D, 0, 0, k, k), v_block=_submatrix(D, 0, k, k, k))


# ---------------------------------------------------------------------------
# dimension prediction for dihedral quandles in characteristic zero


@dataclass(frozen=True)
class DimPrediction:
    """Closed-form dimension claim; always compare against the solver.

    ``dim`` is None when no closed form is available (n = 2 mod 4).  The
    multiple-of-four formula is a recorded claim, not a solver shortcut;
    ``check_against_solver`` flags that callers must confront it with the
    computed dimension.
    """

    n: int
    dim: int | None
    rule: str
    check_against_solver: bool


def predicted_dim_dihedral(n: int) -> DimPrediction:
    if n < 1:
        raise ValueError("order must be positive")
    order_class, k = _order_class(n)
    if order_class == _ODD:
        return DimPrediction(n, 0, "odd_order_trivial", False)
    if order_class == _TWICE_ODD:
        return DimPrediction(n, None, "no_closed_form", True)
    dim = 2 * k if order_class == _EVEN_QUARTER else 2 * k - 1
    return DimPrediction(n, dim, "multiple_of_four_formula", True)


# ---------------------------------------------------------------------------
# explicit derivations on conjugation quandles


def central_translation(group_table: Sequence[Sequence[int]], x: int, f: FieldSpec) -> Matrix:
    """The map e_y ↦ e_y - e_{yx} for a central group element x.

    A derivation of the conjugation-quandle algebra of the group; centrality
    is checked.
    """
    _check_group(group_table)
    n = len(group_table)
    if not (0 <= x < n):
        raise IndexError("element out of range")
    for g in range(n):
        if group_table[x][g] != group_table[g][x]:
            raise ValueError(f"element {x} is not central (fails against {g})")
    ents = [f.zero()] * (n * n)
    one = f.one()
    for y in range(n):
        ents[y * n + y] = f.add(ents[y * n + y], one)
        yx = group_table[y][x]
        ents[yx * n + y] = f.sub(ents[yx * n + y], one)
    return Matrix(f, n, n, tuple(ents))


def image_in_augmentation_ideal(D: Matrix) -> bool:
    """True iff every column of D sums to zero (image inside ker ε)."""
    f = D.field
    for j in range(D.ncols):
        acc = f.zero()
        for i in range(D.nrows):
            acc = f.add(acc, D.entry(i, j))
        if acc:
            return False
    return True
