"""Deterministic dense linear algebra over Q and GF(p).

Everything reduces to one kernel: an incremental echelonizer over sparse
rows.  Callers hand it integer rows over either field; the kernel alone
decides how rows are reduced and combined.  Its stored rows are in reduced
row-echelon form at all times, so each row is reduced in one combination.
Over the rationals the rows are integer vectors kept small by gcd division,
and only ``finalize`` scales them to leading coefficient 1 (producing
``Fraction`` entries); over GF(p) they are canonical residues throughout.
Reduced row-echelon form is unique, so every subspace has exactly one
``SubspaceBasis`` representation and equality of subspaces is equality of
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import FieldSpec, Scalar

Vector = tuple


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix, entries row-major.

    When a matrix represents a linear map on a quandle algebra, column x
    holds the image coordinates of the basis vector e_x, and the map acts by
    matrix-times-column-vector.
    """

    field: FieldSpec
    nrows: int
    ncols: int
    entries: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.nrows * self.ncols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence[Scalar | int | str]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ents = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            ents.extend(field.coerce(v) for v in row)
        return Matrix(field, nrows, ncols, tuple(ents))

    @staticmethod
    def zeros(field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, (field.zero(),) * (nrows * ncols))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        ents = [z] * (n * n)
        for i in range(n):
            ents[i * n + i] = o
        return Matrix(field, n, n, tuple(ents))

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.ncols + j] for i in range(self.nrows))

    def to_lists(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.nrows)]

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def _check_same(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        add = self.field.add
        ents = tuple(add(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.nrows, self.ncols, ents)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        sub = self.field.sub
        ents = tuple(sub(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.nrows, self.ncols, ents)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.nrows, self.ncols, tuple(neg(a) for a in self.entries))

    def scale(self, s: Scalar) -> "Matrix":
        s = self.field.coerce(s)
        mul = self.field.mul
        return Matrix(self.field, self.nrows, self.ncols, tuple(mul(s, a) for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        f = self.field
        n, m, k = self.nrows, other.ncols, self.ncols
        out = []
        other_cols = [other.col(j) for j in range(m)]
        for i in range(n):
            r = self.row(i)
            for j in range(m):
                c = other_cols[j]
                acc = f.zero()
                for t in range(k):
                    a = r[t]
                    if a:
                        acc = f.add(acc, f.mul(a, c[t]))
                out.append(acc)
        return Matrix(f, n, m, tuple(out))

    def matvec(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = []
        for i in range(self.nrows):
            r = self.row(i)
            acc = f.zero()
            for a, x in zip(r, v):
                if a and x:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)


# ---------------------------------------------------------------------------
# the echelon kernel


def _gcd_normalize(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries, leading entry positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


class _Echelon:
    """Incremental row-space echelonizer on sparse rows, kept in RREF.

    ``insert`` takes a sparse integer row {column: value} with no zero
    entries; over GF(p) the kernel reduces it mod p itself, so a row that
    vanishes mod p is simply dependent.  Over Q the stored rows are
    gcd-reduced integer rows with positive leading coefficient; over GF(p)
    they are residue rows with leading coefficient 1.  Every stored row is
    zero in every other pivot column, so ``_combine`` reduces a row against
    any set of pivots in one linear combination, and ``finalize`` only
    scales pivots to 1.
    """

    def __init__(self, field: FieldSpec, ambient: int):
        self.field = field
        self.ambient = ambient
        self.p = field.p
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert_dense(self, vec: Sequence[Scalar | int]) -> bool:
        """Insert a dense vector, each nonzero entry coerced into the field
        (floats raise ``TypeError``; text such as ``"0"`` may coerce to zero),
        clearing denominators over Q."""
        return self.insert(self.integer_row(vec))

    def integer_row(self, vec: Sequence[Scalar | int]) -> dict[int, int]:
        """The sparse integer row of a dense vector, as ``insert_dense``
        coerces it: residues over GF(p), denominators cleared over Q."""
        if len(vec) != self.ambient:
            raise ValueError("vector length mismatch")
        coerce = self.field.coerce
        row = {c: x for c, v in enumerate(vec) if v and (x := coerce(v))}
        if self.p is not None:
            return row
        den = 1
        for v in row.values():
            den = den * v.denominator // gcd(den, v.denominator)
        return {c: int(v * den) for c, v in row.items()}

    def _combine(self, row: dict[int, int], cols: Sequence[int]) -> dict[int, int]:
        """scale·row − Σ (scale/lead_c)·row[c]·piv_c over the pivot columns
        ``cols``, with scale the lcm of their leads (1 over GF(p)); then
        gcd-normalized over Q, reduced mod p over GF(p)."""
        rows, p = self.rows, self.p
        scale = 1
        if p is None:
            for c in cols:
                scale = lcm(scale, rows[c][c])
        new = dict(row) if scale == 1 else {k: scale * v for k, v in row.items()}
        get = new.get
        for c in cols:
            piv = rows[c]
            m = scale // piv[c] * row[c]
            for k, v in piv.items():
                new[k] = get(k, 0) - m * v
        if p is None:
            return _gcd_normalize({k: v for k, v in new.items() if v})
        return {k: r for k, v in new.items() if (r := v % p)}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """``row`` reduced against the basis without storing it: empty
        exactly when the row lies in the span."""
        rows = self.rows
        return self._combine(row, [c for c in row if c in rows])

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce ``row`` against the basis; store it if independent."""
        rows, p = self.rows, self.p
        row = self.reduce(row)
        if not row:
            return False
        c = min(row)
        if p is not None and row[c] != 1:
            lead_inv = pow(row[c], -1, p)
            row = {k: v * lead_inv % p for k, v in row.items()}
        rows[c] = row
        for k, other in rows.items():
            if k != c and c in other:
                rows[k] = self._combine(other, (c,))
        return True

    def finalize(self) -> list[tuple[int, Vector]]:
        """Return ``(pivot_col, dense_row)`` pairs of the canonical RREF."""
        out = []
        for c in sorted(self.rows):
            row = self.rows[c]
            dense: list[Scalar] = [self.field.zero()] * self.ambient
            if self.p is None:
                lead = row[c]
                for k, v in row.items():
                    dense[k] = Fraction(v, lead)
            else:
                for k, v in row.items():
                    dense[k] = v
            out.append((c, tuple(dense)))
        return out

    def basis(self) -> "SubspaceBasis":
        """The canonical basis of the span of every row inserted so far."""
        return SubspaceBasis(self.field, self.ambient, tuple(row for _, row in self.finalize()))


# ---------------------------------------------------------------------------
# canonical subspaces


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical basis of a subspace: RREF rows of the spanning matrix.

    Pivot entries are 1 with zeros above and below, pivot columns strictly
    increase, so two subspaces are equal iff their values are equal.
    """

    field: FieldSpec
    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self) -> None:
        last = -1
        for vec in self.vectors:
            if len(vec) != self.ambient_dim:
                raise ValueError("vector length mismatch")
            c = _pivot_of(vec)
            if c is None or c <= last or vec[c] != self.field.one():
                raise ValueError("vectors are not in reduced row-echelon form")
            for other in self.vectors:
                if other is not vec and other[c]:
                    raise ValueError("pivot column not cleared")
            last = c

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def to_lists(self) -> list[list[Scalar]]:
        return [list(v) for v in self.vectors]


def _pivot_of(vec: Sequence[Scalar]) -> int | None:
    for c, v in enumerate(vec):
        if v:
            return c
    return None


def span_from_vectors(
    field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence[Scalar | int]]
) -> SubspaceBasis:
    """Canonical basis of the span of arbitrary generating vectors."""
    ech = _Echelon(field, ambient_dim)
    for v in vectors:
        ech.insert_dense(v)
    return ech.basis()


# ---------------------------------------------------------------------------
# operations


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Unique reduced row-echelon form of ``m`` plus its pivot columns."""
    ech = _Echelon(m.field, m.ncols)
    for i in range(m.nrows):
        ech.insert_dense(m.row(i))
    finalized = ech.finalize()
    rows = [row for _, row in finalized]
    zero_row = (m.field.zero(),) * m.ncols
    while len(rows) < m.nrows:
        rows.append(zero_row)
    ents = tuple(v for row in rows for v in row)
    return Matrix(m.field, m.nrows, m.ncols, ents), [c for c, _ in finalized]


def nullspace(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the right kernel ``{v : m @ v = 0}``."""
    ech = _Echelon(m.field, m.ncols)
    for i in range(m.nrows):
        ech.insert_dense(m.row(i))
    return _nullspace_from_echelon(m.field, m.ncols, ech)


def _nullspace_from_echelon(field: FieldSpec, ncols: int, ech: _Echelon) -> SubspaceBasis:
    # The stored rows are in RREF, so for each free column f the kernel holds
    # scale·e_f − Σ (scale/lead_c)·rows[c][f]·e_c over the pivot rows c that
    # hold f, with scale the lcm of their leads (1 over GF(p)).  Only those
    # entries are read, and each generator goes into the kernel's echelon as
    # a sparse integer row.
    rows = ech.rows
    holders: dict[int, list[int]] = {}
    for c, row in rows.items():
        for k in row:
            if k != c:
                holders.setdefault(k, []).append(c)
    kernel = _Echelon(field, ncols)
    for f in range(ncols):
        if f in rows:
            continue
        cs = holders.get(f, ())
        scale = lcm(*(rows[c][c] for c in cs))
        gen = {c: -(scale // rows[c][c]) * rows[c][f] for c in cs}
        gen[f] = scale
        kernel.insert(gen)
    return kernel.basis()


def span_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of A + B."""
    _check_compatible(a, b)
    return span_from_vectors(a.field, a.ambient_dim, a.vectors + b.vectors)


def span_intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of A ∩ B via the Zassenhaus double-block reduction.

    Rows (v, v) for v in A and (v, 0) for v in B span a space whose vectors
    (0, w) are exactly those with w in A ∩ B.  The stored rows with pivot in
    the second block vanish on the first, and they are in RREF, so shifted
    by n they are already the RREF of A ∩ B.
    """
    _check_compatible(a, b)
    n = a.ambient_dim
    zero = a.field.zero()
    ech = _Echelon(a.field, 2 * n)
    for v in a.vectors:
        ech.insert_dense(tuple(v) + tuple(v))
    for v in b.vectors:
        ech.insert_dense(tuple(v) + (zero,) * n)
    inter = _Echelon(a.field, n)
    inter.rows = {c - n: {k - n: v for k, v in row.items()} for c, row in ech.rows.items() if c >= n}
    return inter.basis()


def coordinates(basis: SubspaceBasis, v: Sequence[Scalar | int]) -> tuple[Scalar, ...] | None:
    """Coordinates of ``v`` in the basis, or None when v is outside the span."""
    if len(v) != basis.ambient_dim:
        raise ValueError("vector length mismatch")
    f = basis.field
    cur = [f.coerce(x) for x in v]
    coords = []
    # Full RREF: the coordinate on each basis row is just v's pivot entry.
    for row in basis.vectors:
        c = _pivot_of(row)
        coeff = cur[c]
        coords.append(coeff)
        if coeff:
            for k, rv in enumerate(row):
                if rv:
                    cur[k] = f.sub(cur[k], f.mul(coeff, rv))
    if any(cur):
        return None
    return tuple(coords)


def contains(basis: SubspaceBasis, v: Sequence[Scalar | int]) -> bool:
    return coordinates(basis, v) is not None


def _check_compatible(a: SubspaceBasis, b: SubspaceBasis) -> None:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
