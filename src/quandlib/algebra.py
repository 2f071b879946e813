"""The quandle algebra k[X]: the vector space on basis {e_x} with the
bilinear product e_x · e_y = e_{x ⊳ y}.

The product is generally non-associative.  Linear maps on the algebra are
``linalg.Matrix`` values in the column convention: column x of the matrix is
the image of e_x.  Both ideals are returned as canonical bases: the
augmentation ideal as the nullspace of the augmentation map, and the
commutator right ideal as the span of its generators, which the quandle
axioms already close under right (and, for medial quandles, left)
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import FieldSpec, Scalar
from .linalg import Matrix, SubspaceBasis, _Echelon, nullspace
from .quandles import Quandle


@dataclass(frozen=True)
class AlgebraElement:
    """An element sum_x coeffs[x] * e_x of the quandle algebra."""

    field: FieldSpec
    coeffs: tuple[Scalar, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def _check(self, other: "AlgebraElement") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.n != other.n:
            raise ValueError("length mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        add = self.field.add
        return AlgebraElement(self.field, tuple(add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        sub = self.field.sub
        return AlgebraElement(self.field, tuple(sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AlgebraElement":
        neg = self.field.neg
        return AlgebraElement(self.field, tuple(neg(a) for a in self.coeffs))

    def scale(self, s: Scalar) -> "AlgebraElement":
        s = self.field.coerce(s)
        mul = self.field.mul
        return AlgebraElement(self.field, tuple(mul(s, a) for a in self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for x, c in enumerate(self.coeffs):
            if not c:
                continue
            if c == self.field.one():
                terms.append(f"e{x}")
            else:
                terms.append(f"{c}*e{x}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} over {self.field.name}>"


def zero_element(field: FieldSpec, n: int) -> AlgebraElement:
    return AlgebraElement(field, (field.zero(),) * n)


def basis_element(field: FieldSpec, n: int, x: int) -> AlgebraElement:
    coeffs = [field.zero()] * n
    coeffs[x] = field.one()
    return AlgebraElement(field, tuple(coeffs))


def element(field: FieldSpec, coeffs: Sequence[Scalar | int | str]) -> AlgebraElement:
    return AlgebraElement(field, tuple(field.coerce(c) for c in coeffs))


# ---------------------------------------------------------------------------
# product and augmentation


def multiply(a: AlgebraElement, b: AlgebraElement, q: Quandle) -> AlgebraElement:
    """Bilinear extension of e_x · e_y = e_{x ⊳ y}."""
    a._check(b)
    if a.n != q.n:
        raise ValueError("element length does not match quandle order")
    f = a.field
    out: list[Scalar] = [f.zero()] * q.n
    for x, ax in enumerate(a.coeffs):
        if not ax:
            continue
        row = q.table[x]
        for y, by in enumerate(b.coeffs):
            if by:
                u = row[y]
                out[u] = f.add(out[u], f.mul(ax, by))
    return AlgebraElement(f, tuple(out))


def augmentation(a: AlgebraElement) -> Scalar:
    """Coefficient sum; a ring homomorphism onto the ground field."""
    f = a.field
    acc = f.zero()
    for c in a.coeffs:
        acc = f.add(acc, c)
    return acc


def augmentation_ideal(q: Quandle, f: FieldSpec) -> SubspaceBasis:
    """Canonical basis of the kernel of the augmentation map (dimension n-1)."""
    ones = Matrix.from_rows(f, [[1] * q.n])
    return nullspace(ones)


# ---------------------------------------------------------------------------
# multiplication operators


def _map_matrix(w: Sequence[int], f: FieldSpec) -> Matrix:
    """The matrix of the functional map e_y ↦ e_{w[y]}."""
    n = len(w)
    ents = [f.zero()] * (n * n)
    one = f.one()
    for y, u in enumerate(w):
        ents[u * n + y] = one
    return Matrix(f, n, n, tuple(ents))


def left_mult(x: int, q: Quandle, f: FieldSpec) -> Matrix:
    """The operator e_y ↦ e_{x ⊳ y}."""
    if not (0 <= x < q.n):
        raise IndexError(f"element {x} out of range")
    return _map_matrix(q.table[x], f)


def right_mult(x: int, q: Quandle, f: FieldSpec) -> Matrix:
    """The operator e_y ↦ e_{y ⊳ x}; always a permutation matrix."""
    if not (0 <= x < q.n):
        raise IndexError(f"element {x} out of range")
    return _map_matrix(q.column_perm(x), f)


# ---------------------------------------------------------------------------
# the commutator-difference right ideal


def jx_ideal(q: Quandle, f: FieldSpec) -> SubspaceBasis:
    """Smallest right ideal containing all e_{x⊳y} - e_{y⊳x}: the span of
    these generators.

    The span is already a right ideal.  By right self-distributivity (axiom
    III), (e_{x⊳y} - e_{y⊳x})·e_z = e_{a⊳b} - e_{b⊳a} with a = x⊳z and
    b = y⊳z, which is another generator; bilinearity extends this to every
    right factor.  When the quandle is medial the span is also a left ideal:
    z⊳(x⊳y) = (z⊳z)⊳(x⊳y) = (z⊳x)⊳(z⊳y), so e_z times a generator is the
    generator of (z⊳x, z⊳y).
    """
    ech = _Echelon(f, q.n)
    for x, row in enumerate(q.table):
        for y, u in enumerate(row):
            v = q.table[y][x]
            if u != v:
                ech.insert({u: 1, v: -1})
    return ech.basis()
