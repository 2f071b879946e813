"""Finite quandles as validated Cayley tables.

A quandle is a set {0, ..., n-1} with a binary operation x ⊳ y that is
idempotent (axiom I), right-invertible (axiom II) and right self-distributive
(axiom III).  Tables are oriented so that ``table[x][y] = x ⊳ y``: the row
element is acted on, the column element acts.  The built-in catalog carries
the standard isomorphism-class representatives of orders 3 and 4, converted
once and for all from 1-indexed to 0-indexed entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Sequence

TableLike = Sequence[Sequence[int]]

# Largest order accepted from specs and JSON tables (up to n**3 Leibniz rows).
MAX_ORDER = 64


def _check_order(n: int) -> int:
    if n < 1:
        raise ValueError("order must be positive")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the limit MAX_ORDER = {MAX_ORDER}")
    return n


class AxiomViolation(Exception):
    """A Cayley table that fails one of the three quandle axioms.

    ``axiom`` is "I", "II" or "III"; ``witness`` is the first offending
    tuple in lexicographic scan order: (x,) for I, (y,) for II, (x, y, z)
    for III.
    """

    def __init__(self, axiom: str, witness: tuple[int, ...], detail: str = ""):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} violated at {witness}" + (f": {detail}" if detail else ""))


class NotAGroupError(Exception):
    """A table passed as a group Cayley table is not a group."""

    def __init__(self, reason: str, witness: tuple[int, ...] = ()):
        self.reason = reason
        self.witness = witness
        super().__init__(f"not a group ({reason}) at {witness}")


@dataclass(frozen=True)
class AlexanderParams:
    """Parameters of an affine quandle on Z_n: x ⊳ y = alpha*x + beta*y.

    alpha must be a unit mod n and beta is forced to (1 - alpha) mod n, so
    that idempotence holds.
    """

    n: int
    alpha: int

    def __post_init__(self) -> None:
        for name in ("n", "alpha"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.n < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "alpha", self.alpha % self.n)
        if gcd(self.alpha, self.n) != 1:
            raise ValueError(f"alpha={self.alpha} is not a unit mod {self.n}")

    @property
    def beta(self) -> int:
        return (1 - self.alpha) % self.n


@dataclass(frozen=True)
class Quandle:
    """A validated finite quandle.

    ``label`` tags catalog entries; ``alexander`` records the affine
    parameters for quandles built from them (used by the Alexander-specific
    operator computations).  Neither participates in equality.
    """

    n: int
    table: tuple[tuple[int, ...], ...]
    label: str | None = field(default=None, compare=False)
    alexander: AlexanderParams | None = field(default=None, compare=False)

    def column_perm(self, y: int) -> tuple[int, ...]:
        """The permutation x ↦ x ⊳ y (right multiplication by y)."""
        return tuple(self.table[x][y] for x in range(self.n))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "table": [list(row) for row in self.table]}


def _preimages(w: Sequence[int]) -> list[list[int]]:
    """pre[u] lists every y with w[y] = u, in increasing order, for a map
    y ↦ w[y] such as L_x or R_y; a list is empty where w is not onto."""
    pre: list[list[int]] = [[] for _ in w]
    for y, u in enumerate(w):
        pre[u].append(y)
    return pre


def _root(parent: list[int], a: int) -> int:
    """The root of a in the union-find forest ``parent``, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _inner_orbits(q: Quandle) -> tuple[list[int], list[int]]:
    """The orbits of the inner automorphism group Inn(q): the y whose R_y
    generate a group with those orbits, and the least element of each x's
    orbit.

    One union-find over the elements: y is kept when R_y joins two orbits
    of the group the R_y kept before it generate.  A y that joins none adds
    nothing to the orbits, so the final orbits are those of all the R_y,
    the orbits of Inn(q).  A join hangs the larger root under the smaller,
    so each root is the least element of its orbit.
    """
    n = q.n
    parent = list(range(n))
    gens = []
    for y in range(n):
        joined = False
        for x in range(n):
            a, b = _root(parent, x), _root(parent, q.table[x][y])
            if a != b:
                parent[max(a, b)] = min(a, b)
                joined = True
        if joined:
            gens.append(y)
    return gens, [_root(parent, x) for x in range(n)]


@dataclass(frozen=True)
class QuandleProps:
    involutive: bool
    latin: bool
    medial: bool
    connected: bool
    orbits: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# validation


def check_axioms(table: TableLike) -> AxiomViolation | None:
    """Return the first axiom violation in scan order, or None."""
    n = len(table)
    for x in range(n):
        if len(table[x]) != n:
            raise ValueError("table is not square")
        for y in range(n):
            if not (0 <= table[x][y] < n):
                raise ValueError(f"entry out of range at ({x}, {y})")
    for x in range(n):
        if table[x][x] != x:
            return AxiomViolation("I", (x,), f"{x} ⊳ {x} = {table[x][x]}")
    for y in range(n):
        seen = [False] * n
        for x in range(n):
            seen[table[x][y]] = True
        if not all(seen):
            return AxiomViolation("II", (y,), "column map is not a permutation")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[table[x][z]][table[y][z]]:
                    return AxiomViolation("III", (x, y, z))
    return None


def validate(table: TableLike, label: str | None = None,
             alexander: AlexanderParams | None = None) -> Quandle:
    """Build a Quandle from a raw table, raising AxiomViolation on failure
    and ValueError on an empty table."""
    if not table:
        raise ValueError("order must be positive")
    violation = check_axioms(table)
    if violation is not None:
        raise violation
    frozen = tuple(tuple(int(v) for v in row) for row in table)
    return Quandle(len(frozen), frozen, label=label, alexander=alexander)


def from_json_dict(data: dict, label: str | None = None) -> Quandle:
    """Build a quandle from ``{"n": int, "table": [[int]]}`` as read from JSON.

    A top level that is not an object, a missing table, a table that is not
    a list, or a row that is not a list raises ValueError, so that a
    malformed file never surfaces as a KeyError or TypeError; so does an
    empty table or one of more than ``MAX_ORDER`` rows, before anything is
    allocated for it, and a declared ``n`` that is not an integer.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a quandle must be a JSON object, got {type(data).__name__}")
    if "table" not in data:
        raise ValueError('a quandle needs a "table" entry')
    table = data["table"]
    if not isinstance(table, list):
        raise ValueError(f"table must be a list of rows, got {type(table).__name__}")
    _check_order(len(table))
    n = data.get("n", len(table))
    if n != len(table):
        raise ValueError("declared order does not match table size")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"declared order must be an integer, got {n!r}")
    for x, row in enumerate(table):
        if not isinstance(row, list):
            raise ValueError(f"table row {x} must be a list, got {type(row).__name__}")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"table entries must be integers, got {v!r}")
    return validate(table, label=label)


# ---------------------------------------------------------------------------
# constructors


def trivial(n: int) -> Quandle:
    """x ⊳ y = x: the Alexander quandle with alpha = 1."""
    return alexander(n, 1)


def dihedral(n: int) -> Quandle:
    """x ⊳ y = 2y - x on Z_n: the Alexander quandle with alpha = -1."""
    return alexander(n, -1)


def alexander(n: int | AlexanderParams, alpha: int | None = None) -> Quandle:
    """x ⊳ y = alpha*x + (1 - alpha)*y on Z_n, from n and alpha or from one
    ``AlexanderParams``."""
    if isinstance(n, AlexanderParams) != (alpha is None):
        raise ValueError("alexander() takes a modulus and alpha, or one AlexanderParams")
    params = n if isinstance(n, AlexanderParams) else AlexanderParams(n, alpha)
    a, b, m = params.alpha, params.beta, params.n
    table = tuple(tuple((a * x + b * y) % m for y in range(m)) for x in range(m))
    return Quandle(m, table, alexander=params)


def _check_group(table: TableLike) -> tuple[int, tuple[int, ...]]:
    """Validate a group Cayley table; return (identity, inverse lookup)."""
    n = len(table)
    for row in table:
        if len(row) != n:
            raise NotAGroupError("table is not square")
        for v in row:
            if not (0 <= v < n):
                raise NotAGroupError("entry out of range")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroupError("no identity element")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroupError("not associative", (a, b, c))
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inv[a] = b
                break
        if inv[a] is None:
            raise NotAGroupError("missing inverse", (a,))
    return identity, tuple(inv)


def conjugation(group_table: TableLike) -> Quandle:
    """The quandle x ⊳ y = y⁻¹ x y on a group given by its Cayley table."""
    _, inv = _check_group(group_table)
    n = len(group_table)
    table = tuple(
        tuple(group_table[group_table[inv[y]][x]][y] for y in range(n)) for x in range(n)
    )
    return validate(table)


def cyclic_group_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Cayley table of Z_n."""
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


# The symmetric group on three letters, elements ordered 1, y, y², x, yx, y²x
# with x² = 1 = y³ and xyx = y⁻¹.
S3_TABLE: tuple[tuple[int, ...], ...] = (
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 0, 1, 5, 3, 4),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
    (5, 4, 3, 2, 1, 0),
)


def relabel(q: Quandle, perm: Sequence[int]) -> Quandle:
    """Apply the relabeling x ↦ perm[x] to a quandle."""
    if sorted(perm) != list(range(q.n)):
        raise ValueError("not a permutation")
    table = [[0] * q.n for _ in range(q.n)]
    for x in range(q.n):
        for y in range(q.n):
            table[perm[x]][perm[y]] = perm[q.table[x][y]]
    return validate(table)


# ---------------------------------------------------------------------------
# structural predicates


def props(q: Quandle) -> QuandleProps:
    n, t = q.n, q.table
    involutive = all(t[t[x][y]][y] == x for x in range(n) for y in range(n))
    latin = all(sorted(t[x]) == list(range(n)) for x in range(n))
    # Medial: (w⊳x)⊳(y⊳z) = (w⊳y)⊳(x⊳z) for all w, x, y, z.  With comp[a][b]
    # the row z ↦ a⊳(b⊳z), that is comp[w⊳x][y] == comp[w⊳y][x], and the
    # two sides swap with x and y.
    comp = [[tuple(map(t[a].__getitem__, t[b])) for b in range(n)] for a in range(n)]
    medial = all(
        comp[t[w][x]][y] == comp[t[w][y]][x]
        for w in range(n) for x in range(n) for y in range(x + 1, n)
    )
    # Each root is the least element of its orbit, so the orbits come out
    # increasing and ordered by their least element.
    orbits: dict[int, list[int]] = {}
    for x, r in enumerate(_inner_orbits(q)[1]):
        orbits.setdefault(r, []).append(x)
    return QuandleProps(
        involutive=involutive,
        latin=latin,
        medial=medial,
        connected=len(orbits) == 1,
        orbits=tuple(map(tuple, orbits.values())),
    )


# ---------------------------------------------------------------------------
# catalog of small quandles (orders 3 and 4, standard representatives,
# 0-indexed; labels follow the order-major "order.index" scheme)

_CATALOG_3 = (
    ("3.1", ((0, 0, 0), (1, 1, 1), (2, 2, 2))),
    ("3.2", ((0, 0, 1), (1, 1, 0), (2, 2, 2))),
    ("3.3", ((0, 2, 1), (2, 1, 0), (1, 0, 2))),
)

_CATALOG_4 = (
    ("4.1", ((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3))),
    ("4.2", ((0, 0, 0, 0), (1, 1, 1, 2), (2, 2, 2, 1), (3, 3, 3, 3))),
    ("4.3", ((0, 0, 0, 1), (1, 1, 1, 2), (2, 2, 2, 0), (3, 3, 3, 3))),
    ("4.4", ((0, 0, 0, 0), (1, 1, 3, 2), (2, 3, 2, 1), (3, 2, 1, 3))),
    ("4.5", ((0, 0, 1, 1), (1, 1, 0, 0), (2, 2, 2, 2), (3, 3, 3, 3))),
    ("4.6", ((0, 0, 1, 1), (1, 1, 0, 0), (3, 3, 2, 2), (2, 2, 3, 3))),
    ("4.7", ((0, 3, 1, 2), (2, 1, 3, 0), (3, 0, 2, 1), (1, 2, 0, 3))),
)


def catalog(order: int) -> list[Quandle]:
    """All quandles of the given order (3 or 7 entries), in catalog order."""
    if order == 3:
        raw = _CATALOG_3
    elif order == 4:
        raw = _CATALOG_4
    else:
        raise ValueError(f"catalog covers orders 3 and 4 only, not {order}")
    return [validate(table, label=label) for label, table in raw]


def catalog_labels() -> list[str]:
    return [label for label, _ in _CATALOG_3 + _CATALOG_4]


def catalog_lookup(label: str) -> Quandle:
    for lbl, table in _CATALOG_3 + _CATALOG_4:
        if lbl == label:
            return validate(table, label=lbl)
    raise KeyError(f"no catalog quandle labeled {label!r}")


def _spec_int(text: str, spec: str) -> int:
    """The integer ``text`` writes in ASCII digits with an optional sign,
    padding allowed; anything else is reported as a malformed ``spec``."""
    digits = text.strip()
    if digits.startswith(("+", "-")):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed quandle spec {spec!r}")
    return int(text)


def parse_quandle_spec(spec: str) -> Quandle:
    """Build a quandle from a compact text spec.

    Accepted forms: ``trivial:N``, ``dihedral:N``, ``alexander:N,ALPHA``,
    ``conjugation:s3``, ``conjugation:zN`` and ``catalog:LABEL``.  An order
    N below 1 or above ``MAX_ORDER`` raises ValueError before the table is
    built, and so does ``alexander:N`` without ALPHA.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    arg = arg.strip()
    if not arg:
        raise ValueError(f"malformed quandle spec {spec!r}")
    if kind == "trivial":
        return trivial(_check_order(_spec_int(arg, spec)))
    if kind == "dihedral":
        return dihedral(_check_order(_spec_int(arg, spec)))
    if kind == "alexander":
        n_text, _, alpha_text = arg.partition(",")
        if not alpha_text.strip():
            raise ValueError(f"malformed quandle spec {spec!r}")
        return alexander(_check_order(_spec_int(n_text, spec)), _spec_int(alpha_text, spec))
    if kind == "conjugation":
        name = arg.lower()
        if name == "s3":
            return conjugation(S3_TABLE)
        if name.startswith("z"):
            return conjugation(cyclic_group_table(_check_order(_spec_int(name[1:], spec))))
        raise ValueError(f"unknown group name {arg!r} (use s3 or zN)")
    if kind == "catalog":
        return catalog_lookup(arg)
    raise ValueError(f"unknown quandle spec kind {kind!r}")
