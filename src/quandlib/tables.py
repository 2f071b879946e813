"""Reference derivation tables and their verification.

Each bundled data file records one table entry: a quandle, a field, and the
derivation matrices as recorded in the reference tables, parametrized by
free symbols a1, a2, ...  Verification recomputes the derivation space with
the exact solver and compares it, as a canonical subspace, against the span
of the recorded parametrization.  Entries where the recorded family
disagrees with exact recomputation are reported as failures, never patched;
their data files carry a note describing the discrepancy.

Matrix entries are linear expressions in the parameters ("2a1+a2", "-a3",
"0").  Index conventions: basis vectors are 0-indexed e_0..e_{n-1}, entry
(i, j) of a matrix is the coefficient of e_i in the image of e_j, and a
flattened derivation vector lists matrix rows in order (row-major).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .fields import FieldSpec
from .linalg import Matrix, SubspaceBasis, span_from_vectors
from .derivations import derivation_space, flatten_matrix
from .quandles import Quandle, parse_quandle_spec

_TERM = re.compile(r"([+-]?)(\d*)(a\d+)?")


def parse_linear_expression(text: str) -> dict[str, int]:
    """Parse e.g. ``"2a1+a2-a4"`` into ``{"a1": 2, "a2": 1, "a4": -1}``.

    A bare integer term is keyed under ``""`` (only "0" occurs in practice).
    Every term after the first needs its own sign, so ``"a1a2"`` is refused.
    """
    out: dict[str, int] = {}
    pos = 0
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty expression")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse expression {text!r} at {pos}")
        sign, coeff, param = m.groups()
        if pos and not sign:
            raise ValueError(f"missing sign before term at {pos} in {text!r}")
        value = int(coeff) if coeff else 1
        if sign == "-":
            value = -value
        key = param or ""
        if key == "" and value == 0:
            pass
        elif key == "":
            raise ValueError(f"non-homogeneous term in {text!r}")
        else:
            out[key] = out.get(key, 0) + value
        pos = m.end()
    return out


@dataclass(frozen=True)
class TableEntry:
    """One recorded table entry, ready for comparison."""

    label: str
    quandle_spec: str
    field_name: str
    recorded_dim: int
    params: tuple[str, ...]
    matrix: tuple[tuple[str, ...], ...] | None  # None means the zero matrix
    builder: str  # "direct" or "dihedral_blocks"
    u_block: tuple[tuple[str, ...], ...] | None
    v_block: tuple[tuple[str, ...], ...] | None
    notes: str

    @property
    def quandle(self) -> Quandle:
        return parse_quandle_spec(self.quandle_spec)

    @property
    def field(self) -> FieldSpec:
        return FieldSpec.from_name(self.field_name)


@dataclass(frozen=True)
class EntryResult:
    label: str
    recorded_dim: int
    solver_dim: int
    dims_match: bool
    spans_match: bool
    note: str

    @property
    def ok(self) -> bool:
        return self.dims_match and self.spans_match


def _entry_from_json(data: dict) -> TableEntry:
    return TableEntry(
        label=data["label"],
        quandle_spec=data["quandle"],
        field_name=data["field"],
        recorded_dim=data["recorded_dim"],
        params=tuple(data.get("params", [])),
        matrix=None if data.get("matrix") in (None, "zero")
        else tuple(tuple(row) for row in data["matrix"]),
        builder=data.get("builder", "direct"),
        u_block=tuple(tuple(r) for r in data["U"]) if "U" in data else None,
        v_block=tuple(tuple(r) for r in data["V"]) if "V" in data else None,
        notes=data.get("notes", ""),
    )


def load_entries() -> list[TableEntry]:
    """All bundled table entries, sorted by label."""
    package = resources.files(__package__) / "data"
    entries = []
    for item in sorted(package.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            entries.append(_entry_from_json(json.loads(item.read_text())))
    return sorted(entries, key=lambda e: e.label)


def _evaluate_cell(expr: str, param: str, f: FieldSpec):
    coeffs = parse_linear_expression(expr)
    return f.from_int(coeffs.get(param, 0))


def _basis_matrix(cells: tuple[tuple[str, ...], ...], param: str, f: FieldSpec) -> Matrix:
    rows = [[_evaluate_cell(cell, param, f) for cell in row] for row in cells]
    return Matrix.from_rows(f, rows)


def _blocks_to_matrix(u: Matrix, v: Matrix) -> Matrix:
    """Assemble ((U, V; -V, U), -(...); -(...), (...)) from the quarter blocks."""
    f = u.field
    k = u.nrows
    n = 4 * k
    half = 2 * k

    def p_entry(i: int, j: int):
        bi, bj = i // k, j // k
        ii, jj = i % k, j % k
        if bi == 0 and bj == 0:
            return u.entry(ii, jj)
        if bi == 0 and bj == 1:
            return v.entry(ii, jj)
        if bi == 1 and bj == 0:
            return f.neg(v.entry(ii, jj))
        return u.entry(ii, jj)

    ents = []
    for i in range(n):
        for j in range(n):
            val = p_entry(i % half, j % half)
            if (i >= half) != (j >= half):
                val = f.neg(val)
            ents.append(val)
    return Matrix(f, n, n, tuple(ents))


def golden_span(entry: TableEntry) -> SubspaceBasis:
    """Canonical span of the recorded parametrized family."""
    f = entry.field
    q = entry.quandle
    n = q.n
    vectors = []
    for param in entry.params:
        if entry.builder == "dihedral_blocks":
            u = _basis_matrix(entry.u_block, param, f)
            v = _basis_matrix(entry.v_block, param, f)
            mat = _blocks_to_matrix(u, v)
        else:
            if entry.matrix is None:
                break
            mat = _basis_matrix(entry.matrix, param, f)
        vectors.append(flatten_matrix(mat))
    return span_from_vectors(f, n * n, vectors)


def compare_entry(entry: TableEntry) -> EntryResult:
    """Recompute the derivation space and compare it with the recorded one."""
    solver = derivation_space(entry.quandle, entry.field)
    golden = golden_span(entry)
    dims_match = solver.dim == entry.recorded_dim == golden.dim
    spans_match = golden == solver.subspace
    return EntryResult(
        label=entry.label,
        recorded_dim=entry.recorded_dim,
        solver_dim=solver.dim,
        dims_match=dims_match,
        spans_match=spans_match,
        note=entry.notes,
    )


def run_all() -> list[EntryResult]:
    return [compare_entry(entry) for entry in load_entries()]
