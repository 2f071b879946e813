"""The Leibniz solve over equality classes: the classes read from the
equality rows of one element per orbit and closed under the renamings,
checked against the generic rule on the full rows, and the memory the solve
holds while it inserts rows into the echelon.
``CASES`` and ``_orbit_classes`` are shared with ``test_orbit_closure`` and
``test_properties``."""

import random
import tracemalloc

import pytest

from quandlib.derivations import _equality_classes, _leibniz_sparse_rows, derivation_space
from quandlib.fields import GF, RATIONALS
from quandlib.quandles import (
    S3_TABLE,
    _inner_orbits,
    alexander,
    catalog,
    conjugation,
    cyclic_group_table,
    dihedral,
    relabel,
    trivial,
)
from test_preimages import QUANDLES as NON_BIJECTIVE


def _relabeled_dihedral(n):
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    return relabel(dihedral(n), perm)


CASES = {q.label: q for q in catalog(3) + catalog(4)}
CASES.update({f"relabeled-dihedral{n}": _relabeled_dihedral(n) for n in range(3, 17)})
CASES.update({f"alexander{n}-{a}": alexander(n, a) for n, a in ((8, 3), (9, 2), (12, 5), (16, 3), (15, 2))})
CASES.update({"conjugation-s3": conjugation(S3_TABLE), "conjugation-z6": conjugation(cyclic_group_table(6)),
              "trivial4": trivial(4)})
CASES.update({f"non-bijective-{name}": q for name, q in NON_BIJECTIVE.items()})


def _classes_from_rows(q):
    """Union-find the two-entry ±1 rows of the unmapped Leibniz system and
    number the classes by least member."""
    parent = list(range(q.n * q.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for row in _leibniz_sparse_rows(q):
        if len(row) == 2:
            (a, u), (b, v) = row.items()
            if u * v == -1:
                a, b = find(a), find(b)
                parent[max(a, b)] = min(a, b)
    roots = sorted({find(a) for a in range(q.n * q.n)})
    number = {root: i for i, root in enumerate(roots)}
    return [number[find(a)] for a in range(q.n * q.n)], len(roots)


def _orbit_classes(q):
    """``_equality_classes`` as ``derivation_space`` calls it: from one
    element per orbit of Inn(q), closed under the renamings of the unknowns
    by the kept R_y."""
    n = q.n
    gens, root = _inner_orbits(q)
    reps = [x for x, r in enumerate(root) if r == x]
    renamings = [[r[u] * n + r[t] for u in range(n) for t in range(n)]
                 for r in map(q.column_perm, gens)]
    return _equality_classes(q, reps, renamings)


def test_cases_cover_the_listed_quandles():
    assert len(CASES) == 32 + len(NON_BIJECTIVE)


@pytest.mark.parametrize("q", CASES.values(), ids=CASES.keys())
def test_class_prepass_equals_the_generic_rule(q):
    assert _orbit_classes(q) == _classes_from_rows(q)


def test_streamed_solve_holds_no_row_list():
    # Warm up first: the lazy imports of a first solve allocate compile
    # memory that would otherwise count.  The bound fails a solve that holds
    # its non-equality rows in a list before the echelon (about 2.2 MB).
    derivation_space(dihedral(4), RATIONALS)
    q, f = dihedral(24), GF(3)
    tracemalloc.start()
    try:
        derivation_space(q, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75e6
