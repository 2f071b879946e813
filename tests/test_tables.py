import pytest

from quandlib.derivations import derivation_space, verify_structure_relations
from quandlib.linalg import span_sum
from quandlib.tables import (
    golden_span,
    load_entries,
    parse_linear_expression,
    run_all,
)

# Entries whose recorded family disagrees with exact recomputation; the
# data files carry notes explaining each one.
KNOWN_DISCREPANT = {
    "dihedral-poschar/n6-GF(2)",
    "dihedral-poschar/n6-GF(3)",
    "order3/3.1/GF(3)",
    "order4-char0/4.2",
    "order4-char2/4.2",
    "s3-conjugation/GF(3)",
}


def test_expression_parser():
    assert parse_linear_expression("2a1+a2") == {"a1": 2, "a2": 1}
    assert parse_linear_expression("-a1-a2") == {"a1": -1, "a2": -1}
    assert parse_linear_expression("0") == {}
    assert parse_linear_expression("4a1+3a2") == {"a1": 4, "a2": 3}
    assert parse_linear_expression("a1+2a3-a1") == {"a1": 0, "a3": 2}
    with pytest.raises(ValueError):
        parse_linear_expression("3")  # non-homogeneous constant
    with pytest.raises(ValueError):
        parse_linear_expression("a1*a2")
    with pytest.raises(ValueError):
        parse_linear_expression("a1a2")
    with pytest.raises(ValueError):
        parse_linear_expression("2a1a2")


def test_entries_load_and_are_labeled():
    entries = load_entries()
    assert len(entries) == 33
    labels = [e.label for e in entries]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)
    for e in entries:
        assert e.recorded_dim == len(e.params)


def test_entry_groups_complete():
    labels = {e.label for e in load_entries()}
    assert {f"order3/3.{i}/Q" for i in (1, 2, 3)} <= labels
    assert {f"order3/3.{i}/GF(3)" for i in (1, 2, 3)} <= labels
    assert {f"order4-char0/4.{i}" for i in range(1, 8)} <= labels
    assert {f"order4-char2/4.{i}" for i in range(1, 8)} <= labels
    assert {"dihedral-4k/k2", "dihedral-4k/k4", "dihedral-4k/k6"} <= labels
    assert {"s3-conjugation/Q", "s3-conjugation/GF(2)", "s3-conjugation/GF(3)"} <= labels


def test_golden_span_dimensions_match_parameter_counts():
    for e in load_entries():
        assert golden_span(e).dim == e.recorded_dim


def test_block_builder_produces_genuine_derivations():
    entry = next(e for e in load_entries() if e.label == "dihedral-4k/k2")
    q = entry.quandle
    span = golden_span(entry)
    from quandlib.derivations import matrix_from_flat
    for vec in span.vectors:
        assert verify_structure_relations(matrix_from_flat(entry.field, q.n, vec), q).ok


def test_run_all_verification_outcome():
    """Each entry passes exactly when it is not one of the recorded
    discrepancies.  This pins the honest comparison behaviour; the
    discrepancies themselves are asserted (not excused) in the acceptance
    suite."""
    results = run_all()
    assert len(results) == 33
    for r in results:
        if r.label in KNOWN_DISCREPANT:
            assert not r.ok, r.label
            assert r.solver_dim != r.recorded_dim or not r.spans_match
        else:
            assert r.ok, (r.label, r.recorded_dim, r.solver_dim)


def test_discrepant_entries_carry_notes():
    for e in load_entries():
        if e.label in KNOWN_DISCREPANT:
            assert "Kept verbatim" in e.notes


def test_recorded_families_are_subfamilies_except_s3():
    """Five of the six discrepant families span subspaces of the true
    derivation space (they are genuine derivations, just not all of them);
    the recorded GF(3) family for the symmetric-group quandle contains
    non-derivations."""
    for e in load_entries():
        if e.label not in KNOWN_DISCREPANT:
            continue
        golden = golden_span(e)
        solver = derivation_space(e.quandle, e.field).subspace
        inside = span_sum(golden, solver) == solver
        assert inside == (e.label != "s3-conjugation/GF(3)")
