import json
from itertools import permutations

import pytest

from quandlib import quandles
from quandlib.quandles import (
    MAX_ORDER,
    AlexanderParams,
    AxiomViolation,
    NotAGroupError,
    S3_TABLE,
    alexander,
    catalog,
    catalog_labels,
    catalog_lookup,
    check_axioms,
    conjugation,
    cyclic_group_table,
    dihedral,
    from_json_dict,
    parse_quandle_spec,
    props,
    relabel,
    trivial,
    validate,
)


# ---------------------------------------------------------------------------
# validation


def test_validate_dihedral3_table():
    # Direct evaluation of 2y - x mod 3 for all pairs gives this table.
    expected = [[(2 * y - x) % 3 for y in range(3)] for x in range(3)]
    assert expected == [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    q = validate(expected)
    assert q.n == 3


def test_validate_and_relabel_refuse_the_empty_table():
    with pytest.raises(ValueError, match="order must be positive"):
        validate([])
    with pytest.raises(ValueError, match="order must be positive"):
        relabel(quandles.Quandle(0, ()), [])


def test_validate_axiom_one_violation():
    with pytest.raises(AxiomViolation) as exc:
        validate([[1, 0], [0, 1]])
    assert exc.value.axiom == "I"
    assert exc.value.witness == (0,)


def test_validate_axiom_two_violation():
    # Idempotent diagonal but a repeated value in column 1.
    err = check_axioms([[0, 0, 0], [1, 1, 1], [2, 0, 2]])
    assert err is not None and err.axiom == "II"
    assert err.witness == (1,)


def _first_axiom3_failure():
    """Brute-force search for a 3x3 table passing axioms I-II but not III."""
    perms = list(permutations(range(3)))
    for c0 in perms:
        if c0[0] != 0:
            continue
        for c1 in perms:
            if c1[1] != 1:
                continue
            for c2 in perms:
                if c2[2] != 2:
                    continue
                table = [[c0[x], c1[x], c2[x]] for x in range(3)]
                err = check_axioms(table)
                if err is not None:
                    assert err.axiom == "III"  # I and II hold by construction
                    return table, err
    raise AssertionError("search found no axiom-III failure")


def test_validate_axiom_three_violation_found_by_search():
    table, err = _first_axiom3_failure()
    x, y, z = err.witness
    lhs = table[table[x][y]][z]
    rhs = table[table[x][z]][table[y][z]]
    assert lhs != rhs
    with pytest.raises(AxiomViolation):
        validate(table)


def test_entry_out_of_range_rejected():
    with pytest.raises(ValueError):
        check_axioms([[0, 3], [1, 1]])


# ---------------------------------------------------------------------------
# constructors


def test_trivial_tables():
    assert trivial(1).table == ((0,),)
    assert trivial(2).table == ((0, 0), (1, 1))
    assert trivial(3) == catalog_lookup("3.1")
    with pytest.raises(ValueError):
        trivial(0)


def test_dihedral_examples():
    assert dihedral(3).table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    assert dihedral(1) == trivial(1)
    assert dihedral(2) == trivial(2)


def test_dihedral4_is_relabeled_catalog_entry():
    assert relabel(catalog_lookup("4.6"), (0, 2, 1, 3)) == dihedral(4)


def test_alexander_special_cases():
    for n in range(1, 9):
        assert alexander(n, n - 1) == dihedral(n)
        assert alexander(n, 1) == trivial(n)
    assert props(alexander(5, 2)).latin  # beta = 4 is a unit mod 5
    with pytest.raises(ValueError):
        AlexanderParams(6, 2)  # not a unit


def test_alexander_params_beta():
    p = AlexanderParams(5, 2)
    assert p.beta == 4
    assert alexander(p).table[1][2] == (2 * 1 + 4 * 2) % 5


@pytest.mark.parametrize("n, alpha", [(5, None), (5.0, 2), ("5", 2), (True, 1), (5, 2.0), (5, False)],
                         ids=["alpha-None", "float-n", "str-n", "bool-n", "float-alpha", "bool-alpha"])
def test_alexander_params_reject_non_int_fields(n, alpha):
    with pytest.raises(ValueError, match="must be an int"):
        AlexanderParams(n, alpha)


@pytest.mark.parametrize("make, n, match", [
    (dihedral, "5", "must be an int"), (trivial, "5", "must be an int"), (dihedral, None, "must be an int"),
    (trivial, 0, "must be positive"), (dihedral, 0, "must be positive"),
], ids=["dihedral-str", "trivial-str", "dihedral-None", "trivial-0", "dihedral-0"])
def test_affine_constructors_reject_bad_orders_with_value_error(make, n, match):
    with pytest.raises(ValueError, match=match):
        make(n)


def test_alexander_needs_alpha_exactly_once():
    with pytest.raises(ValueError, match="modulus and alpha"):
        alexander(5)
    with pytest.raises(ValueError, match="modulus and alpha"):
        alexander(AlexanderParams(5, 2), 3)
    assert alexander(AlexanderParams(5, 2)).alexander == AlexanderParams(5, 2)


def test_trivial_and_dihedral_match_their_formulas():
    # Quandle equality ignores the affine tag, so it is checked on its own.
    for n in range(1, 17):
        assert trivial(n).table == tuple(tuple(x for _ in range(n)) for x in range(n))
        assert dihedral(n).table == tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n))
        assert trivial(n).alexander == AlexanderParams(n, 1)
        assert dihedral(n).alexander == AlexanderParams(n, n - 1)


def test_conjugation_of_abelian_group_is_trivial():
    for n in (1, 2, 3, 5):
        assert conjugation(cyclic_group_table(n)) == trivial(n)


def test_conjugation_rejects_non_groups():
    with pytest.raises(NotAGroupError):
        conjugation([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(NotAGroupError):
        conjugation([[1, 0], [0, 0]])  # hunt for identity fails
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative
    with pytest.raises(NotAGroupError) as exc:
        conjugation(bad)
    assert exc.value.reason in ("not associative", "missing inverse")


def test_s3_table_is_a_group_with_expected_relations():
    q = conjugation(S3_TABLE)  # validates the group on the way
    t = S3_TABLE
    assert t[3][3] == 0          # x^2 = 1
    assert t[1][t[1][1]] == 0    # y^3 = 1
    assert t[t[3][1]][3] == 2    # xyx = y^2 = y^-1
    assert q.n == 6


def test_s3_conjugation_reproduces_reference_multiplication_table():
    # Rows of e_i . e_j = e_{i ⊳ j} with basis order 1, y, y², x, yx, y²x.
    expected = (
        (0, 0, 0, 0, 0, 0),
        (1, 1, 1, 2, 2, 2),
        (2, 2, 2, 1, 1, 1),
        (3, 4, 5, 3, 5, 4),
        (4, 5, 3, 5, 4, 3),
        (5, 3, 4, 4, 3, 5),
    )
    assert conjugation(S3_TABLE).table == expected


# ---------------------------------------------------------------------------
# predicates


def test_props_dihedral3():
    p = props(dihedral(3))
    assert p.involutive and p.latin and p.medial and p.connected
    assert p.orbits == ((0, 1, 2),)


def test_props_trivial3():
    p = props(trivial(3))
    assert p.involutive and p.medial
    assert not p.latin and not p.connected
    assert p.orbits == ((0,), (1,), (2,))


def test_props_s3_orbit_sizes():
    p = props(conjugation(S3_TABLE))
    assert tuple(len(o) for o in p.orbits) == (1, 2, 3)
    assert not p.connected


def test_dihedral_involutive_always_latin_iff_odd():
    for n in range(1, 11):
        p = props(dihedral(n))
        assert p.involutive
        assert p.latin == (n % 2 == 1 or n == 1)


def test_constructors_always_validate():
    for n in range(1, 8):
        for q in (trivial(n), dihedral(n)):
            assert check_axioms(q.table) is None
    for n in range(2, 6):
        for a in range(1, n):
            try:
                q = alexander(n, a)
            except ValueError:
                continue
            assert check_axioms(q.table) is None


# ---------------------------------------------------------------------------
# catalog


# The reference Cayley tables, 1-indexed exactly as catalogued.
_REFERENCE_3 = {
    "3.1": ["111", "222", "333"],
    "3.2": ["112", "221", "333"],
    "3.3": ["132", "321", "213"],
}
_REFERENCE_4 = {
    "4.1": ["1111", "2222", "3333", "4444"],
    "4.2": ["1111", "2223", "3332", "4444"],
    "4.3": ["1112", "2223", "3331", "4444"],
    "4.4": ["1111", "2243", "3432", "4324"],
    "4.5": ["1122", "2211", "3333", "4444"],
    "4.6": ["1122", "2211", "4433", "3344"],
    "4.7": ["1423", "3241", "4132", "2314"],
}


def _shift(rows):
    return tuple(tuple(int(ch) - 1 for ch in row) for row in rows)


def test_catalog_sizes_and_labels():
    assert len(catalog(3)) == 3
    assert len(catalog(4)) == 7
    assert catalog_labels() == ["3.1", "3.2", "3.3"] + [f"4.{i}" for i in range(1, 8)]
    with pytest.raises(ValueError):
        catalog(5)


@pytest.mark.parametrize("label,rows", sorted(_REFERENCE_3.items()) + sorted(_REFERENCE_4.items()))
def test_catalog_matches_reference_tables(label, rows):
    assert catalog_lookup(label).table == _shift(rows)


def test_catalog_entries_are_quandles():
    for q in catalog(3) + catalog(4):
        assert check_axioms(q.table) is None
        assert q.label is not None


def test_catalog_unknown_label():
    with pytest.raises(KeyError):
        catalog_lookup("5.1")


# ---------------------------------------------------------------------------
# serialization and spec parsing


def test_json_round_trip(tmp_path):
    q = dihedral(5)
    blob = json.dumps(q.to_json_dict())
    again = from_json_dict(json.loads(blob))
    assert again == q


def test_json_rejects_inconsistent_order():
    with pytest.raises(ValueError):
        from_json_dict({"n": 3, "table": [[0, 0], [1, 1]]})


def test_parse_quandle_spec():
    assert parse_quandle_spec("dihedral:6") == dihedral(6)
    assert parse_quandle_spec("trivial:2") == trivial(2)
    assert parse_quandle_spec("alexander:5,2") == alexander(5, 2)
    assert parse_quandle_spec("catalog:4.7") == catalog_lookup("4.7")
    assert parse_quandle_spec("conjugation:s3") == conjugation(S3_TABLE)
    assert parse_quandle_spec("conjugation:z4") == trivial(4)
    for bad in ("dihedral", "weird:3", "conjugation:k4"):
        with pytest.raises(ValueError):
            parse_quandle_spec(bad)


@pytest.mark.parametrize("spec", ["trivial:{}", "dihedral:{}", "alexander:{},2", "conjugation:z{}"])
def test_spec_order_limit_is_checked_before_building(monkeypatch, spec):
    def refuse(*args):
        raise AssertionError("a table was built past the order limit")

    for name in ("trivial", "dihedral", "alexander", "cyclic_group_table"):
        monkeypatch.setattr(quandles, name, refuse)
    with pytest.raises(ValueError, match=f"MAX_ORDER = {MAX_ORDER}"):
        parse_quandle_spec(spec.format(MAX_ORDER + 1))


def test_spec_at_order_limit_is_accepted():
    assert parse_quandle_spec(f"trivial:{MAX_ORDER}") == trivial(MAX_ORDER)


def test_spec_integers_take_a_sign_and_padding():
    # ASCII digits with an optional sign and padding are accepted.
    assert parse_quandle_spec("dihedral:+5") == dihedral(5)
    assert parse_quandle_spec("alexander: 7 , -4") == alexander(7, 3)
    assert parse_quandle_spec("conjugation:z+4") == parse_quandle_spec("conjugation:z4")


@pytest.mark.parametrize("spec", [
    "trivial:1_0", "dihedral:3_0", "conjugation:z1_2", "alexander:5,2_0", "alexander:5_0,2",
    "dihedral:\u0663", "alexander:7,\u0663", "dihedral:\u00b3", "dihedral:+", "dihedral:+-3",
])
def test_spec_integers_refuse_other_digits(spec):
    # int() would read digit separators and non-ASCII digits.
    with pytest.raises(ValueError) as exc:
        parse_quandle_spec(spec)
    assert str(exc.value) == f"malformed quandle spec {spec!r}"


def test_json_order_limit_is_checked_before_validation():
    with pytest.raises(ValueError, match=f"MAX_ORDER = {MAX_ORDER}"):
        from_json_dict({"table": [[0]] * (MAX_ORDER + 1)})


@pytest.mark.parametrize("data", [
    {"table": []}, {"n": 0, "table": []},
    {"n": 1.0, "table": [[0]]}, {"n": True, "table": [[0]]}, {"n": "1", "table": [[0]]},
], ids=["empty", "empty-n-zero", "n-float", "n-bool", "n-text"])
def test_json_rejects_empty_table_and_non_integer_order(data):
    with pytest.raises(ValueError):
        from_json_dict(data)


def test_json_accepts_order_one():
    assert from_json_dict({"n": 1, "table": [[0]]}) == trivial(1)


def test_medial_for_conjugation_of_abelian_groups():
    # Conjugation on an abelian group collapses to the trivial quandle,
    # which is medial.
    for n in (2, 4):
        assert props(conjugation(cyclic_group_table(n))).medial


def _medial_by_definition(q):
    t, n = q.table, q.n
    return all(t[t[w][x]][t[y][z]] == t[t[w][y]][t[x][z]]
               for w in range(n) for x in range(n) for y in range(n) for z in range(n))


def test_medial_matches_the_four_fold_definition():
    import random
    rng = random.Random(12)
    cases = catalog(3) + catalog(4) + [conjugation(S3_TABLE), trivial(5)]
    for q in (dihedral(4), dihedral(6), dihedral(8), dihedral(9),
              alexander(5, 2), alexander(7, 3), alexander(9, 2)):
        perm = list(range(q.n))
        rng.shuffle(perm)
        cases.append(relabel(q, perm))
    for q in cases:
        assert props(q).medial == _medial_by_definition(q)
    assert not props(conjugation(S3_TABLE)).medial
    assert props(trivial(5)).medial
    assert not all(props(q).medial for q in catalog(4))


def test_json_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        from_json_dict({"n": 2, "table": [[0.0, 0], [1, 1]]})
    with pytest.raises(ValueError):
        from_json_dict({"n": 2, "table": [[False, 0], [1, 1]]})
