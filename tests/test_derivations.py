import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from quandlib.cli import main
from quandlib.fields import GF, RATIONALS, FieldSpec
from quandlib.linalg import Matrix, contains, span_from_vectors
from quandlib.algebra import AlgebraElement, basis_element, multiply
from quandlib.derivations import (
    _RELATION,
    block_decomposition,
    central_translation,
    derivation_space,
    dihedral_symmetry_report,
    flatten_matrix,
    image_in_augmentation_ideal,
    leibniz_system,
    matrix_from_flat,
    predicted_dim_dihedral,
    verify_structure_relations,
)
from quandlib.quandles import S3_TABLE, catalog, conjugation, cyclic_group_table, dihedral, trivial
from quandlib.tables import _blocks_to_matrix

Q = RATIONALS


def leibniz_defect(D, q, f):
    """First (x, y, z) where D(e_x e_y) - D(e_x)e_y - e_x D(e_y) has a nonzero
    coefficient of e_z, found by direct algebra multiplication (independent of
    the system builder)."""
    n = q.n
    for x in range(n):
        for y in range(n):
            lhs = D.col(q.table[x][y])
            left = multiply(AlgebraElement(f, D.col(x)), basis_element(f, n, y), q)
            right = multiply(basis_element(f, n, x), AlgebraElement(f, D.col(y)), q)
            for z in range(n):
                if lhs[z] != f.add(left.coeffs[z], right.coeffs[z]):
                    return (x, y, z)
    return None


# ---------------------------------------------------------------------------
# the linear system


def test_system_shape_order3():
    m = leibniz_system(dihedral(3), Q)
    assert (m.nrows, m.ncols) == (27, 9)


def test_system_entries_are_integers_over_q():
    m = leibniz_system(catalog(4)[2], Q)
    assert all(isinstance(v, Fraction) and v.denominator == 1 for v in m.entries)


def test_order_one_quandle_has_no_derivations():
    # e*e = e forces the single coefficient to satisfy c = 2c.
    m = leibniz_system(trivial(1), Q)
    assert (m.nrows, m.ncols) == (1, 1)
    assert m.entry(0, 0) == -1
    assert derivation_space(trivial(1), Q).dim == 0


def test_trivial_quandle_system_is_column_sums():
    # Independent description: maps whose image lies in the augmentation
    # ideal, i.e. all column sums vanish.
    for n in (2, 3, 4):
        q = trivial(n)
        der = derivation_space(q, Q)
        ones = Matrix.from_rows(Q, [[1] * n])
        colsum_zero = span_from_vectors(
            Q, n * n,
            [vec for vec in _column_sum_zero_generators(n)],
        )
        assert der.subspace == colsum_zero
        assert der.dim == n * (n - 1)


def _column_sum_zero_generators(n):
    # E_{u,t} - E_{(u+1),t} for each column t and consecutive row pair.
    for t in range(n):
        for u in range(n - 1):
            vec = [0] * (n * n)
            vec[u * n + t] = 1
            vec[(u + 1) * n + t] = -1
            yield vec


# ---------------------------------------------------------------------------
# solver results on small quandles


def test_dihedral3_dims():
    assert derivation_space(dihedral(3), Q).dim == 0
    assert derivation_space(dihedral(3), GF(3)).dim == 2


def test_trivial3_dim_char0():
    assert derivation_space(trivial(3), Q).dim == 6


def test_dense_and_sparse_solver_paths_agree():
    # derivation_space merges the unknowns that equality rows identify and
    # solves the other rows over the classes; nullspace of the materialized
    # dense system is an independent route to the same kernel.  Relabeled even
    # dihedral inputs merge classes; trivial(5) and conjugation:z6 merge none
    # but repeat each non-empty row n times.
    from quandlib.linalg import nullspace
    from quandlib.quandles import alexander, catalog_lookup, relabel
    cases = [(q, f) for q in catalog(3) for f in (Q, GF(2), GF(3))]
    cases += [(q, Q) for q in catalog(4)]
    cases += [(dihedral(n), Q) for n in (4, 5, 6)]
    cases += [(dihedral(4), GF(2)), (conjugation(S3_TABLE), GF(3))]
    rng = random.Random(24)
    for n in (8, 10):
        perm = list(range(n))
        rng.shuffle(perm)
        cases += [(relabel(dihedral(n), perm), f) for f in (Q, GF(2), GF(3), GF(2**31 - 1))]
    cases += [(trivial(5), Q), (conjugation(cyclic_group_table(6)), Q)]
    # Non-bijective L_x in positive characteristic; catalog(3) above already
    # covers 3.2 over GF(2) and GF(3).
    cases += [(q, f) for q in (alexander(8, 3), catalog_lookup("4.2")) for f in (GF(2), GF(3))]
    perm = list(range(12))
    rng.shuffle(perm)
    cases += [(relabel(dihedral(12), perm), GF(3))]
    for q, f in cases:
        assert nullspace(leibniz_system(q, f)) == derivation_space(q, f).subspace


def test_dihedral4_gf2_exhaustive_oracle():
    q = dihedral(4)
    f = GF(2)
    count = sum(
        1
        for ents in product(range(2), repeat=16)
        if leibniz_defect(Matrix(f, 4, 4, ents), q, f) is None
    )
    assert count == 2 ** derivation_space(q, f).dim == 2 ** 4


def test_derivation_dimension_invariant_under_relabeling():
    import random
    from quandlib.quandles import alexander, catalog_lookup, relabel
    rng = random.Random(31)
    for q in (dihedral(4), dihedral(6), catalog(4)[4]):
        base = derivation_space(q, Q).dim
        for _ in range(3):
            perm = list(range(q.n))
            rng.shuffle(perm)
            assert derivation_space(relabel(q, perm), Q).dim == base


def test_gf2_exhaustive_oracle_all_quandles_up_to_order_three():
    # Orders 1 and 2 admit only the trivial quandle; order 3 has the three
    # catalog classes.
    f = GF(2)
    for q in [trivial(1), trivial(2)] + catalog(3):
        n = q.n
        count = sum(
            1
            for ents in product(range(2), repeat=n * n)
            if leibniz_defect(Matrix(f, n, n, ents), q, f) is None
        )
        assert count == 2 ** derivation_space(q, f).dim


def test_every_basis_element_satisfies_leibniz_exactly():
    cases = [(q, f) for q in catalog(3) + catalog(4) for f in (Q, GF(2))]
    cases += [(dihedral(n), Q) for n in (4, 6, 8)]
    cases += [(conjugation(S3_TABLE), GF(3))]
    for q, f in cases:
        for m in derivation_space(q, f).basis:
            assert leibniz_defect(m, q, f) is None


def test_derivation_span_closed_under_commutator():
    for q, f in [
        (trivial(3), Q),
        (catalog(4)[4], Q),
        (catalog(4)[4], GF(2)),
        (dihedral(6), Q),
        (dihedral(3), GF(3)),
        (conjugation(S3_TABLE), GF(3)),
    ]:
        der = derivation_space(q, f)
        for a in der.basis:
            for b in der.basis:
                bracket = (a @ b) - (b @ a)
                assert contains(der.subspace, flatten_matrix(bracket))


# ---------------------------------------------------------------------------
# the structure-constant characterization


def test_zero_map_is_a_derivation_everywhere():
    for q in catalog(3) + catalog(4):
        assert verify_structure_relations(Matrix.zeros(Q, q.n, q.n), q).ok


def test_basis_elements_pass_structure_relations():
    for q in catalog(3):
        for f in (Q, GF(3)):
            for m in derivation_space(q, f).basis:
                assert verify_structure_relations(m, q).ok


def test_random_non_derivation_fails_with_matching_witness():
    q = dihedral(4)
    rng = random.Random(3)
    found = 0
    while found < 5:
        m = Matrix.from_rows(Q, [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(4)])
        check = verify_structure_relations(m, q)
        if check.ok:
            continue
        found += 1
        assert check.witness == leibniz_defect(m, q, Q)
        assert not contains(derivation_space(q, Q).subspace, flatten_matrix(m))


def test_structure_relation_iff_span_membership():
    rng = random.Random(17)
    for q, f in [(catalog(3)[1], Q), (dihedral(4), Q), (catalog(4)[4], GF(2))]:
        der = derivation_space(q, f)
        n = q.n
        # in-span samples: random combinations of the basis
        for _ in range(10):
            coeffs = [f.from_int(rng.randrange(-3, 4)) for _ in der.basis]
            acc = Matrix.zeros(f, n, n)
            for c, m in zip(coeffs, der.basis):
                acc = acc + m.scale(c)
            assert verify_structure_relations(acc, q).ok
        # arbitrary samples must agree with membership
        for _ in range(10):
            m = Matrix.from_rows(
                f, [[f.from_int(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
            )
            ok = verify_structure_relations(m, q).ok
            assert ok == contains(der.subspace, flatten_matrix(m))


# ---------------------------------------------------------------------------
# dihedral symmetries


def test_symmetries_multiple_of_four():
    for n in (8, 12):
        der = derivation_space(dihedral(n), Q)
        assert der.dim > 0
        for m in der.basis:
            rep = dihedral_symmetry_report(m, n)
            for name in ("reflection", "half_shift_sign", "half_shift_period",
                         "diagonal_shift_zero"):
                assert rep.checks[name].applicable
                assert rep.checks[name].holds, (n, name, rep.checks[name].counterexample)


def test_symmetries_quarter_period_k_even():
    der = derivation_space(dihedral(8), Q)
    for m in der.basis:
        rep = dihedral_symmetry_report(m, 8)
        assert rep.checks["quarter_shift_period"].applicable
        assert rep.checks["quarter_shift_period"].holds
        assert not rep.checks["near_quarter_shift_period"].applicable


def test_symmetries_near_quarter_period_k_odd():
    der = derivation_space(dihedral(12), Q)
    for m in der.basis:
        rep = dihedral_symmetry_report(m, 12)
        assert rep.checks["near_quarter_shift_period"].applicable
        assert rep.checks["near_quarter_shift_period"].holds


def test_symmetries_twice_odd():
    for n in (6, 10):
        der = derivation_space(dihedral(n), Q)
        assert der.dim > 0
        diag_failures = 0
        for m in der.basis:
            rep = dihedral_symmetry_report(m, n)
            assert rep.checks["reflection"].holds
            assert rep.checks["half_shift_sign_twice_odd"].holds
            assert not rep.checks["half_shift_period"].applicable
            if not rep.checks["diagonal_shift_zero"].holds:
                diag_failures += 1
        # Computed ground truth: the diagonal-shift coefficient c_t^{t+n/2}
        # is NOT forced to vanish here; e.g. e_t ↦ e_t - e_{t+n/2} on even t
        # is a derivation with c_0^{n/2} = -1.
        assert diag_failures > 0


def test_half_diagonal_derivation_exists_for_twice_odd():
    # The explicit derivation behind the diagonal-shift counterexample.
    n = 6
    q = dihedral(n)
    ents = [[0] * n for _ in range(n)]
    for t in range(0, n, 2):
        ents[t][t] = 1
        ents[(t + 3) % n][t] = -1
    m = Matrix.from_rows(Q, ents)
    assert leibniz_defect(m, q, Q) is None
    assert verify_structure_relations(m, q).ok


def test_symmetry_report_not_applicable_for_odd_order():
    rep = dihedral_symmetry_report(Matrix.zeros(Q, 5, 5), 5)
    assert all(not c.applicable for c in rep.checks.values())


# sha256 (first 16 hex digits) of `quandlib symmetries --quandle dihedral:n
# --field F` stdout, n = 1..16.  Pins every description, not-applicable text,
# holds value and witness the report prints.
SYMMETRIES_CLI_DIGESTS = {
    "Q": (
        "62e3c1d783a49e1f", "0fba3e63934b5f3b", "525100fde3f26d93", "f9e82aa51e17922f",
        "102611c006e4c542", "445d7d4874679103", "4167de0625228bbe", "76fb6c68996ed82a",
        "3a4d4836c193b30b", "b15ec89f58edeab5", "0ffc155905a14fb4", "b5cdb088e539db10",
        "eefce050d6c5b59e", "00d183995be54a97", "8be9efa45a48d854", "f5503499be583218",
    ),
    "GF(2)": (
        "d0bcc19c72f12778", "e1de25a8ae19d5ce", "4220ad29a9b38186", "edfdb16056dc039b",
        "14cdd482b46deedb", "326074d756380a32", "26871c1870a9a1d5", "0ea0d25deae0827c",
        "fcdd0b22ddc990ca", "43b906a3df931502", "dd5d4fda5bdbfa14", "89561fb22946ccf1",
        "5e747ab0df8d7310", "9a6a555f9f2e2752", "c4221c8f0f23d82f", "7b7f0510827aec6a",
    ),
    "GF(3)": (
        "1daf8be13485addb", "90798327f0ea9da6", "e3e59ce5c13bc112", "ce9ce80891ec3b59",
        "e46782b76de140bb", "2f5040e058e8ae03", "9e58e2c15d59edbd", "21bf8c4116a27a8e",
        "bac59a3cf2f484b4", "d6947d41e3499949", "c73b1975c1a15fd1", "b333c85c5ec43e5a",
        "1f79d50951ec995d", "65fb24b5d5417b98", "688fc88d859a27f7", "53191d10fe8ad398",
    ),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("field_name", sorted(SYMMETRIES_CLI_DIGESTS))
@pytest.mark.parametrize("n", range(1, 17))
def test_symmetries_cli_output_is_pinned(capsys, n, field_name):
    code = main(["symmetries", "--quandle", f"dihedral:{n}", "--field", field_name])
    assert code == 0
    assert _digest(capsys.readouterr().out) == SYMMETRIES_CLI_DIGESTS[field_name][n - 1]


def _random_matrix(f, rows, cols, rng):
    return Matrix.from_rows(
        f, [[f.from_int(rng.randrange(-2, 3)) for _ in range(cols)] for _ in range(rows)]
    )


def _perturbed(m, rng):
    """m with one seeded entry increased by one."""
    f, n = m.field, m.nrows
    ents = list(m.entries)
    i = rng.randrange(n * n)
    ents[i] = f.add(ents[i], f.one())
    return Matrix(f, n, n, tuple(ents))


def _report_probes(f, n, rng):
    """Zero, random, derivation-basis and block-shaped matrices, the shaped
    ones also perturbed so relations fail at positions other than the first."""
    probes = [Matrix.zeros(f, n, n), _random_matrix(f, n, n, rng)]
    shaped = list(derivation_space(dihedral(n), f).basis[:3])
    if n % 4 == 0:
        k = n // 4
        shaped.append(_blocks_to_matrix(_random_matrix(f, k, k, rng), _random_matrix(f, k, k, rng)))
    elif n % 2 == 0:
        top = _random_matrix(f, n // 2, n, rng).to_lists()
        shaped.append(Matrix.from_rows(f, top + [[f.neg(v) for v in row] for row in top]))
    for m in shaped:
        probes += [m, _perturbed(m, rng)]
    return probes


# Digest of the report lines and the number of distinct witnesses, per field.
SEEDED_REPORT_DIGESTS = {
    "Q": ("25cbef505d2691ac", 64),
    "GF(2)": ("205b7989763c0320", 67),
    "GF(3)": ("05e23a29902306c7", 61),
}


@pytest.mark.parametrize("field_name", sorted(SEEDED_REPORT_DIGESTS))
def test_symmetry_report_on_seeded_matrices_is_pinned(field_name):
    digest, witnesses = SEEDED_REPORT_DIGESTS[field_name]
    f = FieldSpec.from_name(field_name)
    rng = random.Random(f"symmetry-report-{field_name}")
    lines = []
    seen = set()
    for n in range(1, 17):
        for m in _report_probes(f, n, rng):
            for name, c in sorted(dihedral_symmetry_report(m, n).checks.items()):
                lines.append(f"{n} {name} {c.applicable} {c.holds} {c.counterexample} {c.description}")
                if c.counterexample:
                    seen.add(c.counterexample)
    assert len(seen) == witnesses
    assert _digest("\n".join(lines)) == digest


def _reflection_walk(m):
    """The first (t, d, x) where the reflection relation of the table fails,
    walking every index tuple; c_t^x is the entry at row x, column t."""
    n = m.nrows
    sides = _RELATION["reflection"].sides
    for idx in product(range(n), repeat=3):
        (t, x), (t2, x2) = sides(0, *idx)
        if m.entry(x % n, t % n) != m.entry(x2 % n, t2 % n):
            return idx
    return None


@pytest.mark.parametrize("field_name", ["Q", "GF(3)"])
@pytest.mark.parametrize("n", [16, 24])
def test_reflection_witness_is_that_of_the_walk(n, field_name):
    # Perturbed derivations fail late in d and x, which the column scan
    # must still report first.
    f = FieldSpec.from_name(field_name)
    rng = random.Random(f"reflection-{n}-{field_name}")
    basis = derivation_space(dihedral(n), f).basis[:4]
    probes = [_random_matrix(f, n, n, rng)] + list(basis) + [_perturbed(m, rng) for m in basis * 2]
    witnesses = []
    for m in probes:
        witness = dihedral_symmetry_report(m, n).checks["reflection"].counterexample
        assert witness == _reflection_walk(m)
        witnesses.append(witness)
    assert witnesses.count(None) == len(basis)
    assert max(d for _, d, _ in filter(None, witnesses)) >= n // 4


# ---------------------------------------------------------------------------
# block decomposition


def test_blocks_multiple_of_four():
    for n in (8, 16):
        der = derivation_space(dihedral(n), Q)
        for m in der.basis:
            rep = block_decomposition(m, n)
            assert rep.form == "quadrant" and rep.fits
            assert rep.fits_uv  # n/4 is even for 8 and 16
            assert rep.u_block.nrows == n // 4


def test_blocks_twice_odd_row_relation():
    der = derivation_space(dihedral(6), Q)
    for m in der.basis:
        rep = block_decomposition(m, 6)
        assert rep.form == "half_rows" and rep.fits
        assert rep.top_half.nrows == 3 and rep.top_half.ncols == 6


def test_blocks_zero_map_fits_everything():
    for n in (6, 8, 12):
        rep = block_decomposition(Matrix.zeros(Q, n, n), n)
        assert rep.fits
        if rep.form == "quadrant" and rep.fits_uv is not None:
            assert rep.fits_uv


def test_blocks_reject_odd_order():
    with pytest.raises(ValueError):
        block_decomposition(Matrix.zeros(Q, 5, 5), 5)


def test_blocks_k_odd_has_no_uv_claim():
    rep = block_decomposition(Matrix.zeros(Q, 12, 12), 12)
    assert rep.fits_uv is None  # quarter 3 is odd


@pytest.mark.parametrize("field_name", ["Q", "GF(2)", "GF(3)"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_blocks_round_trip_through_table_layout(field_name, k):
    f = FieldSpec.from_name(field_name)
    rng = random.Random(f"blocks-{field_name}-{k}")
    u, v = _random_matrix(f, k, k, rng), _random_matrix(f, k, k, rng)
    d = _blocks_to_matrix(u, v)
    n = 4 * k
    rep = block_decomposition(d, n)
    assert rep.form == "quadrant" and rep.fits
    assert rep.p_block == Matrix(f, 2 * k, 2 * k, tuple(
        d.entry(i, j) for i in range(2 * k) for j in range(2 * k)))
    if k % 2 == 0:
        assert rep.fits_uv and rep.u_block == u and rep.v_block == v
    else:
        assert rep.fits_uv is None and rep.u_block is None and rep.v_block is None
    for i in range(n * n):
        ents = list(d.entries)
        ents[i] = f.add(ents[i], f.one())
        changed = block_decomposition(Matrix(f, n, n, tuple(ents)), n)
        assert not changed.fits and not changed.fits_uv, divmod(i, n)


@pytest.mark.parametrize("field_name", ["Q", "GF(2)", "GF(3)"])
@pytest.mark.parametrize("n", [2, 6, 10])
def test_blocks_half_rows_round_trip(field_name, n):
    f = FieldSpec.from_name(field_name)
    rng = random.Random(f"half-rows-{field_name}-{n}")
    top = _random_matrix(f, n // 2, n, rng)
    d = Matrix.from_rows(f, top.to_lists() + [[f.neg(x) for x in row] for row in top.to_lists()])
    rep = block_decomposition(d, n)
    assert rep.form == "half_rows" and rep.fits and rep.top_half == top
    assert rep.p_block is None and rep.fits_uv is None
    for i in range(n * n):
        ents = list(d.entries)
        ents[i] = f.add(ents[i], f.one())
        assert not block_decomposition(Matrix(f, n, n, tuple(ents)), n).fits, divmod(i, n)


def _direct_block_shape(d, n):
    """(fits, fits_uv) by comparing the blocks entry by entry."""
    f, h = d.field, n // 2
    if n % 4:
        return all(d.entry(x + h, t) == f.neg(d.entry(x, t)) for x in range(h) for t in range(n)), None
    p = [[d.entry(i, j) for j in range(h)] for i in range(h)]
    fits = all(d.entry(i, j) == (p[i % h][j % h] if (i < h) == (j < h) else f.neg(p[i % h][j % h]))
               for i in range(n) for j in range(n))
    k = n // 4
    if k % 2:
        return fits, None
    uv = all(p[i + k][j + k] == p[i][j] and p[i + k][j] == f.neg(p[i][j + k])
             for i in range(k) for j in range(k))
    return fits, fits and uv


def _tiled(f, tiles, size):
    """The matrix made of a square grid of size × size tiles."""
    return Matrix.from_rows(f, [[row_tiles[j // size].entry(i % size, j % size)
                                 for j in range(size * len(row_tiles))]
                                for row_tiles in tiles for i in range(size)])


@pytest.mark.parametrize("field_name", ["Q", "GF(2)", "GF(3)"])
def test_blocks_agree_with_direct_block_comparison(field_name):
    # Matrices that satisfy some of the relations behind a block shape but
    # not all of them, so each conjunct decides some case.
    f = FieldSpec.from_name(field_name)
    rng = random.Random(f"block-shapes-{field_name}")
    for n in range(2, 17, 2):
        h, k = n // 2, n // 4
        a, b = _random_matrix(f, h, h, rng), _random_matrix(f, h, h, rng)
        cases = [_random_matrix(f, n, n, rng), Matrix.zeros(f, n, n),
                 _tiled(f, [[a, b], [-a, -b]], h), _tiled(f, [[a, b], [b, a]], h),
                 _tiled(f, [[a, -a], [-a, a]], h)]
        if n % 4 == 0:
            w = [_random_matrix(f, k, k, rng) for _ in range(4)]
            cases += [_tiled(f, [w[-i:] + w[:-i] for i in range(4)], k),
                      _blocks_to_matrix(w[0], w[1])]
        for d in cases:
            rep = block_decomposition(d, n)
            assert (rep.fits, rep.fits_uv) == _direct_block_shape(d, n), n


# ---------------------------------------------------------------------------
# the closed-form dimension record


def test_predicted_dims():
    assert predicted_dim_dihedral(5).dim == 0
    assert predicted_dim_dihedral(5).check_against_solver is False
    assert predicted_dim_dihedral(8).dim == 4
    assert predicted_dim_dihedral(12).dim == 5
    assert predicted_dim_dihedral(16).dim == 8
    assert predicted_dim_dihedral(24).dim == 12
    p4 = predicted_dim_dihedral(4)
    assert p4.dim == 1 and p4.check_against_solver
    assert predicted_dim_dihedral(6).dim is None


def test_prediction_matches_solver_for_odd_and_even_quarter():
    for n in (3, 5, 7, 9):
        assert derivation_space(dihedral(n), Q).dim == predicted_dim_dihedral(n).dim == 0
    for n in (8, 16):
        assert derivation_space(dihedral(n), Q).dim == predicted_dim_dihedral(n).dim


def test_prediction_flagged_cases_are_checked_not_trusted():
    # The record itself must mark the closed form as a claim to confront.
    assert predicted_dim_dihedral(12).check_against_solver
    assert predicted_dim_dihedral(4).check_against_solver


# ---------------------------------------------------------------------------
# translations on conjugation quandles


def test_central_translation_z2():
    m = central_translation(cyclic_group_table(2), 1, Q)
    assert m.to_lists() == [[1, -1], [-1, 1]]


def test_central_translation_identity_is_zero():
    m = central_translation(cyclic_group_table(4), 0, Q)
    assert m.is_zero


def test_central_translation_is_a_derivation_of_conjugation_quandle():
    for n in (2, 3, 4):
        q = conjugation(cyclic_group_table(n))
        for x in range(n):
            m = central_translation(cyclic_group_table(n), x, Q)
            assert verify_structure_relations(m, q).ok


def test_central_translation_composition_law():
    # D_y ∘ D_x = D_x + D_y - D_{xy} on cyclic groups.
    for n in (2, 3, 4):
        g = cyclic_group_table(n)
        for x in range(n):
            for y in range(n):
                dx = central_translation(g, x, Q)
                dy = central_translation(g, y, Q)
                dxy = central_translation(g, g[x][y], Q)
                assert (dy @ dx) == dx + dy - dxy


def test_central_translation_rejects_non_central():
    # In the symmetric-group table, y (index 1) does not commute with x (index 3).
    with pytest.raises(ValueError):
        central_translation(S3_TABLE, 1, Q)


def test_image_in_augmentation_ideal():
    assert image_in_augmentation_ideal(Matrix.zeros(Q, 3, 3))
    assert not image_in_augmentation_ideal(Matrix.identity(Q, 3))
    for n in (2, 3, 4):
        for m in derivation_space(trivial(n), Q).basis:
            assert image_in_augmentation_ideal(m)


def test_flatten_round_trip():
    m = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    assert matrix_from_flat(Q, 2, flatten_matrix(m)) == m
