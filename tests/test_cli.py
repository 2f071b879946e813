import json

import pytest

from quandlib.cli import main

# Passes axioms I and II but fails the self-distributivity axiom at (0, 1, 2).
BAD_TABLE = [[0, 2, 1], [1, 1, 0], [2, 0, 2]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_derivations_dihedral3_gf3(capsys):
    code, data = run_json(capsys, "derivations", "--quandle", "dihedral:3", "--field", "GF(3)")
    assert code == 0
    assert data["dim"] == 2
    assert data["field"] == "GF(3)"
    assert len(data["basis"]) == 2
    assert all(isinstance(v, int) for row in data["basis"][0] for v in row)


def test_derivations_catalog47_q(capsys):
    code, data = run_json(capsys, "derivations", "--quandle", "catalog:4.7", "--field", "Q")
    assert code == 0
    assert data["dim"] == 0 and data["basis"] == []


def test_derivations_rationals_serialize_as_strings(capsys):
    code, data = run_json(capsys, "derivations", "--quandle", "catalog:4.2", "--field", "Q")
    assert code == 0
    values = {v for mat in data["basis"] for row in mat for v in row}
    assert "-1/2" in values  # exact rationals in text form


def test_validate_good_file(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"n": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}))
    code, data = run_json(capsys, "validate", "--file", str(path))
    assert code == 0 and data["ok"]


def test_validate_bad_file_reports_axiom_three(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "table": BAD_TABLE}))
    code, data = run_json(capsys, "validate", "--file", str(path))
    assert code == 1
    assert data["error"]["kind"] == "axiom_violation"
    assert data["error"]["axiom"] == "III"
    assert data["error"]["witness"] == [0, 1, 2]


def test_missing_file_is_an_error(capsys):
    code, data = run_json(capsys, "props", "--file", "/nonexistent/q.json")
    assert code == 1
    assert data["error"]["kind"] == "file_error"


def test_props_output(capsys):
    code, data = run_json(capsys, "props", "--quandle", "conjugation:s3")
    assert code == 0
    assert not data["connected"]
    assert data["orbits"] == [[0], [1, 2], [3, 4, 5]]


def test_ideals_output(capsys):
    code, data = run_json(capsys, "ideals", "--quandle", "dihedral:3", "--field", "Q")
    assert code == 0
    assert data["augmentation_ideal"]["dim"] == 2
    assert data["commutator_right_ideal"]["dim"] == 0
    assert data["commutator_right_ideal"]["contained_in_augmentation_ideal"]


def test_inner_output(capsys):
    code, data = run_json(capsys, "inner", "--quandle", "trivial:3", "--field", "Q")
    assert code == 0
    assert data["inner_dim"] == 3 and data["outer_dim"] == 3
    assert data["derivation_dim"] == 6 and data["transformation_dim"] == 4


def test_lietransform_output(capsys):
    code, data = run_json(capsys, "lietransform", "--quandle", "dihedral:3", "--field", "Q")
    assert code == 0
    assert data["dim"] == 5
    assert data["inner_dim"] == 0 and data["outer_dim"] == 0
    assert "generator_log" not in data


def test_lietransform_verbose_env(capsys, monkeypatch):
    monkeypatch.setenv("QUANDLIB_VERBOSE", "1")
    code, data = run_json(capsys, "lietransform", "--quandle", "dihedral:3", "--field", "Q")
    assert code == 0
    assert data["generator_log"][0] == "id"


def test_symmetries_output(capsys):
    code, data = run_json(capsys, "symmetries", "--quandle", "dihedral:8", "--field", "Q")
    assert code == 0
    assert data["dim"] == 4
    for element in data["elements"]:
        checks = element["checks"]
        assert checks["reflection"]["holds"]
        assert checks["half_shift_sign"]["holds"]


def test_tables_command(capsys):
    code, out = run_cli(capsys, "tables")
    assert code == 1  # six recorded discrepancies fail honestly
    lines = out.strip().splitlines()
    assert len([l for l in lines if l.startswith(("PASS", "FAIL"))]) == 33
    assert sum(1 for l in lines if l.startswith("FAIL")) == 6
    assert lines[-1] == "OVERALL FAIL (27/33 entries verified)"


def test_tables_verbose_notes(capsys, monkeypatch):
    monkeypatch.setenv("QUANDLIB_VERBOSE", "1")
    _, out = run_cli(capsys, "tables")
    assert "note:" in out


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "derivations", "--quandle", "dihedral:6", "--field", "GF(3)")
    _, second = run_cli(capsys, "derivations", "--quandle", "dihedral:6", "--field", "GF(3)")
    assert first == second


def test_json_quandle_round_trip_matches_builtin(tmp_path, capsys):
    _, exported = run_json(capsys, "validate", "--quandle", "dihedral:5")
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(exported["quandle"]))
    _, from_file = run_json(capsys, "derivations", "--file", str(path), "--field", "GF(5)")
    _, builtin = run_json(capsys, "derivations", "--quandle", "dihedral:5", "--field", "GF(5)")
    assert from_file["dim"] == builtin["dim"] == 2
    assert from_file["basis"] == builtin["basis"]


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "derivations")[0] == 2       # no quandle source
    assert run_cli(capsys, "frobnicate")[0] == 2        # unknown command
    code, out = run_cli(capsys, "props", "--quandle", "trivial:2", "--file", "x.json")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "usage"


def test_invalid_field_reports_value_error(capsys):
    code, data = run_json(capsys, "derivations", "--quandle", "trivial:2", "--field", "GF(4)")
    assert code == 1
    assert data["error"]["kind"] == "value_error"


def test_invalid_spec_reports_value_error(capsys):
    code, data = run_json(capsys, "props", "--quandle", "sphere:3")
    assert code == 1
    assert data["error"]["kind"] == "value_error"


def test_order_above_limit_reports_value_error(capsys):
    code, data = run_json(capsys, "validate", "--quandle", "trivial:100000")
    assert code == 1
    assert data["error"]["kind"] == "value_error"
    assert "MAX_ORDER" in data["error"]["message"]



@pytest.mark.parametrize("text", ["[]", '{"table": 5}', '{"table": [[0, 1], 5]}'],
                         ids=["top-level-list", "table-not-list", "row-not-list"])
def test_malformed_json_shapes_report_value_error(tmp_path, capsys, text):
    # Each shape gets the JSON error object and exit code 1, not a traceback.
    path = tmp_path / "q.json"
    path.write_text(text)
    code, data = run_json(capsys, "validate", "--file", str(path))
    assert code == 1
    assert data["error"]["kind"] == "value_error"


def test_directory_as_file_reports_file_error(tmp_path, capsys):
    code, data = run_json(capsys, "validate", "--file", str(tmp_path))
    assert code == 1
    assert data["error"]["kind"] == "file_error"


def test_deeply_nested_json_reports_value_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, data = run_json(capsys, "validate", "--file", str(path))
    assert code == 1
    assert data["error"]["kind"] == "value_error"


def test_lietransform_computes_the_algebra_once(capsys, monkeypatch):
    import quandlib.cli as cli
    import quandlib.lietransform as lt
    calls = []
    original = lt.lie_transformation_algebra

    def counted(q, f):
        calls.append(q.n)
        return original(q, f)

    monkeypatch.setattr(cli, "lie_transformation_algebra", counted)
    monkeypatch.setattr(lt, "lie_transformation_algebra", counted)
    code, _ = run_json(capsys, "lietransform", "--quandle", "dihedral:4", "--field", "Q")
    assert code == 0 and calls == [4]
