import hashlib
import json

import pytest

from quandlib.cli import MAX_FILE_BYTES, main

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


@pytest.mark.parametrize("name", ["GF(1_1)", "٣"])
def test_non_ascii_digit_field_reports_unknown_field(capsys, name):
    code, data = run_json(capsys, "derivations", "--quandle", "trivial:2", "--field", name)
    assert code == 1
    assert data["error"] == {"kind": "value_error", "message": f"unknown field name: {name!r}"}


def test_invalid_spec_reports_value_error(capsys):
    code, data = run_json(capsys, "props", "--quandle", "sphere:3")
    assert code == 1
    assert data["error"]["kind"] == "value_error"


def test_order_above_limit_reports_value_error(capsys):
    code, data = run_json(capsys, "validate", "--quandle", "trivial:100000")
    assert code == 1
    assert data["error"]["kind"] == "value_error"
    assert "MAX_ORDER" in data["error"]["message"]


@pytest.mark.parametrize("spec,message", [
    ("conjugation:z0", "order must be positive"),
    ("conjugation:z-3", "order must be positive"),
    ("trivial:0", "order must be positive"),
    ("dihedral:-2", "order must be positive"),
    ("catalog:9.9", "no catalog quandle labeled '9.9'"),
    ("alexander:5", "malformed quandle spec 'alexander:5'"),
    ("dihedral:x", "malformed quandle spec 'dihedral:x'"),
    ("dihedral:5.0", "malformed quandle spec 'dihedral:5.0'"),
    ("alexander:,2", "malformed quandle spec 'alexander:,2'"),
    ("alexander:5,x", "malformed quandle spec 'alexander:5,x'"),
    ("conjugation:z", "malformed quandle spec 'conjugation:z'"),
    ("conjugation:zx", "malformed quandle spec 'conjugation:zx'"),
    ("dihedral:3_0", "malformed quandle spec 'dihedral:3_0'"),
    ("conjugation:z1_2", "malformed quandle spec 'conjugation:z1_2'"),
    ("alexander:5,2_0", "malformed quandle spec 'alexander:5,2_0'"),
    ("dihedral:\u0663", "malformed quandle spec 'dihedral:\u0663'"),
])
def test_bad_spec_error_message(capsys, spec, message):
    code, data = run_json(capsys, "props", "--quandle", spec)
    assert code == 1
    assert data["error"] == {"kind": "value_error", "message": message}


def _padded_file(tmp_path, size):
    # a valid order-3 table followed by whitespace up to ``size`` bytes
    text = json.dumps({"n": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]})
    path = tmp_path / "padded.json"
    path.write_text(text + " " * (size - len(text)))
    return str(path)


def test_file_at_size_limit_is_read(tmp_path, capsys):
    code, data = run_json(capsys, "validate", "--file", _padded_file(tmp_path, MAX_FILE_BYTES))
    assert code == 0 and data["ok"]


def test_file_above_size_limit_reports_value_error(tmp_path, capsys):
    code, data = run_json(capsys, "validate", "--file", _padded_file(tmp_path, MAX_FILE_BYTES + 1))
    assert code == 1
    assert data["error"]["kind"] == "value_error"
    assert "MAX_FILE_BYTES" in data["error"]["message"]


@pytest.mark.parametrize("text", ["[]", '{"table": 5}', '{"table": [[0, 1], 5]}', '{"table": []}',
                                  '{"n": 3}'],
                         ids=["top-level-list", "table-not-list", "row-not-list", "empty-table",
                              "no-table"])
def test_malformed_json_shapes_report_value_error(tmp_path, capsys, text):
    # Each shape gets the JSON error object and exit code 1, not a traceback.
    path = tmp_path / "q.json"
    path.write_text(text)
    code, data = run_json(capsys, "validate", "--file", str(path))
    assert code == 1
    assert data["error"]["kind"] == "value_error"


def test_empty_file_path_reports_file_error(capsys):
    code, data = run_json(capsys, "validate", "--file", "")
    assert code == 1
    assert data["error"]["kind"] == "file_error"


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
    # The command looks the closure up in quandlib.lietransform when it runs.
    import quandlib.lietransform as lt
    calls = []
    original = lt.lie_transformation_algebra

    def counted(q, f):
        calls.append(q.n)
        return original(q, f)

    monkeypatch.setattr(lt, "lie_transformation_algebra", counted)
    code, _ = run_json(capsys, "lietransform", "--quandle", "dihedral:4", "--field", "Q")
    assert code == 0 and calls == [4]


# Exit code and stdout sha256 of each call.  A refactor of the front end must
# leave every one byte-identical; a change that means to alter one records its
# new digest.  "q.json" is PIN_TABLE, written to the working directory.
PIN_TABLE = [[0, 0, 0, 1], [1, 1, 1, 2], [2, 2, 2, 0], [3, 3, 3, 3]]
PINNED = [
    ("validate --quandle dihedral:6", 0, "5d7233b51a3e0a3f0c684e7cb62a1179d07680bd57a9c9f41ce0ebb18ee4ecab"),
    ("props --quandle dihedral:6", 0, "e2669119d3175620ed443f50f1ca84cfc5f17a00c3f2f154b833a10faec7f129"),
    ("derivations --quandle dihedral:6 --field Q", 0, "00d8fb48e338561e82675e40aec523d3cf37dc39f5fde4f4d680380b530c6d5c"),
    ("derivations --quandle dihedral:6 --field GF(3)", 0, "b659da38fe5ddcb2232e77367b9d70bbc5a27a79de8d28891ddc07446264236c"),
    ("symmetries --quandle dihedral:6 --field Q", 0, "445d7d4874679103c8a2dd22dc4e59f6b1be32285333404d444c89fac2180043"),
    ("symmetries --quandle dihedral:6 --field GF(3)", 0, "2f5040e058e8ae037fd1d750f6c36e75e98922420b29c4da464769e5f5dfb916"),
    ("lietransform --quandle dihedral:6 --field Q", 0, "7ae5e2d21ff21e1f4049ffea0e3fa2a0919e94b13c6c8e9b5ef4054ea92f7f7f"),
    ("lietransform --quandle dihedral:6 --field GF(3)", 0, "0a0caed8070c6777071fe57265f4e553ff43604b33713bb41a9360dc10604e8c"),
    ("inner --quandle dihedral:6 --field Q", 0, "a4d85c10cbf7f7c112e12fd0e4ee0f1e8af4b9b3859241a5b911376c796fae1b"),
    ("inner --quandle dihedral:6 --field GF(3)", 0, "ceee13291a269b3f98251d73adc4c9b825f4d407d32197c244932a29e8b4d5b3"),
    ("ideals --quandle dihedral:6 --field Q", 0, "bfdd7319fe54a633117f8fa0a837ec9434156d53117fb79e8af6b3965f56460c"),
    ("ideals --quandle dihedral:6 --field GF(3)", 0, "e6c120c7bb9482150f4e7288270515c49b647db0f7998d01357074a967a6a1a3"),
    ("validate --quandle catalog:4.2", 0, "dfa29452175d6c715a5db6c341dc37a6707ccc96a1923c014f1e43509f5668bc"),
    ("props --quandle catalog:4.2", 0, "cd4803f6345a86fcf0498b80663b4d939535503d907d487efec8a2b90b289639"),
    ("derivations --quandle catalog:4.2 --field Q", 0, "3d5b688ce596709d5da3b7d0b7dc45c0ae9c302d6e9d2b99f51b5e4cb0cab2db"),
    ("derivations --quandle catalog:4.2 --field GF(3)", 0, "057f5cbaf03512407602c0bf03b55182697a34c58d270272a5b84472e6248837"),
    ("symmetries --quandle catalog:4.2 --field Q", 0, "b1937e998156eab9c5dcff5c8fd7d23977bf7e71bb59c4213b4bdde83cc35d4a"),
    ("symmetries --quandle catalog:4.2 --field GF(3)", 0, "d002438169f8fce035883b3c5571377d763a048ceb093b03702a06bf39d3d885"),
    ("lietransform --quandle catalog:4.2 --field Q", 0, "89bad10fcb5da393e2d0c18600344be4ef9269dd95a5ffe4851ddde315bb06c9"),
    ("lietransform --quandle catalog:4.2 --field GF(3)", 0, "65e1b49dcb99923aa4baf7495be7e44f2ab48969bc3630f19ec9c2e95356a38c"),
    ("inner --quandle catalog:4.2 --field Q", 0, "d3c711afb1bb709a2fb25ca97a71b75f0fc7fd7bec19806e079ad035d952e7a4"),
    ("inner --quandle catalog:4.2 --field GF(3)", 0, "b35f3232fc3e8493ce5d42f26db8f90840144cde2020cc51d31863d6fca4fdee"),
    ("ideals --quandle catalog:4.2 --field Q", 0, "34f7288df66a3f820cba517ee7408b5a10b496f065ad3ad6999eb1d548a3cc75"),
    ("ideals --quandle catalog:4.2 --field GF(3)", 0, "f1d7d26882dc36af3b67420b8962b390ffe486bebdaea9a39e27825f7baba242"),
    ("validate --file q.json", 0, "c7281a59228b0f681da0e90969ecfcb09c52f70cb6592b044feed555edf814d8"),
    ("props --file q.json", 0, "1f12e250c14074f5cb7d8e320d9f6a9d2373c15a95eda298e67b97501ce63bcc"),
    ("derivations --file q.json --field Q", 0, "8470c629c0af538c73e849669202a167a3487a425cf614df9cac5c87c4779dc0"),
    ("derivations --file q.json --field GF(3)", 0, "6506abfa4c19f340eb394c236814423d8ebacbd75e32f5b43934cc9c33f954bd"),
    ("symmetries --file q.json --field Q", 0, "72102f778b1f9d8981a2407fb1c3c09d619af4a2c0b9459dce2c6b69dbe50f95"),
    ("symmetries --file q.json --field GF(3)", 0, "15afacdd92726409b3b259a38cfdfecf1ea47f5ea0a34cad1e6d37856d3f1b60"),
    ("lietransform --file q.json --field Q", 0, "727d50be5bd02afbbed129ec98ebb75a18cd1cc3110a3059f76118ba8bb1c8eb"),
    ("lietransform --file q.json --field GF(3)", 0, "81cea76a8e55c48c6b1f9b422ba89003daecbf9f7a1f616144b05b09ca29ee36"),
    ("inner --file q.json --field Q", 0, "56e0a2a0b701a8b12af12fec20a00974b93dcc27e3bcbc268c9c32fea198a3fd"),
    ("inner --file q.json --field GF(3)", 0, "cee4da5aaba507085bcd9958209497873f56d54c3538c426ccec152cd5dcc946"),
    ("ideals --file q.json --field Q", 0, "98ef4bbed31ccfbd134fb00b8badc1860a1e8c96db1afdbbaa6cab783bedd36f"),
    ("ideals --file q.json --field GF(3)", 0, "1b4741ed2b2157a47834f3fa0842813fc096abe1a90e069585479eea4daa852a"),
    ("ideals --quandle alexander:7,3 --field Q", 0, "7b2725beb4fbefa14cae655766e4d3838d4ff44fcdd016411c90310590f48319"),
    ("ideals --quandle alexander:7,3 --field GF(2)", 0, "647b6e8b9ff4d4698c36290ecdaa1307f598bc7164e4a3b603d1f02b83dafd3b"),
    ("ideals --quandle conjugation:s3 --field Q", 0, "3024b81e943eeeec166f97cbb321f4bd50636b01cbf58ed1888536fa49dfbb81"),
    ("ideals --quandle conjugation:s3 --field GF(2)", 0, "1e2b2e0c978a99bfab83373a44740a96a02d4516f0ea0b4e5633affbc676718e"),
    ("ideals --quandle dihedral:12 --field Q", 0, "f1a18ef51a3061e16a7ea70f0c8217464c3d952e3e2f7d300588fe4975f902fb"),
    ("ideals --quandle dihedral:12 --field GF(2)", 0, "26a74e07c26b73fb9f9f29a313ad3ab0c053011912e799c59aac0523928707af"),
    ("derivations --quandle dihedral:24 --field Q", 0, "610a3a22c2328dcee91f9e4d5f705cc51ef57459fed7e8291e3c28d928da197d"),
    ("derivations --quandle dihedral:16 --field GF(3)", 0, "18877c6a4e079b351ffc4b26d8080ec25d092e228072670e87c3d1692073da6c"),
    ("symmetries --quandle dihedral:20 --field Q", 0, "e9c5708612ef43156721ae64d415d3ec9185087051884bcbae25798c64a47639"),
    ("inner --quandle dihedral:12 --field Q", 0, "5a046d1bd434d18ec1b1ebe4b1c7485d48f4b48879c0bf5d0ce1e27bdd75e79f"),
    ("inner --quandle dihedral:16 --field GF(3)", 0, "d7420d7efe907f5e84fc6c386ba87e3299ee5ac9c228be655bff84be09d0c9ba"),
    ("inner --quandle alexander:7,3 --field Q", 0, "7c4be06a3ed15257588ad1edc4e88f08445d94f56107c4c0952951a09b04366f"),
    ("derivations --quandle trivial:12 --field GF(3)", 0, "a9abb4d07ae9355549dd58f87e82abfa221d4ec5b49c79d352c60ee661615166"),
    ("derivations --quandle dihedral:6 --file q.json", 2, "a14c7b9ff0732ae15f217baf9ce623f428fc54b7222286ad1776459e10114120"),
    ("tables", 1, "a2cdefd2d41b8e3c05beb4f4ba69c9fc16f8194b3f9576a32d0ec8281ad17552"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED,
                         ids=[a.replace(" ", "_") for a, _, _ in PINNED])
def test_pinned_output(tmp_path, capsys, monkeypatch, argv, code, digest):
    monkeypatch.delenv("QUANDLIB_VERBOSE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps({"n": 4, "table": PIN_TABLE}))
    got_code, out = run_cli(capsys, *argv.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
