"""The package namespace is lazy, and each CLI command loads only its own modules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quandlib

ROOT = Path(__file__).resolve().parent.parent

# submodule -> the public names it exports through the package
PUBLIC = {
    "fields": "GF RATIONALS FieldSpec Scalar",
    "linalg": "Matrix SubspaceBasis contains coordinates nullspace rref span_from_vectors "
              "span_intersect span_sum",
    "quandles": "AlexanderParams AxiomViolation NotAGroupError Quandle QuandleProps S3_TABLE "
                "alexander catalog catalog_labels catalog_lookup check_axioms conjugation "
                "cyclic_group_table dihedral from_json_dict parse_quandle_spec props relabel "
                "trivial validate",
    "algebra": "AlgebraElement augmentation augmentation_ideal basis_element element jx_ideal "
               "left_mult multiply right_mult zero_element",
    "derivations": "BlockReport DerivationBasis DimPrediction StructureCheck SymmetryReport "
                   "block_decomposition central_translation derivation_space "
                   "dihedral_symmetry_report flatten_matrix image_in_augmentation_ideal "
                   "leibniz_system matrix_from_flat predicted_dim_dihedral "
                   "verify_structure_relations",
    "lietransform": "AlexanderFormReport InnerDerivations LrSpan OperatorSpace "
                    "alexander_canonical_form commutator flatten_operator inner_derivations "
                    "lie_transformation_algebra lr_form_bound operator_from_flat",
}
NAMES = {name: module for module, names in PUBLIC.items() for name in names.split()}
EVERY_NAME = sorted(NAMES) + sorted(PUBLIC)


def test_public_name_count():
    assert (len(NAMES), len(EVERY_NAME)) == (69, 75)


@pytest.mark.parametrize("name", sorted(NAMES))
def test_name_is_the_defining_modules_attribute(name):
    module = importlib.import_module(f"quandlib.{NAMES[name]}")
    assert getattr(quandlib, name) is getattr(module, name)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_submodule_attribute(module):
    assert getattr(quandlib, module) is importlib.import_module(f"quandlib.{module}")


def test_star_import_and_dir_cover_every_public_name():
    namespace = {}
    exec("from quandlib import *", namespace)
    listed = dir(quandlib)
    for name in EVERY_NAME:
        assert namespace[name] is getattr(quandlib, name)
        assert name in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quandlib.no_such_name
    assert not hasattr(quandlib, "no_such_name")


def test_package_reads_the_current_binding(monkeypatch):
    original = quandlib.derivation_space

    def replacement(q, f):
        return original(q, f)

    monkeypatch.setattr(quandlib.derivations, "derivation_space", replacement)
    assert quandlib.derivation_space is replacement
    monkeypatch.undo()
    assert quandlib.derivation_space is original


# ---------------------------------------------------------------------------
# import footprint, each in a fresh interpreter

_SOLVER_AND_UP = {"fields", "linalg", "algebra", "derivations", "lietransform", "tables"}

_LOADED = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import quandlib.cli
else:
    from quandlib.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "quandlib")))
"""


def _loaded_modules(argv):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m.partition(".")[2] for m in json.loads(proc.stdout)} - {""}


def test_importing_the_cli_loads_only_the_quandle_layer():
    assert _loaded_modules(None) == {"cli", "quandles"}


@pytest.mark.parametrize("command", ["validate", "props"])
def test_structural_commands_skip_the_solver(command):
    loaded = _loaded_modules([command, "--quandle", "dihedral:6"])
    assert not loaded & _SOLVER_AND_UP


def test_derivations_skips_the_closure_and_the_tables():
    loaded = _loaded_modules(["derivations", "--quandle", "dihedral:6", "--field", "GF(3)"])
    assert "derivations" in loaded
    assert not loaded & {"lietransform", "algebra", "tables"}
