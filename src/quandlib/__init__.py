"""quandlib: exact computation with finite quandles and their algebras.

Builds finite quandles from Cayley tables, forms their quandle algebras over
Q or GF(p), and computes -- in exact arithmetic throughout -- derivation Lie
algebras, multiplication-operator Lie algebras, inner derivations, and the
standard ideals, together with verification reports for the catalogued
symmetry relations and reference tables.

``import quandlib`` loads none of the submodules: each public name below is
looked up in its defining module on first use (PEP 562), so a command that
needs only quandle construction never compiles the solver.  A name read
through the package is always the module's current attribute, so anything
that replaces ``quandlib.derivations.derivation_space`` also replaces
``quandlib.derivation_space``.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "fields": ("GF", "RATIONALS", "FieldSpec", "Scalar"),
    "linalg": (
        "Matrix",
        "SubspaceBasis",
        "contains",
        "coordinates",
        "nullspace",
        "rref",
        "span_from_vectors",
        "span_intersect",
        "span_sum",
    ),
    "quandles": (
        "AlexanderParams",
        "AxiomViolation",
        "NotAGroupError",
        "Quandle",
        "QuandleProps",
        "S3_TABLE",
        "alexander",
        "catalog",
        "catalog_labels",
        "catalog_lookup",
        "check_axioms",
        "conjugation",
        "cyclic_group_table",
        "dihedral",
        "from_json_dict",
        "parse_quandle_spec",
        "props",
        "relabel",
        "trivial",
        "validate",
    ),
    "algebra": (
        "AlgebraElement",
        "augmentation",
        "augmentation_ideal",
        "basis_element",
        "element",
        "jx_ideal",
        "left_mult",
        "multiply",
        "right_mult",
        "zero_element",
    ),
    "derivations": (
        "BlockReport",
        "DerivationBasis",
        "DimPrediction",
        "StructureCheck",
        "SymmetryReport",
        "block_decomposition",
        "central_translation",
        "derivation_space",
        "dihedral_symmetry_report",
        "flatten_matrix",
        "image_in_augmentation_ideal",
        "leibniz_system",
        "matrix_from_flat",
        "predicted_dim_dihedral",
        "verify_structure_relations",
    ),
    "lietransform": (
        "AlexanderFormReport",
        "InnerDerivations",
        "LrSpan",
        "OperatorSpace",
        "alexander_canonical_form",
        "commutator",
        "flatten_operator",
        "inner_derivations",
        "lie_transformation_algebra",
        "lr_form_bound",
        "operator_from_flat",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names] + list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in the package: the defining module's binding stays the only one.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
