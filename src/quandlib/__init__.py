"""quandlib: exact computation with finite quandles and their algebras.

Builds finite quandles from Cayley tables, forms their quandle algebras over
Q or GF(p), and computes -- in exact arithmetic throughout -- derivation Lie
algebras, multiplication-operator Lie algebras, inner derivations, and the
standard ideals, together with verification reports for the catalogued
symmetry relations and reference tables.
"""

from .fields import GF, RATIONALS, FieldSpec, Scalar
from .linalg import (
    Matrix,
    SubspaceBasis,
    contains,
    coordinates,
    nullspace,
    rref,
    span_from_vectors,
    span_intersect,
    span_sum,
)
from .quandles import (
    AlexanderParams,
    AxiomViolation,
    NotAGroupError,
    Quandle,
    QuandleProps,
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
from .algebra import (
    AlgebraElement,
    augmentation,
    augmentation_ideal,
    basis_element,
    element,
    jx_ideal,
    left_mult,
    multiply,
    right_mult,
    zero_element,
)
from .derivations import (
    BlockReport,
    DerivationBasis,
    DimPrediction,
    StructureCheck,
    SymmetryReport,
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
from .lietransform import (
    AlexanderFormReport,
    InnerDerivations,
    LrSpan,
    OperatorSpace,
    alexander_canonical_form,
    commutator,
    flatten_operator,
    inner_derivations,
    lie_transformation_algebra,
    lr_form_bound,
    operator_from_flat,
)

__version__ = "0.1.0"
