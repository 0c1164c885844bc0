"""Concrete realization of osp(1|2n) and its lowest-weight Verma modules."""

from ospuir.enveloping.algebra import (
    AlgebraError,
    Generator,
    StructureTable,
    structure_constants,
)
from ospuir.enveloping.module import (
    GramMatrix,
    MAX_LEVEL_DEFAULT,
    ModuleVector,
    VermaEngine,
    gram_psd_check,
    module_vector_to_text,
    shapovalov_gram,
    weight_space,
)
from ospuir.enveloping.singular import (
    AnomalyError,
    PRINTED_IDS,
    find_singular,
    norm_polynomial_in_d,
    printed_regime,
    printed_vector,
    rational_zero_set,
    verify_singular,
    verify_subsingular,
)

__all__ = [
    "AlgebraError",
    "AnomalyError",
    "Generator",
    "GramMatrix",
    "MAX_LEVEL_DEFAULT",
    "ModuleVector",
    "PRINTED_IDS",
    "StructureTable",
    "VermaEngine",
    "find_singular",
    "gram_psd_check",
    "module_vector_to_text",
    "norm_polynomial_in_d",
    "printed_regime",
    "printed_vector",
    "rational_zero_set",
    "shapovalov_gram",
    "structure_constants",
    "verify_singular",
    "verify_subsingular",
    "weight_space",
]
