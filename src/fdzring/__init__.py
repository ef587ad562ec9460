"""Exact-arithmetic toolkit for rings of finite rank over the integers.

A ring is presented by generator orders and an integer structure-constant
tensor.  The toolkit computes the characteristic ideal chain, the largest
scalar ring of the induced bilinear map, classification verdicts
(tame/QFA, regular, super tame, bi-interpretability), elementary
equivalence criteria between rings, and cocycle-based deformations, all in
exact integer arithmetic.
"""

from .bilinear import (
    BilinearMap,
    BilinearMapError,
    DegenerateMapError,
    ScalarRingAction,
    ScalarRingError,
    complete_system,
    induced_bilinear_map,
    pa_ring,
    pf_ring,
    width,
)
from .classify import (
    ClassificationReport,
    FactorizationIncomplete,
    SpectrumAnalysis,
    classify_ring,
    idempotents,
    indecomposable_factors,
)
from .deform import (
    CocycleError,
    DeformationContext,
    DeformationError,
    DeformationResult,
    DeformationSpec,
    GroupExtension,
    SymmetricCocycle,
    build_deformation,
    build_group_extension,
    cocycle_analyze,
    cyclic_cocycle,
    verify_sixterm,
    zero_cocycle,
)
from .eqcheck import (
    EmbeddingReport,
    EquivalenceResult,
    InvariantProfile,
    IsoResult,
    IsoWitness,
    equivalence_verdict,
    invariant_profile,
    iso_search,
    verify_embedding,
)
from .fomc import (
    Formula,
    FormulaError,
    builtin,
    defined_set,
    evaluate,
    parse_formula,
    format_formula,
)
from .groups import (
    FgAbelianGroup,
    GroupError,
    Subgroup,
    invariant_factors,
    quotient_group,
    saturation,
    split_complement,
    subgroup_intersect,
    subgroup_sum,
)
from .intlinalg import IntMatrix, SmithDecomposition, hermite_rows, smith
from .ringfile import RingFileError, load_ring, parse_ring_text, serialize_ring
from .rings import (
    AdditionFoundation,
    FdzRing,
    IdealChain,
    RingValidationError,
    addition_and_foundation,
    characteristic_ideals,
    direct_product,
    normal_presentation,
    predicates,
    quotient_ring,
    reduce_mod_n,
    subring_presentation,
    validate_ring,
    z0_ring,
)

__version__ = "0.1.0"
