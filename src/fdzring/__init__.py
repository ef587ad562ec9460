"""Exact-arithmetic toolkit for rings of finite rank over the integers.

A ring is presented by generator orders and an integer structure-constant
tensor.  The toolkit computes the characteristic ideal chain, the largest
scalar ring of the induced bilinear map, classification verdicts
(tame/QFA, regular, super tame, bi-interpretability), elementary
equivalence criteria between rings, and cocycle-based deformations, all in
exact integer arithmetic.

``import fdzring`` loads no submodule.  ``_EXPORTS`` maps each public name
to the submodule that defines it; the first ``fdzring.NAME`` or
``from fdzring import NAME`` imports that submodule and binds the name in
this namespace (PEP 562), so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        (
            "BilinearMap", "BilinearMapError", "DegenerateMapError", "ScalarRingAction",
            "ScalarRingError", "complete_system", "induced_bilinear_map", "pa_ring", "pf_ring",
            "width",
        ),
        "bilinear",
    ),
    **dict.fromkeys(
        (
            "ClassificationReport", "FactorizationIncomplete", "SpectrumAnalysis", "classify_ring",
            "idempotents", "indecomposable_factors",
        ),
        "classify",
    ),
    **dict.fromkeys(
        (
            "CocycleError", "DeformationContext", "DeformationError", "DeformationResult",
            "DeformationSpec", "GroupExtension", "SymmetricCocycle", "build_deformation",
            "build_group_extension", "cocycle_analyze", "cyclic_cocycle", "verify_sixterm",
            "zero_cocycle",
        ),
        "deform",
    ),
    **dict.fromkeys(
        (
            "EmbeddingReport", "EquivalenceResult", "InvariantProfile", "IsoResult", "IsoWitness",
            "equivalence_verdict", "invariant_profile", "iso_search", "verify_embedding",
        ),
        "eqcheck",
    ),
    **dict.fromkeys(
        (
            "Formula", "FormulaError", "builtin", "defined_set", "evaluate", "parse_formula",
            "format_formula",
        ),
        "fomc",
    ),
    **dict.fromkeys(
        (
            "FgAbelianGroup", "GroupError", "Subgroup", "split_complement",
        ),
        "groups",
    ),
    **dict.fromkeys(("IntMatrix", "hermite_rows"), "intlinalg"),
    **dict.fromkeys(
        (
            "RingFileError", "load_ring", "parse_ring_text", "serialize_ring",
        ),
        "ringfile",
    ),
    **dict.fromkeys(
        (
            "AdditionFoundation", "FdzRing", "IdealChain", "RingValidationError",
            "addition_and_foundation", "characteristic_ideals", "direct_product",
            "predicates", "quotient_ring", "reduce_mod_n",
            "subring_presentation", "z0_ring",
        ),
        "rings",
    ),
}

__all__ = list(_EXPORTS)

_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name):
    if name in _SUBMODULES:
        # ``fdzring.rings`` and its siblings resolve without an explicit import
        return importlib.import_module(f"{__name__}.{name}")
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
