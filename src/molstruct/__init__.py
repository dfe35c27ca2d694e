"""Deterministic structural reasoning over SMILES.

Parse, perceive, profile, render rationales, pick candidates, score.

Each exported name is imported from its defining module on first access
(PEP 562), so ``import molstruct`` loads no submodule and a program pays
only for the modules whose names it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defining module -> the names exported from it.
_EXPORTS_BY_MODULE = {
    "catalog": ("Catalog",),
    "errors": (
        "AromaticityError", "CatalogError", "EmptyRationaleError", "MolstructError",
        "RationaleParseError", "ValenceError", "WidthMismatchError",
    ),
    "graph": ("Atom", "Bond", "BondOrder", "Chirality", "Molecule", "Ring"),
    "metrics": (
        "AccuracyReport", "ComparisonRecord", "ComparisonReport", "Fingerprint",
        "aggregate_accuracy", "aggregate_comparison", "compare_pair", "corpus_bleu",
        "levenshtein", "morgan_fingerprint", "score_reasoning", "tanimoto",
    ),
    "profile": (
        "CANONICAL_ORDER", "CORE_KINDS", "EXTRACTABLE_KINDS", "ComponentKind",
        "Configuration", "StructuralProfile", "extract_profile",
    ),
    "rationale": (
        "TEMPLATE_VERSION", "Rationale", "RationaleFormat", "RationaleSource",
        "apply_reliability_mask", "from_profile", "parse_rationale", "render",
    ),
    "selection": ("CandidateScore", "SelectionReport", "matching_ratio", "select"),
    "smiles": (
        "DiagnosticKind", "ParseDiagnostic", "canonical_order", "canonicalize", "parse",
        "parse_strict", "random_equivalent", "write",
    ),
}
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
