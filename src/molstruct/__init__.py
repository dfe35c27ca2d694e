"""Deterministic structural reasoning over SMILES.

Parse, perceive, profile, render rationales, pick candidates, score.
"""

from .catalog import Catalog
from .errors import (
    AromaticityError,
    CatalogError,
    EmptyRationaleError,
    MolstructError,
    RationaleParseError,
    ValenceError,
    WidthMismatchError,
)
from .graph import Atom, Bond, BondOrder, Chirality, Molecule, Ring
from .metrics import (
    AccuracyReport,
    ComparisonRecord,
    ComparisonReport,
    Fingerprint,
    aggregate_accuracy,
    aggregate_comparison,
    compare_pair,
    corpus_bleu,
    levenshtein,
    morgan_fingerprint,
    score_reasoning,
    tanimoto,
)
from .profile import (
    CANONICAL_ORDER,
    CORE_KINDS,
    EXTRACTABLE_KINDS,
    ComponentKind,
    Configuration,
    StructuralProfile,
    extract_profile,
)
from .rationale import (
    TEMPLATE_VERSION,
    Rationale,
    RationaleFormat,
    RationaleSource,
    apply_reliability_mask,
    from_profile,
    parse_rationale,
    render,
)
from .selection import CandidateScore, SelectionReport, matching_ratio, select
from .smiles import (
    DiagnosticKind,
    ParseDiagnostic,
    canonical_order,
    canonicalize,
    parse,
    parse_strict,
    random_equivalent,
    write,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AromaticityError",
    "Atom",
    "Bond",
    "BondOrder",
    "CANONICAL_ORDER",
    "CORE_KINDS",
    "CandidateScore",
    "Catalog",
    "CatalogError",
    "Chirality",
    "ComparisonRecord",
    "ComparisonReport",
    "ComponentKind",
    "Configuration",
    "DiagnosticKind",
    "EXTRACTABLE_KINDS",
    "EmptyRationaleError",
    "Fingerprint",
    "MolstructError",
    "Molecule",
    "ParseDiagnostic",
    "Rationale",
    "RationaleFormat",
    "RationaleParseError",
    "RationaleSource",
    "Ring",
    "SelectionReport",
    "StructuralProfile",
    "TEMPLATE_VERSION",
    "ValenceError",
    "WidthMismatchError",
    "aggregate_accuracy",
    "aggregate_comparison",
    "apply_reliability_mask",
    "canonical_order",
    "canonicalize",
    "compare_pair",
    "corpus_bleu",
    "extract_profile",
    "from_profile",
    "levenshtein",
    "matching_ratio",
    "morgan_fingerprint",
    "parse",
    "parse_rationale",
    "parse_strict",
    "random_equivalent",
    "render",
    "score_reasoning",
    "select",
    "tanimoto",
    "write",
]
