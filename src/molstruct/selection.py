"""Rank candidate structures against a rationale.

The matching ratio asks: of the components the rationale asserts, what
fraction does a candidate structure satisfy?  Formula, chain length and
aromatic ring count must match exactly; ring and functional group
multisets score their Jaccard overlap; chirality compares the multiset
of configuration labels (atom numbering is representation-dependent, so
indices are ignored); molecular weight passes when candidate/claimed is
within [0.95, 1.05].  An IUPAC name can never be verified against a bare
structure and scores 0.  The overall ratio is the mean over the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .catalog import Catalog
from .errors import EmptyRationaleError
from .graph import Molecule
from .profile import CANONICAL_ORDER, ComponentKind, StructuralProfile, score_claims
from .rationale import Rationale
from .smiles import parse


def matching_ratio(
    rationale: Rationale,
    candidate: Molecule | StructuralProfile,
    catalog: Catalog | None = None,
    weights: Mapping[ComponentKind, float] | None = None,
) -> tuple[float, dict[ComponentKind, float]]:
    """Score a candidate structure against a rationale.

    Only the asserted components are computed from a molecule, and scores
    are summed in canonical component order, so the ratio does not depend
    on the hash seed.

    Args:
        rationale: Claims to check.
        candidate: Structure, or its precomputed profile.
        catalog: Group/ring catalog used when profiling a molecule.
        weights: Optional per-component weights for the overall mean;
            missing components weigh 1.

    Returns:
        (overall ratio, per-component scores over the mask).

    Raises:
        EmptyRationaleError: The rationale mask is empty.
    """
    if not rationale.mask:
        raise EmptyRationaleError("cannot score against an empty rationale")
    scores = score_claims(rationale.components, candidate, catalog)
    # An IUPAC name claim is unverifiable from the structure alone.
    per_component = {
        kind: scores.get(kind, 0.0) for kind in CANONICAL_ORDER if kind in rationale.mask
    }
    weights = weights or {}
    total = sum(weights.get(kind, 1.0) for kind in per_component)
    if total <= 0:
        raise ValueError("component weights must sum to a positive value")
    overall = sum(score * weights.get(kind, 1.0) for kind, score in per_component.items()) / total
    return overall, per_component


@dataclass(frozen=True, slots=True)
class CandidateScore:
    """One candidate's outcome; matching_ratio is None when unparseable."""

    smiles: str
    parse_ok: bool
    matching_ratio: float | None
    per_component: dict[ComponentKind, float]


@dataclass(frozen=True, slots=True)
class SelectionReport:
    per_candidate: tuple[CandidateScore, ...]
    selected_index: int
    selected_smiles: str
    all_failed: bool


def select(
    rationale: Rationale,
    candidates: Sequence[str],
    catalog: Catalog | None = None,
    weights: Mapping[ComponentKind, float] | None = None,
) -> SelectionReport:
    """Pick the candidate that best satisfies the rationale.

    Unparseable candidates rank below every parseable one.  Ties break
    toward the lowest index.  When every candidate fails to parse, index
    0 is reported with all_failed set.  A string repeated in the list is
    parsed and scored once; each entry still gets its own result.

    Raises:
        ValueError: Empty candidate list.
        EmptyRationaleError: The rationale mask is empty.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    if not rationale.mask:
        raise EmptyRationaleError("cannot select with an empty rationale")
    # None marks an unparseable string.
    results: dict[str, tuple[float, dict[ComponentKind, float]] | None] = {}
    scored: list[CandidateScore] = []
    for smiles in candidates:
        if smiles not in results:
            molecule = parse(smiles)
            results[smiles] = (
                matching_ratio(rationale, molecule, catalog, weights)
                if isinstance(molecule, Molecule)
                else None
            )
        result = results[smiles]
        if result is None:
            scored.append(CandidateScore(smiles, False, None, {}))
        else:
            scored.append(CandidateScore(smiles, True, result[0], dict(result[1])))

    best_index = 0
    best = -math.inf
    any_ok = False
    for index, entry in enumerate(scored):
        if not entry.parse_ok:
            continue
        any_ok = True
        assert entry.matching_ratio is not None
        if entry.matching_ratio > best:
            best = entry.matching_ratio
            best_index = index
    return SelectionReport(
        per_candidate=tuple(scored),
        selected_index=best_index,
        selected_smiles=candidates[best_index],
        all_failed=not any_ok,
    )
