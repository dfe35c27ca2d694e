"""Evaluation metrics for reasoning quality and structure recovery.

Two families live here.  Reasoning metrics grade a rationale component
by component against a gold structure (exact match for scalar fields,
Jaccard or recall for multisets, a 5% band for molecular weight).
Molecule metrics grade a predicted SMILES against a gold one: exact
match up to canonicalization, raw edit distance, Morgan fingerprint
Tanimoto similarity, validity, and corpus-level character BLEU.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from hashlib import blake2b
from typing import Iterable, Iterator, Sequence

from .catalog import Catalog
from .errors import EmptyRationaleError, WidthMismatchError
from .graph import Molecule
from .profile import CANONICAL_ORDER, ComponentKind, StructuralProfile, score_claims
from .rationale import Rationale
from .smiles import parse, same_canonical

BLEU_MAX_ORDER = 4
DEFAULT_FP_RADIUS = 2
DEFAULT_FP_WIDTH = 2048


# ---------------------------------------------------------------------------
# String metrics


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[len(b)]


@dataclass(frozen=True, slots=True)
class BleuStats:
    """Clipped n-gram counts for one candidate/reference pair.

    Corpus BLEU sums these across pairs before taking precisions, so a
    report can be assembled from independently computed records.
    """

    matched: tuple[int, ...]
    total: tuple[int, ...]
    candidate_length: int
    reference_length: int


def _ngrams(text: str, order: int) -> Counter:
    return Counter(text[i : i + order] for i in range(len(text) - order + 1))


def bleu_stats(reference: str, candidate: str) -> BleuStats:
    """Character n-gram overlap statistics up to order 4."""
    matched = []
    total = []
    for order in range(1, BLEU_MAX_ORDER + 1):
        cand = _ngrams(candidate, order)
        ref = _ngrams(reference, order)
        matched.append(sum((cand & ref).values()))
        total.append(sum(cand.values()))
    return BleuStats(tuple(matched), tuple(total), len(candidate), len(reference))


def corpus_bleu_from_stats(stats: Iterable[BleuStats]) -> float:
    """Corpus-level BLEU from pooled pair statistics.

    Precisions pool over the whole corpus per order; orders with zero
    candidate n-grams anywhere are dropped (effective order) rather than
    smoothed.  Brevity penalty uses pooled lengths.
    """
    matched = [0] * BLEU_MAX_ORDER
    total = [0] * BLEU_MAX_ORDER
    cand_len = 0
    ref_len = 0
    for entry in stats:
        for i in range(BLEU_MAX_ORDER):
            matched[i] += entry.matched[i]
            total[i] += entry.total[i]
        cand_len += entry.candidate_length
        ref_len += entry.reference_length
    if cand_len == 0:
        return 1.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    orders = 0
    for i in range(BLEU_MAX_ORDER):
        if total[i] == 0:
            continue
        if matched[i] == 0:
            return 0.0
        log_sum += math.log(matched[i] / total[i])
        orders += 1
    if orders == 0:
        return 0.0
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / orders)


def corpus_bleu(references: Sequence[str], candidates: Sequence[str]) -> float:
    """Corpus character BLEU over parallel reference/candidate lists."""
    if len(references) != len(candidates):
        raise ValueError("reference and candidate counts differ")
    return corpus_bleu_from_stats(
        bleu_stats(ref, cand) for ref, cand in zip(references, candidates)
    )


# ---------------------------------------------------------------------------
# Fingerprints


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """Folded circular fingerprint: the set of active bit positions."""

    width: int
    bits: frozenset[int]


def _hash64(parts: tuple) -> int:
    digest = blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def morgan_fingerprint(
    mol: Molecule, radius: int = DEFAULT_FP_RADIUS, width: int = DEFAULT_FP_WIDTH
) -> Fingerprint:
    """Circular substructure fingerprint folded to a fixed width.

    Atom environments of radius 0..radius are hashed and folded; the
    initial invariant covers element, degree, charge, hydrogen count,
    aromaticity, ring membership and, for an atom written with a nonzero
    mass number, that number (left out otherwise, so unlabelled
    fingerprints do not depend on it; ``[0CH4]`` counts as unlabelled).
    RDKit adds the truncated difference between isotope mass and atomic
    weight instead, which is 0 for 13C and 15N; the mass number tells
    every label apart without an isotope-mass table.

    Args:
        mol: Fully perceived molecule.
        radius: Number of neighbor-expansion rounds.
        width: Bit width, a positive power of two.
    """
    if width <= 0 or width & (width - 1):
        raise ValueError("fingerprint width must be a positive power of two")
    if radius < 0:
        raise ValueError("fingerprint radius must be non-negative")
    ring_atoms = set()
    for ring in mol.rings or []:
        ring_atoms.update(ring.atoms)
    ids = [
        _hash64(
            (
                atom.atomic_number,
                mol.heavy_degree(atom.index),
                atom.charge,
                atom.total_h,
                atom.is_aromatic,
                atom.index in ring_atoms,
                *((atom.isotope,) if atom.isotope else ()),
            )
        )
        for atom in mol.atoms
    ]
    bits = {value % width for value in ids}
    for _ in range(radius):
        ids = [
            _hash64(
                (
                    ids[atom.index],
                    tuple(
                        sorted(
                            (int(bond.order), ids[neighbor])
                            for neighbor, bond in mol.bonds_of(atom.index)
                        )
                    ),
                )
            )
            for atom in mol.atoms
        ]
        bits.update(value % width for value in ids)
    return Fingerprint(width=width, bits=frozenset(bits))


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """Tanimoto similarity; identical-empty fingerprints count as 1.0."""
    if a.width != b.width:
        raise WidthMismatchError(
            f"fingerprint widths differ: {a.width} vs {b.width}"
        )
    union = len(a.bits | b.bits)
    if union == 0:
        return 1.0
    return len(a.bits & b.bits) / union


# ---------------------------------------------------------------------------
# Reasoning accuracy


def score_reasoning(
    gold: Molecule | StructuralProfile,
    rationale: Rationale,
    gold_name: str | None = None,
    recall: bool = False,
    catalog: Catalog | None = None,
) -> dict[ComponentKind, float]:
    """Grade each asserted component of a rationale against gold.

    Args:
        gold: Gold structure or its precomputed profile.
        rationale: Claims to grade.
        gold_name: Reference IUPAC name; when absent a masked name
            component is skipped rather than scored.
        recall: Score multisets as recall against the gold multiset
            instead of Jaccard; an empty gold multiset scores 1.0.
        catalog: Group/ring catalog used when profiling a molecule.

    Returns:
        Scores in [0, 1] for every masked component that was gradeable,
        in canonical order.  Only the asserted components are computed
        from a gold molecule.

    Raises:
        EmptyRationaleError: The rationale mask is empty.
    """
    if not rationale.mask:
        raise EmptyRationaleError("cannot grade an empty rationale")
    scores = score_claims(rationale.components, gold, catalog, recall)
    # A masked IUPAC name without a reference name stays ungraded.
    if ComponentKind.IUPAC_NAME in rationale.mask and gold_name is not None:
        claimed = str(rationale.components[ComponentKind.IUPAC_NAME])
        scores[ComponentKind.IUPAC_NAME] = (
            1.0 if claimed.casefold() == gold_name.casefold() else 0.0
        )
    return scores


@dataclass(frozen=True, slots=True)
class ComponentAccuracy:
    n_scored: int
    accuracy: float | None


@dataclass(frozen=True, slots=True)
class AccuracyReport:
    """Mean per-component accuracy over a record set.

    n_records counts every input record; n_scored only those whose gold
    structure and rationale were both usable.
    """

    n_records: int
    n_scored: int
    components: dict[ComponentKind, ComponentAccuracy]

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_scored": self.n_scored,
            "components": {
                kind.value: {
                    "n_scored": acc.n_scored,
                    "accuracy": acc.accuracy,
                }
                for kind, acc in self.components.items()
            },
        }


def aggregate_accuracy(
    per_record: Iterable[dict[ComponentKind, float]], n_records: int
) -> AccuracyReport:
    """Pool per-record component scores into an accuracy report, in one
    pass over ``per_record``."""
    sums: dict[ComponentKind, float] = {kind: 0.0 for kind in CANONICAL_ORDER}
    counts: dict[ComponentKind, int] = {kind: 0 for kind in CANONICAL_ORDER}
    n_scored = 0
    for n_scored, scores in enumerate(per_record, start=1):
        for kind, value in scores.items():
            sums[kind] += value
            counts[kind] += 1
    components = {
        kind: ComponentAccuracy(
            n_scored=counts[kind],
            accuracy=(sums[kind] / counts[kind]) if counts[kind] else None,
        )
        for kind in CANONICAL_ORDER
    }
    return AccuracyReport(n_records=n_records, n_scored=n_scored, components=components)


# ---------------------------------------------------------------------------
# Structure recovery


@dataclass(frozen=True, slots=True)
class ComparisonRecord:
    """One gold/predicted pair, ready for corpus aggregation."""

    valid: bool
    exact: bool
    levenshtein: int
    morgan_similarity: float
    bleu: BleuStats


def compare_pair(gold: str, predicted: str) -> ComparisonRecord:
    """Grade one predicted SMILES against its gold string.

    Exact match compares canonical forms, so any two spellings of the
    same structure count as exact.  Two molecules whose atom counts, bond
    counts or sorted atom invariants (element, charge, degree, hydrogens,
    aromaticity, isotope) differ are told apart without canonicalizing.
    Edit distance and BLEU use the raw strings.  Fingerprint similarity
    is 1.0 on an exact match without computing fingerprints: equal
    canonical forms are the same graph with the same perception, which
    is all the fingerprint reads.  It is 0 when either side fails to
    parse; validity reflects the predicted string only.
    """
    gold_mol = parse(gold)
    pred_mol = parse(predicted)
    gold_ok = isinstance(gold_mol, Molecule)
    pred_ok = isinstance(pred_mol, Molecule)
    exact = False
    similarity = 0.0
    if gold_ok and pred_ok:
        exact = same_canonical(gold_mol, pred_mol)
        similarity = 1.0 if exact else tanimoto(
            morgan_fingerprint(gold_mol), morgan_fingerprint(pred_mol)
        )
    return ComparisonRecord(
        valid=pred_ok,
        exact=exact,
        levenshtein=levenshtein(gold, predicted),
        morgan_similarity=similarity,
        bleu=bleu_stats(gold, predicted),
    )


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    n_records: int
    exact_match: float | None
    levenshtein_mean: float | None
    morgan_similarity_mean: float | None
    validity: float | None
    bleu: float | None

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "exact_match": self.exact_match,
            "levenshtein_mean": self.levenshtein_mean,
            "morgan_similarity_mean": self.morgan_similarity_mean,
            "validity": self.validity,
            "bleu": self.bleu,
        }


def aggregate_comparison(records: Iterable[ComparisonRecord]) -> ComparisonReport:
    """Pool pair records into a corpus report in one pass over ``records``;
    empty input yields Nones.  Sums run in record order."""
    n = exact = valid = edits = 0
    similarity = 0.0

    def bleu_stats_of_records() -> Iterator[BleuStats]:
        nonlocal n, exact, valid, edits, similarity
        for record in records:
            n += 1
            exact += record.exact
            valid += record.valid
            edits += record.levenshtein
            similarity += record.morgan_similarity
            yield record.bleu

    bleu = corpus_bleu_from_stats(bleu_stats_of_records())
    if n == 0:
        return ComparisonReport(0, None, None, None, None, None)
    return ComparisonReport(
        n_records=n,
        exact_match=exact / n,
        levenshtein_mean=edits / n,
        morgan_similarity_mean=similarity / n,
        validity=valid / n,
        bleu=bleu,
    )
