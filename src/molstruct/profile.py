"""Structural profile extraction.

A StructuralProfile bundles the seven structural facts the rest of the
toolkit reasons over: molecular formula, longest carbon chain outside
rings, aromatic ring count, ring names, functional group names, annotated
chiral centers with R/S configuration, and molecular weight.

Chiral center numbering uses canonical-SMILES atom positions so that the
same molecule yields the same numbers no matter how its input was ordered.

Stereo configurations come from CIP Rule 1a only: substituent branches are
compared sphere by sphere on atomic number, with duplicate phantom atoms
for double/triple bonds and ring closures.  An aromatic atom contributes
one phantom carrying the mean atomic number of its aromatic neighbors,
which keeps the comparison independent of any particular Kekule layout.
Isotope mass numbers break remaining ties; anything still tied is reported
as Unresolved rather than guessed.

COMPONENTS is the one table of extractable components: for each kind, its
profile field, its extractor and its scorer.  Profiles, rationales built
from them and every score read it, so a molecule can be scored on just the
components a rationale asserts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple

from .catalog import Catalog, functional_group_names, ring_compound_names
from .elements import ATOMIC_WEIGHTS
from .graph import (
    H_BRANCH,
    BondOrder,
    Chirality,
    Molecule,
    aromatic_neighbor_mean,
    chirality_in_order,
    perceive,
)
from .smiles import canonical_order

_CIP_MAX_SPHERES = 16
WEIGHT_RATIO_LOW = 0.95
WEIGHT_RATIO_HIGH = 1.05


class ComponentKind(Enum):
    """The eight structural components; values double as JSON keys."""

    FORMULA = "formula"
    LONGEST_CHAIN = "longest_chain"
    AROMATIC_RINGS = "aromatic_rings"
    RING_COMPOUNDS = "ring_compounds"
    FUNCTIONAL_GROUPS = "functional_groups"
    CHIRALITY = "chirality"
    MOLECULAR_WEIGHT = "molecular_weight"
    IUPAC_NAME = "iupac_name"

    # Profiles and scores are dicts keyed by kind: hash by identity in C,
    # not by name in Python as Enum does.  Output never follows hash
    # order; every loop over kinds goes through CANONICAL_ORDER.
    __hash__ = object.__hash__


CANONICAL_ORDER: tuple[ComponentKind, ...] = tuple(ComponentKind)


class Configuration(Enum):
    """Stereocenter configuration label."""

    R = "R"
    S = "S"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True, slots=True)
class StructuralProfile:
    """The seven extracted structural components of one molecule.

    Multiset fields are stored as sorted tuples with repeats; chiral
    centers are (canonical atom position, configuration) pairs sorted by
    position.
    """

    formula: str
    longest_chain: int
    aromatic_ring_count: int
    ring_compounds: tuple[str, ...]
    functional_groups: tuple[str, ...]
    chiral_centers: tuple[tuple[int, Configuration], ...]
    molecular_weight: float


def molecular_formula(mol: Molecule) -> str:
    """Hill-order formula: C, H, then other elements alphabetically.

    Hydrogen atoms written as their own atoms fold into the H count.
    Isotope labels do not split elements ([13C] counts as C).
    """
    counts: dict[str, int] = {}
    hydrogens = 0
    for atom in mol.atoms:
        if atom.element == "H":
            hydrogens += 1
        else:
            counts[atom.element] = counts.get(atom.element, 0) + 1
        hydrogens += atom.total_h
    if hydrogens:
        counts["H"] = counts.get("H", 0) + hydrogens

    def part(symbol: str) -> str:
        n = counts[symbol]
        return symbol if n == 1 else f"{symbol}{n}"

    ordered: list[str] = []
    if "C" in counts:
        ordered.append(part("C"))
        if "H" in counts:
            ordered.append(part("H"))
        ordered.extend(part(s) for s in sorted(counts) if s not in ("C", "H"))
    else:
        ordered.extend(part(s) for s in sorted(counts))
    return "".join(ordered)


def molecular_weight(mol: Molecule) -> float:
    """Sum of standard atomic weights, rounded half-up to 2 decimals.

    A written isotope substitutes its mass number for the standard weight;
    mass number 0 reads as unlabelled, as in ``metrics.morgan_fingerprint``,
    so ``[0CH4]`` weighs what ``C`` does.  Implicit and bracket-count
    hydrogens weigh the standard 1.008.  Atoms are counted per element,
    and per mass number when labelled, so the exact sum takes one
    multiply per count.
    """
    elements: dict[str, int] = {}
    isotopes: dict[int, int] = {}
    hydrogens = 0
    for atom in mol.atoms:
        if not atom.isotope:
            elements[atom.element] = elements.get(atom.element, 0) + 1
        else:
            isotopes[atom.isotope] = isotopes.get(atom.isotope, 0) + 1
        hydrogens += atom.explicit_h + atom.implicit_h
    total = Decimal(str(ATOMIC_WEIGHTS["H"])) * hydrogens
    for element, count in elements.items():
        total += Decimal(str(ATOMIC_WEIGHTS[element])) * count
    for isotope, count in isotopes.items():
        total += Decimal(isotope) * count
    return float(total.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _ring_atom_set(mol: Molecule) -> set[int]:
    assert mol.rings is not None
    return {a for ring in mol.rings for a in ring.atoms}


def longest_carbon_chain(mol: Molecule) -> int:
    """Atom count of the longest simple path over non-ring carbons.

    Carbons on no ring form a forest, so the longest path of each tree is
    its diameter: the farthest carbon from any start, then the farthest
    from that one.  Exact and linear in the number of atoms.  Bond order
    does not matter, only carbon-carbon connectivity outside rings.
    """
    in_ring = _ring_atom_set(mol)
    carbons = {a.index for a in mol.atoms if a.element == "C" and a.index not in in_ring}

    def farthest(start: int) -> tuple[int, dict[int, int]]:
        """Last carbon reached breadth-first, and the depth of each carbon in its tree."""
        depth = {start: 1}
        queue = [start]
        for current in queue:
            for nxt in mol.neighbors(current):
                if nxt in carbons and nxt not in depth:
                    depth[nxt] = depth[current] + 1
                    queue.append(nxt)
        return queue[-1], depth

    best = 0
    seen: set[int] = set()
    for start in carbons:
        if start not in seen:
            end, _ = farthest(start)
            other_end, depth = farthest(end)
            seen.update(depth)
            best = max(best, depth[other_end])
    return best


def aromatic_ring_count(mol: Molecule) -> int:
    """Number of SSSR rings flagged aromatic."""
    assert mol.rings is not None
    return sum(1 for ring in mol.rings if ring.aromatic)


# ---------------------------------------------------------------------------
# CIP Rule 1a

_Spheres = tuple[tuple[float, ...], ...]


def _branch_spheres(mol: Molecule, center: int, first: int) -> tuple[_Spheres, _Spheres]:
    """Per-sphere (atomic numbers, isotopes) for one substituent branch.

    Sphere k holds the sorted-descending values of every node k bonds out
    along the hierarchical digraph rooted at the center.  Phantom nodes
    (multiple-bond duplicates, ring-closure duplicates, aromatic-system
    stand-ins) carry an atomic number but isotope 0 and no children.
    """
    if first == H_BRANCH:
        return ((1.0,),), ((0.0,),)

    # Frontier entries: (atom index or None for a phantom, z, isotope,
    # parent atom, atoms on the path from the center).  Phantoms carry a
    # value but are never expanded.
    _Entry = tuple[int | None, float, float, int, frozenset[int]]
    frontier: list[_Entry] = [
        (
            first,
            float(mol.atoms[first].atomic_number),
            float(mol.atoms[first].isotope or 0),
            center,
            frozenset({center}),
        )
    ]
    z_spheres: list[tuple[float, ...]] = []
    i_spheres: list[tuple[float, ...]] = []
    for _ in range(_CIP_MAX_SPHERES):
        if not frontier:
            break
        z_spheres.append(tuple(sorted((e[1] for e in frontier), reverse=True)))
        i_spheres.append(tuple(sorted((e[2] for e in frontier), reverse=True)))
        next_frontier: list[_Entry] = []
        for idx, _, _, parent, ancestors in frontier:
            if idx is None:
                continue
            atom = mol.atoms[idx]
            path = ancestors | {idx}
            for j, bond in mol.bonds_of(idx):
                zj = float(mol.atoms[j].atomic_number)
                extra = 0 if bond.order is BondOrder.AROMATIC else int(bond.order) - 1
                if j == parent:
                    phantoms = extra  # double/triple arrival duplicates the parent
                elif j in ancestors:
                    phantoms = 1 + extra  # ring closure duplicates the ancestor
                else:
                    next_frontier.append(
                        (j, zj, float(mol.atoms[j].isotope or 0), idx, path)
                    )
                    phantoms = extra
                next_frontier.extend([(None, zj, 0.0, idx, path)] * phantoms)
            if atom.is_aromatic:
                mean = aromatic_neighbor_mean(mol, idx)
                if mean is not None:
                    next_frontier.append((None, mean, 0.0, idx, path))
            next_frontier.extend([(None, 1.0, 0.0, idx, path)] * atom.total_h)
        frontier = next_frontier
    return tuple(z_spheres), tuple(i_spheres)


def chiral_centers(mol: Molecule) -> list[tuple[int, Configuration]]:
    """(canonical position, configuration) for every annotated 4-branch atom.

    Atoms with a chirality tag but fewer than four substituent branches
    (counting each hydrogen as a branch) are skipped: the tag cannot be
    interpreted as a tetrahedral center.  Ties surviving Rule 1a and the
    isotope tie-break yield UNRESOLVED.  Canonical numbering runs only
    when there is a center to number.
    """
    centers: list[tuple[int, Configuration]] = []
    for atom in mol.atoms:
        if atom.chirality is Chirality.NONE or len(atom.stereo_order) != 4:
            continue
        keys = {b: _branch_spheres(mol, atom.index, b) for b in set(atom.stereo_order)}
        if len(set(keys.values())) != 4:
            centers.append((atom.index, Configuration.UNRESOLVED))
            continue
        p1, p2, p3, p4 = sorted(keys, key=keys.__getitem__, reverse=True)
        tag = chirality_in_order(atom, [p4, p1, p2, p3])
        centers.append(
            (atom.index, Configuration.R if tag is Chirality.ANTICLOCKWISE else Configuration.S)
        )
    if not centers:
        return []
    position = {a: k for k, a in enumerate(canonical_order(mol))}
    return sorted(((position[a], config) for a, config in centers), key=lambda c: c[0])


# ---------------------------------------------------------------------------
# The component table


def _exact(claimed: object, actual: object, recall: bool) -> float:
    return 1.0 if claimed == actual else 0.0


def _multiset(claimed: object, actual: object, recall: bool) -> float:
    """Jaccard overlap (1 when both are empty), or with ``recall`` the share
    of actual that was claimed (1 when actual is empty)."""
    a, b = Counter(claimed), Counter(actual)  # type: ignore[arg-type]
    if recall:
        return sum((a & b).values()) / sum(b.values()) if b else 1.0
    return sum((a & b).values()) / sum((a | b).values()) if a or b else 1.0


def _labels(centers: object) -> Counter:
    return Counter(config for _, config in centers)  # type: ignore[attr-defined]


def _chirality(claimed: object, actual: object, recall: bool) -> float:
    """R/S/Unresolved labels as a multiset; atom numbers are ignored."""
    return 1.0 if _labels(claimed) == _labels(actual) else 0.0


def _weight_band(claimed: object, actual: object, recall: bool) -> float:
    """1 when actual / claimed lies in the band; a nonpositive claim must be exact."""
    claimed, actual = float(claimed), float(actual)  # type: ignore[arg-type]
    if claimed <= 0:
        return 1.0 if actual == claimed else 0.0
    return 1.0 if WEIGHT_RATIO_LOW <= actual / claimed <= WEIGHT_RATIO_HIGH else 0.0


class Component(NamedTuple):
    """Profile field, extractor (perceived molecule, catalog) -> value, and
    scorer (claimed, actual, recall) -> [0, 1] of one extractable kind."""

    field: str
    extract: Callable[[Molecule, Catalog | None], object]
    score: Callable[[object, object, bool], float]


COMPONENTS: dict[ComponentKind, Component] = {
    ComponentKind.FORMULA: Component("formula", lambda m, _: molecular_formula(m), _exact),
    ComponentKind.LONGEST_CHAIN: Component(
        "longest_chain", lambda m, _: longest_carbon_chain(m), _exact
    ),
    ComponentKind.AROMATIC_RINGS: Component(
        "aromatic_ring_count", lambda m, _: aromatic_ring_count(m), _exact
    ),
    ComponentKind.RING_COMPOUNDS: Component(
        "ring_compounds",
        lambda m, c: tuple(sorted(ring_compound_names(m, c).elements())),
        _multiset,
    ),
    ComponentKind.FUNCTIONAL_GROUPS: Component(
        "functional_groups",
        lambda m, c: tuple(sorted(functional_group_names(m, c).elements())),
        _multiset,
    ),
    ComponentKind.CHIRALITY: Component(
        "chiral_centers", lambda m, _: tuple(chiral_centers(m)), _chirality
    ),
    ComponentKind.MOLECULAR_WEIGHT: Component(
        "molecular_weight", lambda m, _: molecular_weight(m), _weight_band
    ),
}
EXTRACTABLE_KINDS: frozenset[ComponentKind] = frozenset(COMPONENTS)
CORE_KINDS: frozenset[ComponentKind] = EXTRACTABLE_KINDS - {ComponentKind.MOLECULAR_WEIGHT}


def component_values(
    source: Molecule | StructuralProfile,
    kinds: Iterable[ComponentKind],
    catalog: Catalog | None = None,
) -> dict[ComponentKind, object]:
    """Values of some extractable kinds, read from a profile or computed
    from a molecule (perceived first if needed) for just those kinds."""
    if isinstance(source, StructuralProfile):
        return {kind: getattr(source, COMPONENTS[kind].field) for kind in kinds}
    if source.rings is None:
        perceive(source)
    return {kind: COMPONENTS[kind].extract(source, catalog) for kind in kinds}


def score_claims(
    claims: Mapping[ComponentKind, object],
    source: Molecule | StructuralProfile,
    catalog: Catalog | None = None,
    recall: bool = False,
) -> dict[ComponentKind, float]:
    """Scores of the extractable claims, in canonical order; claims of other
    kinds (the IUPAC name) are left to the caller."""
    kinds = [kind for kind in COMPONENTS if kind in claims]
    actual = component_values(source, kinds, catalog)
    return {kind: COMPONENTS[kind].score(claims[kind], actual[kind], recall) for kind in kinds}


def extract_profile(mol: Molecule, catalog: Catalog | None = None) -> StructuralProfile:
    """All seven structural components of a perceived molecule.

    Pure function of the molecular graph.  Runs perception itself when the
    molecule has none yet.
    """
    values = component_values(mol, COMPONENTS, catalog)
    return StructuralProfile(**{COMPONENTS[kind].field: v for kind, v in values.items()})
