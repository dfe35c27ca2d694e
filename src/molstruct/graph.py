"""Molecular graph types and perception passes.

A molecule is an undirected labeled graph of atoms and bonds.  Perception
runs in a fixed order: implicit hydrogen assignment, smallest-set-of-
smallest-rings (SSSR) perception, then aromaticity.  Molecules should be
treated as read-only once perception has run; every function here returns
the molecule it received so pipelines can chain calls.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum

from .elements import (
    AROMATIC_ORGANIC,
    CATION_VALENCE_SHIFT,
    DEFAULT_VALENCES,
    OUTER_ELECTRONS,
    PI_VALENCE,
    SYMBOL_TO_NUMBER,
)
from .errors import AromaticityError, ValenceError

# Sentinel used inside Atom.stereo_order for a hydrogen written in brackets.
H_BRANCH = -1

# Largest ring union considered when fusing adjacent rings for the
# Hueckel check (covers azulene-sized perimeters).
_MAX_FUSED_RING = 10


class BondOrder(IntEnum):
    """Bond multiplicity; AROMATIC marks delocalized ring bonds."""

    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4


class Chirality(Enum):
    """Tetrahedral order tag as written in SMILES.

    CLOCKWISE is ``@@`` and ANTICLOCKWISE is ``@``: looking from the first
    recorded neighbor toward the center, the remaining neighbors appear in
    clockwise respectively anticlockwise order.
    """

    NONE = "none"
    CLOCKWISE = "@@"
    ANTICLOCKWISE = "@"


@dataclass(slots=True)
class Atom:
    """One atom of a molecular graph.

    Attributes:
        element: Element symbol in standard capitalization ("Cl", "C").
        atomic_number: Proton count matching ``element``.
        charge: Formal charge, magnitude at most 15.
        explicit_h: Hydrogens written in a bracket atom ("[CH3]" has 3).
        implicit_h: Hydrogens added by valence filling; 0 for bracket atoms.
        is_aromatic: True once the atom sits in a perceived aromatic ring
            or was written lowercase.
        isotope: Mass number when specified, else None.
        chirality: Tetrahedral order tag, NONE when unspecified.
        index: Position of the atom inside its molecule.
        bracket: True when the atom was written in brackets.
        written_aromatic: True when the source SMILES spelled it lowercase.
        position: Byte offset of the atom token in the source SMILES,
            -1 for programmatic construction.
        stereo_order: Neighbor atom indices in the order the source SMILES
            introduced them; H_BRANCH entries stand for bracket hydrogens.
            Only populated for atoms carrying a chirality tag.
    """

    element: str
    atomic_number: int = 0
    charge: int = 0
    explicit_h: int = 0
    implicit_h: int = 0
    is_aromatic: bool = False
    isotope: int | None = None
    chirality: Chirality = Chirality.NONE
    index: int = -1
    bracket: bool = False
    written_aromatic: bool = False
    position: int = -1
    stereo_order: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.atomic_number == 0:
            number = SYMBOL_TO_NUMBER.get(self.element)
            if number is None:
                raise ValueError(f"unknown element symbol {self.element!r}")
            self.atomic_number = number

    @property
    def total_h(self) -> int:
        """Explicit plus implicit hydrogen count."""
        return self.explicit_h + self.implicit_h


@dataclass(slots=True)
class Bond:
    """An undirected bond between atoms ``a`` and ``b``.

    ``direction`` preserves a source ``/`` or ``\\`` annotation relative to
    the a-to-b orientation; it is carried through parsing and writing but
    never interpreted as cis/trans stereochemistry.
    """

    a: int
    b: int
    order: BondOrder = BondOrder.SINGLE
    direction: str | None = None
    in_ring: bool = False


@dataclass(frozen=True, slots=True)
class Ring:
    """One SSSR ring: atom indices in cyclic order, plus perception flags."""

    atoms: tuple[int, ...]
    aromatic: bool = False

    @property
    def size(self) -> int:
        return len(self.atoms)


class Molecule:
    """An atom/bond graph with cached adjacency and perception results.

    Construction validates basic shape only (endpoints in range, no self
    bonds, at most one bond per atom pair).  Perception passes fill in
    implicit hydrogens, rings, and aromatic flags; run them through
    :func:`perceive` or individually.
    """

    __slots__ = ("atoms", "bonds", "rings", "_adjacency")

    def __init__(self, atoms: list[Atom], bonds: list[Bond]) -> None:
        self.atoms = atoms
        self.bonds = bonds
        self.rings: list[Ring] | None = None
        for i, atom in enumerate(atoms):
            atom.index = i
        seen: set[tuple[int, int]] = set()
        n = len(atoms)
        for bond in bonds:
            if bond.a == bond.b:
                raise ValueError(f"bond from atom {bond.a} to itself")
            if not (0 <= bond.a < n and 0 <= bond.b < n):
                raise ValueError(f"bond endpoint out of range: {bond.a}-{bond.b}")
            key = (min(bond.a, bond.b), max(bond.a, bond.b))
            if key in seen:
                raise ValueError(f"duplicate bond between atoms {key[0]} and {key[1]}")
            seen.add(key)
        self._adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for bi, bond in enumerate(bonds):
            self._adjacency[bond.a].append((bond.b, bi))
            self._adjacency[bond.b].append((bond.a, bi))

    def neighbors(self, idx: int) -> list[int]:
        """Atom indices bonded to ``idx`` in bond insertion order."""
        return [j for j, _ in self._adjacency[idx]]

    def bonds_of(self, idx: int) -> list[tuple[int, Bond]]:
        """(neighbor index, bond) pairs for ``idx`` in insertion order."""
        return [(j, self.bonds[bi]) for j, bi in self._adjacency[idx]]

    def bond_between(self, i: int, j: int) -> Bond | None:
        """The bond joining ``i`` and ``j``, or None."""
        for k, bi in self._adjacency[i]:
            if k == j:
                return self.bonds[bi]
        return None

    def heavy_degree(self, idx: int) -> int:
        """Number of explicit (non-hydrogen-count) neighbors."""
        return len(self._adjacency[idx])

    def components(self) -> list[list[int]]:
        """Connected components as sorted atom index lists, in first-atom order."""
        seen: set[int] = set()
        out: list[list[int]] = []
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            comp = []
            while stack:
                cur = stack.pop()
                comp.append(cur)
                for nxt, _ in self._adjacency[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            out.append(sorted(comp))
        return out


def _allowed_valences(atom: Atom) -> tuple[int, ...]:
    """Allowed valences for ``atom`` after its charge shift.

    Cations of the nitrogen and oxygen families gain one slot per unit of
    positive charge; anions of any element lose one per unit of negative
    charge.
    """
    base = DEFAULT_VALENCES.get(atom.element)
    if base is None:
        return ()
    if atom.charge > 0 and atom.element in CATION_VALENCE_SHIFT:
        return tuple(v + atom.charge for v in base)
    if atom.charge < 0:
        return tuple(max(v + atom.charge, 0) for v in base)
    return base


def _sigma_valence(mol: Molecule, idx: int) -> tuple[int, bool]:
    """Sum of bond orders (aromatic counted as one) and a multiple-bond flag."""
    total = 0
    has_multiple = False
    for _, bond in mol.bonds_of(idx):
        if bond.order is BondOrder.AROMATIC:
            total += 1
        else:
            total += int(bond.order)
            if bond.order in (BondOrder.DOUBLE, BondOrder.TRIPLE):
                has_multiple = True
    return total, has_multiple


def assign_implicit_hydrogens(mol: Molecule) -> Molecule:
    """Fill implicit hydrogen counts on plain (non-bracket) atoms.

    Bracket atoms keep implicit_h = 0; their hydrogens are explicit.  Plain
    atoms receive the difference between the smallest allowed valence that
    fits and their bonded valence.  Atoms written lowercase reserve one
    bonding slot for the ring pi system unless they already carry a double
    or triple bond, or no slot is left.

    Args:
        mol: Molecule to update in place.

    Returns:
        The same molecule, for chaining.

    Raises:
        ValenceError: A plain atom's bonded valence exceeds every allowed
            valence for its element.
    """
    for atom in mol.atoms:
        if atom.bracket:
            atom.implicit_h = 0
            continue
        sigma, has_multiple = _sigma_valence(mol, atom.index)
        for valence in _allowed_valences(atom):
            if sigma > valence:
                continue
            count = valence - sigma
            if atom.written_aromatic and not has_multiple and count >= 1:
                count -= 1
            atom.implicit_h = count
            break
        else:
            raise ValenceError(
                f"atom {atom.index} ({atom.element}) has bonded valence {sigma}, "
                f"above every allowed valence {_allowed_valences(atom)}",
                atom.position,
            )
    return mol


def _canonical_cycle(atoms: list[int]) -> tuple[int, ...]:
    """Rotate/reflect a cyclic atom sequence to its lexicographic minimum."""
    n = len(atoms)
    best: tuple[int, ...] | None = None
    doubled = atoms + atoms
    for start in range(n):
        if atoms[start] != min(atoms):
            continue
        forward = tuple(doubled[start : start + n])
        backward = tuple(reversed(doubled[start + 1 : start + n + 1]))
        for cand in (forward, backward):
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def _shortest_path_tree(mol: Molecule, root: int) -> tuple[dict[int, int], dict[int, int]]:
    """BFS distances and parents from ``root``."""
    dist = {root: 0}
    parent = {root: root}
    queue = [root]
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        for nxt in mol.neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                parent[nxt] = cur
                queue.append(nxt)
    return dist, parent


def perceive_rings(mol: Molecule) -> list[Ring]:
    """Perceive the SSSR and mark ring bonds.

    Candidate cycles come from every (vertex, edge) shortest-path closure
    (the Horton set); a greedy pass ordered by size then lexicographic atom
    sequence keeps each cycle that is linearly independent over GF(2) until
    the cyclomatic number is reached.

    Args:
        mol: Molecule to update in place.

    Returns:
        The perceived rings, also stored on ``mol.rings``.
    """
    n_components = len(mol.components())
    cyclomatic = len(mol.bonds) - len(mol.atoms) + n_components
    for bond in mol.bonds:
        bond.in_ring = False
    if cyclomatic <= 0:
        mol.rings = []
        return mol.rings

    bond_index = {(min(b.a, b.b), max(b.a, b.b)): i for i, b in enumerate(mol.bonds)}

    def edge_mask(cycle: list[int]) -> int:
        mask = 0
        for i, a in enumerate(cycle):
            b = cycle[(i + 1) % len(cycle)]
            mask |= 1 << bond_index[(min(a, b), max(a, b))]
        return mask

    candidates: dict[int, tuple[int, tuple[int, ...]]] = {}
    for root in range(len(mol.atoms)):
        dist, parent = _shortest_path_tree(mol, root)
        for bond in mol.bonds:
            x, y = bond.a, bond.b
            if x not in dist or y not in dist:
                continue
            path_x = [x]
            while path_x[-1] != root:
                path_x.append(parent[path_x[-1]])
            path_y = [y]
            while path_y[-1] != root:
                path_y.append(parent[path_y[-1]])
            if set(path_x) & set(path_y) != {root}:
                continue
            cycle = path_x + list(reversed(path_y[:-1]))
            if len(cycle) < 3:
                continue
            mask = edge_mask(cycle)
            if mask not in candidates:
                candidates[mask] = (len(cycle), _canonical_cycle(cycle))

    ordered = sorted(
        ((size, seq, mask) for mask, (size, seq) in candidates.items()),
        key=lambda item: (item[0], item[1]),
    )
    basis: list[int] = []
    rings: list[Ring] = []
    for _, seq, mask in ordered:
        reduced = mask
        for vec in basis:
            low = vec & -vec
            if reduced & low:
                reduced ^= vec
        if reduced:
            basis.append(reduced)
            rings.append(Ring(atoms=seq))
            if len(rings) == cyclomatic:
                break

    rings.sort(key=lambda r: (r.size, r.atoms))
    mol.rings = rings
    for ring in rings:
        for i, a in enumerate(ring.atoms):
            b = ring.atoms[(i + 1) % ring.size]
            bond = mol.bond_between(a, b)
            assert bond is not None
            bond.in_ring = True
    return rings


def _pi_contribution(mol: Molecule, idx: int, ring_atoms: frozenset[int], aromatic_atoms: set[int]) -> int | None:
    """Pi electrons atom ``idx`` donates to the ring set, None if ineligible.

    Fixed table: an atom with a double bond inside the ring donates 1; an
    exocyclic double bond donates 0 (carbonyl style) unless the atom already
    belongs to an aromatic ring (fusion), which donates 1; otherwise lone
    pair donors (pyrrole N-H, furan O, thioether S and their kin) donate 2,
    and declared-aromatic atoms fall back to an electron-count parity rule.
    """
    atom = mol.atoms[idx]
    double_in = False
    double_out = False
    for j, bond in mol.bonds_of(idx):
        if bond.order in (BondOrder.DOUBLE, BondOrder.TRIPLE):
            if j in ring_atoms:
                double_in = True
            else:
                double_out = True
    if double_in:
        return 1
    if double_out:
        return 1 if idx in aromatic_atoms else 0

    outer = OUTER_ELECTRONS.get(atom.element)
    base_valence = PI_VALENCE.get(atom.element)
    if outer is None or base_valence is None:
        return None
    valence = base_valence
    if atom.charge > 0 and atom.element in CATION_VALENCE_SHIFT:
        valence += atom.charge
    elif atom.charge < 0:
        valence = max(valence + atom.charge, 0)
    lone = max(outer - atom.charge - valence, 0)
    degree = mol.heavy_degree(idx) + atom.total_h
    available = (valence - degree) + lone

    if atom.written_aromatic or atom.is_aromatic or idx in aromatic_atoms:
        if available <= 0:
            return None
        return 1 if available % 2 else 2
    # Kekule-written atom without any double bond: only a genuine lone
    # pair makes it part of the pi system.
    if lone >= 2 and available >= 2:
        return 2
    return None


def _hueckel(count: int) -> bool:
    return count >= 2 and (count - 2) % 4 == 0


def perceive_aromaticity(mol: Molecule) -> Molecule:
    """Mark aromatic rings, atoms, and bonds.

    Each SSSR ring, and each union of two fused rings up to size 10, is
    tested against the 4n+2 rule using the fixed pi-electron table from
    :func:`_pi_contribution`.  Passing rings set atom aromatic flags and
    renormalize their in-ring single/double bonds to AROMATIC order.  The
    pass iterates to a fixpoint so fused neighbors perceived first can
    unlock adjacent rings.  Idempotent: a second run is a no-op.

    Args:
        mol: Molecule with rings already perceived (runs ring perception
            itself when missing).

    Returns:
        The same molecule.

    Raises:
        AromaticityError: An atom written lowercase ends up outside every
            aromatic ring.
    """
    if mol.rings is None:
        perceive_rings(mol)
    assert mol.rings is not None
    rings = mol.rings
    ring_sets = [frozenset(r.atoms) for r in rings]
    # Confirmed-aromatic atoms: only members of rings that have already
    # passed.  Written lowercase flags are a claim, not a confirmation, so
    # they must not unlock the fused-ring exocyclic-double rule by
    # themselves.
    aromatic_ring_ids: set[int] = {rid for rid, r in enumerate(rings) if r.aromatic}
    aromatic_atoms: set[int] = {a for rid in aromatic_ring_ids for a in ring_sets[rid]}

    def ring_passes(atom_set: frozenset[int]) -> bool:
        total = 0
        for idx in atom_set:
            contribution = _pi_contribution(mol, idx, atom_set, aromatic_atoms)
            if contribution is None:
                return False
            total += contribution
        return _hueckel(total)

    changed = True
    while changed:
        changed = False
        for rid, atom_set in enumerate(ring_sets):
            if rid in aromatic_ring_ids:
                continue
            if ring_passes(atom_set):
                aromatic_ring_ids.add(rid)
                aromatic_atoms.update(atom_set)
                changed = True
        for i in range(len(rings)):
            for j in range(i + 1, len(rings)):
                if i in aromatic_ring_ids and j in aromatic_ring_ids:
                    continue
                shared = ring_sets[i] & ring_sets[j]
                union = ring_sets[i] | ring_sets[j]
                if not shared or len(union) > _MAX_FUSED_RING:
                    continue
                if ring_passes(union):
                    aromatic_ring_ids.update((i, j))
                    aromatic_atoms.update(union)
                    changed = True

    for rid in aromatic_ring_ids:
        ring = rings[rid]
        for k, a in enumerate(ring.atoms):
            b = ring.atoms[(k + 1) % ring.size]
            bond = mol.bond_between(a, b)
            assert bond is not None
            if bond.order in (BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.AROMATIC):
                bond.order = BondOrder.AROMATIC
    aromatic_bond_keys = {
        (min(a, b), max(a, b))
        for rid in aromatic_ring_ids
        for ring in (rings[rid],)
        for k, a in enumerate(ring.atoms)
        for b in (ring.atoms[(k + 1) % ring.size],)
    }
    for bond in mol.bonds:
        if bond.order is BondOrder.AROMATIC:
            if (min(bond.a, bond.b), max(bond.a, bond.b)) not in aromatic_bond_keys:
                bond.order = BondOrder.SINGLE

    for atom in mol.atoms:
        atom.is_aromatic = atom.index in aromatic_atoms
        if atom.written_aromatic and not atom.is_aromatic:
            raise AromaticityError(
                f"atom {atom.index} ({atom.element}) was written aromatic but is not "
                "in any aromatic ring",
                position=atom.position,
            )
    mol.rings = [
        replace(ring, aromatic=(rid in aromatic_ring_ids)) if ring.aromatic != (rid in aromatic_ring_ids) else ring
        for rid, ring in enumerate(rings)
    ]
    return mol


def perceive(mol: Molecule) -> Molecule:
    """Run the full perception pipeline: hydrogens, rings, aromaticity."""
    assign_implicit_hydrogens(mol)
    perceive_rings(mol)
    perceive_aromaticity(mol)
    return mol


def aromatic_neighbor_mean(mol: Molecule, idx: int) -> float | None:
    """Mean atomic number over aromatic-bonded neighbors of ``idx``.

    Used by priority ranking to stand in for the delocalized double bond
    of an aromatic atom; None when the atom has no aromatic bonds.
    """
    numbers = [
        mol.atoms[j].atomic_number
        for j, bond in mol.bonds_of(idx)
        if bond.order is BondOrder.AROMATIC
    ]
    if not numbers:
        return None
    return statistics.fmean(numbers)


def relabel(mol: Molecule, new_index: list[int]) -> Molecule:
    """Copy ``mol`` with atom ``i`` moved to position ``new_index[i]``.

    Stereo neighbor lists and bond endpoints are remapped; perception state
    (hydrogen counts, aromatic flags, bond orders) is carried over and ring
    perception re-runs on the new indexing.

    Args:
        mol: Source molecule, fully perceived.
        new_index: Permutation of range(len(atoms)).

    Returns:
        A new, fully perceived molecule.
    """
    n = len(mol.atoms)
    if sorted(new_index) != list(range(n)):
        raise ValueError("new_index must be a permutation of the atom indices")
    atoms: list[Atom | None] = [None] * n
    for old, atom in enumerate(mol.atoms):
        moved = replace(
            atom,
            index=new_index[old],
            stereo_order=tuple(
                H_BRANCH if s == H_BRANCH else new_index[s] for s in atom.stereo_order
            ),
        )
        atoms[new_index[old]] = moved
    bonds = [
        Bond(
            a=new_index[bond.a],
            b=new_index[bond.b],
            order=bond.order,
            direction=bond.direction,
        )
        for bond in mol.bonds
    ]
    bonds.sort(key=lambda b: (min(b.a, b.b), max(b.a, b.b)))
    out = Molecule([a for a in atoms if a is not None], bonds)
    perceive_rings(out)
    perceive_aromaticity(out)
    return out
