"""Molecular graph types and perception passes.

A molecule is an undirected labeled graph of atoms and bonds.  Perception
runs in a fixed order: implicit hydrogen assignment, smallest-set-of-
smallest-rings (SSSR) perception, then aromaticity.  Molecules should be
treated as read-only once perception has run; every function here returns
the molecule it received so pipelines can chain calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from typing import Iterator

from .elements import (
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

    __slots__ = ("atoms", "bonds", "rings", "_adjacency", "_bond_index")

    def __init__(self, atoms: list[Atom], bonds: list[Bond]) -> None:
        self.atoms = atoms
        self.bonds = bonds
        self.rings: list[Ring] | None = None
        for i, atom in enumerate(atoms):
            atom.index = i
        n = len(atoms)
        # (low, high) atom pair -> position in ``bonds``.
        self._bond_index: dict[tuple[int, int], int] = {}
        adjacency: list[list[tuple[int, Bond]]] = [[] for _ in range(n)]
        for bi, bond in enumerate(bonds):
            a, b = bond.a, bond.b
            if a == b:
                raise ValueError(f"bond from atom {a} to itself")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"bond endpoint out of range: {a}-{b}")
            key = (a, b) if a < b else (b, a)
            if key in self._bond_index:
                raise ValueError(f"duplicate bond between atoms {key[0]} and {key[1]}")
            self._bond_index[key] = bi
            adjacency[a].append((b, bond))
            adjacency[b].append((a, bond))
        self._adjacency = [tuple(pairs) for pairs in adjacency]

    def neighbors(self, idx: int) -> list[int]:
        """Atom indices bonded to ``idx`` in bond insertion order."""
        return [j for j, _ in self._adjacency[idx]]

    def bonds_of(self, idx: int) -> tuple[tuple[int, Bond], ...]:
        """(neighbor index, bond) pairs for ``idx`` in insertion order."""
        return self._adjacency[idx]

    def bond_between(self, i: int, j: int) -> Bond | None:
        """The bond joining ``i`` and ``j``, or None."""
        bi = self._bond_index.get((i, j) if i < j else (j, i))
        return None if bi is None else self.bonds[bi]

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


def chirality_in_order(atom: Atom, order: list[int]) -> Chirality:
    """``atom``'s chirality tag for its neighbors listed in ``order``.

    The tag is read against ``atom.stereo_order``. An odd permutation
    from that order to ``order`` swaps ``@`` and ``@@``, and an even one
    keeps the tag. Repeated entries, such as two H_BRANCH hydrogens, are
    matched left to right. The tag comes back unchanged when no order
    was recorded, or when ``order`` does not rearrange the recorded one.
    The writer calls this for the order it writes, and CIP ranking for
    the order lowest priority first.
    """
    recorded = atom.stereo_order
    if atom.chirality is Chirality.NONE or not recorded or sorted(recorded) != sorted(order):
        return atom.chirality
    remaining: list[object] = list(order)
    perm: list[int] = []
    for item in recorded:
        slot = remaining.index(item)
        remaining[slot] = None  # consume duplicates left to right
        perm.append(slot)
    swaps = 0
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            swaps += 1
    if swaps % 2 == 0:
        return atom.chirality
    if atom.chirality is Chirality.ANTICLOCKWISE:
        return Chirality.CLOCKWISE
    return Chirality.ANTICLOCKWISE


def _charge_shifted(valence: int, atom: Atom) -> int:
    """``valence`` after ``atom``'s charge shift.

    Cations of the nitrogen and oxygen families gain one slot per unit of
    positive charge; anions of any element lose one per unit of negative
    charge.
    """
    if atom.charge > 0 and atom.element in CATION_VALENCE_SHIFT:
        return valence + atom.charge
    if atom.charge < 0:
        return max(valence + atom.charge, 0)
    return valence


# (element, charge) -> allowed valences after the charge shift, filled on first use.
_ALLOWED_VALENCES: dict[tuple[str, int], tuple[int, ...]] = {}


def _allowed_valences(atom: Atom) -> tuple[int, ...]:
    """Allowed valences for ``atom`` after its charge shift."""
    key = (atom.element, atom.charge)
    valences = _ALLOWED_VALENCES.get(key)
    if valences is None:
        valences = tuple(_charge_shifted(v, atom) for v in DEFAULT_VALENCES.get(atom.element, ()))
        _ALLOWED_VALENCES[key] = valences
    return valences


def _sigma_valence(mol: Molecule, idx: int) -> tuple[int, bool]:
    """Sum of bond orders (aromatic counted as one) and a multiple-bond flag."""
    total = 0
    has_multiple = False
    for _, bond in mol.bonds_of(idx):
        order = bond.order
        if order is BondOrder.SINGLE or order is BondOrder.AROMATIC:
            total += 1
        else:
            total += order
            has_multiple = True
    return total, has_multiple


def _bare_hydrogens(mol: Molecule, idx: int, lowercase: bool) -> int | None:
    """Hydrogens a reader infers for atom ``idx`` written without brackets.

    The count fills the smallest allowed valence that fits the bonded
    valence.  An atom written lowercase reserves one bonding slot for the
    ring pi system unless it already carries a double or triple bond, or
    no slot is left.  None when the bonded valence exceeds every allowed
    valence.
    """
    sigma, has_multiple = _sigma_valence(mol, idx)
    for valence in _allowed_valences(mol.atoms[idx]):
        if sigma <= valence:
            count = valence - sigma
            return count - 1 if lowercase and not has_multiple and count >= 1 else count
    return None


def assign_implicit_hydrogens(mol: Molecule) -> Molecule:
    """Fill implicit hydrogen counts on plain (non-bracket) atoms.

    Bracket atoms keep implicit_h = 0; their hydrogens are explicit.  Plain
    atoms receive the count of :func:`_bare_hydrogens`, lowercase as
    written.

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
        count = _bare_hydrogens(mol, atom.index, atom.written_aromatic)
        if count is None:
            sigma, _ = _sigma_valence(mol, atom.index)
            raise ValenceError(
                f"atom {atom.index} ({atom.element}) has bonded valence {sigma}, "
                f"above every allowed valence {_allowed_valences(atom)}",
                atom.position,
            )
        atom.implicit_h = count
    return mol


def _canonical_cycle(atoms: list[int]) -> tuple[int, ...]:
    """Rotate/reflect a cyclic atom sequence to its lexicographic minimum."""
    n = len(atoms)
    best: tuple[int, ...] | None = None
    doubled = atoms + atoms
    low = min(atoms)
    for start in range(n):
        if atoms[start] != low:
            continue
        forward = tuple(doubled[start : start + n])
        backward = tuple(reversed(doubled[start + 1 : start + n + 1]))
        for cand in (forward, backward):
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def _ring_blocks(mol: Molecule) -> list[tuple[list[int], list[Bond]]]:
    """Biconnected blocks that hold a cycle, as (sorted atoms, bonds).

    Tarjan's depth-first search with a stack of bonds; a block is popped
    off the stack when an atom's subtree reaches back no higher than its
    parent.  The search keeps its own stack, so long chains do not
    recurse.  Every block but a bridge (one bond) holds a cycle; bridges
    are dropped, and a leaf atom's bond never enters the stack.
    """
    order = [0] * len(mol.atoms)  # discovery time, 0 until the search reaches the atom
    low = [0] * len(mol.atoms)
    bond_stack: list[Bond] = []
    blocks: list[tuple[list[int], list[Bond]]] = []
    clock = 0
    for start in range(len(mol.atoms)):
        if order[start]:
            continue
        clock += 1
        order[start] = low[start] = clock
        path: list[tuple[int, Bond | None, Iterator[tuple[int, Bond]]]] = [
            (start, None, iter(mol._adjacency[start]))
        ]
        while path:
            atom, via, pending = path[-1]
            for nxt, bond in pending:
                if not order[nxt]:
                    clock += 1
                    order[nxt] = low[nxt] = clock
                    if len(mol._adjacency[nxt]) == 1:
                        continue  # a leaf: its bond is a bridge
                    bond_stack.append(bond)
                    path.append((nxt, bond, iter(mol._adjacency[nxt])))
                    break
                if order[nxt] < order[atom] and bond is not via:
                    bond_stack.append(bond)
                    low[atom] = min(low[atom], order[nxt])
            else:
                path.pop()
                if not path:
                    continue
                up = path[-1][0]
                if low[atom] < order[up]:
                    low[up] = min(low[up], low[atom])
                    continue
                bonds = [bond_stack.pop()]
                if bonds[0] is via:
                    continue  # a bridge
                while bonds[-1] is not via:
                    bonds.append(bond_stack.pop())
                blocks.append((sorted({end for bond in bonds for end in (bond.a, bond.b)}), bonds))
    return blocks


def _walk_cycle(mol: Molecule, atoms: list[int]) -> list[int]:
    """The atoms of a one-cycle block in order around it, from ``atoms[0]``."""
    inside = set(atoms)
    cycle = [atoms[0]]
    prev = -1
    while len(cycle) < len(atoms):
        cur = cycle[-1]
        cycle.append(next(j for j, _ in mol._adjacency[cur] if j != prev and j in inside))
        prev = cur
    return cycle


def _block_rings(mol: Molecule, atoms: list[int], bonds: list[Bond]) -> list[Ring]:
    """The SSSR rings of a ring block that holds more than one cycle.

    Each pass grows every root's breadth-first tree to depth ``cap``.
    The two ends of a bond lie at depths that differ by at most one, so
    the pass finds every candidate of up to 2 * cap + 1 atoms.  It hands
    the greedy only those longer than the previous pass could find, in
    (size, sequence) order; the cap doubles until the basis is full.
    """
    n = len(atoms)
    local = {atom: k for k, atom in enumerate(atoms)}
    bit = {id(bond): 1 << k for k, bond in enumerate(bonds)}
    neighbors = [[(local[j], bit[id(bond)]) for j, bond in mol._adjacency[a] if j in local] for a in atoms]
    cyclomatic = len(bonds) - n + 1
    depth = [-1] * n  # -1 outside the current root's tree
    parent = [0] * n
    branch = [0] * n
    path_mask = [0] * n
    basis: list[int] = []
    rings: list[Ring] = []
    found = 0  # every candidate of up to this many atoms went to the greedy
    cap = 3
    while True:
        candidates: dict[int, tuple[int, tuple[int, ...]]] = {}
        for root in range(n):
            depth[root] = 0
            branch[root] = root
            path_mask[root] = 0
            tree = [root]
            for cur in tree:
                level = depth[cur]
                if level == cap:
                    break
                for nxt, b in neighbors[cur]:
                    if depth[nxt] < 0:
                        depth[nxt] = level + 1
                        parent[nxt] = cur
                        branch[nxt] = nxt if cur == root else branch[cur]
                        path_mask[nxt] = path_mask[cur] | b
                        tree.append(nxt)
            # Each candidate is closed from its deeper end (the higher
            # index on a tie), which reaches beyond ``found`` atoms only
            # when twice its depth does.
            for x in tree:
                level = depth[x]
                if 2 * level < found:
                    continue
                for y, b in neighbors[x]:
                    other = depth[y]
                    if (
                        other < 0
                        or other > level
                        or (other == level and y < x)
                        or level + other < found
                        or branch[x] == branch[y]
                        or (path_mask[x] | path_mask[y]) & b
                    ):
                        continue
                    mask = path_mask[x] | path_mask[y] | b
                    if mask in candidates:
                        continue
                    cycle = [atoms[y]]
                    while y != root:
                        y = parent[y]
                        cycle.append(atoms[y])
                    cycle.reverse()
                    end = x
                    while end != root:
                        cycle.append(atoms[end])
                        end = parent[end]
                    candidates[mask] = (len(cycle), _canonical_cycle(cycle))
            for x in tree:
                depth[x] = -1
        for mask, (_, seq) in sorted(candidates.items(), key=lambda item: item[1]):
            for vec in basis:
                if mask & (vec & -vec):
                    mask ^= vec
            if mask:
                basis.append(mask)
                rings.append(Ring(atoms=seq))
                if len(basis) == cyclomatic:
                    return rings
        found = 2 * cap + 1
        cap *= 2


def perceive_rings(mol: Molecule) -> list[Ring]:
    """Perceive the smallest set of smallest rings (SSSR).

    Candidate cycles form the Horton set: each closes a bond onto the
    shortest-path tree of a root, where the bond's two tree paths meet
    only at the root.  Such a cycle lies inside one biconnected block, and
    so do the shortest paths between its atoms, so candidates come only
    from the roots and bonds of one ring block, over a breadth-first tree
    kept inside the block.  A block with as many bonds as atoms is one
    cycle, kept as it is.  In any other block, each tree atom carries the
    edge mask of its path and the root's child that the path leaves by; a
    bond between two different children's subtrees closes a cycle whose
    edge mask is the two path masks and the bond.  A greedy pass ordered
    by size then lexicographic atom sequence keeps each cycle that is
    linearly independent over GF(2) until the block's cyclomatic number
    is reached.  The trees grow only as deep as that needs: a pass to
    depth d finds every candidate of up to 2d + 1 atoms, so the cost is
    bounded by the longest ring kept, not by the block's size.

    Args:
        mol: Molecule to update in place.

    Returns:
        The perceived rings, also stored on ``mol.rings``.
    """
    rings: list[Ring] = []
    for atoms, bonds in _ring_blocks(mol):
        if len(bonds) == len(atoms):
            rings.append(Ring(atoms=_canonical_cycle(_walk_cycle(mol, atoms))))
        else:
            rings.extend(_block_rings(mol, atoms, bonds))
    rings.sort(key=lambda r: (r.size, r.atoms))
    mol.rings = rings
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
    valence = _charge_shifted(base_valence, atom)
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

    # For each ring, the later rings that share an atom with it, in index order.
    fused: list[list[int]] = []
    if len(rings) > 1:
        rings_of: dict[int, list[int]] = {}
        for rid, atom_set in enumerate(ring_sets):
            for a in atom_set:
                rings_of.setdefault(a, []).append(rid)
        fused = [sorted({j for a in atom_set for j in rings_of[a] if j > i}) for i, atom_set in enumerate(ring_sets)]

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
        for i, partners in enumerate(fused):
            for j in partners:
                if i in aromatic_ring_ids and j in aromatic_ring_ids:
                    continue
                union = ring_sets[i] | ring_sets[j]
                if len(union) > _MAX_FUSED_RING:
                    continue
                if ring_passes(union):
                    aromatic_ring_ids.update((i, j))
                    aromatic_atoms.update(union)
                    changed = True

    in_aromatic_ring: set[int] = set()
    for rid in aromatic_ring_ids:
        atoms = rings[rid].atoms
        for a, b in zip(atoms, atoms[1:] + atoms[:1]):
            in_aromatic_ring.add(mol._bond_index[(a, b) if a < b else (b, a)])
    for bi, bond in enumerate(mol.bonds):
        if bi in in_aromatic_ring:
            if bond.order is not BondOrder.TRIPLE:
                bond.order = BondOrder.AROMATIC
        elif bond.order is BondOrder.AROMATIC:
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
    return sum(numbers) / len(numbers)
