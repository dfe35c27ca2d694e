"""Independent reference implementations used to cross-check results.

Deliberately naive: correctness over speed, and no shared code paths
with the package internals they validate.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from functools import lru_cache

from molstruct.catalog import Catalog
from molstruct.elements import ATOMIC_WEIGHTS
from molstruct.graph import H_BRANCH, Chirality, Molecule


def ring_atoms_oracle(mol: Molecule) -> set[int]:
    """Atoms lying on at least one cycle, by exhaustive avoidance search.

    An atom a is in a cycle iff two distinct neighbors of a stay
    connected when a is removed.
    """
    in_ring: set[int] = set()
    for atom in mol.atoms:
        a = atom.index
        nbrs = mol.neighbors(a)
        found = False
        for i, u in enumerate(nbrs):
            if found:
                break
            for v in nbrs[i + 1 :]:
                stack = [u]
                seen = {a, u}
                while stack:
                    cur = stack.pop()
                    if cur == v:
                        found = True
                        break
                    for nxt in mol.neighbors(cur):
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                if found:
                    break
        if found:
            in_ring.add(a)
    return in_ring


def longest_chain_oracle(mol: Molecule) -> int:
    """Longest path, in atoms, through carbons that sit on no cycle.

    The non-ring carbon subgraph is necessarily a forest, so the longest
    path is the tree diameter, found by depth-first search from every
    vertex (slow and obviously correct).
    """
    ring = ring_atoms_oracle(mol)
    eligible = {
        atom.index
        for atom in mol.atoms
        if atom.element == "C" and atom.index not in ring
    }
    if not eligible:
        return 0

    def far(start: int) -> int:
        # iterative DFS; path lengths are exact because the graph is a forest
        order: list[tuple[int, int | None, int]] = [(start, None, 1)]
        best = 0
        while order:
            cur, par, depth = order.pop()
            best = max(best, depth)
            for nxt in mol.neighbors(cur):
                if nxt in eligible and nxt != par:
                    order.append((nxt, cur, depth + 1))
        return best

    return max(far(v) for v in eligible)


def cyclomatic_count(mol: Molecule) -> int:
    """Independent ring count: edges - vertices + connected components."""
    n = len(mol.atoms)
    m = len(mol.bonds)
    seen: set[int] = set()
    components = 0
    for atom in mol.atoms:
        if atom.index in seen:
            continue
        components += 1
        stack = [atom.index]
        seen.add(atom.index)
        while stack:
            cur = stack.pop()
            for nxt in mol.neighbors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return m - n + components


def _min_rotation(cycle: list[int]) -> tuple[int, ...]:
    """The smallest of the cycle's rotations and reflections."""
    n = len(cycle)
    spins = [cycle[k:] + cycle[:k] for k in range(n)]
    return min(tuple(seq) for spin in spins for seq in (spin, spin[:1] + spin[:0:-1]))


def sssr_oracle(mol: Molecule) -> list[tuple[int, ...]]:
    """SSSR atom tuples from the Horton set of every atom, in ring order.

    From every atom a breadth-first tree over the whole molecule; every
    bond whose two tree paths meet only at the root closes a candidate
    cycle.  Candidates are taken by size, then atom sequence (each
    written as its smallest rotation or reflection), while they are
    independent over GF(2), up to the cyclomatic number.
    """
    if cyclomatic_count(mol) == 0:
        return []
    bit_of = {frozenset((bond.a, bond.b)): 1 << k for k, bond in enumerate(mol.bonds)}
    candidates: dict[int, tuple[int, tuple[int, ...]]] = {}
    for root in range(len(mol.atoms)):
        parent = {root: root}
        queue = [root]
        for cur in queue:
            for nxt in mol.neighbors(cur):
                if nxt not in parent:
                    parent[nxt] = cur
                    queue.append(nxt)
        for bond in mol.bonds:
            x, y = bond.a, bond.b
            if x not in parent or y not in parent:
                continue
            paths = []
            for end in (x, y):
                path = [end]
                while path[-1] != root:
                    path.append(parent[path[-1]])
                paths.append(path)
            path_x, path_y = paths
            if set(path_x) & set(path_y) != {root}:
                continue
            cycle = path_x + path_y[-2::-1]
            if len(cycle) < 3:
                continue
            mask = 0
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                mask |= bit_of[frozenset((a, b))]
            candidates.setdefault(mask, (len(cycle), _min_rotation(cycle)))

    basis: dict[int, int] = {}  # pivot bit -> reduced vector holding it
    rings: list[tuple[int, ...]] = []
    for mask, (_, seq) in sorted(candidates.items(), key=lambda item: item[1]):
        for pivot, vec in basis.items():
            if mask & pivot:
                mask ^= vec
        if mask:
            basis[mask & -mask] = mask
            rings.append(seq)
    assert len(rings) == cyclomatic_count(mol)
    return sorted(rings, key=lambda seq: (len(seq), seq))


def groups_oracle(mol: Molecule, catalog: Catalog) -> list[tuple[str, int, frozenset[int]]]:
    """Surviving (name, precedence, atoms) of every pattern, unscreened.

    Every pattern tree is embedded from every atom by backtracking over its
    atoms in their compiled order, bonds taken in the molecule's order.  An
    atom set counts once per pattern, named by the alphabetically smallest
    halogen in its ``{X}`` slot.  A match is dropped when any match of a
    strictly stronger pattern holds all of its atoms.
    """
    raw: list[tuple[str, int, frozenset[int]]] = []
    for pattern in catalog.groups:
        found: dict[frozenset[int], str] = {}

        def extend(assign: list[int]) -> None:
            k = len(assign)
            if k == len(pattern.atoms):
                slot = pattern.halogen_slot
                symbol = "" if slot is None else mol.atoms[assign[slot]].element
                found[frozenset(assign)] = min(symbol, found.get(frozenset(assign), symbol))
                return
            edge = pattern.edges[k - 1]
            here = assign[edge.parent]
            for j in mol.neighbors(here):
                bond = mol.bond_between(here, j)
                if j not in assign and bond.order in edge.orders and pattern.atoms[k].matches(mol, j):
                    extend(assign + [j])

        for i in range(len(mol.atoms)):
            if pattern.atoms[0].matches(mol, i):
                extend([i])
        raw.extend((pattern.name.replace("{X}", symbol), pattern.precedence, atoms) for atoms, symbol in found.items())
    raw.sort(key=lambda match: match[1])
    return [
        match for match in raw
        if not any(match[2] <= other[2] for other in raw if other[1] < match[1])
    ]


def weight_oracle(mol: Molecule) -> float:
    """Molecular weight summed atom by atom: the standard weight, or the
    mass number of a written isotope other than 0, plus the atom's hydrogens."""
    total = Decimal(0)
    for atom in mol.atoms:
        total += Decimal(atom.isotope) if atom.isotope else Decimal(str(ATOMIC_WEIGHTS[atom.element]))
        total += Decimal(str(ATOMIC_WEIGHTS["H"])) * atom.total_h
    return float(total.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def levenshtein_oracle(a: str, b: str) -> int:
    """Textbook recursive edit distance with memoization."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def formula_oracle(mol: Molecule) -> str:
    """Hill-order formula by direct counting."""
    counts: dict[str, int] = {}
    hydrogens = 0
    for atom in mol.atoms:
        if atom.element == "H":
            hydrogens += 1
        else:
            counts[atom.element] = counts.get(atom.element, 0) + 1
        hydrogens += atom.total_h
    parts = []
    if "C" in counts:
        parts.append(("C", counts.pop("C")))
        if hydrogens:
            parts.append(("H", hydrogens))
            hydrogens = 0
    if hydrogens:
        counts["H"] = counts.get("H", 0) + hydrogens
    parts.extend(sorted(counts.items()))
    return "".join(f"{sym}{n if n > 1 else ''}" for sym, n in parts)


def _order_parity(seq: list[int], target: list[int]) -> int:
    """Parity of the inversions of ``seq`` read as positions in ``target``.

    Equal entries (bracket hydrogens) are matched left to right.
    """
    slots: dict[int, list[int]] = {}
    for pos, item in enumerate(target):
        slots.setdefault(item, []).append(pos)
    positions = [slots[item].pop(0) for item in seq]
    inversions = sum(
        1
        for i in range(len(positions))
        for j in range(i + 1, len(positions))
        if positions[i] > positions[j]
    )
    return inversions % 2


def isomorphic_oracle(a: Molecule, b: Molecule) -> bool:
    """True when an atom bijection carries ``a`` onto ``b``.

    Atoms must agree on element, charge, isotope, total hydrogens,
    aromatic flag and whether they carry a chirality tag; bonds must agree
    on order.  For each tagged atom, its recorded neighbor order mapped
    into ``b`` must be an even permutation of the partner's recorded order
    when the tags are equal and an odd one when they differ.  Plain
    backtracking over the atoms of ``a`` in breadth-first order, each atom
    after the first of its component tried only against the unused
    neighbors of an already mapped neighbor's image.
    """
    n = len(a.atoms)
    if n != len(b.atoms) or len(a.bonds) != len(b.bonds):
        return False

    def bond_orders(mol: Molecule) -> list[dict[int, object]]:
        table: list[dict[int, object]] = [{} for _ in mol.atoms]
        for bond in mol.bonds:
            table[bond.a][bond.b] = bond.order
            table[bond.b][bond.a] = bond.order
        return table

    def labels(mol: Molecule, table: list[dict[int, object]]) -> list[tuple]:
        return [
            (
                atom.element,
                atom.charge,
                -1 if atom.isotope is None else atom.isotope,
                atom.total_h,
                atom.is_aromatic,
                atom.chirality is Chirality.NONE,
                len(table[atom.index]),
            )
            for atom in mol.atoms
        ]

    adj_a, adj_b = bond_orders(a), bond_orders(b)
    label_a, label_b = labels(a, adj_a), labels(b, adj_b)
    if sorted(label_a) != sorted(label_b):
        return False

    visit: list[int] = []
    anchor: dict[int, int | None] = {}
    for root in range(n):
        if root in anchor:
            continue
        anchor[root] = None
        queue = [root]
        while queue:
            cur = queue.pop(0)
            visit.append(cur)
            for nxt in sorted(adj_a[cur]):
                if nxt not in anchor:
                    anchor[nxt] = cur
                    queue.append(nxt)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def stereo_agrees(x: int) -> bool:
        atom = a.atoms[x]
        if atom.chirality is Chirality.NONE or x not in mapping:
            return True
        if any(z not in mapping for z in adj_a[x]):
            return True  # checked again once every neighbor is mapped
        partner = b.atoms[mapping[x]]
        mapped = [H_BRANCH if z == H_BRANCH else mapping[z] for z in atom.stereo_order]
        if sorted(mapped) != sorted(partner.stereo_order):
            return False
        flipped = atom.chirality is not partner.chirality
        return _order_parity(mapped, list(partner.stereo_order)) == int(flipped)

    def extend(k: int) -> bool:
        if k == n:
            return True
        x = visit[k]
        if anchor[x] is None:
            candidates = list(range(n))
        else:
            candidates = sorted(adj_b[mapping[anchor[x]]])
        mapped_nbrs = [z for z in adj_a[x] if z in mapping]
        for y in candidates:
            if y in used or label_a[x] != label_b[y]:
                continue
            if any(adj_b[y].get(mapping[z]) != adj_a[x][z] for z in mapped_nbrs):
                continue
            if sum(1 for w in adj_b[y] if w in used) != len(mapped_nbrs):
                continue
            mapping[x] = y
            used.add(y)
            if all(stereo_agrees(z) for z in [x, *adj_a[x]]) and extend(k + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return extend(0)


def automorphism_oracle(mol: Molecule, moved: dict[int, int]) -> bool:
    """True when ``moved``, the identity elsewhere, maps ``mol`` onto itself.

    The map must permute the atoms it moves, and keep each atom's element,
    charge, isotope, total hydrogens and aromatic flag and each bond's
    order.
    """
    if sorted(moved) != sorted(moved.values()):
        return False

    def label(i: int) -> tuple:
        atom = mol.atoms[i]
        return (atom.element, atom.charge, atom.isotope, atom.total_h, atom.is_aromatic)

    bonds = {frozenset((bond.a, bond.b)): bond.order for bond in mol.bonds}
    image = {
        frozenset(moved.get(i, i) for i in pair): order for pair, order in bonds.items()
    }
    return image == bonds and all(label(i) == label(j) for i, j in moved.items())


def _dense_ranks(keys: list) -> list[int]:
    ordered = sorted(set(keys))
    rank_of = {key: rank for rank, key in enumerate(ordered)}
    return [rank_of[key] for key in keys]


def refine_oracle(adjacency: list[list[tuple[int, int]]], keys: list) -> list[int]:
    """Dense ranks of the stable ordered partition that refining ``keys`` reaches.

    Full synchronous rounds: every atom of a tied class is re-keyed by its
    rank and the sorted ``(bond order, neighbor rank)`` pairs of its
    neighbors, until a round splits no class.  ``adjacency`` lists each
    atom's ``(bond order, neighbor)`` pairs.
    """
    ranks = _dense_ranks(keys)
    n = len(ranks)
    n_classes = len(set(ranks))
    while n_classes < n:
        sizes = [0] * n
        for rank in ranks:
            sizes[rank] += 1
        new_ranks = _dense_ranks([
            (rank,)
            if sizes[rank] == 1
            else (rank, tuple(sorted([(order, ranks[j]) for order, j in adjacency[i]])))
            for i, rank in enumerate(ranks)
        ])
        new_classes = len(set(new_ranks))
        if new_classes == n_classes:
            return new_ranks
        ranks = new_ranks
        n_classes = new_classes
    return ranks
