"""Functional-group and named-ring catalogs.

Functional groups are found by matching small acyclic patterns written in a
compact bracket notation, then dropping matches whose atoms are wholly
contained in a stronger match (precedence suppression): a carboxylic acid
claims its hydroxyl, an ester claims its ether oxygen, an amide claims its
amine nitrogen, a phenol claims its hydroxyl.  Each pattern is matched from
its rarest atom, tried only on molecule atoms of a fitting element.  A
pattern is skipped when the molecule lacks an element one of its atoms
needs, or has no bond of an order one of its bonds accepts; both needs
are compiled once per pattern.

Rings are named by exact shape: the cyclic sequence of element symbols and
bond orders, rotation- and reflection-invariant, plus the aromatic flag.
Charges, hydrogen counts, and substituents are ignored, so pyridinium
matches the pyridine entry.  A ring whose bond pattern matches no entry
gets a generic label like "aromatic 5-membered ring (heteroatoms: N,N)";
a ring of a size no entry has gets it without its shape being computed.

Both catalogs load from a plain-text config, one entry per line:

    group | <name> | <pattern> | <precedence>
    ring  | <name> | <smiles>

Lower precedence numbers are stronger.  A functional-group name may contain
``{X}`` which is replaced by the matched halogen's element symbol.

Pattern notation: bare atoms are aliphatic element symbols (``C``, ``Cl``)
or aromatic lowercase (``c``, ``n``); ``*`` is any atom.  Bracket atoms
hold ``;``-joined constraint terms, each a ``,``-joined list of
alternatives: an element symbol, ``#<n>`` atomic number, ``a``/``A``
aromatic/aliphatic, ``H<n>`` total hydrogens, ``D<n>`` heavy degree,
``+<n>``/``-<n>`` charge, ``X`` any halogen, ``*`` anything.  Bonds are
``-`` ``=`` ``#`` ``:`` ``~`` (any), with "single or aromatic" as the
default; branches use parentheses.  Patterns are trees: no ring closures.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable

from .elements import SYMBOL_TO_NUMBER
from .errors import CatalogError
from .graph import BondOrder, Molecule, Ring
from .smiles import ParseDiagnostic, parse

HALOGENS = frozenset({"F", "Cl", "Br", "I"})

_GENERIC_RING = "{size}-membered ring"

DEFAULT_CATALOG_TEXT = """\
# Functional groups: group | name | pattern | precedence (lower = stronger).
group | carboxylic acid | [C;A](=O)[O;H1;D1]       | 1
group | sulfonic acid   | [S;A](=O)(=O)[O;H1;D1]   | 2
group | phosphate       | [P;A](=O)([O;A])([O;A])[O;A] | 3
group | ester           | [C;A](=O)[O;H0;D2][#6]   | 4
group | amide           | [C;A](=O)[N;+0]          | 5
group | nitro           | [N;+1](=O)[O;-1]         | 6
group | aldehyde        | [C;A;H1,H2]=O            | 7
group | ketone          | [#6][C;A;H0](=O)[#6]     | 8
group | nitrile         | [C;A]#[N;A]              | 9
group | phenol          | [O;H1;D1]c               | 10
group | hydroxyl        | [O;H1;D1]                | 11
group | thiol           | [S;H1;D1]                | 12
group | primary amine   | [N;A;H2;D1;+0]           | 13
group | secondary amine | [N;A;H1;D2;+0]           | 14
group | tertiary amine  | [N;A;H0;D3;+0]           | 15
group | ether           | [#6][O;H0;D2][#6]        | 16
group | sulfide         | [#6][S;A;H0;D2][#6]      | 17
group | halide ({X})    | [X;D1][#6]               | 18
group | alkene          | [C;A]=[C;A]              | 19
group | alkyne          | [C;A]#[C;A]              | 20

# Named rings: ring | name | defining smiles.
ring | benzene         | c1ccccc1
ring | pyridine        | c1ccncc1
ring | pyrimidine      | c1cncnc1
ring | pyrrole         | c1cc[nH]c1
ring | furan           | c1ccoc1
ring | thiophene       | c1ccsc1
ring | imidazole       | c1cnc[nH]1
ring | pyrazole        | c1cc[nH]n1
ring | piperidine      | C1CCNCC1
ring | pyrrolidine     | C1CCNC1
ring | morpholine      | C1COCCN1
ring | tetrahydrofuran | C1CCOC1
ring | cyclopropane    | C1CC1
ring | cyclobutane     | C1CCC1
ring | cyclopentane    | C1CCCC1
ring | cyclohexane     | C1CCCCC1
ring | cycloheptane    | C1CCCCCC1
ring | cyclooctane     | C1CCCCCCC1
"""


# ---------------------------------------------------------------------------
# Pattern compilation

_ALT_RE = re.compile(
    r"(?P<elem>[A-Z][a-z]?)$|(?P<arom>[bcnops])$|#(?P<num>\d+)$"
    r"|H(?P<hcount>\d+)$|D(?P<degree>\d+)$|(?P<charge>[+-]\d+)$|(?P<any>\*)$"
)

_BARE_TWO = ("Cl", "Br")
_BARE_ONE = frozenset("BCNOPSFI")
_BARE_AROMATIC = frozenset("bcnops")
# Bond orders each pattern bond symbol accepts; None is the unwritten default.
_BOND_ORDERS: dict[str | None, frozenset[BondOrder]] = {
    None: frozenset({BondOrder.SINGLE, BondOrder.AROMATIC}),
    "-": frozenset({BondOrder.SINGLE}),
    "=": frozenset({BondOrder.DOUBLE}),
    "#": frozenset({BondOrder.TRIPLE}),
    ":": frozenset({BondOrder.AROMATIC}),
    "~": frozenset(BondOrder),
}

# An atom test: does atom idx of the molecule satisfy one alternative?
_AtomTest = Callable[[Molecule, int], bool]
# The (element, aromatic) pairs an atom test can accept; None when it can
# accept any element.
_Keys = frozenset[tuple[str, bool]] | None

_NUMBER_TO_SYMBOL = {number: symbol for symbol, number in SYMBOL_TO_NUMBER.items()}
_HALOGEN_KEYS = frozenset((symbol, False) for symbol in HALOGENS)


def _element(symbol: str, aromatic: bool) -> tuple[_AtomTest, _Keys]:
    def test(mol: Molecule, idx: int) -> bool:
        atom = mol.atoms[idx]
        return atom.element == symbol and atom.is_aromatic == aromatic

    return test, frozenset({(symbol, aromatic)})


def _any_atom(mol: Molecule, idx: int) -> bool:
    return True


@dataclass(frozen=True, slots=True)
class _PatternAtom:
    terms: tuple[tuple[_AtomTest, ...], ...]
    keys: _Keys  # a matching atom's (element, aromatic) is one of these
    is_halogen_slot: bool = False

    def matches(self, mol: Molecule, idx: int) -> bool:
        # Plain loops: nested all/any generators cost more than the tests.
        for term in self.terms:
            for test in term:
                if test(mol, idx):
                    break
            else:
                return False
        return True


@dataclass(frozen=True, slots=True)
class _PatternEdge:
    parent: int
    child: int
    orders: frozenset[BondOrder]  # bond orders the edge accepts


@dataclass(frozen=True, slots=True)
class GroupPattern:
    """A compiled functional-group pattern, rooted on its rarest atom.

    ``atoms`` are in search order: ``atoms[0]`` is the root, and
    ``edges[k-1]`` joins atom k to its parent, an earlier atom.
    ``halogen_slot`` is the atom whose element fills ``{X}`` in the name.
    ``atom_keys`` holds the distinct key sets of the keyed atoms and
    ``edge_orders`` the distinct bond-order sets of the edges: a molecule
    with no atom of some key set, or no bond of some order set, has no
    match.
    """

    name: str
    precedence: int
    atoms: tuple[_PatternAtom, ...]
    edges: tuple[_PatternEdge, ...]
    halogen_slot: int | None
    atom_keys: tuple[frozenset[tuple[str, bool]], ...]
    edge_orders: tuple[frozenset[BondOrder], ...]


def _parse_alt(text: str) -> tuple[_AtomTest, _Keys]:
    """The atom test of one alternative inside a constraint term, and its keys."""
    if text == "a":
        return (lambda mol, idx: mol.atoms[idx].is_aromatic), None
    if text == "A":
        return (lambda mol, idx: not mol.atoms[idx].is_aromatic), None
    if text == "X":
        return (
            lambda mol, idx: mol.atoms[idx].element in HALOGENS
            and not mol.atoms[idx].is_aromatic
        ), _HALOGEN_KEYS
    match = _ALT_RE.match(text)
    if match is None:
        raise CatalogError(f"bad constraint alternative {text!r}")
    if match.group("elem"):
        symbol = match.group("elem")
        if symbol not in SYMBOL_TO_NUMBER:
            raise CatalogError(f"unknown element {symbol!r} in pattern")
        return _element(symbol, False)
    if match.group("arom"):
        return _element(match.group("arom").capitalize(), True)
    if match.group("num"):
        number = int(match.group("num"))
        symbol = _NUMBER_TO_SYMBOL.get(number)
        keys = frozenset() if symbol is None else frozenset({(symbol, False), (symbol, True)})
        return (lambda mol, idx: mol.atoms[idx].atomic_number == number), keys
    if match.group("hcount"):
        hcount = int(match.group("hcount"))
        return (lambda mol, idx: mol.atoms[idx].total_h == hcount), None
    if match.group("degree"):
        degree = int(match.group("degree"))
        return (lambda mol, idx: mol.heavy_degree(idx) == degree), None
    if match.group("charge"):
        charge = int(match.group("charge"))
        return (lambda mol, idx: mol.atoms[idx].charge == charge), None
    return _any_atom, None


def _parse_bracket_atom(body: str) -> _PatternAtom:
    """Terms AND together and alternatives OR, and so do their keys; a term
    with a key-less alternative constrains no element."""
    terms: list[tuple[_AtomTest, ...]] = []
    keys: _Keys = None
    is_halogen_slot = False
    for term in body.split(";"):
        alts = [alt.strip() for alt in term.split(",")]
        is_halogen_slot = is_halogen_slot or "X" in alts
        parsed = [_parse_alt(alt) for alt in alts]
        terms.append(tuple(test for test, _ in parsed))
        if all(alt_keys is not None for _, alt_keys in parsed):
            term_keys = frozenset().union(*(alt_keys for _, alt_keys in parsed))
            keys = term_keys if keys is None else keys & term_keys
    return _PatternAtom(terms=tuple(terms), keys=keys, is_halogen_slot=is_halogen_slot)


def _bare_atom(symbol: str, aromatic: bool) -> _PatternAtom:
    test, keys = _element(symbol, aromatic)
    return _PatternAtom(terms=((test,),), keys=keys)


def _root_rank(atom: _PatternAtom) -> tuple[bool, bool, int]:
    """Sort key of a candidate root: the rarest atoms sort first.

    A keyed atom that cannot be carbon beats one that can, which beats one
    with no keys; then fewer keys win.
    """
    if atom.keys is None:
        return (True, True, 0)
    return (False, any(symbol == "C" for symbol, _ in atom.keys), len(atom.keys))


def _reroot(
    atoms: list[_PatternAtom], edges: list[_PatternEdge]
) -> tuple[list[int], list[_PatternEdge]]:
    """Breadth-first search order from the rarest atom (the lowest index of
    the rarest) and the parent edge of each atom after the root, numbered
    in that order."""
    root = min(range(len(atoms)), key=lambda k: (_root_rank(atoms[k]), k))
    neighbours: list[list[tuple[int, frozenset[BondOrder]]]] = [[] for _ in atoms]
    for edge in edges:
        neighbours[edge.parent].append((edge.child, edge.orders))
        neighbours[edge.child].append((edge.parent, edge.orders))
    order = [root]
    position = {root: 0}
    parent_edges: list[_PatternEdge] = []
    for old in order:
        for other, orders in neighbours[old]:
            if other not in position:
                position[other] = len(order)
                parent_edges.append(
                    _PatternEdge(parent=position[old], child=len(order), orders=orders)
                )
                order.append(other)
    return order, parent_edges


def compile_pattern(name: str, text: str, precedence: int) -> GroupPattern:
    """Compile pattern text into a matchable tree.

    Raises:
        CatalogError: Malformed pattern text.
    """
    atoms: list[_PatternAtom] = []
    edges: list[_PatternEdge] = []
    halogen_slot: int | None = None
    prev: int | None = None
    pending: str | None = None
    stack: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            end = text.find("]", i)
            if end == -1:
                raise CatalogError(f"unterminated bracket in pattern {text!r}")
            atom = _parse_bracket_atom(text[i + 1 : end])
            i = end + 1
        elif text.startswith(_BARE_TWO, i):
            atom = _bare_atom(text[i : i + 2], False)
            i += 2
        elif ch in _BARE_ONE:
            atom = _bare_atom(ch, False)
            i += 1
        elif ch in _BARE_AROMATIC:
            atom = _bare_atom(ch.capitalize(), True)
            i += 1
        elif ch == "*":
            atom = _PatternAtom(terms=((_any_atom,),), keys=None)
            i += 1
        elif ch in _BOND_ORDERS:
            if pending is not None or prev is None:
                raise CatalogError(f"misplaced bond symbol in pattern {text!r}")
            pending = ch
            i += 1
            continue
        elif ch == "(":
            if prev is None:
                raise CatalogError(f"branch before any atom in pattern {text!r}")
            stack.append(prev)
            i += 1
            continue
        elif ch == ")":
            if not stack:
                raise CatalogError(f"unbalanced ')' in pattern {text!r}")
            prev = stack.pop()
            i += 1
            continue
        else:
            raise CatalogError(f"unexpected character {ch!r} in pattern {text!r}")

        idx = len(atoms)
        if atom.is_halogen_slot and halogen_slot is None:
            halogen_slot = idx
        atoms.append(atom)
        if prev is not None:
            edges.append(_PatternEdge(parent=prev, child=idx, orders=_BOND_ORDERS[pending]))
        pending = None
        prev = idx

    if stack:
        raise CatalogError(f"unbalanced '(' in pattern {text!r}")
    if pending is not None:
        raise CatalogError(f"dangling bond in pattern {text!r}")
    if not atoms:
        raise CatalogError("empty pattern")
    if "{X}" not in name:
        halogen_slot = None
    elif halogen_slot is None:
        raise CatalogError(f"name {name!r} wants an element note but pattern has no X slot")
    order, parent_edges = _reroot(atoms, edges)
    return GroupPattern(
        name=name,
        precedence=precedence,
        atoms=tuple(atoms[old] for old in order),
        edges=tuple(parent_edges),
        halogen_slot=None if halogen_slot is None else order.index(halogen_slot),
        atom_keys=tuple(dict.fromkeys(atom.keys for atom in atoms if atom.keys is not None)),
        edge_orders=tuple(dict.fromkeys(edge.orders for edge in edges)),
    )


# ---------------------------------------------------------------------------
# Matching


@dataclass(frozen=True, slots=True)
class GroupMatch:
    """One surviving functional-group occurrence."""

    name: str
    precedence: int
    atoms: frozenset[int]


def _embeddings(
    mol: Molecule, pattern: GroupPattern, roots: Iterable[int]
) -> list[tuple[int, ...]]:
    """All injective embeddings of the pattern tree whose root is in ``roots``."""
    nodes = pattern.atoms
    edges = pattern.edges
    size = len(nodes)
    results: list[tuple[int, ...]] = []
    assign: list[int] = [-1] * size
    used: set[int] = set()

    def backtrack(k: int) -> None:
        if k == size:
            results.append(tuple(assign))
            return
        edge = edges[k - 1]
        node = nodes[k]
        for j, bond in mol.bonds_of(assign[edge.parent]):
            if j in used or bond.order not in edge.orders:
                continue
            if not node.matches(mol, j):
                continue
            assign[k] = j
            used.add(j)
            backtrack(k + 1)
            used.discard(j)
            assign[k] = -1

    root = nodes[0]
    for i in roots:
        if not root.matches(mol, i):
            continue
        assign[0] = i
        used.add(i)
        backtrack(1)
        used.discard(i)
        assign[0] = -1
    return results


# ---------------------------------------------------------------------------
# Ring keys


def ring_key(mol: Molecule, ring: Ring) -> tuple:
    """Rotation/reflection-invariant shape key for a perceived ring."""
    atoms = ring.atoms
    n = ring.size
    symbols = [mol.atoms[a].element for a in atoms]
    orders = []
    for k in range(n):
        bond = mol.bond_between(atoms[k], atoms[(k + 1) % n])
        assert bond is not None
        orders.append(int(bond.order))
    best: tuple | None = None
    for seq, bnd in ((symbols, orders), (list(reversed(symbols)), list(reversed(orders)))):
        # After reversal, bond i sits between seq[i-1] and seq[i]; rotate it
        # by one so bnd[i] again follows seq[i].
        if seq is not symbols:
            bnd = bnd[1:] + bnd[:1]
        for shift in range(n):
            cand = tuple(
                (seq[(shift + k) % n], bnd[(shift + k) % n]) for k in range(n)
            )
            if best is None or cand < best:
                best = cand
    assert best is not None
    return (best, ring.aromatic)


def generic_ring_name(mol: Molecule, ring: Ring) -> str:
    """Fallback label: size, aromaticity, and heteroatom multiset."""
    hets = sorted(mol.atoms[a].element for a in ring.atoms if mol.atoms[a].element != "C")
    name = _GENERIC_RING.format(size=ring.size)
    if ring.aromatic:
        name = "aromatic " + name
    if hets:
        name += f" (heteroatoms: {','.join(hets)})"
    return name


# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True, slots=True)
class Catalog:
    """Compiled functional-group patterns plus the named-ring shape table.

    ``ring_sizes`` holds the sizes of the named rings; a ring of any other
    size gets its generic name without computing its shape key.
    """

    groups: tuple[GroupPattern, ...] = ()
    rings: dict[tuple, str] = field(default_factory=dict)
    ring_sizes: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        # A ring key's first item holds one (element, bond order) pair per atom.
        object.__setattr__(self, "ring_sizes", frozenset(len(key[0]) for key in self.rings))

    @staticmethod
    def from_text(text: str) -> Catalog:
        """Compile a catalog from config text.

        Raises:
            CatalogError: Malformed line, pattern, or ring SMILES.
        """
        groups: list[GroupPattern] = []
        rings: dict[tuple, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            # Full-line comments only: '#' inside an entry is pattern syntax.
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            kind = parts[0]
            if kind == "group":
                if len(parts) != 4:
                    raise CatalogError(f"line {lineno}: group needs name|pattern|precedence")
                name, pattern_text, prec_text = parts[1], parts[2], parts[3]
                try:
                    precedence = int(prec_text)
                except ValueError as exc:
                    raise CatalogError(f"line {lineno}: bad precedence {prec_text!r}") from exc
                groups.append(compile_pattern(name, pattern_text, precedence))
            elif kind == "ring":
                if len(parts) != 3:
                    raise CatalogError(f"line {lineno}: ring needs name|smiles")
                name, smiles = parts[1], parts[2]
                mol = parse(smiles)
                if isinstance(mol, ParseDiagnostic):
                    raise CatalogError(
                        f"line {lineno}: ring smiles {smiles!r} rejected: {mol.message}"
                    )
                if mol.rings is None or len(mol.rings) != 1:
                    raise CatalogError(f"line {lineno}: ring smiles must contain exactly one ring")
                rings[ring_key(mol, mol.rings[0])] = name
            else:
                raise CatalogError(f"line {lineno}: unknown entry kind {kind!r}")
        return Catalog(groups=tuple(groups), rings=rings)

    @staticmethod
    def from_path(path: str | Path) -> Catalog:
        """Load a catalog file; it replaces the defaults entirely."""
        return Catalog.from_text(Path(path).read_text(encoding="utf-8"))

    @staticmethod
    def default() -> Catalog:
        return _default_catalog()


@lru_cache(maxsize=1)
def _default_catalog() -> Catalog:
    return Catalog.from_text(DEFAULT_CATALOG_TEXT)


def _lacks(needs: tuple[frozenset, ...], present: Iterable) -> bool:
    """True when some set in ``needs`` shares nothing with ``present``."""
    for need in needs:
        if need.isdisjoint(present):
            return True
    return False


def find_groups(mol: Molecule, catalog: Catalog | None = None) -> list[GroupMatch]:
    """Functional-group matches that survive precedence suppression.

    A match is suppressed when its atom set is a subset of a strictly
    stronger (numerically lower precedence) match's atom set.  Matches of
    one pattern on the same atom set are counted once.  Survivors come in
    precedence order.  A pattern is skipped unmatched when one of its
    keyed atoms finds no atom of a fitting element and aromaticity in the
    molecule, or one of its edges no bond of an order it accepts.
    """
    catalog = catalog or Catalog.default()
    index: dict[tuple[str, bool], list[int]] = {}
    for i, atom in enumerate(mol.atoms):
        index.setdefault((atom.element, atom.is_aromatic), []).append(i)
    orders = {bond.order for bond in mol.bonds}
    everything = range(len(mol.atoms))
    raw: list[GroupMatch] = []
    for pattern in catalog.groups:
        if _lacks(pattern.atom_keys, index) or _lacks(pattern.edge_orders, orders):
            continue
        root_keys = pattern.atoms[0].keys
        roots = everything if root_keys is None else sorted(
            i for key in root_keys for i in index.get(key, ())
        )
        # Each atom set counts once, named by the alphabetically smallest
        # halogen that fills the {X} slot in any of its embeddings.
        slot = pattern.halogen_slot
        halogens: dict[frozenset[int], str] = {}
        for assign in _embeddings(mol, pattern, roots):
            atom_set = frozenset(assign)
            symbol = "" if slot is None else mol.atoms[assign[slot]].element
            halogens[atom_set] = min(symbol, halogens.get(atom_set, symbol))
        raw.extend(
            GroupMatch(pattern.name.replace("{X}", symbol), pattern.precedence, atom_set)
            for atom_set, symbol in halogens.items()
        )

    # A match with a stronger superset also has a surviving one (the
    # strongest superset survives), so only survivors need comparing.
    survivors: list[GroupMatch] = []
    stronger = 0  # survivors[:stronger] outrank the current match
    for match in sorted(raw, key=attrgetter("precedence")):
        if survivors and survivors[-1].precedence < match.precedence:
            stronger = len(survivors)
        if not any(match.atoms <= other.atoms for other in islice(survivors, stronger)):
            survivors.append(match)
    return survivors


def functional_group_names(mol: Molecule, catalog: Catalog | None = None) -> Counter[str]:
    """Multiset of surviving functional-group names."""
    return Counter(match.name for match in find_groups(mol, catalog))


def ring_compound_names(mol: Molecule, catalog: Catalog | None = None) -> Counter[str]:
    """Multiset of ring names, one per SSSR ring.

    Only a ring of a size the catalog names has its shape key computed;
    every other ring gets its generic name directly.
    """
    catalog = catalog or Catalog.default()
    assert mol.rings is not None, "rings must be perceived first"
    names: Counter[str] = Counter()
    for ring in mol.rings:
        name = catalog.rings.get(ring_key(mol, ring)) if ring.size in catalog.ring_sizes else None
        names[generic_ring_name(mol, ring) if name is None else name] += 1
    return names
