"""Functional-group and named-ring catalogs.

Functional groups are found by matching small acyclic patterns written in a
compact bracket notation, then dropping matches whose atoms are wholly
contained in a stronger match (precedence suppression): a carboxylic acid
claims its hydroxyl, an ester claims its ether oxygen, an amide claims its
amine nitrogen, a phenol claims its hydroxyl.

Rings are named by exact shape: the cyclic sequence of element symbols and
bond orders, rotation- and reflection-invariant, plus the aromatic flag.
Charges, hydrogen counts, and substituents are ignored, so pyridinium
matches the pyridine entry.  A ring whose bond pattern matches no entry
gets a generic label like "aromatic 5-membered ring (heteroatoms: N,N)".

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
from pathlib import Path
from typing import Callable

from .elements import SYMBOL_TO_NUMBER
from .errors import CatalogError
from .graph import BondOrder, Molecule, Ring

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


def _element(symbol: str, aromatic: bool) -> _AtomTest:
    def test(mol: Molecule, idx: int) -> bool:
        atom = mol.atoms[idx]
        return atom.element == symbol and atom.is_aromatic == aromatic

    return test


def _any_atom(mol: Molecule, idx: int) -> bool:
    return True


@dataclass(frozen=True, slots=True)
class _PatternAtom:
    terms: tuple[tuple[_AtomTest, ...], ...]
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
    """A compiled functional-group pattern."""

    name: str
    precedence: int
    atoms: tuple[_PatternAtom, ...]
    edges: tuple[_PatternEdge, ...]  # edges[k-1] joins atom k to its parent

    @property
    def needs_element_note(self) -> bool:
        return "{X}" in self.name


def _parse_alt(text: str) -> _AtomTest:
    """The atom test of one alternative inside a constraint term."""
    if text == "a":
        return lambda mol, idx: mol.atoms[idx].is_aromatic
    if text == "A":
        return lambda mol, idx: not mol.atoms[idx].is_aromatic
    if text == "X":
        return lambda mol, idx: (
            mol.atoms[idx].element in HALOGENS and not mol.atoms[idx].is_aromatic
        )
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
        return lambda mol, idx: mol.atoms[idx].atomic_number == number
    if match.group("hcount"):
        hcount = int(match.group("hcount"))
        return lambda mol, idx: mol.atoms[idx].total_h == hcount
    if match.group("degree"):
        degree = int(match.group("degree"))
        return lambda mol, idx: mol.heavy_degree(idx) == degree
    if match.group("charge"):
        charge = int(match.group("charge"))
        return lambda mol, idx: mol.atoms[idx].charge == charge
    return _any_atom


def _parse_bracket_atom(body: str) -> _PatternAtom:
    terms = [[alt.strip() for alt in term.split(",")] for term in body.split(";")]
    return _PatternAtom(
        terms=tuple(tuple(_parse_alt(alt) for alt in term) for term in terms),
        is_halogen_slot=any("X" in term for term in terms),
    )


def compile_pattern(name: str, text: str, precedence: int) -> GroupPattern:
    """Compile pattern text into a matchable tree.

    Raises:
        CatalogError: Malformed pattern text.
    """
    atoms: list[_PatternAtom] = []
    edges: list[_PatternEdge] = []
    halogen_slots = 0
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
            atom = _PatternAtom(terms=((_element(text[i : i + 2], False),),))
            i += 2
        elif ch in _BARE_ONE:
            atom = _PatternAtom(terms=((_element(ch, False),),))
            i += 1
        elif ch in _BARE_AROMATIC:
            atom = _PatternAtom(terms=((_element(ch.capitalize(), True),),))
            i += 1
        elif ch == "*":
            atom = _PatternAtom(terms=((_any_atom,),))
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
        if atom.is_halogen_slot:
            halogen_slots += 1
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
    if "{X}" in name and halogen_slots == 0:
        raise CatalogError(f"name {name!r} wants an element note but pattern has no X slot")
    return GroupPattern(name=name, precedence=precedence, atoms=tuple(atoms), edges=tuple(edges))


# ---------------------------------------------------------------------------
# Matching


@dataclass(frozen=True, slots=True)
class GroupMatch:
    """One surviving functional-group occurrence."""

    name: str
    precedence: int
    atoms: frozenset[int]


def _embeddings(mol: Molecule, pattern: GroupPattern) -> list[tuple[int, ...]]:
    """All injective embeddings of the pattern tree into the molecule."""
    nodes = pattern.atoms
    parent_edge: dict[int, _PatternEdge] = {e.child: e for e in pattern.edges}
    results: list[tuple[int, ...]] = []
    assign: list[int] = [-1] * len(nodes)
    used: set[int] = set()

    def backtrack(k: int) -> None:
        if k == len(nodes):
            results.append(tuple(assign))
            return
        edge = parent_edge[k]
        for j, bond in mol.bonds_of(assign[edge.parent]):
            if j in used or bond.order not in edge.orders:
                continue
            if not nodes[k].matches(mol, j):
                continue
            assign[k] = j
            used.add(j)
            backtrack(k + 1)
            used.discard(j)
            assign[k] = -1

    for i in range(len(mol.atoms)):
        if not nodes[0].matches(mol, i):
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
    """Compiled functional-group patterns plus the named-ring shape table."""

    groups: tuple[GroupPattern, ...] = ()
    rings: dict[tuple, str] = field(default_factory=dict)

    @staticmethod
    def from_text(text: str) -> Catalog:
        """Compile a catalog from config text.

        Raises:
            CatalogError: Malformed line, pattern, or ring SMILES.
        """
        from .smiles import parse, ParseDiagnostic

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


def find_groups(mol: Molecule, catalog: Catalog | None = None) -> list[GroupMatch]:
    """Functional-group matches that survive precedence suppression.

    A match is suppressed when its atom set is a subset of a strictly
    stronger (numerically lower precedence) match's atom set.  Matches of
    one pattern on the same atom set are counted once.
    """
    catalog = catalog or Catalog.default()
    raw: list[GroupMatch] = []
    seen: set[tuple[int, frozenset[int]]] = set()
    for pid, pattern in enumerate(catalog.groups):
        for assign in _embeddings(mol, pattern):
            atom_set = frozenset(assign)
            if (pid, atom_set) in seen:
                continue
            seen.add((pid, atom_set))
            name = pattern.name
            if pattern.needs_element_note:
                slot = next(
                    k for k, node in enumerate(pattern.atoms) if node.is_halogen_slot
                )
                name = name.replace("{X}", mol.atoms[assign[slot]].element)
            raw.append(GroupMatch(name=name, precedence=pattern.precedence, atoms=atom_set))

    survivors: list[GroupMatch] = []
    for match in raw:
        suppressed = any(
            other.precedence < match.precedence and match.atoms <= other.atoms
            for other in raw
        )
        if not suppressed:
            survivors.append(match)
    return survivors


def functional_group_names(mol: Molecule, catalog: Catalog | None = None) -> Counter[str]:
    """Multiset of surviving functional-group names."""
    return Counter(match.name for match in find_groups(mol, catalog))


def ring_compound_names(mol: Molecule, catalog: Catalog | None = None) -> Counter[str]:
    """Multiset of ring names, one per SSSR ring."""
    catalog = catalog or Catalog.default()
    assert mol.rings is not None, "rings must be perceived first"
    names: Counter[str] = Counter()
    for ring in mol.rings:
        names[catalog.rings.get(ring_key(mol, ring), generic_ring_name(mol, ring))] += 1
    return names
