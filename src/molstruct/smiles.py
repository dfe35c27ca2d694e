"""SMILES reading, writing, and canonicalization.

The grammar is the common organic subset: plain atoms B C N O P S F Cl Br I
(lowercase b c n o p s for aromatic), bracket atoms with isotope, chirality
(@ / @@), hydrogen count, and charge, ring closures (a digit, %nn, or the
extended %(n)), branches, dot disconnection, and the bond symbols
- = # : / \\.  Directional bonds are kept as annotations but never
interpreted as cis/trans stereo.

Parsing is total: it returns either a perceived Molecule or a
ParseDiagnostic naming the failure kind and byte offset, and never raises
on arbitrary input.
"""

from __future__ import annotations

import heapq
import itertools
import random
import re
from dataclasses import dataclass
from enum import Enum

from .elements import (
    AROMATIC_ORGANIC,
    ORGANIC_SUBSET,
    SYMBOL_TO_NUMBER,
)
from .errors import AromaticityError, ValenceError
from .graph import (
    H_BRANCH,
    Atom,
    Bond,
    BondOrder,
    Chirality,
    Molecule,
    _bare_hydrogens,
    chirality_in_order,
    perceive,
)

MAX_CHARGE = 15
MAX_ISOTOPE = 999


class TokenKind(Enum):
    ORGANIC_ATOM = "organic_atom"
    BRACKET_ATOM = "bracket_atom"
    BOND = "bond"
    RING_CLOSURE = "ring_closure"
    BRANCH_OPEN = "branch_open"
    BRANCH_CLOSE = "branch_close"
    DOT = "dot"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class SmilesToken:
    """One lexical unit. Token texts concatenate back to the input."""

    kind: TokenKind
    text: str
    position: int


class DiagnosticKind(Enum):
    UNCLOSED_RING = "UnclosedRing"
    UNBALANCED_BRANCH = "UnbalancedBranch"
    BAD_BRACKET_ATOM = "BadBracketAtom"
    VALENCE_VIOLATION = "ValenceViolation"
    UNKNOWN_ELEMENT = "UnknownElement"
    EMPTY_INPUT = "EmptyInput"


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    """Why a SMILES string was rejected and where."""

    kind: DiagnosticKind
    message: str
    position: int


_TWO_LETTER_ORGANIC = ("Cl", "Br")
_ONE_LETTER_ORGANIC = frozenset("BCNOPSFI")
_BOND_CHARS = {"-", "=", "#", ":", "/", "\\"}

_BOND_ORDER_FOR_CHAR = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,
    "\\": BondOrder.SINGLE,
}

_BRACKET_RE = re.compile(
    r"""\[
    (?P<isotope>\d+)?
    (?P<symbol>se|as|[A-Z][a-z]?|[bcnops])
    (?P<stereo>@@|@)?
    (?P<hcount>H\d*)?
    (?P<charge>\+\d+|-\d+|\++|-+)?
    \]""",
    re.VERBOSE,
)
# A ring bond number: one digit, two after %, or the extended %(n) form.
_RING_CLOSURE_RE = re.compile(r"[0-9]|%[0-9]{2}|%\([0-9]{1,5}\)")


def tokenize(text: str) -> list[SmilesToken]:
    """Split a SMILES string into tokens.

    Unknown characters become UNKNOWN tokens rather than errors; the parser
    turns them into diagnostics.  An unterminated bracket atom is returned
    as a BRACKET_ATOM token running to the end of the input.

    Args:
        text: Raw SMILES text.

    Returns:
        Tokens whose concatenated texts equal ``text``.
    """
    tokens: list[SmilesToken] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            end = text.find("]", i)
            if end == -1:
                tokens.append(SmilesToken(TokenKind.BRACKET_ATOM, text[i:], i))
                break
            tokens.append(SmilesToken(TokenKind.BRACKET_ATOM, text[i : end + 1], i))
            i = end + 1
        elif text.startswith(_TWO_LETTER_ORGANIC, i):
            tokens.append(SmilesToken(TokenKind.ORGANIC_ATOM, text[i : i + 2], i))
            i += 2
        elif ch in _ONE_LETTER_ORGANIC or ch in AROMATIC_ORGANIC:
            tokens.append(SmilesToken(TokenKind.ORGANIC_ATOM, ch, i))
            i += 1
        elif ch in _BOND_CHARS:
            tokens.append(SmilesToken(TokenKind.BOND, ch, i))
            i += 1
        elif ring := _RING_CLOSURE_RE.match(text, i):
            tokens.append(SmilesToken(TokenKind.RING_CLOSURE, ring.group(), i))
            i = ring.end()
        elif ch == "(":
            tokens.append(SmilesToken(TokenKind.BRANCH_OPEN, ch, i))
            i += 1
        elif ch == ")":
            tokens.append(SmilesToken(TokenKind.BRANCH_CLOSE, ch, i))
            i += 1
        elif ch == ".":
            tokens.append(SmilesToken(TokenKind.DOT, ch, i))
            i += 1
        else:
            tokens.append(SmilesToken(TokenKind.UNKNOWN, ch, i))
            i += 1
    return tokens


def _parse_bracket(token: SmilesToken) -> Atom | ParseDiagnostic:
    text = token.text
    pos = token.position
    if not text.endswith("]"):
        return ParseDiagnostic(DiagnosticKind.BAD_BRACKET_ATOM, "unterminated bracket atom", pos)
    match = _BRACKET_RE.fullmatch(text)
    if match is None:
        return ParseDiagnostic(
            DiagnosticKind.BAD_BRACKET_ATOM, f"malformed bracket atom {text!r}", pos
        )
    raw_symbol = match.group("symbol")
    # _BRACKET_RE admits only the lowercase symbols that may be aromatic.
    aromatic = raw_symbol[0].islower()
    symbol = raw_symbol.capitalize() if aromatic else raw_symbol
    if symbol not in SYMBOL_TO_NUMBER:
        return ParseDiagnostic(
            DiagnosticKind.UNKNOWN_ELEMENT,
            f"unknown element symbol {raw_symbol!r}",
            pos + match.start("symbol"),
        )

    isotope: int | None = None
    if match.group("isotope"):
        isotope = int(match.group("isotope"))
        if isotope > MAX_ISOTOPE:
            return ParseDiagnostic(
                DiagnosticKind.BAD_BRACKET_ATOM, f"isotope {isotope} above {MAX_ISOTOPE}", pos
            )

    hcount = 0
    if match.group("hcount"):
        digits = match.group("hcount")[1:]
        hcount = int(digits) if digits else 1
        if symbol == "H" and hcount:
            return ParseDiagnostic(
                DiagnosticKind.BAD_BRACKET_ATOM, "hydrogen atom with a hydrogen count", pos
            )

    charge = 0
    raw_charge = match.group("charge")
    if raw_charge:
        if raw_charge in ("+", "-") or raw_charge.strip("+") == "" or raw_charge.strip("-") == "":
            charge = len(raw_charge) if raw_charge[0] == "+" else -len(raw_charge)
        else:
            charge = int(raw_charge)
        if abs(charge) > MAX_CHARGE:
            return ParseDiagnostic(
                DiagnosticKind.BAD_BRACKET_ATOM, f"charge magnitude above {MAX_CHARGE}", pos
            )

    stereo = Chirality.NONE
    if match.group("stereo") == "@":
        stereo = Chirality.ANTICLOCKWISE
    elif match.group("stereo") == "@@":
        stereo = Chirality.CLOCKWISE

    return Atom(
        element=symbol,
        charge=charge,
        explicit_h=hcount,
        isotope=isotope,
        chirality=stereo,
        bracket=True,
        written_aromatic=aromatic,
        is_aromatic=aromatic,
        position=pos,
    )


def parse(text: str) -> Molecule | ParseDiagnostic:
    """Parse SMILES text into a perceived molecule.

    Never raises on bad input: every failure comes back as a
    ParseDiagnostic with a kind and the byte offset of the offending
    character.  On success the molecule has implicit hydrogens, SSSR
    rings, and aromaticity already perceived.

    Args:
        text: SMILES string (ASCII).

    Returns:
        A Molecule, or a ParseDiagnostic explaining the rejection.
    """
    stripped = text.strip()
    if not stripped:
        return ParseDiagnostic(DiagnosticKind.EMPTY_INPUT, "empty input", 0)
    offset = text.index(stripped[0])
    return _parse_stripped(stripped, offset)


def _parse_stripped(text: str, base: int) -> Molecule | ParseDiagnostic:
    def diag(kind: DiagnosticKind, message: str, position: int) -> ParseDiagnostic:
        return ParseDiagnostic(kind, message, base + position)

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    # (low, high) atom pairs already bonded, so that a ring closure that
    # repeats one gets a positioned diagnostic.  After a branch closes, the
    # closing atom can be the lower one, as in ``C(C1)1``.
    bonded: set[tuple[int, int]] = set()
    # Chiral atom -> neighbors in written order; ("ring", n) keeps the
    # place of ring bond n until it closes.
    stereo: dict[int, list] = {}
    prev: int | None = None
    pending: SmilesToken | None = None  # bond symbol awaiting its second atom
    # (anchor atom, atom count at open, position of '(')
    branch_stack: list[tuple[int, int, int]] = []
    # open ring number -> (atom, bond symbol, position)
    open_rings: dict[int, tuple[int, SmilesToken | None, int]] = {}
    last_was_dot = False

    for token in tokenize(text):
        kind = token.kind
        if kind is TokenKind.UNKNOWN:
            return diag(
                DiagnosticKind.UNKNOWN_ELEMENT,
                f"unexpected character {token.text!r}",
                token.position,
            )

        if kind in (TokenKind.ORGANIC_ATOM, TokenKind.BRACKET_ATOM):
            if kind is TokenKind.ORGANIC_ATOM:
                aromatic = token.text[0].islower()
                symbol = token.text.capitalize() if aromatic else token.text
                atom = Atom(
                    element=symbol,
                    written_aromatic=aromatic,
                    is_aromatic=aromatic,
                    position=base + token.position,
                )
            else:
                result = _parse_bracket(token)
                if isinstance(result, ParseDiagnostic):
                    return ParseDiagnostic(result.kind, result.message, base + result.position)
                atom = result
                atom.position = base + token.position
            idx = len(atoms)
            atoms.append(atom)
            if atom.chirality is not Chirality.NONE:
                stereo[idx] = []
            if prev is not None:
                order, direction = _resolve_order(pending, atoms[prev], atom)
                bonded.add((prev, idx))
                bonds.append(Bond(a=prev, b=idx, order=order, direction=direction))
                if prev in stereo:
                    stereo[prev].append(idx)
                if idx in stereo:
                    stereo[idx].append(prev)
            # A bracket hydrogen on a chiral atom occupies the neighbor slot
            # right after the incoming bond.
            if idx in stereo:
                stereo[idx].extend([H_BRANCH] * atom.explicit_h)
            pending = None
            prev = idx
            last_was_dot = False
            continue

        if kind is TokenKind.BOND:
            if prev is None:
                return diag(
                    DiagnosticKind.UNKNOWN_ELEMENT,
                    "bond symbol with no preceding atom",
                    token.position,
                )
            if pending is not None:
                return diag(
                    DiagnosticKind.UNKNOWN_ELEMENT,
                    "two bond symbols in a row",
                    token.position,
                )
            pending = token
            continue

        if kind is TokenKind.DOT:
            if pending is not None:
                return diag(
                    DiagnosticKind.UNKNOWN_ELEMENT,
                    "dot is not allowed after a bond symbol",
                    pending.position,
                )
            if prev is None:
                return diag(
                    DiagnosticKind.UNKNOWN_ELEMENT,
                    "dot with no preceding atom",
                    token.position,
                )
            if branch_stack:
                return diag(
                    DiagnosticKind.UNBALANCED_BRANCH,
                    "dot inside a branch",
                    token.position,
                )
            prev = None
            last_was_dot = True
            continue

        if kind is TokenKind.RING_CLOSURE:
            if prev is None:
                return diag(
                    DiagnosticKind.UNCLOSED_RING,
                    "ring closure with no preceding atom",
                    token.position,
                )
            key = int(token.text.strip("%()"))
            if key in open_rings:
                other, open_bond, _ = open_rings.pop(key)
                if other == prev:
                    return diag(
                        DiagnosticKind.UNCLOSED_RING,
                        "ring closure bonds an atom to itself",
                        token.position,
                    )
                # Either end may spell the bond.  Two spellings must agree
                # on the order, and the opening end's direction comes first.
                order, direction = _resolve_order(open_bond or pending, atoms[other], atoms[prev])
                close_order, close_direction = _resolve_order(
                    pending or open_bond, atoms[other], atoms[prev]
                )
                if order is not close_order:
                    return diag(
                        DiagnosticKind.UNCLOSED_RING,
                        "ring closure bond symbols disagree",
                        token.position,
                    )
                pair = (other, prev) if other < prev else (prev, other)
                if pair in bonded:
                    return diag(
                        DiagnosticKind.UNCLOSED_RING,
                        "ring closure duplicates an existing bond",
                        token.position,
                    )
                bonded.add(pair)
                direction = direction or close_direction
                bonds.append(Bond(a=other, b=prev, order=order, direction=direction))
                if other in stereo:
                    slots = stereo[other]
                    slots[slots.index(("ring", key))] = prev
                if prev in stereo:
                    stereo[prev].append(other)
            else:
                open_rings[key] = (prev, pending, token.position)
                if prev in stereo:
                    stereo[prev].append(("ring", key))
            pending = None
            continue

        if kind is TokenKind.BRANCH_OPEN:
            if prev is None:
                return diag(
                    DiagnosticKind.UNBALANCED_BRANCH,
                    "branch with no preceding atom",
                    token.position,
                )
            if pending is not None:
                return diag(
                    DiagnosticKind.UNBALANCED_BRANCH,
                    "bond symbol before a branch open",
                    token.position,
                )
            branch_stack.append((prev, len(atoms), token.position))
            continue

        if kind is TokenKind.BRANCH_CLOSE:
            if not branch_stack:
                return diag(
                    DiagnosticKind.UNBALANCED_BRANCH,
                    "branch close without a matching open",
                    token.position,
                )
            if pending is not None:
                return diag(
                    DiagnosticKind.UNBALANCED_BRANCH,
                    "dangling bond symbol before a branch close",
                    token.position,
                )
            anchor, count_at_open, _ = branch_stack.pop()
            if len(atoms) == count_at_open:
                return diag(DiagnosticKind.UNBALANCED_BRANCH, "empty branch", token.position)
            prev = anchor
            continue

    if branch_stack:
        return diag(
            DiagnosticKind.UNBALANCED_BRANCH,
            "branch was never closed",
            branch_stack[0][2],
        )
    if open_rings:
        first = min(position for _, _, position in open_rings.values())
        return diag(DiagnosticKind.UNCLOSED_RING, "ring closure was never matched", first)
    if pending is not None:
        return diag(DiagnosticKind.UNKNOWN_ELEMENT, "dangling bond symbol", pending.position)
    if last_was_dot:
        return diag(DiagnosticKind.UNKNOWN_ELEMENT, "dot with no following atom", len(text) - 1)

    # Every ("ring", n) place was filled when ring bond n closed.
    for idx, neighbors in stereo.items():
        atoms[idx].stereo_order = tuple(neighbors)

    try:
        return perceive(Molecule(atoms, bonds))
    except (ValenceError, AromaticityError) as exc:
        return ParseDiagnostic(DiagnosticKind.VALENCE_VIOLATION, str(exc), max(exc.position, 0))


def _resolve_order(bond: SmilesToken | None, a: Atom, b: Atom) -> tuple[BondOrder, str | None]:
    """Order and direction of a bond spelled by ``bond``, or left unspelled."""
    if bond is not None:
        return _BOND_ORDER_FOR_CHAR[bond.text], bond.text if bond.text in "/\\" else None
    if a.written_aromatic and b.written_aromatic:
        return BondOrder.AROMATIC, None
    return BondOrder.SINGLE, None


def parse_strict(text: str) -> Molecule:
    """Parse, raising ValueError with the diagnostic text on failure."""
    result = parse(text)
    if isinstance(result, ParseDiagnostic):
        raise ValueError(f"{result.kind.value} at {result.position}: {result.message}")
    return result


# ---------------------------------------------------------------------------
# Writing


def _needs_bracket(mol: Molecule, atom: Atom) -> bool:
    """True when the atom cannot be written as a bare organic-subset symbol.

    Brackets are dropped when redundant, so ``[CH4]`` normalizes to ``C``;
    they are forced whenever the bare form would re-read with a different
    hydrogen count, which is what puts the H back on pyrrole's ``[nH]``.
    """
    if atom.charge or atom.isotope is not None or atom.chirality is not Chirality.NONE:
        return True
    if atom.element not in ORGANIC_SUBSET:
        return True
    return _bare_hydrogens(mol, atom.index, atom.is_aromatic) != atom.total_h


_BOND_SYMBOL = {
    BondOrder.SINGLE: "-",
    BondOrder.DOUBLE: "=",
    BondOrder.TRIPLE: "#",
    BondOrder.AROMATIC: ":",
}
_WriterTexts = tuple[list, list[dict[int, str]]]  # atom texts, directed bond texts


def _writer_texts(mol: Molecule) -> _WriterTexts:
    """Every atom's text and every directed bond's text, built once per write.

    An untagged atom's entry is its text.  A chirality-tagged atom's entry
    maps each output tag to its text, since only the tag depends on the
    order written.  ``bond_texts[i][j]`` is the bond symbol written from
    atom ``i`` to its neighbor ``j``.
    """
    atom_texts: list = []
    for atom in mol.atoms:
        symbol = atom.element.lower() if atom.is_aromatic else atom.element
        if not _needs_bracket(mol, atom):
            atom_texts.append(symbol)
            continue
        head = f"[{'' if atom.isotope is None else atom.isotope}{symbol}"
        hydrogens = atom.total_h
        tail = "H" if hydrogens == 1 else f"H{hydrogens}" if hydrogens > 1 else ""
        if atom.charge:
            sign = "+" if atom.charge > 0 else "-"
            tail += sign if abs(atom.charge) == 1 else f"{sign}{abs(atom.charge)}"
        if atom.chirality is Chirality.NONE:
            atom_texts.append(f"{head}{tail}]")
        else:
            tags = (Chirality.CLOCKWISE, Chirality.ANTICLOCKWISE)
            atom_texts.append({tag: f"{head}{tag.value}{tail}]" for tag in tags})
    bond_texts: list[dict[int, str]] = [{} for _ in mol.atoms]
    for bond in mol.bonds:
        a, b = bond.a, bond.b
        if bond.direction is not None and bond.order is BondOrder.SINGLE:
            bond_texts[a][b] = bond.direction
            bond_texts[b][a] = "\\" if bond.direction == "/" else "/"
            continue
        aromatic = mol.atoms[a].is_aromatic and mol.atoms[b].is_aromatic
        default = BondOrder.AROMATIC if aromatic else BondOrder.SINGLE
        bond_texts[a][b] = bond_texts[b][a] = "" if bond.order is default else _BOND_SYMBOL[bond.order]
    return atom_texts, bond_texts


def _ring_number_text(number: int) -> str:
    if number < 10:
        return str(number)
    return f"%{number}" if number < 100 else f"%({number})"


def _write_component(mol: Molecule, start: int, key, texts: _WriterTexts) -> tuple[str, list[int]]:
    """One component as (SMILES text, atom emission order), visiting by ``key``.

    A depth-first walk from ``start``, taking neighbors in ``key`` order,
    records each atom's ring bonds to earlier atoms, in the order it meets
    them, and to later atoms.  Atoms are then written in walk order, and
    ring bond numbers are handed out as they are written: an atom first
    closes its ring bonds to earlier atoms, then opens those to later
    atoms in the partners' walk order, each with the lowest free number.
    A number closed at an atom is free again only after that atom, so no
    atom writes one number twice.  ``texts`` is the molecule's
    :func:`_writer_texts`.
    """
    atom_texts, bond_texts = texts
    parent: dict[int, int] = {start: -1}
    order: list[int] = [start]
    children: dict[int, list[int]] = {start: []}
    earlier: dict[int, list[int]] = {}
    later: dict[int, list[int]] = {}
    emit_rank = {start: 0}
    # Lazy depth-first walk: a neighbor still unvisited when the walk
    # returns to ``cur`` has been reached some other way, so the bond
    # becomes a ring closure rather than a branch.  A depth-first walk
    # meets each ring bond first from its later end, while the earlier
    # end is still open, and again from the earlier end.
    stack: list[tuple[int, list[int], int]] = [(start, sorted(bond_texts[start], key=key), 0)]
    while stack:
        cur, nbrs, pos = stack.pop()
        while pos < len(nbrs):
            nxt = nbrs[pos]
            pos += 1
            if nxt in emit_rank:
                if emit_rank[nxt] < emit_rank[cur] and nxt != parent[cur]:
                    earlier.setdefault(cur, []).append(nxt)
                    later.setdefault(nxt, []).append(cur)
                continue
            emit_rank[nxt] = len(order)
            parent[nxt] = cur
            children[cur].append(nxt)
            children[nxt] = []
            order.append(nxt)
            stack.append((cur, nbrs, pos))
            stack.append((nxt, sorted(bond_texts[nxt], key=key), 0))
            break

    pieces: list[str] = []
    number: dict[tuple[int, int], int] = {}  # (later, earlier atom) -> open ring number
    free: list[int] = []  # heap of closed numbers, all below the next fresh one
    fresh = itertools.count(1)
    # Atoms to write and the text between them, on a stack to survive long chains.
    work: list[int | str] = [start]
    while work:
        atom = work.pop()
        if isinstance(atom, str):
            pieces.append(atom)
            continue
        closes = earlier.get(atom, [])
        opens = sorted(later.get(atom, []), key=emit_rank.__getitem__)
        text = atom_texts[atom]
        if not isinstance(text, str):
            record = mol.atoms[atom]
            around = [parent[atom]] if parent[atom] != -1 else []
            around += [H_BRANCH] * record.total_h + closes + opens + children[atom]
            text = text[chirality_in_order(record, around)]
        pieces.append(text)
        bonds = bond_texts[atom]
        closed = []
        for partner in closes:
            closed.append(number.pop((atom, partner)))
            pieces.append(bonds[partner] + _ring_number_text(closed[-1]))
        for partner in opens:
            digit = number[(partner, atom)] = heapq.heappop(free) if free else next(fresh)
            pieces.append(bonds[partner] + _ring_number_text(digit))
        for digit in closed:
            heapq.heappush(free, digit)
        kids = children[atom]
        if kids:
            work += [kids[-1], bonds[kids[-1]]]
        for kid in reversed(kids[:-1]):
            work += [")", kid, "(" + bonds[kid]]
    return "".join(pieces), order


def _write_by_key(mol: Molecule, key) -> str:
    """Every component walked by ``key``, each from its lowest-keyed atom, in key order."""
    starts = sorted((min(comp, key=key) for comp in mol.components()), key=key)
    texts = _writer_texts(mol)
    return ".".join(_write_component(mol, start, key, texts)[0] for start in starts)


def write(mol: Molecule) -> str:
    """Write SMILES following input atom order.

    Components start at their lowest atom index and are joined with dots in
    first-atom order; neighbor traversal is by ascending atom index.  The
    output re-parses to a graph isomorphic to ``mol`` including chirality.
    """
    return _write_by_key(mol, lambda i: i)


# ---------------------------------------------------------------------------
# Canonicalization


def _initial_invariants(mol: Molecule) -> list[tuple]:
    return [
        (
            atom.atomic_number,
            atom.charge,
            mol.heavy_degree(atom.index),
            atom.total_h,
            atom.is_aromatic,
            atom.isotope or 0,
        )
        for atom in mol.atoms
    ]


def _bond_adjacency(mol: Molecule) -> list[list[tuple[int, int]]]:
    """``(bond order, neighbor)`` pairs of every atom."""
    return [[(int(bond.order), j) for j, bond in mol.bonds_of(i)] for i in range(len(mol.atoms))]


def _refine(
    adjacency: list[list[tuple[int, int]]], keys: list, moved: list[int] | None = None
) -> list[int]:
    """Ranks of the stable ordered partition reached by refining ``keys``.

    Atoms with equal keys start in one cell, cells in key order, and an
    atom's rank is the start position of its cell.  Each round splits
    every tied cell by its atoms' sorted ``(bond order, neighbor rank)``
    pairs, the pieces taking the cell's place in key order; refinement
    stops at a round that splits no cell.  Rounds are synchronous, but a
    round re-keys only the atoms next to one that moved in the round
    before, where an atom moved if it landed in any piece of a split cell
    but the largest.  The cell's other members shared a key before and
    saw their neighbors in a split cell all go to its largest piece, so
    they share one still: one of them is re-keyed for all (McKay &
    Piperno, "Practical graph isomorphism, II", 2014).  The first round
    re-keys every atom, or only the neighbors of ``moved``, the atoms a
    caller moved out of a stable partition.
    """
    n = len(keys)
    cell_of = [0] * n
    starts: list[int] = []
    members: list[set[int]] = []
    previous = object()
    for position, i in enumerate(sorted(range(n), key=keys.__getitem__)):
        if keys[i] != previous:
            previous = keys[i]
            starts.append(position)
            members.append(set())
        cell_of[i] = len(starts) - 1
        members[-1].add(i)

    hit_in = [-1] * n  # the round in which an atom was last re-keyed
    touched = range(n) if moved is None else {j for i in moved for _, j in adjacency[i]}
    round_ = 0
    while True:
        hits: dict[int, list[int]] = {}
        for i in touched:
            cell = cell_of[i]
            if len(members[cell]) > 1:
                hit_in[i] = round_
                if cell in hits:
                    hits[cell].append(i)
                else:
                    hits[cell] = [i]
        splits = []
        for cell, hit in hits.items():
            rest = len(members[cell]) - len(hit)
            if rest:  # one atom keyed, last, for the cell's other members
                for i in members[cell]:
                    if hit_in[i] != round_:
                        hit.append(i)
                        break
            pieces: dict[tuple, list[int]] = {}
            for i in hit:
                # The pair (bond, rank) as bond * n + rank, which sorts as
                # the pair does, since every rank is below n.
                pairs = []
                for bond, j in adjacency[i]:
                    pairs.append(bond * n + starts[cell_of[j]])
                pairs.sort()
                key = tuple(pairs)
                if key in pieces:
                    pieces[key].append(i)
                else:
                    pieces[key] = [i]
            rest_key = None
            if rest:
                rest_key = key
                pieces[key].pop()
            if len(pieces) > 1:
                splits.append((cell, pieces, rest_key, rest))
        if not splits:
            return [starts[cell] for cell in cell_of]
        touched = set()
        add = touched.add
        for cell, pieces, rest_key, rest in splits:
            ordered = sorted(pieces)
            sizes = []
            for key in ordered:
                sizes.append(len(pieces[key]) + rest if key == rest_key else len(pieces[key]))
            largest = sizes.index(max(sizes))
            position = starts[cell]
            cell_members = members[cell]
            for k, key in enumerate(ordered):
                if k == largest:
                    starts[cell] = position
                else:
                    atoms = pieces[key]
                    if key == rest_key:  # shorter than the largest, re-keyed piece
                        atoms += [i for i in cell_members if hit_in[i] != round_]
                    cell_members.difference_update(atoms)
                    new = len(starts)
                    starts.append(position)
                    members.append(set(atoms))
                    for i in atoms:
                        cell_of[i] = new
                        for _, j in adjacency[i]:
                            add(j)
                position += sizes[k]
        round_ += 1


def _orbit_root(parent: dict[int, int], atom: int) -> int:
    while parent.get(atom, atom) != atom:
        parent[atom] = parent.get(parent[atom], parent[atom])
        atom = parent[atom]
    return atom


def _keeps_texts(texts: _WriterTexts, image: dict[int, int]) -> bool:
    """True when ``image``, a permutation given as the atoms it moves and
    their images, keeps every atom text and directed bond text.

    An atom the map fixes needs no check: each of its bonds to a moved
    atom is checked from that atom, and a bond's reverse text follows from
    its text.  A permutation that carries every bond onto a bond carries
    the bond set onto itself, so a kept map is an automorphism.
    """
    atom_texts, bond_texts = texts
    for a, b in image.items():
        if atom_texts[a] != atom_texts[b]:
            return False
        twin_bonds = bond_texts[b]
        for c, text in bond_texts[a].items():
            if twin_bonds.get(image.get(c, c)) != text:
                return False
    return True


def _grown_map(
    texts: _WriterTexts,
    adjacency: list[list[tuple[int, int]]],
    ranks: list[int],
    source: int,
    target: int,
) -> dict[int, int] | None:
    """A map of ``source``'s component that sends ``source`` onto
    ``target`` and keeps every text (:func:`_keeps_texts`), as the atoms
    it moves and their images, or None when the greedy growth fails.

    The map grows outward from ``source`` bond by bond: each mapped atom's
    unmapped neighbors go, in adjacency order, onto the first free
    neighbors of its image with the same rank and bond order (after
    saucy: Darga, Sakallah & Markov, "Faster symmetry discovery using
    sparsity of symmetries", DAC 2008).  An atom alone in its cell of
    ``ranks`` can only go onto itself, so a kept map fixes every atom
    individualized above the search node whose ranks these are.
    """
    image = {source: target}
    images = {target}
    grown = [source]
    for a in grown:
        twin_adjacency = adjacency[image[a]]
        for order, c in adjacency[a]:
            if c in image:
                continue
            rank = ranks[c]
            for twin_order, d in twin_adjacency:
                if twin_order == order and ranks[d] == rank and d not in images:
                    break
            else:
                return None
            image[c] = d
            images.add(d)
            grown.append(c)
    moved = {a: b for a, b in image.items() if a != b}
    return moved if _keeps_texts(texts, moved) else None


def _component_min_string(
    mol: Molecule,
    comp: list[int],
    ranks: list[int],
    adjacency: list[list[tuple[int, int]]],
    texts: _WriterTexts,
) -> tuple[str, list[int]]:
    """Smallest string of the tie-break search over one component, with its atom order.

    Each node individualizes the atoms of its lowest tied class one at a
    time, in atom order, refines and recurses; a leaf writes the component
    by rank.  Only a strictly smaller string replaces a node's best.  Two
    leaves that write the same string differ by an automorphism, which maps
    the k-th atom of one emission order to the k-th of the other; it is
    trusted without a check, since the string spells every atom label and
    bond order that the map must keep.  A node skips a candidate in the
    orbit of one it already tried, under the automorphisms that fix every
    atom individualized above it: that subtree is the image
    of one already searched, so its smallest string equals an earlier one
    and could not replace the best (McKay & Piperno, "Practical graph
    isomorphism, II", 2014).

    Most candidates past a node's first only confirm such a symmetry, so
    before refining one the node grows a map from its first candidate
    onto it (:func:`_grown_map`).  A kept map is an automorphism that
    fixes every atom individualized above the node; it is recorded, and
    the candidate is skipped as one in a known orbit would be.  A map that
    fails leaves the candidate refined and searched.  A component with a
    chirality-tagged atom, whose text depends on the order written, tries
    no node map.

    Every leaf is written.  A leaf that writes the string of the first or
    the best leaf written records the map between their emission orders.
    """
    untagged = all(isinstance(texts[0][i], str) for i in comp)
    automorphisms: list[dict[int, int]] = []
    # The first and, when it differs, the best leaf written: string and
    # emission order.
    written: list[tuple[str, list[int]]] = []

    def leaf(ranks: list[int], root: int) -> tuple[str, list[int]]:
        result = _write_component(mol, root, ranks.__getitem__, texts)
        if not written:
            written.append(result)
            return result
        first, best = written[0], written[-1]
        twin = first if result[0] == first[0] else best if result[0] == best[0] else None
        if twin is not None:
            automorphisms.append({a: b for a, b in zip(twin[1], result[1]) if a != b})
        if result[0] < best[0]:
            written[1:] = [result]
        return result

    def search(ranks: list[int], fixed: list[int]) -> tuple[str, list[int]]:
        by_rank = sorted(comp, key=ranks.__getitem__)
        rank_of = [ranks[i] for i in by_rank]
        if len(set(rank_of)) == len(rank_of):
            return leaf(ranks, by_rank[0])
        # The lowest tied class, in atom order, since the sort is stable.
        rank = next(r for r, s in zip(rank_of, rank_of[1:]) if r == s)
        start = rank_of.index(rank)
        tied = by_rank[start : start + rank_of.count(rank)]
        # The candidate keeps the cell's start; the rest of its cell, in
        # every component, moves up by one.
        moved_up = [r + (r == rank) for r in ranks]
        node_best: tuple[str, list[int]] | None = None
        tried: list[int] = []
        orbits: dict[int, int] = {}
        used = 0
        for candidate in tied:
            if tried:
                for moved in automorphisms[used:]:
                    if not any(atom in moved for atom in fixed):
                        for a, b in moved.items():
                            orbits[_orbit_root(orbits, a)] = _orbit_root(orbits, b)
                used = len(automorphisms)
                root = _orbit_root(orbits, candidate)
                if any(_orbit_root(orbits, t) == root for t in tried):
                    continue
                if untagged:
                    moved = _grown_map(texts, adjacency, ranks, tried[0], candidate)
                    if moved is not None:
                        automorphisms.append(moved)
                        continue
            tried.append(candidate)
            seeded = moved_up.copy()
            seeded[candidate] = rank
            result = search(_refine(adjacency, seeded, [candidate]), fixed + [candidate])
            if node_best is None or result[0] < node_best[0]:
                node_best = result
        assert node_best is not None
        return node_best

    return search(ranks, [])


def _canonical_parts(mol: Molecule) -> list[tuple[str, list[int]]]:
    adjacency = _bond_adjacency(mol)
    ranks = _refine(adjacency, _initial_invariants(mol))
    texts = _writer_texts(mol)
    parts = [_component_min_string(mol, comp, ranks, adjacency, texts) for comp in mol.components()]
    parts.sort(key=lambda part: (part[0], part[1]))
    return parts


def canonicalize(mol: Molecule) -> str:
    """Canonical SMILES: invariant under input atom renumbering.

    Atom order comes from neighborhood refinement with string-minimizing
    tie-breaks; disconnected components are sorted lexicographically.
    A refinement round re-keys only the atoms next to one that changed
    cell in the round before (and one atom for the rest of each cell),
    so a chain of n atoms costs about n log n steps rather than n full
    passes over the atoms.
    The tie-break search skips atoms in the automorphism orbit of one
    already tried, which leaves the result of the exhaustive search
    unchanged and makes each independent symmetric part cost a few
    writes rather than a doubling.  Symmetries are found at search nodes,
    where a candidate onto which a map grown from the node's first
    candidate keeps every atom and bond text is skipped without a
    refinement, and at leaves, where two leaves that write one string
    differ by one.
    """
    return ".".join(part[0] for part in _canonical_parts(mol))


def same_canonical(a: Molecule, b: Molecule) -> bool:
    """``canonicalize(a) == canonicalize(b)``, without canonicalizing either
    when their atom counts, bond counts or sorted initial invariants differ.

    Equal canonical strings imply equal invariants: the string spells each
    atom's element, case, charge, isotope and hydrogens, and the bonds
    that give its degree.  One and the same molecule is equal to itself
    without any of these checks.
    """
    if a is b:
        return True
    if len(a.atoms) != len(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    if sorted(_initial_invariants(a)) != sorted(_initial_invariants(b)):
        return False
    return canonicalize(a) == canonicalize(b)


def canonical_order(mol: Molecule) -> list[int]:
    """Input atom indices in canonical output order.

    Position in this list is the atom's canonical number: the number that
    rationale text uses when naming chiral centers, stable across input
    renumberings of the same molecule.
    """
    order: list[int] = []
    for _, part_order in _canonical_parts(mol):
        order.extend(part_order)
    return order


def random_equivalent(mol: Molecule, seed: int) -> str:
    """A randomly renumbered SMILES for the same molecule.

    Deterministic per seed: ``mol`` is written as ``write`` would write it
    with its atoms renumbered by a ``random.Random(seed)`` shuffle.  The
    string spells the molecule's own perception; where the reader perceives
    aromaticity differently, it may not parse back to ``mol``, or at all.

    Args:
        mol: Source molecule, fully perceived.
        seed: RNG seed; equal seeds give equal strings.

    Returns:
        A SMILES string spelling ``mol``.
    """
    rng = random.Random(seed)
    new_index = list(range(len(mol.atoms)))
    rng.shuffle(new_index)
    return _write_by_key(mol, new_index.__getitem__)
