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


@dataclass(slots=True)
class _PendingBond:
    order: BondOrder
    direction: str | None
    position: int


class _Builder:
    """Accumulates atoms/bonds and the stereo neighbor bookkeeping."""

    def __init__(self) -> None:
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.stereo: dict[int, list[object]] = {}
        self.bond_keys: set[tuple[int, int]] = set()

    def add_atom(self, atom: Atom) -> int:
        idx = len(self.atoms)
        atom.index = idx
        self.atoms.append(atom)
        order: list[object] = []
        if atom.chirality is not Chirality.NONE:
            self.stereo[idx] = order
        return idx

    def note_neighbor(self, of: int, entry: object) -> None:
        if of in self.stereo:
            self.stereo[of].append(entry)

    def fill_ring_slot(self, of: int, ring_number: int, neighbor: int) -> None:
        if of in self.stereo:
            slots = self.stereo[of]
            for k, entry in enumerate(slots):
                if entry == ("ring", ring_number):
                    slots[k] = neighbor
                    return

    def add_bond(self, a: int, b: int, order: BondOrder, direction: str | None) -> bool:
        key = (min(a, b), max(a, b))
        if a == b or key in self.bond_keys:
            return False
        self.bond_keys.add(key)
        self.bonds.append(Bond(a=a, b=b, order=order, direction=direction))
        return True


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

    builder = _Builder()
    prev: int | None = None
    pending: _PendingBond | None = None
    # (anchor atom, atom count at open, position of '(')
    branch_stack: list[tuple[int, int, int]] = []
    # open ring number -> (atom, order, direction, position)
    open_rings: dict[int, tuple[int, BondOrder | None, str | None, int]] = {}
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
            idx = builder.add_atom(atom)
            if prev is not None:
                order, direction = _resolve_order(pending, builder.atoms[prev], atom)
                builder.add_bond(prev, idx, order, direction)
                builder.note_neighbor(prev, idx)
                builder.note_neighbor(idx, prev)
            # A bracket hydrogen on a chiral atom occupies the neighbor slot
            # right after the incoming bond.
            if atom.chirality is not Chirality.NONE and atom.explicit_h:
                for _ in range(atom.explicit_h):
                    builder.note_neighbor(idx, H_BRANCH)
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
            pending = _PendingBond(
                order=_BOND_ORDER_FOR_CHAR[token.text],
                direction=token.text if token.text in ("/", "\\") else None,
                position=token.position,
            )
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
                other, open_order, open_dir, open_pos = open_rings.pop(key)
                if other == prev:
                    return diag(
                        DiagnosticKind.UNCLOSED_RING,
                        "ring closure bonds an atom to itself",
                        token.position,
                    )
                close_order = pending.order if pending else None
                close_dir = pending.direction if pending else None
                if open_order is not None and close_order is not None and open_order != close_order:
                    return diag(
                        DiagnosticKind.UNCLOSED_RING,
                        "ring closure bond symbols disagree",
                        token.position,
                    )
                order = open_order if open_order is not None else close_order
                if order is None:
                    order, _ = _resolve_order(None, builder.atoms[other], builder.atoms[prev])
                if not builder.add_bond(other, prev, order, open_dir or close_dir):
                    return diag(
                        DiagnosticKind.UNCLOSED_RING,
                        "ring closure duplicates an existing bond",
                        token.position,
                    )
                builder.fill_ring_slot(other, key, prev)
                builder.note_neighbor(prev, other)
            else:
                open_rings[key] = (
                    prev,
                    pending.order if pending else None,
                    pending.direction if pending else None,
                    token.position,
                )
                builder.note_neighbor(prev, ("ring", key))
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
            branch_stack.append((prev, len(builder.atoms), token.position))
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
            if len(builder.atoms) == count_at_open:
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
        first = min(open_rings.values(), key=lambda item: item[3])
        return diag(DiagnosticKind.UNCLOSED_RING, "ring closure was never matched", first[3])
    if pending is not None:
        return diag(DiagnosticKind.UNKNOWN_ELEMENT, "dangling bond symbol", pending.position)
    if last_was_dot:
        return diag(DiagnosticKind.UNKNOWN_ELEMENT, "dot with no following atom", len(text) - 1)

    for idx, order in builder.stereo.items():
        builder.atoms[idx].stereo_order = tuple(
            entry if isinstance(entry, int) else H_BRANCH for entry in order
        )

    try:
        return perceive(Molecule(builder.atoms, builder.bonds))
    except (ValenceError, AromaticityError) as exc:
        return ParseDiagnostic(DiagnosticKind.VALENCE_VIOLATION, str(exc), max(exc.position, 0))


def _resolve_order(
    pending: _PendingBond | None, a: Atom, b: Atom
) -> tuple[BondOrder, str | None]:
    if pending is not None:
        return pending.order, pending.direction
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


def _atom_text(mol: Molecule, atom: Atom, out_stereo: Chirality) -> str:
    symbol = atom.element.lower() if atom.is_aromatic else atom.element
    if not _needs_bracket(mol, atom):
        return symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if out_stereo is not Chirality.NONE:
        parts.append(out_stereo.value)
    hydrogens = atom.total_h
    if hydrogens == 1:
        parts.append("H")
    elif hydrogens > 1:
        parts.append(f"H{hydrogens}")
    if atom.charge:
        sign = "+" if atom.charge > 0 else "-"
        parts.append(sign if abs(atom.charge) == 1 else f"{sign}{abs(atom.charge)}")
    parts.append("]")
    return "".join(parts)


def _permutation_parity(source: list[int], target: list[int]) -> int:
    """0 for even, 1 for odd; lists must be rearrangements of each other."""
    remaining = list(target)
    perm: list[int] = []
    for item in source:
        slot = remaining.index(item)
        remaining[slot] = object()  # consume duplicates left to right
        perm.append(slot)
    swaps = 0
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            swaps += 1
    return swaps % 2


def _output_stereo(atom: Atom, out_order: list[int]) -> Chirality:
    """Chirality tag adjusted from recorded neighbor order to output order."""
    if atom.chirality is Chirality.NONE:
        return Chirality.NONE
    recorded = list(atom.stereo_order)
    if not recorded or sorted(recorded) != sorted(out_order):
        return atom.chirality
    if _permutation_parity(recorded, out_order) == 0:
        return atom.chirality
    return (
        Chirality.CLOCKWISE
        if atom.chirality is Chirality.ANTICLOCKWISE
        else Chirality.ANTICLOCKWISE
    )


def _bond_text(mol: Molecule, bond: Bond, from_atom: int, to_atom: int) -> str:
    if bond.direction is not None and bond.order is BondOrder.SINGLE:
        return bond.direction if bond.a == from_atom else ("\\" if bond.direction == "/" else "/")
    a = mol.atoms[from_atom]
    b = mol.atoms[to_atom]
    default = BondOrder.AROMATIC if (a.is_aromatic and b.is_aromatic) else BondOrder.SINGLE
    if bond.order is default:
        return ""
    return {
        BondOrder.SINGLE: "-",
        BondOrder.DOUBLE: "=",
        BondOrder.TRIPLE: "#",
        BondOrder.AROMATIC: ":",
    }[bond.order]


def _ring_number_text(number: int) -> str:
    if number < 10:
        return str(number)
    return f"%{number}" if number < 100 else f"%({number})"


def _write_component(mol: Molecule, start: int, key) -> tuple[str, list[int]]:
    """One component as (SMILES text, atom emission order), visiting by ``key``."""
    parent: dict[int, int] = {start: -1}
    order: list[int] = [start]
    children: dict[int, list[int]] = {start: []}
    closures: dict[int, list[int]] = {}
    closure_bonds: list[tuple[int, int]] = []
    emit_rank = {start: 0}
    # Lazy depth-first walk: a neighbor still unvisited when the walk
    # returns to ``cur`` has been reached some other way, so the bond
    # becomes a ring closure rather than a branch.  A depth-first walk
    # meets each ring bond first from its later end, while the earlier
    # end is still open, and again from the earlier end.
    stack: list[tuple[int, list[int], int]] = [(start, sorted(mol.neighbors(start), key=key), 0)]
    while stack:
        cur, nbrs, pos = stack.pop()
        while pos < len(nbrs):
            nxt = nbrs[pos]
            pos += 1
            if nxt in emit_rank:
                if emit_rank[nxt] < emit_rank[cur] and nxt != parent[cur]:
                    closure_bonds.append((cur, nxt))
                    closures.setdefault(cur, []).append(nxt)
                    closures.setdefault(nxt, []).append(cur)
                continue
            emit_rank[nxt] = len(order)
            parent[nxt] = cur
            children[cur].append(nxt)
            children[nxt] = []
            order.append(nxt)
            stack.append((cur, nbrs, pos))
            stack.append((nxt, sorted(mol.neighbors(nxt), key=key), 0))
            break

    # Assign ring-closure numbers in emission order, lowest free number first.
    digit_of: dict[tuple[int, int], int] = {}
    events: dict[int, list[tuple[int, int]]] = {}
    for a, b in closure_bonds:
        first, second = (a, b) if emit_rank[a] < emit_rank[b] else (b, a)
        events.setdefault(first, []).append((emit_rank[second], second))
    free: list[int] = []  # released numbers, all below ``unused``
    unused = 1
    close_at: dict[int, list[int]] = {}
    for atom in order:
        for _, partner in sorted(events.get(atom, [])):
            if free:
                digit = min(free)
                free.remove(digit)
            else:
                digit = unused
                unused += 1
            digit_of[(atom, partner)] = digit
            digit_of[(partner, atom)] = digit
            close_at.setdefault(partner, []).append(digit)
        free.extend(close_at.get(atom, []))

    def closure_text(atom: int) -> tuple[str, list[int]]:
        """Digit text emitted right after ``atom`` plus its closure partners in slot order."""
        opens = [(digit_of[(atom, p)], p) for _, p in sorted(events.get(atom, []))]
        closes = [
            (digit_of[(atom, p)], p)
            for p in closures.get(atom, [])
            if emit_rank[p] < emit_rank[atom]
        ]
        text = []
        partners = []
        for digit, partner in closes + opens:
            bond = mol.bond_between(atom, partner)
            assert bond is not None
            text.append(_bond_text(mol, bond, atom, partner))
            text.append(_ring_number_text(digit))
            partners.append(partner)
        return "".join(text), partners

    pieces: list[str] = []

    # Iterative emission to survive long chains.
    def emit_iterative(root: int) -> None:
        work: list[object] = [("atom", root)]
        while work:
            item = work.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            _, atom = item
            closure_str, closure_partners = closure_text(atom)
            record = mol.atoms[atom]
            out_order = []
            if parent[atom] != -1:
                out_order.append(parent[atom])
            if record.chirality is not Chirality.NONE:
                out_order.extend(H_BRANCH for _ in range(record.total_h))
            out_order.extend(closure_partners)
            out_order.extend(children[atom])
            pieces.append(_atom_text(mol, record, _output_stereo(record, out_order)))
            pieces.append(closure_str)
            kids = children[atom]
            tail: list[object] = []
            for i, kid in enumerate(kids):
                bond = mol.bond_between(atom, kid)
                assert bond is not None
                bond_str = _bond_text(mol, bond, atom, kid)
                if i < len(kids) - 1:
                    tail.append("(" + bond_str)
                    tail.append(("atom", kid))
                    tail.append(")")
                else:
                    tail.append(bond_str)
                    tail.append(("atom", kid))
            work.extend(reversed(tail))

    emit_iterative(start)
    return "".join(pieces), order


def _write_by_key(mol: Molecule, key) -> str:
    """Every component walked by ``key``, each from its lowest-keyed atom, in key order."""
    starts = sorted((min(comp, key=key) for comp in mol.components()), key=key)
    return ".".join(_write_component(mol, start, key)[0] for start in starts)


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

    def key(i: int) -> tuple:
        return tuple(sorted([(bond, starts[cell_of[j]]) for bond, j in adjacency[i]]))

    touched = range(n) if moved is None else {j for i in moved for _, j in adjacency[i]}
    while True:
        hits: dict[int, set[int]] = {}
        for i in touched:
            if len(members[cell_of[i]]) > 1:
                hits.setdefault(cell_of[i], set()).add(i)
        splits = []
        for cell, hit in hits.items():
            pieces: dict[tuple, list[int]] = {}
            for i in hit:
                pieces.setdefault(key(i), []).append(i)
            rest_key = None
            if len(hit) < len(members[cell]):
                rest_key = key(next(i for i in members[cell] if i not in hit))
                pieces.setdefault(rest_key, [])
            if len(pieces) > 1:
                splits.append((cell, hit, pieces, rest_key))
        if not splits:
            return [starts[cell] for cell in cell_of]
        touched = set()
        for cell, hit, pieces, rest_key in splits:
            size = {piece_key: len(atoms) for piece_key, atoms in pieces.items()}
            if rest_key is not None:
                size[rest_key] += len(members[cell]) - len(hit)
            ordered = sorted(pieces)
            largest = max(ordered, key=size.__getitem__)
            position = starts[cell]
            for piece_key in ordered:
                if piece_key == largest:
                    starts[cell] = position
                else:
                    atoms = pieces[piece_key]
                    if piece_key == rest_key:  # shorter than the largest, re-keyed piece
                        atoms += [i for i in members[cell] if i not in hit]
                    members[cell].difference_update(atoms)
                    starts.append(position)
                    members.append(set(atoms))
                    for i in atoms:
                        cell_of[i] = len(starts) - 1
                        touched.update(j for _, j in adjacency[i])
                position += size[piece_key]


def _orbit_root(parent: dict[int, int], atom: int) -> int:
    while parent.get(atom, atom) != atom:
        parent[atom] = parent.get(parent[atom], parent[atom])
        atom = parent[atom]
    return atom


def _component_min_string(
    mol: Molecule,
    comp: list[int],
    ranks: list[int],
    adjacency: list[list[tuple[int, int]]],
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
    """
    automorphisms: list[dict[int, int]] = []
    first: tuple[str, list[int]] | None = None
    best: tuple[str, list[int]] | None = None

    def leaf(ranks: list[int]) -> tuple[str, list[int]]:
        nonlocal first, best
        result = _write_component(mol, min(comp, key=ranks.__getitem__), key=ranks.__getitem__)
        if first is None or best is None:
            first = best = result
            return result
        twin = first if result[0] == first[0] else best if result[0] == best[0] else None
        if twin is not None:
            automorphisms.append({a: b for a, b in zip(twin[1], result[1]) if a != b})
        if result[0] < best[0]:
            best = result
        return result

    def search(ranks: list[int], fixed: list[int]) -> tuple[str, list[int]]:
        by_rank: dict[int, list[int]] = {}
        for i in comp:
            by_rank.setdefault(ranks[i], []).append(i)
        tied = next((by_rank[r] for r in sorted(by_rank) if len(by_rank[r]) > 1), None)
        if tied is None:
            return leaf(ranks)
        node_best: tuple[str, list[int]] | None = None
        tried: list[int] = []
        orbits: dict[int, int] = {}
        used = 0
        rank = ranks[tied[0]]
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
            tried.append(candidate)
            # The candidate keeps the cell's start; the rest of its cell,
            # in every component, moves up by one.
            seeded = [r + (r == rank and i != candidate) for i, r in enumerate(ranks)]
            result = search(_refine(adjacency, seeded, [candidate]), fixed + [candidate])
            if node_best is None or result[0] < node_best[0]:
                node_best = result
        assert node_best is not None
        return node_best

    return search(ranks, [])


def _canonical_parts(mol: Molecule) -> list[tuple[str, list[int]]]:
    adjacency = _bond_adjacency(mol)
    ranks = _refine(adjacency, _initial_invariants(mol))
    parts = [_component_min_string(mol, comp, ranks, adjacency) for comp in mol.components()]
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
    writes rather than a doubling.
    """
    return ".".join(part[0] for part in _canonical_parts(mol))


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
