"""Structured rationales: render to text and parse back.

A Rationale holds a subset of the eight structural components as typed
values together with a mask naming which components are asserted.  Two
output formats exist, both versioned as MSR-template-v1:

Prose: one fixed-template sentence per masked component, in canonical
order, joined by single spaces.

    The molecular formula is C4H10O. The longest carbon chain has 4
    carbons. The molecule has 0 aromatic rings. The molecule contains no
    rings. The molecule contains 1 functional group: hydroxyl. The
    molecule has no specified chiral centers. The molecular weight is
    74.12 g/mol. The IUPAC name is butan-2-ol.

JSON: one key per masked component, fixed key order:

    {"formula": "C4H10O", "longest_chain": 4, "aromatic_rings": 0,
     "ring_compounds": [], "functional_groups": ["hydroxyl"],
     "chirality": [{"configuration": "R", "atom_index": 2}],
     "molecular_weight": 74.12, "iupac_name": "butan-2-ol"}

Multisets render sorted alphabetically, comma-separated, with counts as
"2 x hydroxyl" above multiplicity one.  Since ", " is the item delimiter,
catalog names must not contain it (the built-in catalog never does).
Chiral centers are written "R at atom 2" with canonical-SMILES atom
numbering.  parse_rationale(render(r, f)) == r holds for both formats.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .catalog import Catalog
from .errors import EmptyRationaleError, RationaleParseError
from .graph import Molecule
from .profile import (  # the component names stay importable from here
    CANONICAL_ORDER,
    COMPONENTS,
    CORE_KINDS,  # noqa: F401
    EXTRACTABLE_KINDS,
    ComponentKind,
    Configuration,
    StructuralProfile,
    component_values,
)

TEMPLATE_VERSION = "MSR-template-v1"


class RationaleFormat(Enum):
    PROSE = "prose"
    JSON = "json"


class RationaleSource(Enum):
    EXTRACTED = "extracted"
    PARSED = "parsed"


ChiralityValue = tuple[tuple[int, Configuration], ...]


@dataclass(frozen=True, slots=True, eq=False)
class Rationale:
    """A masked set of structural component values.

    Equality compares mask and component values only; how the rationale
    came to be (source, parse warnings) is bookkeeping.
    """

    components: dict[ComponentKind, object]
    mask: frozenset[ComponentKind]
    source: RationaleSource = RationaleSource.EXTRACTED
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if set(self.components) != set(self.mask):
            raise ValueError("rationale mask must equal the set of component keys")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rationale):
            return NotImplemented
        return self.mask == other.mask and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.mask, tuple(sorted(self.components.items(), key=lambda i: i[0].value))))


def from_profile(
    source: StructuralProfile | Molecule,
    mask: Iterable[ComponentKind] | None = None,
    catalog: Catalog | None = None,
) -> Rationale:
    """Build a rationale from an extracted profile, or from a molecule
    profiled on just the masked components.

    Args:
        source: Extracted structural profile, or a molecule (perceived
            first if needed).
        mask: Components to include; defaults to all seven extractable
            kinds (everything except the IUPAC name).
        catalog: Group/ring catalog used when profiling a molecule.

    Returns:
        Rationale with source EXTRACTED.
    """
    wanted = frozenset(mask) if mask is not None else EXTRACTABLE_KINDS
    unsupported = wanted - EXTRACTABLE_KINDS
    if unsupported:
        names = ", ".join(sorted(kind.value for kind in unsupported))
        raise ValueError(f"components not extractable from a profile: {names}")
    return Rationale(
        components=component_values(
            source, (kind for kind in COMPONENTS if kind in wanted), catalog
        ),
        mask=wanted,
    )


# ---------------------------------------------------------------------------
# Rendering


def _plural(n: int, word: str) -> str:
    return word if n == 1 else word + "s"


def _multiset_text(items: tuple[str, ...]) -> str:
    counts = Counter(items)
    parts = []
    for name in sorted(counts):
        n = counts[name]
        parts.append(name if n == 1 else f"{n} x {name}")
    return ", ".join(parts)


def _chirality_text(centers: ChiralityValue) -> str:
    return ", ".join(f"{config.value} at atom {pos}" for pos, config in centers)


def _sentence(kind: ComponentKind, value: object) -> str:
    if kind is ComponentKind.FORMULA:
        return f"The molecular formula is {value}."
    if kind is ComponentKind.LONGEST_CHAIN:
        return f"The longest carbon chain has {value} {_plural(int(value), 'carbon')}."
    if kind is ComponentKind.AROMATIC_RINGS:
        return f"The molecule has {value} aromatic {_plural(int(value), 'ring')}."
    if kind is ComponentKind.RING_COMPOUNDS:
        items = tuple(value)
        if not items:
            return "The molecule contains no rings."
        return (
            f"The molecule contains {len(items)} {_plural(len(items), 'ring')}: "
            f"{_multiset_text(items)}."
        )
    if kind is ComponentKind.FUNCTIONAL_GROUPS:
        items = tuple(value)
        if not items:
            return "The molecule contains no functional groups."
        return (
            f"The molecule contains {len(items)} functional "
            f"{_plural(len(items), 'group')}: {_multiset_text(items)}."
        )
    if kind is ComponentKind.CHIRALITY:
        centers = tuple(value)
        if not centers:
            return "The molecule has no specified chiral centers."
        return (
            f"The molecule has {len(centers)} chiral {_plural(len(centers), 'center')}: "
            f"{_chirality_text(centers)}."
        )
    if kind is ComponentKind.MOLECULAR_WEIGHT:
        return f"The molecular weight is {float(value)} g/mol."
    return f"The IUPAC name is {value}."


def render(rationale: Rationale, format: RationaleFormat = RationaleFormat.PROSE) -> str:
    """Render a rationale in the requested format.

    Raises:
        EmptyRationaleError: The mask is empty.
    """
    if not rationale.mask:
        raise EmptyRationaleError("cannot render a rationale with an empty mask")
    kinds = [kind for kind in CANONICAL_ORDER if kind in rationale.mask]
    if format is RationaleFormat.PROSE:
        return " ".join(_sentence(kind, rationale.components[kind]) for kind in kinds)

    payload: dict[str, object] = {}
    for kind in kinds:
        value = rationale.components[kind]
        if kind in (ComponentKind.RING_COMPOUNDS, ComponentKind.FUNCTIONAL_GROUPS):
            payload[kind.value] = list(value)
        elif kind is ComponentKind.CHIRALITY:
            payload[kind.value] = [
                {"configuration": config.value, "atom_index": pos} for pos, config in value
            ]
        else:
            payload[kind.value] = value
    return json.dumps(payload)


# ---------------------------------------------------------------------------
# Parsing

_SENTENCE_SPLIT = re.compile(r"(?<=\.)\s+")

_RE_FORMULA = re.compile(r"The molecular formula is (\S+)\.")
_RE_CHAIN = re.compile(r"The longest carbon chain has (\d+) carbons?\.")
_RE_AROMATIC = re.compile(r"The molecule has (\d+) aromatic rings?\.")
_RE_NO_RINGS = re.compile(r"The molecule contains no rings\.")
_RE_RINGS = re.compile(r"The molecule contains \d+ rings?: (.+)\.")
_RE_NO_GROUPS = re.compile(r"The molecule contains no functional groups\.")
_RE_GROUPS = re.compile(r"The molecule contains \d+ functional groups?: (.+)\.")
_RE_NO_CHIRAL = re.compile(r"The molecule has no specified chiral centers\.")
_RE_CHIRAL = re.compile(r"The molecule has \d+ chiral centers?: (.+)\.")
_RE_WEIGHT = re.compile(r"The molecular weight is ([0-9][0-9.eE+-]*) g/mol\.")
_RE_NAME = re.compile(r"The IUPAC name is (.+)\.")
_RE_CHIRAL_ITEM = re.compile(r"(R|S|Unresolved) at atom (\d+)")
_RE_COUNTED_ITEM = re.compile(r"(\d+) x (.+)")


def _parse_multiset(text: str) -> tuple[str, ...]:
    items: list[str] = []
    for chunk in text.split(", "):
        match = _RE_COUNTED_ITEM.fullmatch(chunk)
        if match:
            items.extend([match.group(2)] * int(match.group(1)))
        else:
            items.append(chunk)
    return tuple(sorted(items))


def _parse_chirality(text: str) -> ChiralityValue | None:
    centers: list[tuple[int, Configuration]] = []
    for chunk in text.split(", "):
        match = _RE_CHIRAL_ITEM.fullmatch(chunk)
        if match is None:
            return None
        centers.append((int(match.group(2)), Configuration(match.group(1))))
    centers.sort(key=lambda item: item[0])
    return tuple(centers)


def _parse_prose_sentence(sentence: str) -> tuple[ComponentKind, object] | None:
    match = _RE_FORMULA.fullmatch(sentence)
    if match:
        return ComponentKind.FORMULA, match.group(1)
    match = _RE_CHAIN.fullmatch(sentence)
    if match:
        return ComponentKind.LONGEST_CHAIN, int(match.group(1))
    match = _RE_AROMATIC.fullmatch(sentence)
    if match:
        return ComponentKind.AROMATIC_RINGS, int(match.group(1))
    if _RE_NO_RINGS.fullmatch(sentence):
        return ComponentKind.RING_COMPOUNDS, ()
    match = _RE_RINGS.fullmatch(sentence)
    if match:
        return ComponentKind.RING_COMPOUNDS, _parse_multiset(match.group(1))
    if _RE_NO_GROUPS.fullmatch(sentence):
        return ComponentKind.FUNCTIONAL_GROUPS, ()
    match = _RE_GROUPS.fullmatch(sentence)
    if match:
        return ComponentKind.FUNCTIONAL_GROUPS, _parse_multiset(match.group(1))
    if _RE_NO_CHIRAL.fullmatch(sentence):
        return ComponentKind.CHIRALITY, ()
    match = _RE_CHIRAL.fullmatch(sentence)
    if match:
        centers = _parse_chirality(match.group(1))
        if centers is None:
            return None
        return ComponentKind.CHIRALITY, centers
    match = _RE_WEIGHT.fullmatch(sentence)
    if match:
        try:
            return ComponentKind.MOLECULAR_WEIGHT, float(match.group(1))
        except ValueError:
            return None
    match = _RE_NAME.fullmatch(sentence)
    if match:
        return ComponentKind.IUPAC_NAME, match.group(1)
    return None


def _coerce_json_value(kind: ComponentKind, value: object) -> object | None:
    """Validate and normalize one JSON component value; None on mismatch."""
    if kind is ComponentKind.FORMULA or kind is ComponentKind.IUPAC_NAME:
        return value if isinstance(value, str) else None
    if kind in (ComponentKind.LONGEST_CHAIN, ComponentKind.AROMATIC_RINGS):
        return value if isinstance(value, int) and not isinstance(value, bool) else None
    if kind in (ComponentKind.RING_COMPOUNDS, ComponentKind.FUNCTIONAL_GROUPS):
        if isinstance(value, list) and all(isinstance(item, str) for item in value):
            return tuple(sorted(value))
        return None
    if kind is ComponentKind.CHIRALITY:
        if not isinstance(value, list):
            return None
        centers: list[tuple[int, Configuration]] = []
        for item in value:
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("atom_index"), int)
                or isinstance(item.get("atom_index"), bool)
                or item.get("configuration") not in ("R", "S", "Unresolved")
            ):
                return None
            centers.append((item["atom_index"], Configuration(item["configuration"])))
        centers.sort(key=lambda c: c[0])
        return tuple(centers)
    # molecular weight
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def parse_rationale(text: str) -> Rationale:
    """Parse prose or JSON rationale text.

    Unrecognized sentences or JSON keys are skipped and reported in the
    result's warnings.

    Raises:
        RationaleParseError: Zero components recognized.
    """
    stripped = text.strip()
    components: dict[ComponentKind, object] = {}
    warnings: list[str] = []

    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise RationaleParseError(f"malformed JSON rationale: {exc}") from exc
        if not isinstance(payload, dict):
            raise RationaleParseError("JSON rationale must be an object")
        key_to_kind = {kind.value: kind for kind in ComponentKind}
        for key, raw in payload.items():
            kind = key_to_kind.get(key)
            if kind is None:
                warnings.append(f"unknown component key {key!r}")
                continue
            value = _coerce_json_value(kind, raw)
            if value is None:
                warnings.append(f"component {key!r} has a malformed value")
                continue
            components[kind] = value
    else:
        for sentence in _SENTENCE_SPLIT.split(stripped):
            if not sentence:
                continue
            parsed = _parse_prose_sentence(sentence)
            if parsed is None:
                warnings.append(f"unrecognized sentence: {sentence!r}")
                continue
            kind, value = parsed
            components[kind] = value

    if not components:
        raise RationaleParseError(
            "no structural components recognized"
            + (f" ({'; '.join(warnings)})" if warnings else "")
        )
    return Rationale(
        components=components,
        mask=frozenset(components),
        source=RationaleSource.PARSED,
        warnings=tuple(warnings),
    )


def apply_reliability_mask(
    rationale: Rationale, reliable: Iterable[ComponentKind]
) -> Rationale:
    """Keep only components named reliable; the result may be empty-masked."""
    keep = frozenset(reliable) & rationale.mask
    return Rationale(
        components={kind: rationale.components[kind] for kind in keep},
        mask=keep,
        source=rationale.source,
        warnings=rationale.warnings,
    )
