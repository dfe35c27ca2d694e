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
numbering.

Both readers accept, per component, only values whose sentence reads
back as the same value: counts and atom indices are integers >= 0, the
weight is finite and >= 0, the formula holds no whitespace, no string
holds a period followed by whitespace, and a ring or group list holds at
most 1,000,000 items.  So parse_rationale(render(r, f)) == r for them in
both formats, and a rationale parsed from JSON reads back from its prose.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple

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
# One codec per component: its sentence and JSON value, written and read


class _Codec(NamedTuple):
    """How one component's value is written and read, in prose and in JSON."""

    sentence: re.Pattern[str]  # group 1 is the value text, None for an empty list
    write_prose: Callable[[Any], str]
    read_text: Callable[[str | None], Any]
    write_json: Callable[[Any], object]
    read_json: Callable[[object], Any]  # None for a value of the wrong type


def _plural(n: object) -> str:
    return "" if n == 1 else "s"


def _template_re(template: str, value_re: str = "") -> str:
    """Regex of a sentence template: "{}" captures the value, "{n}" is a
    count and "{s}" an optional plural ending.  Templates hold no regex
    metacharacter but ".", so that is all this escapes."""
    escaped = template.replace(".", r"\.").replace("{n}", r"\d+").replace("{s}", "s?")
    return escaped.replace("{}", f"({value_re})")


def _scalar(
    template: str, value_re: str, read: Callable, json_types: tuple, show: Callable = str
) -> _Codec:
    """One value: in the sentence at "{}" as ``show`` gives it (so a weight
    always shows as a float), and in JSON as itself; read with ``read``."""
    return _Codec(
        re.compile(_template_re(template, value_re)),
        lambda value: template.format(show(value), s=_plural(value)),
        read,
        lambda value: value,
        lambda value: read(value) if type(value) in json_types else None,
    )


def _listed(
    none: str,
    some: str,
    write_items: Callable,
    read_items: Callable,
    write_json: Callable,
    read_json: Callable,
) -> _Codec:
    """A list, written as the sentence ``none`` when empty, else as ``some``
    with its items at "{}"."""
    return _Codec(
        re.compile(f"{_template_re(none)}|{_template_re(some, '.+')}"),
        lambda value: (
            some.format(write_items(value), n=len(value), s=_plural(len(value))) if value else none
        ),
        lambda text: () if text is None else read_items(text),
        write_json,
        read_json,
    )


_RE_COUNTED_ITEM = re.compile(r"(\d+) x (.+)")
_RE_CHIRAL_ITEM = re.compile(r"(R|S|Unresolved) at atom (\d+)")
_MAX_ITEMS = 1_000_000  # per ring or group list, so "1000000000 x a" is refused unexpanded


def _multiset_text(items: tuple[str, ...]) -> str:
    counts = Counter(items)
    return ", ".join(
        name if counts[name] == 1 else f"{counts[name]} x {name}" for name in sorted(counts)
    )


def _parse_multiset(text: str) -> tuple[str, ...] | None:
    """The items, or None where _multiset_text would not write them back:
    more than _MAX_ITEMS items, a name that reads as counted ("2 x a") but
    occurs once, or an empty name occurring more than once or alone."""
    counts: Counter[str] = Counter()
    for chunk in text.split(", "):
        match = _RE_COUNTED_ITEM.fullmatch(chunk)
        counts[match.group(2) if match else chunk] += int(match.group(1)) if match else 1
    total = counts.total()
    if total > _MAX_ITEMS or (total == 1 and counts[""] == 1) or any(
        _RE_COUNTED_ITEM.fullmatch(name) if n == 1 else not name for name, n in counts.items()
    ):
        return None
    return tuple(sorted(counts.elements()))


def _multiset(noun: str) -> _Codec:
    return _listed(
        f"The molecule contains no {noun}s.",
        f"The molecule contains {{n}} {noun}{{s}}: {{}}.",
        _multiset_text,
        _parse_multiset,
        list,
        lambda value: (
            tuple(sorted(value))
            if isinstance(value, list) and all(isinstance(item, str) for item in value)
            else None
        ),
    )


def _parse_chirality(text: str) -> ChiralityValue | None:
    centers: list[tuple[int, Configuration]] = []
    for chunk in text.split(", "):
        match = _RE_CHIRAL_ITEM.fullmatch(chunk)
        if match is None:
            return None
        centers.append((int(match.group(2)), Configuration(match.group(1))))
    return tuple(sorted(centers, key=lambda center: center[0]))


def _json_chirality(value: object) -> ChiralityValue | None:
    if not isinstance(value, list):
        return None
    centers: list[tuple[int, Configuration]] = []
    for item in value:
        if (
            not isinstance(item, dict)
            or type(item.get("atom_index")) is not int
            or item.get("configuration") not in ("R", "S", "Unresolved")
        ):
            return None
        centers.append((item["atom_index"], Configuration(item["configuration"])))
    return tuple(sorted(centers, key=lambda center: center[0]))


_CODECS: dict[ComponentKind, _Codec] = {
    ComponentKind.FORMULA: _scalar("The molecular formula is {}.", r"\S+", str, (str,)),
    ComponentKind.LONGEST_CHAIN: _scalar(
        "The longest carbon chain has {} carbon{s}.", r"\d+", int, (int,)
    ),
    ComponentKind.AROMATIC_RINGS: _scalar(
        "The molecule has {} aromatic ring{s}.", r"\d+", int, (int,)
    ),
    ComponentKind.RING_COMPOUNDS: _multiset("ring"),
    ComponentKind.FUNCTIONAL_GROUPS: _multiset("functional group"),
    ComponentKind.CHIRALITY: _listed(
        "The molecule has no specified chiral centers.",
        "The molecule has {n} chiral center{s}: {}.",
        lambda centers: ", ".join(f"{config.value} at atom {pos}" for pos, config in centers),
        _parse_chirality,
        lambda centers: [
            {"configuration": config.value, "atom_index": pos} for pos, config in centers
        ],
        _json_chirality,
    ),
    ComponentKind.MOLECULAR_WEIGHT: _scalar(
        "The molecular weight is {} g/mol.",
        r"[0-9][0-9.eE+-]*",
        lambda value: float(value) if math.isfinite(float(value)) else None,
        (int, float),
        float,
    ),
    ComponentKind.IUPAC_NAME: _scalar("The IUPAC name is {}.", ".+", str, (str,)),
}


def render(rationale: Rationale, format: RationaleFormat = RationaleFormat.PROSE) -> str:
    """Render a rationale in the requested format.

    Raises:
        EmptyRationaleError: The mask is empty.
    """
    if not rationale.mask:
        raise EmptyRationaleError("cannot render a rationale with an empty mask")
    kinds = [kind for kind in CANONICAL_ORDER if kind in rationale.mask]
    values = rationale.components
    if format is RationaleFormat.PROSE:
        return " ".join(_CODECS[kind].write_prose(values[kind]) for kind in kinds)
    return json.dumps({kind.value: _CODECS[kind].write_json(values[kind]) for kind in kinds})


# ---------------------------------------------------------------------------
# Parsing

_SENTENCE_SPLIT = re.compile(r"(?<=\.)\s+")


def _attempt(read: Callable[[Any], Any], raw: object) -> Any:
    """``read(raw)``, or None if it fails on a number too long or too large."""
    try:
        return read(raw)
    except (ValueError, OverflowError):
        return None


def _read_json(codec: _Codec, raw: object) -> Any:
    """The JSON value read, if its sentence reads back as the same value (as
    a value read from prose does by construction), else None."""
    value = _attempt(codec.read_json, raw)
    if value is None:
        return None
    sentence = codec.write_prose(value)
    match = codec.sentence.fullmatch(sentence)
    if match is None or _SENTENCE_SPLIT.search(sentence):
        return None
    return value if _attempt(codec.read_text, match.group(1)) == value else None


def parse_rationale(text: str) -> Rationale:
    """Parse prose or JSON rationale text.

    Unrecognized sentences or JSON keys, and values outside their
    component's domain, are skipped and reported in the result's warnings.

    Raises:
        RationaleParseError: Zero components recognized.
    """
    stripped = text.strip()
    components: dict[ComponentKind, object] = {}
    warnings: list[str] = []

    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)  # a leading "{" makes it an object
        except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
            raise RationaleParseError(f"malformed JSON rationale: {exc}") from exc
        for key, raw in payload.items():
            try:
                kind = ComponentKind(key)
            except ValueError:
                warnings.append(f"unknown component key {key!r}")
                continue
            value = _read_json(_CODECS[kind], raw)
            if value is None:
                warnings.append(f"component {key!r} has a malformed value")
                continue
            components[kind] = value
    else:
        for sentence in _SENTENCE_SPLIT.split(stripped):
            if not sentence:
                continue
            for kind, codec in _CODECS.items():
                match = codec.sentence.fullmatch(sentence)
                value = match and _attempt(codec.read_text, match.group(1))
                if value is not None:
                    components[kind] = value
                    break
            else:
                warnings.append(f"unrecognized sentence: {sentence!r}")

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
