"""Exception types shared across the toolkit."""

from __future__ import annotations


class MolstructError(Exception):
    """Base class for all toolkit errors."""


class ValenceError(MolstructError):
    """Bonded valence exceeds every allowed valence for a plain (non-bracket) atom.

    Attributes:
        position: Byte offset of the offending atom in the source SMILES,
            -1 for programmatically built molecules.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class AromaticityError(MolstructError):
    """A lowercase (aromatic) atom cannot be placed in any aromatic ring.

    Attributes:
        position: Byte offset of the offending atom in the source SMILES,
            -1 for programmatically built molecules.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class EmptyRationaleError(MolstructError):
    """A rationale with an empty component mask was rendered or scored."""


class RationaleParseError(MolstructError):
    """Rationale text in which no component could be recognized."""


class WidthMismatchError(MolstructError):
    """Two fingerprints of different widths were compared."""


class CatalogError(MolstructError):
    """A catalog config line or pattern string could not be parsed."""
