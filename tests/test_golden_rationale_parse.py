"""Frozen parse results of hand-picked rationale texts.

tests/data/golden_rationale_parse.jsonl holds, for each text in INPUTS,
what ``parse_rationale`` returned: the components and warnings, or the
error message, plus the prose and JSON re-renders of the result.  The
inputs cover every sentence form in singular and plural, counted and
zero-counted multiset items, malformed values, unknown sentences and
keys, JSON type mismatches and JSON that is no object, so a rewrite of
the parser that changes what any of them yields shows here.

    python3 tests/test_golden_rationale_parse.py --write   # regenerate the file
"""

from __future__ import annotations

import json
import sys
from enum import Enum
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molstruct import RationaleFormat, parse_rationale, render  # noqa: E402
from molstruct.errors import RationaleParseError  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_rationale_parse.jsonl"

INPUTS = [
    # Every prose sentence form.
    "The molecular formula is C4H10O. The longest carbon chain has 4 carbons. "
    "The molecule has 0 aromatic rings. The molecule contains no rings. "
    "The molecule contains 1 functional group: hydroxyl. "
    "The molecule has no specified chiral centers. "
    "The molecular weight is 74.12 g/mol. The IUPAC name is butan-2-ol.",
    "The molecular formula is C4 H10O.",
    "The longest carbon chain has 1 carbon.",
    "The longest carbon chain has 1 carbons.",
    "The longest carbon chain has 0 carbons.",
    "The longest carbon chain has 007 carbons.",
    "The longest carbon chain has -3 carbons.",
    "The longest carbon chain has four carbons.",
    "The molecule has 1 aromatic ring.",
    "The molecule has 2 aromatic rings.",
    "The molecule has 2 aromatic ring.",
    "The molecule contains 1 ring: benzene.",
    "The molecule contains 3 rings: 2 x benzene, pyridine.",
    "The molecule contains 5 rings: benzene.",
    "The molecule contains 2 rings: pyridine, benzene.",
    "The molecule contains no functional groups.",
    "The molecule contains 1 functional group: hydroxyl.",
    "The molecule contains 3 functional groups: 2 x hydroxyl, ester.",
    "The molecule contains 1 functional group: 0 x ester.",
    "The molecule contains 2 functional groups: ester, 1 x ester.",
    "The molecule contains 2 functional groups: carboxylic acid, primary amine.",
    "The molecule contains 1 functional groups: ester.",
    "The molecule has 1 chiral center: R at atom 2.",
    "The molecule has 2 chiral centers: S at atom 5, R at atom 2.",
    "The molecule has 1 chiral center: Unresolved at atom 0.",
    "The molecular formula is CH4. The molecule has 1 chiral center: X at atom 2.",
    "The molecule has 1 chiral center: R at atom -1.",
    "The molecule has 2 chiral centers: R at atom 1, S at 2.",
    "The molecular weight is 74.12 g/mol.",
    "The molecular weight is 74 g/mol.",
    "The molecular weight is 0 g/mol.",
    "The molecular weight is 1e-05 g/mol.",
    "The molecular weight is 1.5E+3 g/mol.",
    "The molecular weight is 1.2.3 g/mol.",
    "The molecular weight is -74.1 g/mol.",
    "The IUPAC name is 2-methylpropan-1-ol.",
    "The IUPAC name is acetic acid, ethyl ester.",
    # Sentence splitting, whitespace and unknown sentences.
    "This molecule smells nice. The molecular formula is CH4. Trust me.",
    "  The molecular formula is CH4.   The molecule has 0 aromatic rings.\n\n",
    "The molecular formula is CH4. The molecular formula is C2H6.",
    "The molecular formula is CH4",
    "the molecular formula is CH4.",
    "The molecular formula is CH4.The longest carbon chain has 1 carbon.",
    "Nothing structural here.",
    "",
    "   ",
    "[1, 2]",
    # JSON.
    '{"formula": "C3H7NO2", "longest_chain": 2, "aromatic_rings": 0, '
    '"ring_compounds": [], "functional_groups": ["carboxylic acid", "primary amine"], '
    '"chirality": [{"configuration": "S", "atom_index": 1}], '
    '"molecular_weight": 89.09, "iupac_name": "alanine"}',
    '{"iupac_name": "ethanol", "formula": "C2H6O"}',
    '{"formula": "CH4", "bogus": 1}',
    '{"formula": "CH4", "longest_chain": "four"}',
    '{"longest_chain": true}',
    '{"longest_chain": 0, "aromatic_rings": 3}',
    '{"aromatic_rings": 1.0}',
    '{"aromatic_rings": null, "formula": "CH4"}',
    '{"molecular_weight": 74}',
    '{"molecular_weight": 74.12}',
    '{"molecular_weight": 1e-05}',
    '{"molecular_weight": true}',
    '{"molecular_weight": "74.1", "formula": "CH4"}',
    '{"ring_compounds": ["pyridine", "benzene", "benzene"]}',
    '{"ring_compounds": "benzene", "formula": "CH4"}',
    '{"functional_groups": [1], "formula": "CH4"}',
    '{"functional_groups": []}',
    '{"chirality": [{"configuration": "R", "atom_index": 3}, '
    '{"configuration": "S", "atom_index": 1}]}',
    '{"chirality": [{"configuration": "Unresolved", "atom_index": 0, "extra": 1}]}',
    '{"chirality": [], "formula": "CH4"}',
    '{"chirality": [{"configuration": "X", "atom_index": 1}], "formula": "CH4"}',
    '{"chirality": [{"configuration": "R", "atom_index": true}], "formula": "CH4"}',
    '{"chirality": [{"configuration": "R", "atom_index": "1"}], "formula": "CH4"}',
    '{"chirality": [{"configuration": "R"}], "formula": "CH4"}',
    '{"chirality": ["R at atom 1"], "formula": "CH4"}',
    '{"chirality": {"configuration": "R", "atom_index": 1}, "formula": "CH4"}',
    '{"formula": null, "iupac_name": 7, "longest_chain": 2}',
    '{"formula": {"x": 1}, "longest_chain": [2]}',
    '{"formula": "A", "formula": "B"}',
    '  {"formula": "CH4"}  ',
    "{}",
    '{"bogus": 1}',
    "{not json",
    '{"formula": "CH4"} trailing',
]


def _plain(value: object) -> object:
    """A component value as JSON: tuples become lists, enums their values."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    return value


def golden_row(text: str) -> dict:
    """What parse_rationale makes of one text, as JSON values."""
    try:
        rationale = parse_rationale(text)
    except RationaleParseError as exc:
        return {"text": text, "error": str(exc)}
    return {
        "text": text,
        "components": {
            kind.value: _plain(value)
            for kind, value in sorted(rationale.components.items(), key=lambda i: i[0].value)
        },
        "warnings": list(rationale.warnings),
        "prose": render(rationale, RationaleFormat.PROSE),
        "json": render(rationale, RationaleFormat.JSON),
    }


def load_golden() -> list[dict]:
    return [json.loads(line) for line in GOLDEN_PATH.read_text().splitlines()]


def test_golden_file_covers_the_inputs() -> None:
    assert [row["text"] for row in load_golden()] == INPUTS


def test_parse_results_match_the_golden_file() -> None:
    assert [golden_row(row["text"]) for row in load_golden()] == load_golden()


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        rows = [golden_row(text) for text in INPUTS]
        GOLDEN_PATH.write_text("".join(json.dumps(row) + "\n" for row in rows))
        print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
    else:
        sys.exit(__doc__)
