"""Frozen canonical SMILES, canonical atom order and SSSR rings.

tests/data/golden_canonical.jsonl holds, for each input in ``inputs()``,
the ``canonicalize`` string, the ``canonical_order`` list and the atom
lists of the perceived SSSR rings.  The inputs are every corpus molecule
with two random respellings, and symmetric families whose tie-break
search is the hard case for the canonical writer: para-polyphenyls,
isopropyl-branched chains, cycloalkanes, prismanes, acenes and
stereo-tagged oligovalines.  Long n-alkanes, PEG chains and large
cycloalkanes are the hard case for neighbourhood refinement, which needs
a round per few atoms of a chain; together with adamantane they also
cover every molecule of the benchmark's ``large`` workload.  Family
members of at most 200 atoms are respelled once as well, so the writer's
walk under a shuffled numbering is frozen on the symmetric cases too.
Spiro-joined cyclopentane chains, cyclobutane ladders, para-polyphenyl-30,
both spellings of 2-azabicyclo[2.2.2]octane (whose SSSR depends on the
numbering) and rings joined by a chain or by nothing split into ring
blocks in different ways, which ring perception must not see.  A
rewrite of the canonicalizer, the writer or ring perception that changes
any of them shows here.

    python3 tests/test_golden_canonical.py --write   # regenerate the file
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molstruct.smiles import (  # noqa: E402
    canonical_order,
    canonicalize,
    parse_strict,
    random_equivalent,
)

from conftest import corpus_rows  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_canonical.jsonl"
RESPELLING_SEEDS = (1, 2)
FAMILY_RESPELLING_MAX_ATOMS = 200


def _digit(k: int) -> str:
    return str(k) if k < 10 else f"%{k:02d}"


def polyphenyl(n: int) -> str:
    """n benzene rings joined para to para."""
    return "c1ccc(cc1)" * (n - 1) + "c1ccccc1"


def isopropyl_chain(n: int) -> str:
    """A carbon chain carrying n isopropyl branches, 4n + 2 carbons."""
    return "C" + "C(C(C)C)" * n + "C"


def cycloalkane(n: int) -> str:
    return "C1" + "C" * (n - 2) + "C1"


def prismane(n: int) -> str:
    """Two n-rings joined rung by rung; [4]prismane is cubane."""
    closures = [(0, n - 1), (n, 2 * n - 1)] + [(i, 2 * n - 1 - i) for i in range(n - 1)]
    marks = [""] * (2 * n)
    for label, (i, j) in enumerate(closures, start=1):
        marks[i] += _digit(label)
        marks[j] += _digit(label)
    return "".join("C" + mark for mark in marks)


def acene(n: int) -> str:
    """n benzene rings fused in a line (naphthalene, anthracene, ...)."""
    return (
        "c1ccc2"
        + "".join(f"cc{_digit(k)}" for k in range(3, n + 1))
        + "ccccc" + _digit(n)
        + "".join(f"cc{_digit(k)}" for k in range(n - 1, 1, -1))
        + "c1"
    )


def alkane(n: int) -> str:
    return "C" * n


def peg(n: int) -> str:
    """HO-(CH2CH2O)n-H."""
    return "O" + "CCO" * n


def adamantane(_: int) -> str:
    return "C1C2CC3CC1CC(C2)C3"


def spiro_chain(n: int) -> str:
    """n cyclopentanes in a line, each sharing one atom with the next."""
    return "C1CCC" + "".join(f"C{k % 2 + 1}{(k + 1) % 2 + 1}CCC" for k in range(n - 1)) + f"C{(n - 1) % 2 + 1}"


def ladder(n: int) -> str:
    """n cyclobutanes fused edge to edge in a line, 2n + 2 carbons.

    The atoms are spelled in a zigzag along the rungs, so each ring bond
    closes a rail three atoms further on.
    """
    marks = [""] * (2 * n + 2)
    for k in range(0, 2 * n, 2):
        label = str(k // 2 % 2 + 1)
        marks[k] += label
        marks[k + 3] += label
    return "".join("C" + mark for mark in marks)


RING_BLOCK_CASES = ("C1C2CCC(C1)CN2", "C1C2CCC(CC2)N1", "C1CC1.c1ccccc1CC1CCCC1")


def ring_block_case(k: int) -> str:
    """A bridged bicycle in either spelling, or rings joined by a chain and by nothing."""
    return RING_BLOCK_CASES[k]


def oligovaline(n: int) -> str:
    """n L-valine residues written with stereo tags, as a free acid."""
    return "N[C@@H](C(C)C)C(=O)" * n + "O"


FAMILIES = (
    (polyphenyl, range(1, 10)),
    (isopropyl_chain, range(1, 11)),
    (cycloalkane, range(3, 51)),
    (prismane, range(3, 21)),
    (acene, range(2, 17)),
    (oligovaline, range(1, 9)),
    (alkane, (8, 16, 32, 48, 64, 65, 80, 100, 500, 2000)),
    (peg, (4, 8, 16, 32, 40, 200)),
    (cycloalkane, (100, 200)),
    (adamantane, (10,)),
    (spiro_chain, (5, 20, 60)),
    (ladder, (10, 50, 100)),
    (polyphenyl, (30,)),
    (ring_block_case, range(len(RING_BLOCK_CASES))),
)


def inputs() -> list[str]:
    """Corpus molecules, each followed by its respellings, then the families.

    A family member of at most ``FAMILY_RESPELLING_MAX_ATOMS`` atoms is
    followed by one respelling, with the first seed.
    """
    out: list[str] = []
    for row in corpus_rows():
        mol = parse_strict(row[0])
        out.append(row[0])
        out.extend(random_equivalent(mol, seed) for seed in RESPELLING_SEEDS)
    for family, sizes in FAMILIES:
        for n in sizes:
            smiles = family(n)
            out.append(smiles)
            mol = parse_strict(smiles)
            if len(mol.atoms) <= FAMILY_RESPELLING_MAX_ATOMS:
                out.append(random_equivalent(mol, RESPELLING_SEEDS[0]))
    return out


def golden_row(smiles: str) -> dict:
    mol = parse_strict(smiles)
    return {
        "smiles": smiles,
        "canonical": canonicalize(mol),
        "order": canonical_order(mol),
        "rings": [list(ring.atoms) for ring in mol.rings],
    }


def load_golden() -> list[dict]:
    return [json.loads(line) for line in GOLDEN_PATH.read_text().splitlines()]


def test_golden_file_covers_the_inputs() -> None:
    assert [row["smiles"] for row in load_golden()] == inputs()


def test_canonical_forms_match_the_golden_file() -> None:
    for row in load_golden():
        assert golden_row(row["smiles"]) == row, row["smiles"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        rows = [golden_row(smiles) for smiles in inputs()]
        GOLDEN_PATH.write_text("".join(json.dumps(row) + "\n" for row in rows))
        print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
    else:
        sys.exit(__doc__)
