"""Frozen profiles and rationale texts of the golden corpus.

tests/data/golden_profiles.jsonl holds, for each corpus molecule, the
seven profile fields and the full prose and JSON rationale texts.  The
test checks the corpus spelling and a few seeded ``random_equivalent``
respellings of every molecule against it, so a refactor of perception,
profiling or rendering that changes any output shows here.

    python3 tests/test_golden_profiles.py --write      # regenerate the file
    python3 tests/test_golden_profiles.py --sweep 100  # 100 respellings each
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molstruct import (  # noqa: E402
    RationaleFormat,
    extract_profile,
    from_profile,
    parse_strict,
    random_equivalent,
    render,
)

DATA = Path(__file__).parent / "data"
CORPUS_PATH = DATA / "golden_corpus.smi"
GOLDEN_PATH = DATA / "golden_profiles.jsonl"
RESPELLINGS = 2


def corpus_smiles() -> list[str]:
    return [line.split("\t")[0] for line in CORPUS_PATH.read_text().splitlines() if line.strip()]


def golden_row(smiles: str) -> dict:
    """Profile fields and rationale texts of one spelling, as JSON values."""
    profile = extract_profile(parse_strict(smiles))
    rationale = from_profile(profile)
    return {
        "formula": profile.formula,
        "longest_chain": profile.longest_chain,
        "aromatic_ring_count": profile.aromatic_ring_count,
        "ring_compounds": list(profile.ring_compounds),
        "functional_groups": list(profile.functional_groups),
        "chiral_centers": [[pos, config.value] for pos, config in profile.chiral_centers],
        "molecular_weight": profile.molecular_weight,
        "prose": render(rationale, RationaleFormat.PROSE),
        "json": render(rationale, RationaleFormat.JSON),
    }


def load_golden() -> list[dict]:
    return [json.loads(line) for line in GOLDEN_PATH.read_text().splitlines()]


def mismatches(respellings: int) -> list[str]:
    """Spellings whose row differs from the golden row of their molecule."""
    out = []
    for index, golden in enumerate(load_golden()):
        smiles = golden.pop("smiles")
        mol = parse_strict(smiles)
        spellings = [smiles] + [
            random_equivalent(mol, index * 1000 + k) for k in range(respellings)
        ]
        out.extend(
            f"{smiles} as {spelling}" for spelling in spellings
            if golden_row(spelling) != golden
        )
    return out


def test_golden_file_covers_the_corpus() -> None:
    assert [row["smiles"] for row in load_golden()] == corpus_smiles()


def test_profiles_and_rationales_match_the_golden_file() -> None:
    assert mismatches(RESPELLINGS) == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        rows = [{"smiles": s, **golden_row(s)} for s in corpus_smiles()]
        GOLDEN_PATH.write_text("".join(json.dumps(row) + "\n" for row in rows))
        print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
    elif len(sys.argv) == 3 and sys.argv[1] == "--sweep":
        n = int(sys.argv[2])
        bad = mismatches(n)
        print(f"{len(corpus_smiles()) * (n + 1)} spellings checked, {len(bad)} mismatches")
        print("\n".join(bad[:20]))
        sys.exit(1 if bad else 0)
    else:
        sys.exit(__doc__)
