"""Frozen ``compare_pair`` records over gold/prediction pairs.

tests/data/golden_compare.jsonl holds one row per pair: the two strings
and every field of the ``ComparisonRecord`` that ``compare_pair``
returns for them.  The pairs are every ordered pair of corpus molecules
that share a formula, each corpus molecule against its ``@``/``@@``
flips and against two ``random_equivalent`` respellings, each against
one molecule of another formula, and unparsable strings on either side.
A change to exact matching, fingerprints, edit distance or BLEU that
alters any record shows here.

    python3 tests/test_golden_compare.py --write   # regenerate the file
"""

from __future__ import annotations

import json
import random
import re
import sys
from collections import defaultdict
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molstruct import compare_pair, extract_profile, parse_strict, random_equivalent  # noqa: E402

DATA = Path(__file__).parent / "data"
CORPUS_PATH = DATA / "golden_corpus.smi"
GOLDEN_PATH = DATA / "golden_compare.jsonl"
RESPELLINGS = 2
UNPARSABLE = ("", "C(((", "notsmiles!!", "C1CC", "[Xx]", "c1cccc1", "C(C)(C)(C)(C)C")


def corpus_smiles() -> list[str]:
    return [line.split("\t")[0] for line in CORPUS_PATH.read_text().splitlines() if line.strip()]


def stereo_flips(smiles: str) -> list[str]:
    """``smiles`` with each chirality tag flipped alone, then with all flipped."""
    tags = list(re.finditer(r"@@?", smiles))

    def flip(text: str) -> str:
        return "@" if text == "@@" else "@@"

    out = [smiles[: m.start()] + flip(m.group()) + smiles[m.end() :] for m in tags]
    if len(tags) > 1:
        out.append(re.sub(r"@@?", lambda m: flip(m.group()), smiles))
    return out


def pairs() -> list[tuple[str, str]]:
    corpus = corpus_smiles()
    formulas = [extract_profile(parse_strict(s)).formula for s in corpus]
    by_formula: dict[str, list[str]] = defaultdict(list)
    for smiles, formula in zip(corpus, formulas):
        by_formula[formula].append(smiles)
    out = []
    for index, (smiles, formula) in enumerate(zip(corpus, formulas)):
        out += [(smiles, other) for other in by_formula[formula] if other != smiles]
        out += [(smiles, flipped) for flipped in stereo_flips(smiles)]
        mol = parse_strict(smiles)
        out += [(smiles, random_equivalent(mol, index * 1000 + k)) for k in range(RESPELLINGS)]
        rng = random.Random(index)
        others = [i for i, f in enumerate(formulas) if f != formula]
        out.append((smiles, corpus[rng.choice(others)]))
    for k, bad in enumerate(UNPARSABLE):
        out += [(bad, corpus[k * 40]), (corpus[k * 40 + 1], bad), (bad, bad)]
    return out


def golden_row(gold: str, predicted: str) -> dict:
    record = compare_pair(gold, predicted)
    return {
        "gold": gold,
        "predicted": predicted,
        "valid": record.valid,
        "exact": record.exact,
        "levenshtein": record.levenshtein,
        "morgan_similarity": record.morgan_similarity,
        "bleu": [
            list(record.bleu.matched),
            list(record.bleu.total),
            record.bleu.candidate_length,
            record.bleu.reference_length,
        ],
    }


def load_golden() -> list[dict]:
    return [json.loads(line) for line in GOLDEN_PATH.read_text().splitlines()]


def test_golden_file_covers_every_pair() -> None:
    assert [(row["gold"], row["predicted"]) for row in load_golden()] == pairs()


def test_comparisons_match_the_golden_file() -> None:
    bad = [
        row for row in load_golden() if golden_row(row["gold"], row["predicted"]) != row
    ]
    assert bad == []


def test_golden_file_holds_every_kind_of_pair() -> None:
    rows = load_golden()
    assert any(row["exact"] and row["gold"] != row["predicted"] for row in rows)
    assert any(not row["exact"] and row["valid"] and row["morgan_similarity"] == 1.0 for row in rows)
    assert any(not row["valid"] for row in rows)
    assert any(row["valid"] and row["morgan_similarity"] == 0.0 for row in rows)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        rows = [golden_row(gold, predicted) for gold, predicted in pairs()]
        GOLDEN_PATH.write_text("".join(json.dumps(row) + "\n" for row in rows))
        print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
    else:
        sys.exit(__doc__)
