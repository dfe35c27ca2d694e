"""Output checks against each record's known answer.

Every check runs in the main process, outside the timed region.  A check
returns None when the output is right and a short description of the
first difference otherwise.
"""

from __future__ import annotations

import json
import math

from workloads import GradeAnswer, LargeAnswer, Record, SelectAnswer, Workload

from molstruct import CANONICAL_ORDER, corpus_bleu


def heavy_atoms(smiles: str) -> int:
    """Atom count of a SMILES over C and O only (the large families)."""
    return sum(smiles.count(ch) for ch in "CcOo")


class Checker:
    """Checks one workload's outputs; remembers canonical forms by molecule."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.canonical: dict[str, str] = {}

    # -- in-process outputs ------------------------------------------------

    def check(self, record: Record, value: object) -> str | None:
        return getattr(self, f"_{self.workload.name}")(record, value)

    def _describe(self, record: Record, text: str) -> str | None:
        return None if text == record.answer else f"rationale {text!r} != {record.answer!r}"

    def _select(self, record: Record, value: tuple) -> str | None:
        index, parse_ok, ratio = value
        answer: SelectAnswer = record.answer
        if index != answer.index:
            return f"selected {index}, expected {answer.index}"
        if parse_ok != answer.parse_ok:
            return f"parse flags {parse_ok} != {answer.parse_ok}"
        return None if ratio == 1.0 else f"selected candidate scores {ratio}, expected 1.0"

    def _grade(self, record: Record, value: tuple) -> str | None:
        scores, (valid, exact, distance, morgan, _) = value
        answer: GradeAnswer = record.answer
        if scores != answer.scores:
            return f"scores {scores} != {answer.scores}"
        if (valid, exact, distance) != (answer.valid, answer.exact, answer.levenshtein):
            return (f"valid/exact/levenshtein {(valid, exact, distance)} != "
                    f"{(answer.valid, answer.exact, answer.levenshtein)}")
        if answer.morgan is None:
            return None if 0.0 <= morgan <= 1.0 else f"morgan similarity {morgan} outside [0, 1]"
        return None if morgan == answer.morgan else f"morgan similarity {morgan} != {answer.morgan}"

    def _large(self, record: Record, value: tuple) -> str | None:
        canonical, profile, text = value
        answer: LargeAnswer = record.answer
        if profile != answer.profile:
            return f"profile {profile} != {answer.profile}"
        if text != answer.text:
            return f"rationale {text!r} != {answer.text!r}"
        return self.check_canonical(record, canonical)

    def check_canonical(self, record: Record, canonical: str) -> str | None:
        """Every spelling of a molecule canonicalizes to one string of its size."""
        if heavy_atoms(canonical) != record.answer.heavy_atoms:
            return f"canonical {canonical!r} has the wrong atom count"
        first = self.canonical.setdefault(record.key, canonical)
        return None if canonical == first else f"canonical {canonical!r} != {first!r} for {record.key}"

    # -- CLI outputs -------------------------------------------------------

    def check_cli(
        self, subcommand: str, records: list[Record], stdout: str, inproc: dict[int, tuple]
    ) -> tuple[int, list[str]]:
        """(records failed, wrong-output descriptions) for one CLI run.

        ``inproc`` maps record ids to in-process (status, value) pairs;
        aggregate reports are compared against them where the answer is
        only known from the program itself (Morgan mean, BLEU).
        """
        lines = stdout.splitlines()
        if subcommand in ("score", "compare"):
            return self._cli_report(subcommand, records, lines, inproc)
        if len(lines) != len(records):
            return len(records), [f"{subcommand}: {len(lines)} output lines for {len(records)} records"]
        failed, wrong = 0, []
        for record, line in zip(records, lines):
            row = json.loads(line)
            if "error" in row:
                failed += 1
                continue
            if subcommand == "analyze":
                expected = record.answer if isinstance(record.answer, str) else record.answer.text
                problem = None if row["rationale"] == expected else f"analyze {row['rationale']!r}"
            elif subcommand == "canon":
                problem = self.check_canonical(record, row["canonical_smiles"])
            else:
                chosen = row["candidates"][row["selected_index"]]
                problem = self._select(record, (
                    row["selected_index"],
                    tuple(c["parse_ok"] for c in row["candidates"]),
                    chosen["matching_ratio"],
                ))
            if problem:
                failed += 1
                wrong.append(f"{subcommand} record {record.rid}: {problem}")
        return failed, wrong

    def _cli_report(
        self, subcommand: str, records: list[Record], lines: list[str], inproc: dict[int, tuple]
    ) -> tuple[int, list[str]]:
        if len(lines) != 1:
            return len(records), [f"{subcommand}: expected one report line, got {len(lines)}"]
        report = json.loads(lines[0])
        n = len(records)
        if subcommand == "score":
            expected = {"n_records": n, "n_scored": n, "components": {}}
            for kind in CANONICAL_ORDER:
                values = [r.answer.scores[kind.value] for r in records if kind.value in r.answer.scores]
                expected["components"][kind.value] = {
                    "n_scored": len(values),
                    "accuracy": sum(values) / len(values) if values else None,
                }
        else:
            answers = [r.answer for r in records]
            expected = {
                "n_records": n,
                "exact_match": sum(a.exact for a in answers) / n,
                "levenshtein_mean": sum(a.levenshtein for a in answers) / n,
                "validity": sum(a.valid for a in answers) / n,
                "bleu": corpus_bleu([r.payload[0] for r in records], [r.payload[2] for r in records]),
            }
            ok = [inproc.get(r.rid) for r in records]
            if all(entry is not None and entry[0] == "ok" for entry in ok):
                expected["morgan_similarity_mean"] = sum(v[1][1][3] for v in ok) / n
            elif not 0.0 <= report.get("morgan_similarity_mean", -1.0) <= 1.0:
                return n, ["compare: morgan_similarity_mean outside [0, 1]"]
        problems = [
            f"{subcommand} report {key}={report.get(key)!r}, expected {value!r}"
            for key, value in expected.items()
            if not _same(report.get(key), value)
        ]
        return (n if problems else 0), problems


def same_rows(a: str, b: str) -> bool:
    """Equal JSON lines, floats compared to 12 significant digits.

    Byte equality is too strict today: matching ratios are summed in
    frozenset order, which follows the per-process string hash seed, so
    their last bit can differ between two invocations.
    """
    rows_a, rows_b = a.splitlines(), b.splitlines()
    return len(rows_a) == len(rows_b) and all(
        _same(json.loads(x), json.loads(y)) for x, y in zip(rows_a, rows_b)
    )


def _same(got: object, want: object) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and set(got) == set(want) and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    return got == want
