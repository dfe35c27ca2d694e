"""Command line interface for batch structural analysis.

Five subcommands operate on JSON Lines streams (one JSON object per
line, '-' for stdin/stdout):

    analyze   {"smiles": s} -> {"smiles": s, "rationale": text}
    canon     {"smiles": s} -> {"smiles": s, "canonical_smiles": c}
    select    {"rationale": t, "candidates": [s, ...]} ->
              {"selected_index": i, "selected_smiles": s, ...}
    score     {"smiles": gold, "rationale": t[, "iupac_name": n]} ->
              one accuracy report object
    compare   {"smiles": gold, "predicted": p} ->
              one comparison report object

Per-record failures never abort a run: the output record carries an
"error" code ("UnclosedRing", "BadRecord", "RationaleParse", ...) and a
"message", and the process exits 1.  Exit 0 means every record was
clean; exit 2 means the invocation itself was unusable (bad flags,
unreadable files, malformed catalog).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence, TextIO

from .catalog import Catalog
from .errors import MolstructError
from .metrics import (
    ComparisonRecord,
    aggregate_accuracy,
    aggregate_comparison,
    compare_pair,
    score_reasoning,
)
from .rationale import (
    EXTRACTABLE_KINDS,
    ComponentKind,
    RationaleFormat,
    apply_reliability_mask,
    from_profile,
    parse_rationale,
    render,
)
from .selection import select
from .smiles import ParseDiagnostic, canonicalize, parse

_KEY_TO_KIND = {kind.value: kind for kind in ComponentKind}


def _error_code(exc: MolstructError) -> str:
    name = type(exc).__name__
    return name[: -len("Error")] if name.endswith("Error") else name


@dataclass(frozen=True)
class _JobConfig:
    """Per-record options; picklable so workers can share it."""

    catalog_path: str | None
    components: tuple[str, ...] | None
    format: str
    recall: bool
    reliable: tuple[str, ...] | None


@lru_cache(maxsize=8)
def _load_catalog(path: str | None) -> Catalog:
    return Catalog.default() if path is None else Catalog.from_path(path)


def _parse_record(line: str, required: tuple[str, ...]) -> dict | str:
    """Decode one input line; an error message string on failure."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"malformed JSON record: {exc}"
    if not isinstance(record, dict):
        return "record must be a JSON object"
    for key in required:
        if key not in record:
            return f"record is missing the {key!r} field"
    return record


def _diagnostic_record(smiles: str, diagnostic: ParseDiagnostic) -> dict:
    return {
        "smiles": smiles,
        "error": diagnostic.kind.value,
        "message": diagnostic.message,
        "position": diagnostic.position,
    }


def _analyze_record(config: _JobConfig, line: str) -> dict:
    record = _parse_record(line, ("smiles",))
    if isinstance(record, str):
        return {"error": "BadRecord", "message": record}
    smiles = record["smiles"]
    if not isinstance(smiles, str):
        return {"error": "BadRecord", "message": "smiles must be a string"}
    molecule = parse(smiles)
    if isinstance(molecule, ParseDiagnostic):
        return _diagnostic_record(smiles, molecule)
    mask = (
        frozenset(_KEY_TO_KIND[key] for key in config.components)
        if config.components is not None
        else None
    )
    rationale = from_profile(molecule, mask, _load_catalog(config.catalog_path))
    return {"smiles": smiles, "rationale": render(rationale, RationaleFormat(config.format))}


def _canon_record(config: _JobConfig, line: str) -> dict:
    record = _parse_record(line, ("smiles",))
    if isinstance(record, str):
        return {"error": "BadRecord", "message": record}
    smiles = record["smiles"]
    if not isinstance(smiles, str):
        return {"error": "BadRecord", "message": "smiles must be a string"}
    molecule = parse(smiles)
    if isinstance(molecule, ParseDiagnostic):
        return _diagnostic_record(smiles, molecule)
    return {"smiles": smiles, "canonical_smiles": canonicalize(molecule)}


def _select_record(config: _JobConfig, line: str) -> dict:
    record = _parse_record(line, ("rationale", "candidates"))
    if isinstance(record, str):
        return {"error": "BadRecord", "message": record}
    candidates = record["candidates"]
    if not isinstance(candidates, list) or not all(
        isinstance(item, str) for item in candidates
    ):
        return {"error": "BadRecord", "message": "candidates must be a list of strings"}
    if not candidates:
        return {"error": "BadRecord", "message": "candidates list is empty"}
    if not isinstance(record["rationale"], str):
        return {"error": "BadRecord", "message": "rationale must be a string"}
    try:
        rationale = parse_rationale(record["rationale"])
        if config.reliable is not None:
            rationale = apply_reliability_mask(
                rationale, (_KEY_TO_KIND[key] for key in config.reliable)
            )
        report = select(rationale, candidates, _load_catalog(config.catalog_path))
    except MolstructError as exc:
        return {"error": _error_code(exc), "message": str(exc)}
    return {
        "selected_index": report.selected_index,
        "selected_smiles": report.selected_smiles,
        "all_failed": report.all_failed,
        "candidates": [
            {
                "smiles": entry.smiles,
                "parse_ok": entry.parse_ok,
                "matching_ratio": entry.matching_ratio,
                "components": {
                    kind.value: score for kind, score in sorted(
                        entry.per_component.items(), key=lambda item: item[0].value
                    )
                },
            }
            for entry in report.per_candidate
        ],
    }


def _score_record(
    config: _JobConfig, line: str
) -> tuple[dict[ComponentKind, float] | None, str | None]:
    """One gold/rationale pair; (scores, None) or (None, warning)."""
    record = _parse_record(line, ("smiles", "rationale"))
    if isinstance(record, str):
        return None, record
    if not isinstance(record["smiles"], str) or not isinstance(record["rationale"], str):
        return None, "smiles and rationale must be strings"
    molecule = parse(record["smiles"])
    if isinstance(molecule, ParseDiagnostic):
        return None, f"gold SMILES failed to parse: {molecule.message}"
    gold_name = record.get("iupac_name")
    if gold_name is not None and not isinstance(gold_name, str):
        return None, "iupac_name must be a string"
    try:
        rationale = parse_rationale(record["rationale"])
        if config.components is not None:
            rationale = apply_reliability_mask(
                rationale, (_KEY_TO_KIND[key] for key in config.components)
            )
            if not rationale.mask:
                return None, "no requested components present in the rationale"
        scores = score_reasoning(
            molecule,
            rationale,
            gold_name=gold_name,
            recall=config.recall,
            catalog=_load_catalog(config.catalog_path),
        )
    except MolstructError as exc:
        return None, str(exc)
    return scores, None


def _compare_record(config: _JobConfig, line: str) -> ComparisonRecord | str:
    record = _parse_record(line, ("smiles", "predicted"))
    if isinstance(record, str):
        return record
    if not isinstance(record["smiles"], str) or not isinstance(record["predicted"], str):
        return "smiles and predicted must be strings"
    return compare_pair(record["smiles"], record["predicted"])


def _map_records(
    worker: Callable, config: _JobConfig, lines: Sequence[str], jobs: int
) -> list:
    bound = partial(worker, config)
    if jobs <= 1 or len(lines) <= 1:
        return [bound(line) for line in lines]
    chunk = max(1, len(lines) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(bound, lines, chunksize=chunk))


def _component_list(allowed: frozenset[ComponentKind]) -> Callable[[str], tuple[str, ...]]:
    def convert(text: str) -> tuple[str, ...]:
        keys = tuple(key.strip() for key in text.split(",") if key.strip())
        if not keys:
            raise argparse.ArgumentTypeError("component list is empty")
        for key in keys:
            kind = _KEY_TO_KIND.get(key)
            if kind is None or kind not in allowed:
                names = ", ".join(sorted(k.value for k in allowed))
                raise argparse.ArgumentTypeError(
                    f"unknown component {key!r} (choose from: {names})"
                )
        return keys

    return convert


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molstruct",
        description="Deterministic structural analysis of SMILES streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", default="-", help="input JSONL path, '-' for stdin")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        p.add_argument("--catalog", default=None, help="custom group/ring catalog file")
        p.add_argument(
            "--jobs", type=_positive_int, default=1, help="parallel worker processes"
        )

    analyze = sub.add_parser("analyze", help="render a rationale per molecule")
    add_common(analyze)
    analyze.add_argument(
        "--components",
        type=_component_list(EXTRACTABLE_KINDS),
        default=None,
        help="comma-separated component keys to include",
    )
    analyze.add_argument(
        "--format", choices=("prose", "json"), default="prose", help="rationale format"
    )

    canon = sub.add_parser("canon", help="canonicalize SMILES")
    add_common(canon)

    selectp = sub.add_parser("select", help="pick the candidate matching a rationale")
    add_common(selectp)
    selectp.add_argument(
        "--reliable",
        type=_component_list(frozenset(ComponentKind)),
        default=None,
        help="trust only these rationale components",
    )

    score = sub.add_parser("score", help="grade rationales against gold structures")
    add_common(score)
    score.add_argument(
        "--components",
        type=_component_list(frozenset(ComponentKind)),
        default=None,
        help="grade only these components",
    )
    score.add_argument(
        "--recall",
        action="store_true",
        help="score multisets as recall instead of Jaccard",
    )

    compare = sub.add_parser("compare", help="grade predicted SMILES against gold")
    add_common(compare)
    return parser


def _open_input(path: str) -> TextIO:
    return sys.stdin if path == "-" else open(path, "r", encoding="utf-8")


def _open_output(path: str) -> TextIO:
    return sys.stdout if path == "-" else open(path, "w", encoding="utf-8")


def _read_lines(stream: TextIO) -> list[str]:
    return [line.strip() for line in stream if line.strip()]


def _emit(stream: TextIO, records: Iterable[dict]) -> None:
    for record in records:
        stream.write(json.dumps(record) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    config = _JobConfig(
        catalog_path=args.catalog,
        components=getattr(args, "components", None),
        format=getattr(args, "format", "prose"),
        recall=getattr(args, "recall", False),
        reliable=getattr(args, "reliable", None),
    )
    try:
        _load_catalog(config.catalog_path)
    except (MolstructError, OSError) as exc:
        print(f"molstruct: cannot load catalog: {exc}", file=sys.stderr)
        return 2

    try:
        with _open_input(args.input) as stream:
            lines = _read_lines(stream)
    except OSError as exc:
        print(f"molstruct: cannot read input: {exc}", file=sys.stderr)
        return 2

    workers = {
        "analyze": _analyze_record,
        "canon": _canon_record,
        "select": _select_record,
    }
    exit_code = 0
    try:
        output = _open_output(args.output)
    except OSError as exc:
        print(f"molstruct: cannot open output: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command in workers:
            results = _map_records(workers[args.command], config, lines, args.jobs)
            _emit(output, results)
            if any("error" in record for record in results):
                exit_code = 1
        elif args.command == "score":
            results = _map_records(_score_record, config, lines, args.jobs)
            scored = [scores for scores, _ in results if scores is not None]
            for index, (scores, warning) in enumerate(results, start=1):
                if scores is None:
                    print(f"molstruct: record {index} skipped: {warning}", file=sys.stderr)
                    exit_code = 1
            report = aggregate_accuracy(scored, n_records=len(lines))
            output.write(json.dumps(report.to_dict()) + "\n")
        else:  # compare
            results = _map_records(_compare_record, config, lines, args.jobs)
            records = [entry for entry in results if isinstance(entry, ComparisonRecord)]
            for index, entry in enumerate(results, start=1):
                if isinstance(entry, str):
                    print(f"molstruct: record {index} skipped: {entry}", file=sys.stderr)
                    exit_code = 1
            report = aggregate_comparison(records)
            output.write(json.dumps(report.to_dict()) + "\n")
    finally:
        if output is not sys.stdout:
            output.close()
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
