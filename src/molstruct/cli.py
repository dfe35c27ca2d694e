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

Records stream through in input order.  Input lines are read one at a
time as the work needs them, each decoded as UTF-8 on its own; blank
lines are skipped.  At ``--jobs 1`` every record runs inline, and
analyze, canon and select write and flush its output line before the
next input line is read.  At ``--jobs N`` (N > 1) the lines go to a pool
of W = min(N, CPU count) processes in chunks of at most
_MAX_CHUNK_RECORDS, with at most _WINDOW_CHUNKS_PER_WORKER * W chunks in
flight, and the output lines of the oldest chunk are written once it
has finished.  score and compare fold each result into running sums and
write their one report at the end.  So memory stays flat however long
the input is.

Per-record failures never abort a run: the output record carries an
"error" code ("UnclosedRing", "BadRecord", "RationaleParse", ...) and a
"message"; score and compare skip the record with a "record N skipped"
warning on stderr, N counting non-blank lines.  A line that is not
valid UTF-8 is a "BadRecord".  As a last resort an unexpected exception
fails only its own record, with the code "Internal" and the message
"<Type>: <text>", and its traceback goes to stderr.  Exit 0 means every
record was clean and exit 1 that at least one failed or was skipped;
exit 2 means the invocation itself was unusable (bad flags, unreadable
files, malformed catalog, an output file that is the input file).  When
the reader of the output goes away, as in
``molstruct analyze ... | head -1``, the run stops reading, cancels the
pool work not yet started and exits 1 without a traceback.

Start-up loads only what the subcommand runs: canon imports the SMILES
layer alone, analyze adds the profile, catalog and rationale modules,
select adds selection, and score and compare add metrics.  A --catalog
file is loaded, and checked, before any input is read; the built-in
catalog loads when a record first needs it.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from importlib import import_module
from itertools import islice
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .errors import MolstructError
from .graph import Molecule
from .smiles import ParseDiagnostic, canonicalize, parse

if TYPE_CHECKING:
    from .catalog import Catalog
    from .metrics import ComparisonRecord
    from .profile import ComponentKind

# Chunks in flight per worker process: enough that every worker stays busy
# while the oldest chunk's lines are written.
_WINDOW_CHUNKS_PER_WORKER = 4
# At --jobs N a chunk holds the records read so far divided by the window,
# so that a short input of slow records still spreads over every worker.
# It grows to this cap, where the pool's cost per chunk (about 0.3 ms of
# the main process) is small against the work, and where the records in
# flight stay few however long the input is.
_MAX_CHUNK_RECORDS = 64


def _error_code(exc: MolstructError) -> str:
    name = type(exc).__name__
    return name[: -len("Error")] if name.endswith("Error") else name


@dataclass(frozen=True)
class _JobConfig:
    """Per-record options; picklable so workers can share it."""

    catalog_path: str | None
    components: tuple[ComponentKind, ...] | None
    format: str
    recall: bool
    reliable: tuple[ComponentKind, ...] | None


@lru_cache(maxsize=8)
def _load_catalog(path: str | None) -> Catalog:
    from .catalog import Catalog

    return Catalog.default() if path is None else Catalog.from_path(path)


def _parse_record(line: str | bytes, required: tuple[str, ...]) -> dict | str:
    """Decode one input line; an error message string on failure.

    ``line`` is bytes when the reader could not decode it as UTF-8.
    """
    try:
        record = json.loads(line if isinstance(line, str) else line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        return f"record is not valid UTF-8: {exc}"
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
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


def _smiles_record(line: str) -> tuple[str, Molecule] | dict:
    """A ``{"smiles": s}`` record's text and molecule, or its error record."""
    record = _parse_record(line, ("smiles",))
    if isinstance(record, str):
        return {"error": "BadRecord", "message": record}
    smiles = record["smiles"]
    if not isinstance(smiles, str):
        return {"error": "BadRecord", "message": "smiles must be a string"}
    molecule = parse(smiles)
    if isinstance(molecule, ParseDiagnostic):
        return _diagnostic_record(smiles, molecule)
    return smiles, molecule


def _analyze_record(config: _JobConfig, line: str) -> dict:
    from .rationale import RationaleFormat, from_profile, render

    parsed = _smiles_record(line)
    if isinstance(parsed, dict):
        return parsed
    smiles, molecule = parsed
    rationale = from_profile(molecule, config.components, _load_catalog(config.catalog_path))
    return {"smiles": smiles, "rationale": render(rationale, RationaleFormat(config.format))}


def _canon_record(config: _JobConfig, line: str) -> dict:
    parsed = _smiles_record(line)
    if isinstance(parsed, dict):
        return parsed
    smiles, molecule = parsed
    return {"smiles": smiles, "canonical_smiles": canonicalize(molecule)}


def _select_record(config: _JobConfig, line: str) -> dict:
    from .rationale import apply_reliability_mask, parse_rationale
    from .selection import select

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
            rationale = apply_reliability_mask(rationale, config.reliable)
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


def _score_record(config: _JobConfig, line: str) -> dict[ComponentKind, float] | str:
    """One gold/rationale pair: its component scores, or why it was skipped."""
    from .metrics import score_reasoning
    from .rationale import apply_reliability_mask, parse_rationale

    record = _parse_record(line, ("smiles", "rationale"))
    if isinstance(record, str):
        return record
    if not isinstance(record["smiles"], str) or not isinstance(record["rationale"], str):
        return "smiles and rationale must be strings"
    molecule = parse(record["smiles"])
    if isinstance(molecule, ParseDiagnostic):
        return f"gold SMILES failed to parse: {molecule.message}"
    gold_name = record.get("iupac_name")
    if gold_name is not None and not isinstance(gold_name, str):
        return "iupac_name must be a string"
    try:
        rationale = parse_rationale(record["rationale"])
        if config.components is not None:
            rationale = apply_reliability_mask(rationale, config.components)
            if not rationale.mask:
                return "no requested components present in the rationale"
        scores = score_reasoning(
            molecule,
            rationale,
            gold_name=gold_name,
            recall=config.recall,
            catalog=_load_catalog(config.catalog_path),
        )
    except MolstructError as exc:
        return str(exc)
    return scores


def _compare_record(config: _JobConfig, line: str) -> ComparisonRecord | str:
    from .metrics import compare_pair

    record = _parse_record(line, ("smiles", "predicted"))
    if isinstance(record, str):
        return record
    if not isinstance(record["smiles"], str) or not isinstance(record["predicted"], str):
        return "smiles and predicted must be strings"
    return compare_pair(record["smiles"], record["predicted"])


def _internal_record(message: str) -> dict:
    return {"error": "Internal", "message": message}


def _internal_warning(message: str) -> str:
    return f"internal error: {message}"


# Per subcommand: the record worker, what an unexpected exception in it
# turns into (an output record, or a skipped-record warning), and the module
# whose import loads every module the worker imports.
_SUBCOMMANDS: dict[str, tuple[Callable, Callable[[str], object], str]] = {
    "analyze": (_analyze_record, _internal_record, "rationale"),
    "canon": (_canon_record, _internal_record, "smiles"),
    "select": (_select_record, _internal_record, "selection"),
    "score": (_score_record, _internal_warning, "metrics"),
    "compare": (_compare_record, _internal_warning, "metrics"),
}


def _guarded(
    worker: Callable, on_internal: Callable[[str], object], config: _JobConfig, line: str | bytes
) -> object:
    """Run one record's worker; an exception it did not handle fails only
    this record, with its traceback on stderr."""
    try:
        return worker(config, line)
    except Exception as exc:  # last resort: one bad record must not end the run
        import traceback  # only a failing record pays for the import

        traceback.print_exc()
        return on_internal(f"{type(exc).__name__}: {exc}")


def _input_lines(stream: BinaryIO) -> Iterator[str | bytes]:
    """The non-blank lines of ``stream``, stripped, read one at a time.

    Each line is decoded as UTF-8 on its own; one that does not decode
    is passed on as bytes, so that only its own record fails.
    """
    for raw in stream:
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            yield raw
        else:
            if line:
                yield line


def _run_chunk(task: Callable, chunk: list) -> list:
    return [task(line) for line in chunk]


def _results(task: Callable, lines: Iterator, jobs: int) -> Iterator:
    """``task`` applied to every line, in input order, as results are ready."""
    if jobs == 1:
        yield from map(task, lines)
        return
    # Imported here so that a --jobs 1 run does not pay for multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    # The pool forks all its workers at the first submit, and more workers
    # than CPUs would only share them.
    workers = min(jobs, os.cpu_count() or 1)
    window: deque = deque()
    window_size = _WINDOW_CHUNKS_PER_WORKER * workers
    read, size = 0, 1
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            while chunk := list(islice(lines, size)):
                read += len(chunk)
                size = max(1, min(_MAX_CHUNK_RECORDS, read // window_size))
                window.append(pool.submit(_run_chunk, task, chunk))
                while window and (len(window) == window_size or window[0].done()):
                    yield from window.popleft().result()
            while window:
                yield from window.popleft().result()
        finally:
            # Reached early when the consumer stopped (closed output pipe):
            # drop the chunks no worker has started.
            pool.shutdown(cancel_futures=True)


def _component_list(extractable_only: bool) -> Callable[[str], tuple[ComponentKind, ...]]:
    """An argparse type for a comma-separated list of component keys: the
    extractable ones, or every one."""

    def convert(text: str) -> tuple[ComponentKind, ...]:
        from .profile import EXTRACTABLE_KINDS, ComponentKind

        allowed = EXTRACTABLE_KINDS if extractable_only else frozenset(ComponentKind)
        keys = tuple(key.strip() for key in text.split(",") if key.strip())
        if not keys:
            raise argparse.ArgumentTypeError("component list is empty")
        names = sorted(kind.value for kind in allowed)
        for key in keys:
            if key not in names:
                raise argparse.ArgumentTypeError(
                    f"unknown component {key!r} (choose from: {', '.join(names)})"
                )
        return tuple(ComponentKind(key) for key in keys)

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
            "--jobs", type=_positive_int, default=1, help="worker processes, at most one per CPU"
        )

    analyze = sub.add_parser("analyze", help="render a rationale per molecule")
    add_common(analyze)
    analyze.add_argument(
        "--components",
        type=_component_list(extractable_only=True),
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
        type=_component_list(extractable_only=False),
        default=None,
        help="trust only these rationale components",
    )

    score = sub.add_parser("score", help="grade rationales against gold structures")
    add_common(score)
    score.add_argument(
        "--components",
        type=_component_list(extractable_only=False),
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


def _is_input_file(source: BinaryIO, output_path: str) -> bool:
    """Whether ``output_path`` is the regular file ``source`` reads, which
    opening the output would truncate before it is read."""
    if output_path == "-":
        return False
    try:
        target = os.stat(output_path)
        return stat.S_ISREG(target.st_mode) and os.path.samestat(
            os.fstat(source.fileno()), target
        )
    except (OSError, ValueError):  # no output file yet, or a source with no descriptor
        return False


def _write_records(results: Iterable[dict], output: TextIO) -> int:
    exit_code = 0
    for record in results:
        output.write(json.dumps(record) + "\n")
        output.flush()
        if "error" in record:
            exit_code = 1
    return exit_code


def _write_report(command: str, results: Iterable, output: TextIO) -> int:
    """Fold score or compare results into one report; warn for each
    skipped record (a warning string in place of a result)."""
    from .metrics import aggregate_accuracy, aggregate_comparison

    n_records = 0
    skipped = 0

    def usable() -> Iterator:
        nonlocal n_records, skipped
        for n_records, result in enumerate(results, start=1):
            if isinstance(result, str):
                print(f"molstruct: record {n_records} skipped: {result}", file=sys.stderr)
                skipped += 1
            else:
                yield result

    if command == "score":
        report = aggregate_accuracy(usable(), n_records=0)
        # n_records counts every record, known only once the input is read.
        report = replace(report, n_records=n_records)
    else:
        report = aggregate_comparison(usable())
    output.write(json.dumps(report.to_dict()) + "\n")
    output.flush()
    return 1 if skipped else 0


def _run(args: argparse.Namespace, config: _JobConfig, source: BinaryIO) -> int:
    if _is_input_file(source, args.output):
        print("molstruct: the output file is the input file", file=sys.stderr)
        return 2
    try:
        output = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        print(f"molstruct: cannot open output: {exc}", file=sys.stderr)
        return 2
    worker, on_internal, module = _SUBCOMMANDS[args.command]
    if args.jobs > 1:
        # Forked workers inherit the modules loaded here, so none of them
        # compiles the worker's modules again.
        import_module(f"{__package__}.{module}")
    task = partial(_guarded, worker, on_internal, config)
    results = _results(task, _input_lines(source), args.jobs)
    try:
        if args.command in ("score", "compare"):
            return _write_report(args.command, results, output)
        return _write_records(results, output)
    except BrokenPipeError:
        # The reader went away.  Point the stream at devnull so that its
        # flush at close or exit cannot raise again (recipe from the
        # `signal` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, output.fileno())
        os.close(devnull)
        return 1
    finally:
        results.close()
        if output is not sys.stdout:
            output.close()


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
    # A custom catalog is checked before any input is read; the default
    # one loads when a record first needs it.
    if config.catalog_path is not None:
        try:
            _load_catalog(config.catalog_path)
        except (MolstructError, OSError) as exc:
            print(f"molstruct: cannot load catalog: {exc}", file=sys.stderr)
            return 2

    try:
        source = sys.stdin.buffer if args.input == "-" else open(args.input, "rb")
    except OSError as exc:
        print(f"molstruct: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        return _run(args, config, source)
    finally:
        if args.input != "-":
            source.close()


if __name__ == "__main__":
    raise SystemExit(main())
