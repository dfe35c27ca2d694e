"""Batch CLI behavior: schemas, exit codes, parallelism."""

from __future__ import annotations

import json
import multiprocessing
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

from molstruct import cli, extract_profile, from_profile, metrics, parse_strict, render, selection
from molstruct.cli import _MAX_CHUNK_RECORDS, _WINDOW_CHUNKS_PER_JOB, main

SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI = [sys.executable, "-m", "molstruct.cli"]
CLI_ENV = {**os.environ, "PYTHONPATH": SRC}


def run_cli(
    tmp_path: Path,
    args: list[str],
    lines: list[dict | str],
    capsys: pytest.CaptureFixture,
) -> tuple[int, list[dict], str]:
    """Run main() against a temp input file; returns (code, records, stderr)."""
    in_path = tmp_path / "in.jsonl"
    out_path = tmp_path / "out.jsonl"
    text = "\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in lines
    )
    in_path.write_text(text + "\n")
    code = main(args + ["--input", str(in_path), "--output", str(out_path)])
    capsys.readouterr()  # keep argparse/stderr noise out of test output
    records = [
        json.loads(row)
        for row in out_path.read_text().splitlines()
        if row.strip()
    ]
    return code, records, ""


class TestAnalyze:
    def test_happy_path(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path, ["analyze"], [{"smiles": "CCC(C)O"}, {"smiles": "c1ccccc1O"}], capsys
        )
        assert code == 0
        assert len(records) == 2
        assert records[0]["smiles"] == "CCC(C)O"
        assert records[0]["rationale"].startswith("The molecular formula is C4H10O.")
        assert "phenol" in records[1]["rationale"]

    def test_error_records_continue_processing(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["analyze"],
            [{"smiles": "C1CC"}, {"smiles": "CC"}, "not json"],
            capsys,
        )
        assert code == 1
        assert records[0]["error"] == "UnclosedRing"
        assert records[0]["position"] == 1
        assert "rationale" in records[1]
        assert records[2]["error"] == "BadRecord"

    def test_json_format_and_component_mask(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["analyze", "--format", "json", "--components", "formula,molecular_weight"],
            [{"smiles": "CCO"}],
            capsys,
        )
        assert code == 0
        inner = json.loads(records[0]["rationale"])
        assert set(inner) == {"formula", "molecular_weight"}
        assert inner["molecular_weight"] == 46.07

    def test_component_mask_computes_only_those_components(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        def unreachable(*args: object) -> None:
            raise AssertionError("functional groups were computed")

        monkeypatch.setattr("molstruct.profile.functional_group_names", unreachable)
        code, records, _ = run_cli(
            tmp_path, ["analyze", "--components", "formula"], [{"smiles": "C" * 65}], capsys
        )
        assert code == 0
        assert records[0]["rationale"] == "The molecular formula is C65H132."

    def test_unknown_component_is_usage_error(self, capsys) -> None:
        assert main(["analyze", "--components", "nope"]) == 2
        capsys.readouterr()

    def test_iupac_name_not_extractable(self, capsys) -> None:
        assert main(["analyze", "--components", "iupac_name"]) == 2
        capsys.readouterr()

    def test_missing_smiles_field(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(tmp_path, ["analyze"], [{"smile": "C"}], capsys)
        assert code == 1
        assert records[0]["error"] == "BadRecord"


class TestCanon:
    def test_canonical_output(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["canon"],
            [{"smiles": "C1=CC=CC=C1"}, {"smiles": "OCC"}],
            capsys,
        )
        assert code == 0
        assert records[0]["canonical_smiles"] == "c1ccccc1"
        assert records[1]["canonical_smiles"] == records[1]["canonical_smiles"]

    def test_diagnostic_record(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(tmp_path, ["canon"], [{"smiles": "C(C"}], capsys)
        assert code == 1
        assert records[0]["error"] == "UnbalancedBranch"


class TestSelect:
    RATIONALE = (
        "The molecular formula is C4H10O. "
        "The molecule contains 1 functional group: hydroxyl. "
        "The molecule has 1 chiral center: R at atom 2."
    )

    def test_selection_record(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["select"],
            [{
                "rationale": self.RATIONALE,
                "candidates": ["CCCCO", "C[C@@H](O)CC", "C[C@H](O)CC", "((("],
            }],
            capsys,
        )
        assert code == 0
        record = records[0]
        assert record["selected_index"] == 1
        assert record["selected_smiles"] == "C[C@@H](O)CC"
        assert record["all_failed"] is False
        assert record["candidates"][3]["parse_ok"] is False
        assert record["candidates"][3]["matching_ratio"] is None
        assert record["candidates"][1]["matching_ratio"] == 1.0
        assert record["candidates"][1]["components"]["formula"] == 1.0

    def test_output_is_independent_of_the_hash_seed(self) -> None:
        # Ratios of these candidates against ethene's full rationale sum
        # seven scores, including 1/3, whose float sum depends on the order.
        line = json.dumps({
            "rationale": render(from_profile(extract_profile(parse_strict("C=C")))),
            "candidates": ["F/C=C/F", "CC=C", "F/C=C\\F", "C=C"],
        })
        outputs = set()
        for seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from molstruct.cli import main; sys.exit(main(['select']))"],
                input=line + "\n",
                capture_output=True,
                text=True,
                env={**CLI_ENV, "PYTHONHASHSEED": str(seed)},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_reliable_narrows_mask(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["select", "--reliable", "formula"],
            [{"rationale": self.RATIONALE, "candidates": ["CCCCO", "C[C@@H](O)CC"]}],
            capsys,
        )
        assert code == 0
        assert records[0]["selected_index"] == 0  # tie on formula alone

    def test_reliable_emptying_mask_is_record_error(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["select", "--reliable", "aromatic_rings"],
            [{"rationale": self.RATIONALE, "candidates": ["CCO"]}],
            capsys,
        )
        assert code == 1
        assert records[0]["error"] == "EmptyRationale"

    def test_unparseable_rationale(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["select"],
            [{"rationale": "gibberish", "candidates": ["CCO"]}],
            capsys,
        )
        assert code == 1
        assert records[0]["error"] == "RationaleParse"

    def test_all_failed(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["select"],
            [{"rationale": "The molecular formula is C2H6O.",
              "candidates": ["(((", ")))"]}],
            capsys,
        )
        assert code == 0
        assert records[0]["all_failed"] is True
        assert records[0]["selected_index"] == 0

    def test_empty_candidates_is_bad_record(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(
            tmp_path,
            ["select"],
            [{"rationale": "The molecular formula is CH4.", "candidates": []}],
            capsys,
        )
        assert code == 1
        assert records[0]["error"] == "BadRecord"

    def test_undecodable_json_fails_only_its_record(self, tmp_path, capsys) -> None:
        good = {"rationale": "The molecular formula is CH4.", "candidates": ["C"]}
        deep = '{"x": ' + "[" * 100_000 + "]}"
        huge_count = json.dumps({"functional_groups": ["1" + "0" * 5000 + " x ester"]})
        code, records, _ = run_cli(
            tmp_path,
            ["select"],
            [
                {"rationale": deep, "candidates": ["C"]},
                deep,
                '{"rationale": ' + "1" * 5000 + "}",
                {"rationale": huge_count, "candidates": ["C"]},
                good,
            ],
            capsys,
        )
        assert code == 1
        assert [record.get("error") for record in records] == [
            "RationaleParse", "BadRecord", "BadRecord", "RationaleParse", None
        ]
        assert records[4]["selected_smiles"] == "C"


class TestScore:
    def _analyze(self, tmp_path, capsys, smiles: str) -> str:
        _, records, _ = run_cli(tmp_path, ["analyze"], [{"smiles": smiles}], capsys)
        return records[0]["rationale"]

    def test_self_consistency(self, tmp_path, capsys) -> None:
        payload = [
            {"smiles": smiles, "rationale": self._analyze(tmp_path, capsys, smiles)}
            for smiles in ["CCC(C)O", "c1ccccc1", "N[C@@H](C)C(=O)O"]
        ]
        code, records, _ = run_cli(tmp_path, ["score"], payload, capsys)
        assert code == 0
        report = records[0]
        assert report["n_records"] == 3
        assert report["n_scored"] == 3
        for key in (
            "formula",
            "longest_chain",
            "aromatic_rings",
            "ring_compounds",
            "functional_groups",
            "chirality",
            "molecular_weight",
        ):
            assert report["components"][key]["accuracy"] == 1.0, key
        assert report["components"]["iupac_name"]["accuracy"] is None

    def test_unparseable_gold_counts_in_n_records_only(self, tmp_path, capsys) -> None:
        good = {"smiles": "CCO", "rationale": self._analyze(tmp_path, capsys, "CCO")}
        bad = {"smiles": "((bad", "rationale": "The molecular formula is CH4."}
        in_path = tmp_path / "score_in.jsonl"
        out_path = tmp_path / "score_out.jsonl"
        in_path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        code = main(
            ["score", "--input", str(in_path), "--output", str(out_path)]
        )
        err = capsys.readouterr().err
        report = json.loads(out_path.read_text())
        assert code == 1
        assert report["n_records"] == 2
        assert report["n_scored"] == 1
        assert "skipped" in err

    def test_component_restriction(self, tmp_path, capsys) -> None:
        payload = [{"smiles": "CCO", "rationale": self._analyze(tmp_path, capsys, "CCO")}]
        code, records, _ = run_cli(
            tmp_path, ["score", "--components", "formula"], payload, capsys
        )
        assert code == 0
        report = records[0]
        assert report["components"]["formula"]["n_scored"] == 1
        assert report["components"]["longest_chain"]["n_scored"] == 0

    def test_recall_flag(self, tmp_path, capsys) -> None:
        payload = [{
            "smiles": "OCC(O)CO",
            "rationale": "The molecule contains 1 functional group: hydroxyl.",
        }]
        _, jaccard, _ = run_cli(tmp_path, ["score"], payload, capsys)
        _, recall, _ = run_cli(tmp_path, ["score", "--recall"], payload, capsys)
        assert jaccard[0]["components"]["functional_groups"]["accuracy"] == pytest.approx(1 / 3)
        assert recall[0]["components"]["functional_groups"]["accuracy"] == pytest.approx(1 / 3)

    def test_iupac_name_scored_with_reference(self, tmp_path, capsys) -> None:
        payload = [{
            "smiles": "CCO",
            "rationale": "The IUPAC name is Ethanol.",
            "iupac_name": "ethanol",
        }]
        code, records, _ = run_cli(tmp_path, ["score"], payload, capsys)
        assert code == 0
        assert records[0]["components"]["iupac_name"]["accuracy"] == 1.0


class TestCompare:
    def test_report(self, tmp_path, capsys) -> None:
        payload = [
            {"smiles": "CCCCCO", "predicted": "CCCCCO"},
            {"smiles": "c1ccccc1", "predicted": "C1=CC=CC=C1"},
            {"smiles": "CCN", "predicted": "CC(("},
        ]
        code, records, _ = run_cli(tmp_path, ["compare"], payload, capsys)
        assert code == 0
        report = records[0]
        assert report["n_records"] == 3
        assert report["exact_match"] == pytest.approx(2 / 3)
        assert report["validity"] == pytest.approx(2 / 3)
        assert 0.0 < report["bleu"] < 1.0

    def test_malformed_line_skipped(self, tmp_path, capsys) -> None:
        in_path = tmp_path / "cmp.jsonl"
        out_path = tmp_path / "cmp_out.jsonl"
        in_path.write_text(
            json.dumps({"smiles": "CCO", "predicted": "CCO"}) + "\nnot json\n"
        )
        code = main(["compare", "--input", str(in_path), "--output", str(out_path)])
        err = capsys.readouterr().err
        report = json.loads(out_path.read_text())
        assert code == 1
        assert report["n_records"] == 1
        assert "skipped" in err


class TestInvocation:
    def test_missing_input_file(self, capsys) -> None:
        assert main(["analyze", "--input", "/no/such/file"]) == 2
        capsys.readouterr()

    def test_bad_catalog_file(self, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.txt"
        bad.write_text("group | broken\n")
        assert main(["analyze", "--catalog", str(bad)]) == 2
        capsys.readouterr()

    def test_bad_catalog_file_fails_a_subcommand_that_never_reads_it(
        self, tmp_path, capsys
    ) -> None:
        bad = tmp_path / "bad.txt"
        bad.write_text("group | broken\n")
        in_path = tmp_path / "in.jsonl"
        in_path.write_text('{"smiles": "CCO"}\n')
        assert main(["canon", "--catalog", str(bad), "--input", str(in_path)]) == 2
        assert "cannot load catalog" in capsys.readouterr().err

    def test_custom_catalog(self, tmp_path, capsys) -> None:
        catalog = tmp_path / "cat.txt"
        catalog.write_text("group | hydroxyl | [O;H1;D1] | 1\n")
        code, records, _ = run_cli(
            tmp_path,
            ["analyze", "--catalog", str(catalog)],
            [{"smiles": "OCC(O)CO"}],
            capsys,
        )
        assert code == 0
        assert "3 x hydroxyl" in records[0]["rationale"]

    def test_help_exits_zero(self, capsys) -> None:
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys) -> None:
        assert main([]) == 2
        capsys.readouterr()

    def test_zero_jobs_rejected(self, capsys) -> None:
        assert main(["analyze", "--jobs", "0"]) == 2
        capsys.readouterr()

    def test_console_entry_point(self, tmp_path) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "molstruct.cli", "canon"],
            input='{"smiles": "OCC"}\n',
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["canonical_smiles"]

    def test_empty_input_stream(self, tmp_path, capsys) -> None:
        code, records, _ = run_cli(tmp_path, ["analyze"], [], capsys)
        assert code == 0
        assert records == []

    def test_standard_output(self, tmp_path, capsys) -> None:
        source = tmp_path / "in.jsonl"
        source.write_text('{"smiles": "OCC"}\n')
        assert main(["canon", "--input", str(source), "--output", "-"]) == 0
        assert json.loads(capsys.readouterr().out) == {"smiles": "OCC", "canonical_smiles": "CCO"}

    def test_empty_component_list_is_usage_error(self, capsys) -> None:
        assert main(["analyze", "--components", ","]) == 2
        assert "component list is empty" in capsys.readouterr().err

    def test_output_in_a_missing_directory(self, tmp_path, capsys) -> None:
        source = tmp_path / "in.jsonl"
        source.write_text('{"smiles": "C"}\n')
        target = tmp_path / "missing" / "out.jsonl"
        assert main(["canon", "--input", str(source), "--output", str(target)]) == 2
        assert "cannot open output" in capsys.readouterr().err
        assert not target.parent.exists()


def _stream_rows(command: str, n: int) -> list[str]:
    """``n`` input lines for ``command``, a malformed one every 97th, with
    a blank line after every 10th."""
    molecules = ["CCO", "c1ccccc1O", "CC(=O)O", "N[C@@H](C)C(=O)O", "C1CCCCC1", "CCN"]
    texts = {s: render(from_profile(extract_profile(parse_strict(s)))) for s in molecules}
    make_row = {
        "analyze": lambda smiles, other: {"smiles": smiles},
        "canon": lambda smiles, other: {"smiles": smiles},
        "select": lambda smiles, other: {"rationale": texts[smiles], "candidates": [other, smiles]},
        "score": lambda smiles, other: {"smiles": smiles, "rationale": texts[other]},
        "compare": lambda smiles, other: {"smiles": smiles, "predicted": other},
    }[command]
    rows: list[str] = []
    for i in range(n):
        row = make_row(molecules[i % len(molecules)], molecules[(i + 1) % len(molecules)])
        rows.append("not json" if i % 97 == 50 else json.dumps(row))
        if i % 10 == 9:
            rows.append("")
    return rows


def run_cli_raw(
    tmp_path: Path, args: list[str], text: bytes, capsys: pytest.CaptureFixture
) -> tuple[int, bytes, str]:
    """Run main() on raw input bytes; returns (code, output bytes, stderr)."""
    in_path = tmp_path / "raw_in.jsonl"
    out_path = tmp_path / "raw_out.jsonl"
    in_path.write_bytes(text)
    code = main(args + ["--input", str(in_path), "--output", str(out_path)])
    return code, out_path.read_bytes(), capsys.readouterr().err


def _raise_on_ccn(original):
    def wrapper(*args, **kwargs):
        if any(arg == "CCN" or (isinstance(arg, list) and "CCN" in arg) for arg in args):
            raise RuntimeError("boom")
        return original(*args, **kwargs)

    return wrapper


_ETHANOL_FORMULA = "The molecular formula is C2H6O."


class TestRecordValidation:
    @pytest.mark.parametrize(
        "args, record, message",
        [
            (["analyze"], [{"smiles": "C"}], "record must be a JSON object"),
            (["analyze"], {"smiles": 1}, "smiles must be a string"),
            (["canon"], {"smiles": ["C"]}, "smiles must be a string"),
            (["select"], {"rationale": _ETHANOL_FORMULA, "candidates": "CCO"},
             "candidates must be a list of strings"),
            (["select"], {"rationale": None, "candidates": ["CCO"]},
             "rationale must be a string"),
            (["score"], {"smiles": 1, "rationale": _ETHANOL_FORMULA},
             "smiles and rationale must be strings"),
            (["score"], {"smiles": "CCO", "rationale": {}},
             "smiles and rationale must be strings"),
            (["score"], {"smiles": "CCO", "rationale": _ETHANOL_FORMULA, "iupac_name": 2},
             "iupac_name must be a string"),
            (["score", "--components", "aromatic_rings"],
             {"smiles": "CCO", "rationale": _ETHANOL_FORMULA},
             "no requested components present in the rationale"),
            (["score"], {"smiles": "CCO", "rationale": "gibberish"},
             "no structural components recognized (unrecognized sentence: 'gibberish')"),
            (["compare"], {"smiles": "CCO", "predicted": 1},
             "smiles and predicted must be strings"),
        ],
    )
    def test_invalid_record_fails_alone(self, tmp_path, capsys, args, record, message) -> None:
        text = (json.dumps(record) + "\n").encode()
        code, output, err = run_cli_raw(tmp_path, args, text, capsys)
        assert code == 1
        if args[0] in ("score", "compare"):
            assert err == f"molstruct: record 1 skipped: {message}\n"
        else:
            assert json.loads(output) == {"error": "BadRecord", "message": message}


class TestStream:
    @pytest.mark.parametrize("command", ["analyze", "canon", "select", "score", "compare"])
    def test_parallel_matches_serial(self, tmp_path, capsys, command) -> None:
        # Chunks reach their full size, and the window of --jobs 2 fills and drains.
        n = _MAX_CHUNK_RECORDS * _WINDOW_CHUNKS_PER_JOB * 2 * 3 // 2 + 5
        text = ("\n".join(_stream_rows(command, n)) + "\n").encode()
        serial = run_cli_raw(tmp_path, [command], text, capsys)
        parallel = run_cli_raw(tmp_path, [command, "--jobs", "2"], text, capsys)
        assert serial == parallel
        code, output, err = serial
        assert code == 1
        malformed = [i + 1 for i in range(n) if i % 97 == 50]
        if command in ("score", "compare"):
            assert [line.split(":")[1] for line in err.splitlines()] == [
                f" record {k} skipped" for k in malformed
            ]
        else:
            records = [json.loads(line) for line in output.splitlines()]
            assert len(records) == n
            assert [k for k, record in enumerate(records, 1) if "error" in record] == malformed

    @pytest.mark.parametrize(
        "jobs",
        [
            "1",
            pytest.param("2", marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="pool workers see the monkeypatch only when forked",
            )),
        ],
    )
    @pytest.mark.parametrize(
        "command, layer, rows",
        [
            ("analyze", "parse", [{"smiles": s} for s in ("CCO", "CCN", "CCC")]),
            ("canon", "parse", [{"smiles": s} for s in ("CCO", "CCN", "CCC")]),
            ("select", "select", [
                {"rationale": "The molecular formula is C2H6O.", "candidates": [s]}
                for s in ("CCO", "CCN", "CCC")
            ]),
            ("score", "parse", [
                {"smiles": s, "rationale": "The molecular formula is C2H6O."}
                for s in ("CCO", "CCN", "CCC")
            ]),
            ("compare", "compare_pair", [
                {"smiles": s, "predicted": s} for s in ("CCO", "CCN", "CCC")
            ]),
        ],
    )
    def test_unexpected_exception_fails_only_its_record(
        self, tmp_path, capsys, monkeypatch, command, layer, rows, jobs
    ) -> None:
        # cli binds parse at import; a record worker imports select and
        # compare_pair from their modules when it runs, so they are patched there.
        owner = {"select": selection, "compare_pair": metrics}.get(layer, cli)
        monkeypatch.setattr(owner, layer, _raise_on_ccn(getattr(owner, layer)))
        text = "".join(json.dumps(row) + "\n" for row in rows).encode()
        code, output, err = run_cli_raw(tmp_path, [command, "--jobs", jobs], text, capsys)
        assert code == 1
        records = [json.loads(line) for line in output.splitlines()]
        if jobs == "1":  # a forked worker writes to its own copy of the captured stream
            assert "Traceback" in err
        if command in ("score", "compare"):
            assert err.endswith("molstruct: record 2 skipped: internal error: RuntimeError: boom\n")
            assert records[0]["n_records"] == (3 if command == "score" else 2)
        else:
            assert [record.get("error") for record in records] == [None, "Internal", None]
            assert records[1] == {"error": "Internal", "message": "RuntimeError: boom"}

    BAD_UTF8 = b'{"smiles": "CCO"}\n{"smiles": "C\xffC"}\n{"smiles": "CCC"}\n'

    @pytest.mark.parametrize("via", ["input", "stdin"])
    def test_invalid_utf8_fails_only_its_record(self, tmp_path, capsys, via) -> None:
        if via == "input":
            code, output, _ = run_cli_raw(tmp_path, ["analyze"], self.BAD_UTF8, capsys)
        else:
            proc = subprocess.run(
                CLI + ["analyze"], input=self.BAD_UTF8, capture_output=True, env=CLI_ENV,
                timeout=60,
            )
            code, output = proc.returncode, proc.stdout
            assert proc.stderr == b""
        records = [json.loads(line) for line in output.splitlines()]
        assert code == 1
        assert [record.get("error") for record in records] == [None, "BadRecord", None]
        assert records[1]["message"].startswith("record is not valid UTF-8: ")
        assert records[2]["smiles"] == "CCC"

    def test_invalid_utf8_is_a_skipped_score_record(self, tmp_path, capsys) -> None:
        row = b'{"smiles": "%b", "rationale": "The molecular formula is C2H6O."}\n'
        text = b"".join(row % smiles for smiles in (b"CCO", b"C\xffC", b"CCC"))
        code, output, err = run_cli_raw(tmp_path, ["score"], text, capsys)
        assert code == 1
        assert json.loads(output)["n_records"] == 3
        assert json.loads(output)["n_scored"] == 2
        assert err.startswith("molstruct: record 2 skipped: record is not valid UTF-8")

    def test_first_output_line_arrives_before_the_input_ends(self) -> None:
        proc = subprocess.Popen(
            CLI + ["analyze"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=CLI_ENV,
        )
        try:
            proc.stdin.write(b'{"smiles": "CCO"}\n')
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            first = proc.stdout.readline() if ready else b""
        finally:
            proc.stdin.close()
            proc.wait(timeout=60)
        assert ready, "no output line while the input was still open"
        assert json.loads(first)["smiles"] == "CCO"
        assert proc.returncode == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_closed_output_pipe_ends_the_run_quietly(self, tmp_path, jobs) -> None:
        in_path = tmp_path / "many.jsonl"
        in_path.write_text('{"smiles": "CCO"}\n' * 5000)  # far more output than a pipe holds
        proc = subprocess.Popen(
            CLI + ["canon", "--jobs", jobs, "--input", str(in_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read()
        proc.stderr.close()
        assert json.loads(first)["canonical_smiles"] == "CCO"
        assert b"Traceback" not in err
        assert proc.returncode == 1

    def test_one_job_imports_no_process_pool(self) -> None:
        code = (
            "import sys; from molstruct.cli import main; code = main(['canon']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')), file=sys.stderr); sys.exit(code)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], input=b'{"smiles": "OCC"}\n',
            capture_output=True, env=CLI_ENV, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == b"[]\n"

    # The package modules a subcommand loads, besides cli itself.
    SMILES_LAYER = {"elements", "errors", "graph", "smiles"}
    ANALYSIS = SMILES_LAYER | {"catalog", "profile", "rationale"}
    LOADED = {
        "canon": SMILES_LAYER,
        "analyze": ANALYSIS,
        "select": ANALYSIS | {"selection"},
        "score": ANALYSIS | {"metrics"},
        "compare": ANALYSIS | {"metrics"},
    }
    ROWS = {
        "canon": {"smiles": "OCC"},
        "analyze": {"smiles": "OCC"},
        "select": {"rationale": _ETHANOL_FORMULA, "candidates": ["OCC"]},
        "score": {"smiles": "OCC", "rationale": _ETHANOL_FORMULA},
        "compare": {"smiles": "OCC", "predicted": "CCO"},
    }

    @staticmethod
    def loaded_modules(code: str, stdin: bytes = b"") -> set[str]:
        """The molstruct submodules, other than cli, loaded after ``code``."""
        code += (
            "; import sys; print(' '.join(m[len('molstruct.'):] for m in sys.modules "
            "if m.startswith('molstruct.') and m != 'molstruct.cli'), file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], input=stdin, capture_output=True, env=CLI_ENV,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.decode().split())

    @pytest.mark.parametrize("command", ["canon", "analyze", "select", "score", "compare"])
    def test_subcommand_loads_only_the_modules_it_runs(self, command) -> None:
        run = f"from molstruct.cli import main; assert main([{command!r}]) == 0"
        stdin = json.dumps(self.ROWS[command]).encode() + b"\n"
        assert self.loaded_modules(run, stdin) == self.LOADED[command]
        # What the parent imports before forking --jobs workers is the same set.
        module = cli._SUBCOMMANDS[command][2]
        assert self.loaded_modules(f"import molstruct.cli, molstruct.{module}") == self.LOADED[command]

    def test_output_file_that_is_the_input_is_refused(self, tmp_path, capsys) -> None:
        path = tmp_path / "data.jsonl"
        path.write_text('{"smiles": "OCC"}\n')
        assert main(["canon", "--input", str(path), "--output", str(path)]) == 2
        assert "is the input file" in capsys.readouterr().err
        assert path.read_text() == '{"smiles": "OCC"}\n'
