"""Batch CLI behavior: schemas, exit codes, parallelism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from molstruct import extract_profile, from_profile, parse_strict, render
from molstruct.cli import main


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

    def test_parallel_matches_serial(self, tmp_path, capsys) -> None:
        lines = [{"smiles": "C" * (i % 5 + 1)} for i in range(24)]
        _, serial, _ = run_cli(tmp_path, ["analyze"], lines, capsys)
        _, parallel, _ = run_cli(tmp_path, ["analyze", "--jobs", "3"], lines, capsys)
        assert serial == parallel

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
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from molstruct.cli import main; sys.exit(main(['select']))"],
                input=line + "\n",
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
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
