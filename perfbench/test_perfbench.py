"""Self-tests for the benchmark: generators, known answers and checks.

Run with ``python3 -m pytest perfbench -q``.  They take a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import worker  # noqa: E402
from checks import Checker, same_rows  # noqa: E402
from run import (  # noqa: E402
    Outcome,
    cycle_percentile,
    cycle_rate,
    layer_metrics,
    percentile,
    speed_scale,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    Corpus,
    Grade,
    Large,
    Select,
    SelectAnswer,
    cli_lines,
)

from molstruct.cli import main  # noqa: E402


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return Corpus()


def _payloads(workload) -> list[tuple]:
    return [r.payload for r in workload.cycle(0)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(corpus, name):
    make = WORKLOADS[name]
    first = _payloads(make(7, corpus))
    assert first == _payloads(make(7, corpus))
    assert first != _payloads(make(8, corpus))
    assert len(first) == make(7, corpus).cycle_len


def test_cycles_keep_their_composition(corpus):
    """Seeds change spellings and order, never the mix of a cycle."""
    a, b = Large(1, corpus), Large(2, corpus)
    assert sorted(r.key for r in a.cycle(0)) == sorted(r.key for r in b.cycle(3))
    s1, s2 = Select(1, corpus), Select(2, corpus)
    long_chain = lambda w: sum(any(len(c) > 64 and set(c) == {"C"} for c in r.payload[1])
                               for r in w.cycle(0))
    assert long_chain(s1) == long_chain(s2) == Select.long_chain_records


def test_corpus_references_agree_with_oracles(corpus):
    assert corpus.problems == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_known_answers_hold_on_the_seed(corpus, name):
    """The untraced pipeline meets every known answer it can complete."""
    w = WORKLOADS[name](3, corpus)
    checker = Checker(w)
    plain, traced = worker.PIPELINES[name]
    statuses = set()
    slow = {"cycloalkane-32", "cycloalkane-40", "polyphenyl-6", "polyphenyl-7"}  # keep it quick
    for record in [r for r in w.cycle(0) if r.key not in slow][:40]:
        try:
            value = plain(*record.payload)
        except worker.MolstructError as exc:
            statuses.add(type(exc).__name__)
            continue
        assert checker.check(record, value) is None, record
        # The traced pipeline splits composite calls; its probes must agree.
        assert traced(worker.Tracer(), *record.payload) == value
    assert statuses <= {"SizeLimitError"}


def test_select_check_rejects_a_swapped_selection(corpus):
    w = Select(4, corpus)
    checker = Checker(w)
    record = next(r for r in w.cycle(0) if r.answer.parse_ok.count(True) >= 2)
    index, parse_ok, ratio = worker.run_select(*record.payload)
    assert checker.check(record, (index, parse_ok, ratio)) is None
    other = next(i for i, ok in enumerate(parse_ok) if ok and i != index)
    assert checker.check(record, (other, parse_ok, ratio)) is not None
    swapped = dataclasses.replace(record, answer=SelectAnswer(other, record.answer.parse_ok))
    assert checker.check(swapped, (index, parse_ok, ratio)) is not None

    row = {"selected_index": other, "candidates": [
        {"parse_ok": ok, "matching_ratio": 1.0 if ok else None} for ok in parse_ok]}
    failed, wrong = checker.check_cli("select", [record], json.dumps(row), {})
    assert failed == 1 and wrong


def test_grade_check_rejects_a_perturbed_rationale_scored_as_clean(corpus):
    w = Grade(5, corpus)
    checker = Checker(w)
    record = next(r for r in w.cycle(0) if min(r.answer.scores.values()) < 1.0)
    scores, comparison = worker.run_grade(*record.payload)
    assert checker.check(record, (scores, comparison)) is None
    clean = {key: 1.0 for key in scores}
    assert checker.check(record, (clean, comparison)) is not None


def test_grade_check_rejects_a_wrong_canonical_match(corpus):
    w = Grade(6, corpus)
    checker = Checker(w)
    record = next(r for r in w.cycle(0) if r.answer.valid and not r.answer.exact)
    scores, (valid, exact, distance, morgan, bleu) = worker.run_grade(*record.payload)
    assert checker.check(record, (scores, (valid, exact, distance, morgan, bleu))) is None
    assert checker.check(record, (scores, (valid, True, distance, morgan, bleu))) is not None


def test_large_check_rejects_a_different_canonical_form(corpus):
    w = Large(7, corpus)
    checker = Checker(w)
    first, second = [r for c in (0, 1) for r in w.cycle(c) if r.key == "cycloalkane-12"]
    canonical, profile, text = worker.run_large(*first.payload)
    assert checker.check(first, (canonical, profile, text)) is None
    assert checker.check(second, worker.run_large(*second.payload)) is None
    assert checker.check_canonical(second, "C1CCCCCCCCCC1") is not None  # wrong size
    assert checker.check_canonical(second, "C1CCCCCCC(C)CCC1") is not None  # right size, other string


def test_score_and_compare_reports_are_checked(corpus):
    w = Grade(8, corpus)
    checker = Checker(w)
    records = w.cycle(0)[:30]
    inproc = {r.rid: ("ok", worker.run_grade(*r.payload)) for r in records}
    good = {}
    for sub in ("score", "compare"):
        lines = cli_lines(sub, records)
        path = Path(__file__).resolve().parent.parent / ".perfbench" / f"selftest-{sub}.jsonl"
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        out = path.with_suffix(".out")
        assert main([sub, "--input", str(path), "--output", str(out)]) == 0
        good[sub] = out.read_text()
        assert checker.check_cli(sub, records, good[sub], inproc) == (0, [])
    report = json.loads(good["compare"])
    report["exact_match"] = 1.0
    failed, wrong = checker.check_cli("compare", records, json.dumps(report), inproc)
    assert failed == len(records) and wrong


def test_same_rows_tolerates_only_last_bit_float_differences():
    assert same_rows('{"a": 0.761904761904762}', '{"a": 0.7619047619047619}')
    assert not same_rows('{"a": 0.76}', '{"a": 0.77}')
    assert not same_rows('{"a": 1}\n', '{"a": 1}\n{"a": 1}\n')


def test_layer_self_time_subtracts_children():
    spans = [
        ["record", 0, 100, -1, False],
        ["profile.extract_profile[parts]", 10, 60, 0, False],
        ["catalog.functional_group_names", 20, 50, 1, False],
        ["probes", 60, 90, 0, True],
        ["profile.extract_profile", 61, 89, 3, True],
    ]
    outcome = Outcome(record=dataclasses.make_dataclass("R", ["rid"])(0), status="ok",
                      value=None, ns=100, spans=spans, counts=None)
    metrics, main_ns = layer_metrics([outcome])
    assert main_ns == [70]  # 100 minus the 30 ns probe block
    assert metrics["profile.self_us_per_record"][0] == pytest.approx(20 / 1e3)
    assert metrics["catalog.self_us_per_record"][0] == pytest.approx(30 / 1e3)
    assert metrics["profile.extract_profile.us_per_call"][0] == pytest.approx(28 / 1e3)
    assert metrics["selection.select.us_per_call"][0] == 0.0


def test_speed_scale_takes_times_to_the_reference_speed():
    nominal = worker.CALIBRATION_NOMINAL_NS
    assert speed_scale([nominal, nominal]) == 1.0
    # The probe ran twice as slow: measured times are halved.
    assert speed_scale([2 * nominal]) == 0.5
    assert worker.calibrate() > 0


def test_percentile_and_cycle_rate():
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert percentile([1.0, 2.0], 90) == pytest.approx(1.9)

    class Two:
        cycle_len = 2

    rec = dataclasses.make_dataclass("R", ["rid"])
    outcomes = [Outcome(rec(i), "ok", None, ns) for i, ns in enumerate([1e9, 1e9, 5e8, 5e8, 1e9])]
    # Whole cycles only: 4 records in 3 s.
    assert cycle_rate(Two, outcomes, [o.ns for o in outcomes]) == pytest.approx(4 / 3)
    # Pooled over the two whole cycles; the partial third cycle is left out.
    assert cycle_percentile(Two, outcomes, [1e9, 3e9, 5e8, 5e8, 9e9], 50) == (pytest.approx(7.5e8), 2)
    assert cycle_percentile(Two, outcomes, [1e9, 3e9, 5e8, 5e8, 9e9], 90) == (pytest.approx(2.4e9), 1)
