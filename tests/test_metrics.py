"""Reasoning and molecule metrics."""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import pytest

from molstruct import metrics, smiles
from molstruct.errors import EmptyRationaleError, WidthMismatchError
from molstruct.metrics import (
    BleuStats,
    Fingerprint,
    aggregate_accuracy,
    aggregate_comparison,
    bleu_stats,
    compare_pair,
    corpus_bleu,
    corpus_bleu_from_stats,
    levenshtein,
    morgan_fingerprint,
    score_reasoning,
    tanimoto,
)
from molstruct.profile import extract_profile
from molstruct.rationale import ComponentKind, Rationale, from_profile
from molstruct.smiles import parse_strict

from _oracles import bleu_stats_oracle, levenshtein_oracle
from test_smiles import best_seconds

K = ComponentKind

# Lengths around the ends of Python's 30-bit int digits and of 64-bit words.
EDGE_LENGTHS = (0, 1, 2, 29, 30, 31, 59, 60, 61, 62, 63, 64, 65, 127, 128, 129, 130)
# Forty symbols, the last ten outside ASCII.
SYMBOLS = "CNOSPFIcnos()[]=#@+-0123456789" + "αβγδéü漢字€🧪"


def edited(text: str, alphabet: list[str], rng: random.Random) -> str:
    """``text`` after a few random insertions, deletions and substitutions."""
    chars = list(text)
    for _ in range(rng.randint(0, 8)):
        at = rng.randint(0, len(chars))
        edit = rng.randrange(3)
        if edit == 0:
            chars.insert(at, rng.choice(alphabet))
        elif at < len(chars):
            if edit == 1:
                del chars[at]
            else:
                chars[at] = rng.choice(alphabet)
    return "".join(chars)


def string_pairs() -> list[tuple[str, str]]:
    """Seeded pairs over alphabets of 1 to 40 symbols: every two edge
    lengths drawn independently, and each edge length against edited
    copies of itself."""
    rng = random.Random(20)
    pairs = []
    for i, long in enumerate(EDGE_LENGTHS):
        for short in EDGE_LENGTHS[: i + 1]:
            alphabet = rng.sample(SYMBOLS, rng.randint(1, len(SYMBOLS)))
            pairs.append(("".join(rng.choices(alphabet, k=long)), "".join(rng.choices(alphabet, k=short))))
        for _ in range(4):
            alphabet = rng.sample(SYMBOLS, rng.randint(1, len(SYMBOLS)))
            text = "".join(rng.choices(alphabet, k=long))
            pairs.append((text, edited(text, alphabet, rng)))
    return pairs


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,distance",
        [
            ("kitten", "sitting", 3),
            ("", "abc", 3),
            ("abc", "", 3),
            ("abc", "abc", 0),
            ("flaw", "lawn", 2),
            ("CCO", "OCC", 2),
            ("a", "b", 1),
            ("", "", 0),
            # six case substitutions plus three '=' insertions
            ("c1ccccc1", "C1=CC=CC=C1", 9),
        ],
    )
    def test_known_distances(self, a: str, b: str, distance: int) -> None:
        assert levenshtein(a, b) == distance
        assert levenshtein(b, a) == distance

    def test_matches_oracle(self, corpus: list[str]) -> None:
        pairs = list(zip(corpus[:25], corpus[25:50]))
        for a, b in pairs:
            assert levenshtein(a, b) == levenshtein_oracle(a, b), (a, b)

    def test_matches_oracle_across_word_ends(self) -> None:
        for a, b in string_pairs():
            distance = levenshtein_oracle(a, b)
            assert levenshtein(a, b) == distance, (a, b)
            assert levenshtein(b, a) == distance, (a, b)


class TestBleu:
    def test_identical_corpus_scores_one(self) -> None:
        texts = ["c1ccccc1", "CCO", "N", "CC(=O)Oc1ccccc1C(=O)O"]
        assert corpus_bleu(texts, texts) == 1.0

    def test_any_zero_order_precision_zeroes_bleu(self) -> None:
        assert corpus_bleu(["abc"], ["abd"]) == 0.0

    def test_hand_computed_value(self) -> None:
        # candidate "aab" vs reference "aabb": all pooled precisions are
        # 1 up to order 3, order 4 has no candidate n-grams, BP covers
        # the length deficit.
        got = corpus_bleu(["aabb"], ["aab"])
        assert got == pytest.approx(math.exp(1 - 4 / 3))

    def test_brevity_penalty_only_when_short(self) -> None:
        stats = bleu_stats("ababab", "abab")
        assert stats.matched == (4, 3, 2, 1)
        assert stats.total == (4, 3, 2, 1)
        assert corpus_bleu(["ababab"], ["abab"]) == pytest.approx(math.exp(1 - 6 / 4))
        # candidate longer than reference: no penalty
        assert corpus_bleu(["abab"], ["ababab"]) < 1.0  # precision loss instead

    def test_short_strings_use_effective_order(self) -> None:
        # two-character strings have no 3-grams or 4-grams to score
        assert corpus_bleu(["CC", "CO"], ["CC", "CO"]) == 1.0
        assert corpus_bleu(["C"], ["C"]) == 1.0

    def test_empty_edge_cases(self) -> None:
        assert corpus_bleu_from_stats([]) == 1.0
        assert corpus_bleu([""], [""]) == 1.0
        assert corpus_bleu(["x"], [""]) == 0.0

    def test_no_scorable_order_scores_zero(self) -> None:
        # candidate characters but no n-gram of any order to score
        assert corpus_bleu_from_stats([BleuStats((0,) * 4, (0,) * 4, 3, 3)]) == 0.0

    def test_length_mismatch_rejected(self) -> None:
        with pytest.raises(ValueError):
            corpus_bleu(["a"], ["a", "b"])

    def test_counts_match_oracle(self) -> None:
        for a, b in string_pairs():
            assert bleu_stats(a, b) == bleu_stats_oracle(a, b), (a, b)
            assert bleu_stats(b, a) == bleu_stats_oracle(b, a), (a, b)

    def test_corpus_pooling_differs_from_mean_of_pairs(self) -> None:
        # pooled counts weight long strings more than short ones
        refs = ["aaaa", "b"]
        cands = ["aaaa", "c"]
        pooled = corpus_bleu(refs, cands)
        assert 0.0 < pooled < 1.0


class TestFingerprints:
    def test_self_similarity(self) -> None:
        fp = morgan_fingerprint(parse_strict("c1ccccc1"))
        assert tanimoto(fp, fp) == 1.0

    def test_spelling_invariance(self) -> None:
        a = morgan_fingerprint(parse_strict("c1ccccc1"))
        b = morgan_fingerprint(parse_strict("C1=CC=CC=C1"))
        assert a == b

    def test_different_structures_differ(self) -> None:
        benzene = morgan_fingerprint(parse_strict("c1ccccc1"))
        cyclohexane = morgan_fingerprint(parse_strict("C1CCCCC1"))
        assert tanimoto(benzene, cyclohexane) < 1.0

    def test_similar_structures_overlap(self) -> None:
        ethanol = morgan_fingerprint(parse_strict("CCO"))
        propanol = morgan_fingerprint(parse_strict("CCCO"))
        methane = morgan_fingerprint(parse_strict("C"))
        assert tanimoto(ethanol, propanol) > tanimoto(ethanol, methane)

    def test_symmetry(self) -> None:
        a = morgan_fingerprint(parse_strict("CCO"))
        b = morgan_fingerprint(parse_strict("c1ccccc1"))
        assert tanimoto(a, b) == tanimoto(b, a)

    def test_width_mismatch_rejected(self) -> None:
        a = morgan_fingerprint(parse_strict("C"), width=2048)
        b = morgan_fingerprint(parse_strict("C"), width=1024)
        with pytest.raises(WidthMismatchError):
            tanimoto(a, b)

    @pytest.mark.parametrize("width", [0, -8, 3, 100, 2047])
    def test_width_must_be_power_of_two(self, width: int) -> None:
        with pytest.raises(ValueError):
            morgan_fingerprint(parse_strict("C"), width=width)

    def test_negative_radius_rejected(self) -> None:
        with pytest.raises(ValueError):
            morgan_fingerprint(parse_strict("C"), radius=-1)

    def test_radius_growth_is_monotone(self) -> None:
        mol = parse_strict("CC(=O)Oc1ccccc1C(=O)O")
        r0 = morgan_fingerprint(mol, radius=0)
        r1 = morgan_fingerprint(mol, radius=1)
        r2 = morgan_fingerprint(mol, radius=2)
        assert r0.bits <= r1.bits <= r2.bits

    def test_empty_fingerprints_match(self) -> None:
        a = Fingerprint(64, frozenset())
        b = Fingerprint(64, frozenset())
        assert tanimoto(a, b) == 1.0

    def test_bits_fold_into_width(self) -> None:
        fp = morgan_fingerprint(parse_strict("CC(=O)Oc1ccccc1C(=O)O"), width=64)
        assert all(0 <= bit < 64 for bit in fp.bits)

    def test_ring_membership_in_invariant(self) -> None:
        # same local degrees, different ring context
        chain = morgan_fingerprint(parse_strict("CCCCCC"), radius=0)
        ring = morgan_fingerprint(parse_strict("C1CCCCC1"), radius=0)
        assert chain.bits != ring.bits

    def test_isotope_in_invariant(self) -> None:
        methane = morgan_fingerprint(parse_strict("C"), radius=0)
        labelled = morgan_fingerprint(parse_strict("[13CH4]"), radius=0)
        assert methane.bits.isdisjoint(labelled.bits)
        assert labelled == morgan_fingerprint(parse_strict("[13CH4]"), radius=0)
        assert compare_pair("C", "[13CH4]").morgan_similarity == 0.0
        assert compare_pair("CCO", "[13CH3]CO").morgan_similarity < 1.0
        # isotope 0 is unlabelled, as in RDKit
        assert morgan_fingerprint(parse_strict("[0CH4]"), radius=0) == methane
        assert compare_pair("C", "[0CH4]").morgan_similarity == 1.0


class TestScoreReasoning:
    def test_identity_scores_all_ones(self) -> None:
        mol = parse_strict("CC(=O)OCC")
        rationale = from_profile(extract_profile(mol))
        scores = score_reasoning(mol, rationale)
        assert set(scores) == set(rationale.mask)
        assert all(value == 1.0 for value in scores.values())

    def test_recall_forgives_extra_claims(self) -> None:
        mol = parse_strict("CC(=O)OCC")
        rationale = Rationale(
            {K.FUNCTIONAL_GROUPS: ("ester", "hydroxyl")},
            frozenset({K.FUNCTIONAL_GROUPS}),
        )
        assert score_reasoning(mol, rationale)[K.FUNCTIONAL_GROUPS] == 0.5
        assert score_reasoning(mol, rationale, recall=True)[K.FUNCTIONAL_GROUPS] == 1.0

    def test_recall_against_empty_gold_is_one(self) -> None:
        mol = parse_strict("CC")
        rationale = Rationale(
            {K.RING_COMPOUNDS: ("benzene",)}, frozenset({K.RING_COMPOUNDS})
        )
        assert score_reasoning(mol, rationale, recall=True)[K.RING_COMPOUNDS] == 1.0
        assert score_reasoning(mol, rationale)[K.RING_COMPOUNDS] == 0.0

    def test_recall_partial(self) -> None:
        mol = parse_strict("OCC(O)CO")
        rationale = Rationale(
            {K.FUNCTIONAL_GROUPS: ("hydroxyl",)}, frozenset({K.FUNCTIONAL_GROUPS})
        )
        assert score_reasoning(mol, rationale, recall=True)[
            K.FUNCTIONAL_GROUPS
        ] == pytest.approx(1 / 3)

    def test_iupac_name_needs_reference(self) -> None:
        mol = parse_strict("CCO")
        rationale = Rationale(
            {K.IUPAC_NAME: "Ethanol"}, frozenset({K.IUPAC_NAME})
        )
        assert score_reasoning(mol, rationale) == {}
        assert score_reasoning(mol, rationale, gold_name="ethanol") == {
            K.IUPAC_NAME: 1.0
        }
        assert score_reasoning(mol, rationale, gold_name="methanol") == {
            K.IUPAC_NAME: 0.0
        }

    def test_weight_band(self) -> None:
        mol = parse_strict("CCC(C)O")  # 74.12
        good = Rationale({K.MOLECULAR_WEIGHT: 74.0}, frozenset({K.MOLECULAR_WEIGHT}))
        bad = Rationale({K.MOLECULAR_WEIGHT: 80.0}, frozenset({K.MOLECULAR_WEIGHT}))
        assert score_reasoning(mol, good)[K.MOLECULAR_WEIGHT] == 1.0
        assert score_reasoning(mol, bad)[K.MOLECULAR_WEIGHT] == 0.0

    def test_weight_band_is_true_over_claimed(self) -> None:
        # the band of matching_ratio: 95.2 / 100 passes, 94.9 / 100 fails
        profile = dataclasses.replace(
            extract_profile(parse_strict("C")), molecular_weight=95.2
        )
        claim = Rationale({K.MOLECULAR_WEIGHT: 100.0}, frozenset({K.MOLECULAR_WEIGHT}))
        assert score_reasoning(profile, claim)[K.MOLECULAR_WEIGHT] == 1.0
        profile = dataclasses.replace(profile, molecular_weight=94.9)
        assert score_reasoning(profile, claim)[K.MOLECULAR_WEIGHT] == 0.0

    def test_long_chain_gold_scores_unless_chain_asserted(self) -> None:
        mol = parse_strict("C" * 65)
        formula = Rationale({K.FORMULA: "C65H132"}, frozenset({K.FORMULA}))
        assert score_reasoning(mol, formula) == {K.FORMULA: 1.0}
        chain = Rationale({K.LONGEST_CHAIN: 65}, frozenset({K.LONGEST_CHAIN}))
        assert score_reasoning(mol, chain) == {K.LONGEST_CHAIN: 1.0}

    def test_empty_mask_raises(self) -> None:
        with pytest.raises(EmptyRationaleError):
            score_reasoning(parse_strict("C"), Rationale({}, frozenset()))


class TestAggregateAccuracy:
    def test_counts_and_means(self) -> None:
        mol = parse_strict("CC(=O)OCC")
        full = score_reasoning(mol, from_profile(extract_profile(mol)))
        partial = score_reasoning(
            mol,
            Rationale(
                {K.FUNCTIONAL_GROUPS: ("ester", "hydroxyl")},
                frozenset({K.FUNCTIONAL_GROUPS}),
            ),
        )
        report = aggregate_accuracy([full, partial], n_records=3)
        assert report.n_records == 3
        assert report.n_scored == 2
        assert report.components[K.FUNCTIONAL_GROUPS].n_scored == 2
        assert report.components[K.FUNCTIONAL_GROUPS].accuracy == pytest.approx(0.75)
        assert report.components[K.IUPAC_NAME].n_scored == 0
        assert report.components[K.IUPAC_NAME].accuracy is None

    def test_to_dict_covers_all_components(self) -> None:
        report = aggregate_accuracy([], n_records=0)
        payload = report.to_dict()
        assert set(payload["components"]) == {kind.value for kind in K}


class TestComparePair:
    def test_exact_across_spellings(self) -> None:
        record = compare_pair("OCC", "CCO")
        assert record.exact
        assert record.valid
        assert record.levenshtein == 2
        assert record.morgan_similarity == 1.0

    def test_invalid_prediction(self) -> None:
        record = compare_pair("CCO", "CC(((O")
        assert not record.valid
        assert not record.exact
        assert record.morgan_similarity == 0.0

    def test_invalid_gold_keeps_validity_of_prediction(self) -> None:
        record = compare_pair("notsmiles!!", "CCO")
        assert record.valid
        assert not record.exact
        assert record.morgan_similarity == 0.0

    def test_different_molecules_not_exact(self) -> None:
        record = compare_pair("CCO", "CCN")
        assert not record.exact
        assert 0.0 < record.morgan_similarity < 1.0

    def test_different_invariants_skip_the_tie_break_search(self, monkeypatch) -> None:
        def fail(*args, **kwargs):
            raise AssertionError("tie-break search ran")

        monkeypatch.setattr(smiles, "_component_min_string", fail)
        record = compare_pair("CCO", "CCCN")
        assert not record.exact
        assert 0.0 < record.morgan_similarity < 1.0

    def test_exact_match_skips_fingerprints(self, monkeypatch) -> None:
        def fail(*args, **kwargs):
            raise AssertionError("fingerprint computed")

        monkeypatch.setattr(metrics, "morgan_fingerprint", fail)
        record = compare_pair("OC(=O)[C@@H](N)C", "C[C@H](N)C(O)=O")
        assert record.exact
        assert record.morgan_similarity == 1.0


class TestCopiedPrediction:
    """A prediction equal to gold is parsed once and never canonicalized."""

    @pytest.fixture
    def calls(self, monkeypatch) -> Counter:
        calls = Counter()
        parse = metrics.parse
        canonical_parts = smiles._canonical_parts

        def counted_parse(text: str):
            calls["parse"] += 1
            return parse(text)

        def counted_parts(mol):
            calls["canonicalize"] += 1
            return canonical_parts(mol)

        monkeypatch.setattr(metrics, "parse", counted_parse)
        monkeypatch.setattr(smiles, "_canonical_parts", counted_parts)
        return calls

    @pytest.mark.parametrize("text", ["CCO", "OC(=O)[C@@H](N)C", "c1ccccc1.[Na+].[Cl-]", "[13CH4]"])
    def test_valid_copy(self, text: str, calls: Counter) -> None:
        record = compare_pair(text, text)
        assert calls == {"parse": 1}
        assert record.valid
        assert record.exact
        assert record.levenshtein == 0
        assert record.morgan_similarity == 1.0
        assert record.bleu == bleu_stats_oracle(text, text)

    def test_unparsable_copy(self, calls: Counter) -> None:
        record = compare_pair("C(", "C(")
        assert calls == {"parse": 1}
        assert not record.valid
        assert not record.exact
        assert record.morgan_similarity == 0.0


class TestGradingScaling:
    """Long inputs, such as a runaway generated prediction, graded in time.

    Each bound is nine or more times the time measured on a 2-core
    machine (Python 3.11): 0.016 s, 0.027 s and 0.10 s.  With the full
    edit-distance table the two 5,000-character strings took 8 to 9.5 s
    and the chain pair 2.6 to 2.7 s.
    """

    def test_levenshtein_of_long_strings(self) -> None:
        rng = random.Random(5)
        a = "".join(rng.choices("CNOc1()=", k=5000))
        b = "".join(rng.choices("CNOc1()=", k=5000))
        assert best_seconds(lambda: levenshtein(a, b), 0.5) < 0.5
        assert levenshtein(a, b) == levenshtein(b, a)

    def test_levenshtein_is_linear_in_the_longer_string(self) -> None:
        # A 3-character column fits in one word: the cost is a fixed
        # number of word operations per character of the long string.
        rng = random.Random(5)
        a = "".join(rng.choices("CNO", k=100_000))
        assert best_seconds(lambda: levenshtein(a, "NOC"), 0.25) < 0.25
        assert levenshtein(a, "NOC") == levenshtein_oracle(a, "NOC")

    def test_compare_long_chains(self) -> None:
        gold = "C" * 3000
        predicted = "C" * 2999 + "O"
        assert best_seconds(lambda: compare_pair(gold, predicted), 1.0) < 1.0
        record = compare_pair(gold, predicted)
        assert record.valid
        assert not record.exact
        assert record.levenshtein == 1
        assert record.bleu == bleu_stats_oracle(gold, predicted)


class TestAggregateComparison:
    def test_aggregates(self) -> None:
        records = [compare_pair("CCO", "OCC"), compare_pair("CCN", "CC(((")]
        report = aggregate_comparison(records)
        assert report.n_records == 2
        assert report.exact_match == 0.5
        assert report.validity == 0.5
        assert report.levenshtein_mean == pytest.approx(
            (records[0].levenshtein + records[1].levenshtein) / 2
        )

    def test_empty_returns_nones(self) -> None:
        report = aggregate_comparison([])
        assert report.n_records == 0
        assert report.exact_match is None
        assert report.bleu is None

    def test_perfect_corpus(self) -> None:
        texts = ["CCO", "c1ccccc1", "N[C@@H](C)C(=O)O"]
        report = aggregate_comparison([compare_pair(s, s) for s in texts])
        assert report.exact_match == 1.0
        assert report.bleu == 1.0
        assert report.levenshtein_mean == 0.0
        assert report.morgan_similarity_mean == 1.0
        assert report.validity == 1.0

    def test_aggregates_read_an_iterator_in_one_pass(self) -> None:
        pairs = [("CCO", "OCC"), ("c1ccccc1O", "Oc1ccccc1C"), ("CCN", "CC((("), ("CC", "CCC")]
        records = [compare_pair(gold, predicted) for gold, predicted in pairs]
        assert aggregate_comparison(iter(records)) == aggregate_comparison(records)
        scores = [score_reasoning(parse_strict(gold), from_profile(extract_profile(
            parse_strict(predicted)))) for gold, predicted in pairs[:2]]
        assert aggregate_accuracy(iter(scores), n_records=3) == aggregate_accuracy(
            scores, n_records=3
        )

    def test_to_dict_shape(self) -> None:
        payload = aggregate_comparison([compare_pair("C", "C")]).to_dict()
        assert set(payload) == {
            "n_records",
            "exact_match",
            "levenshtein_mean",
            "morgan_similarity_mean",
            "validity",
            "bleu",
        }
