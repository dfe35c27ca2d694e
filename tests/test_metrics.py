"""Reasoning and molecule metrics."""

from __future__ import annotations

import dataclasses
import math

import pytest

from molstruct.errors import EmptyRationaleError, WidthMismatchError
from molstruct.metrics import (
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

from _oracles import levenshtein_oracle

K = ComponentKind


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

    def test_length_mismatch_rejected(self) -> None:
        with pytest.raises(ValueError):
            corpus_bleu(["a"], ["a", "b"])

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
