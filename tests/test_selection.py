"""Matching ratio and candidate selection."""

from __future__ import annotations

import pytest

from molstruct.errors import EmptyRationaleError
from molstruct.profile import Configuration, StructuralProfile, extract_profile
from molstruct.rationale import ComponentKind, Rationale, from_profile, parse_rationale
from molstruct.selection import matching_ratio, select
from molstruct.smiles import parse_strict

K = ComponentKind


def profile_with_weight(weight: float) -> StructuralProfile:
    return StructuralProfile(
        formula="",
        longest_chain=0,
        aromatic_ring_count=0,
        ring_compounds=(),
        functional_groups=(),
        chiral_centers=(),
        molecular_weight=weight,
    )


def weight_claim(value: float) -> Rationale:
    return Rationale({K.MOLECULAR_WEIGHT: value}, frozenset({K.MOLECULAR_WEIGHT}))


class TestMatchingRatio:
    @pytest.mark.parametrize(
        "smiles",
        [
            "CCC(C)O",
            "CC(=O)Oc1ccccc1C(=O)O",
            "N[C@@H](C)C(=O)O",
            "C1COCCN1",
            "c1ccc2[nH]ccc2c1",
            "[O-][n+]1ccccc1",
            "C[C@@H](O)CC",
        ],
    )
    def test_self_consistency_is_one(self, smiles: str) -> None:
        mol = parse_strict(smiles)
        rationale = from_profile(extract_profile(mol))
        overall, per_component = matching_ratio(rationale, mol)
        assert overall == 1.0
        assert all(score == 1.0 for score in per_component.values())
        assert set(per_component) == set(rationale.mask)

    @pytest.mark.parametrize(
        "actual,expected",
        [
            (95.0, 1.0),
            (94.9, 0.0),
            (105.0, 1.0),
            (105.1, 0.0),
            (100.0, 1.0),
            (104.9, 1.0),
            (104.99, 1.0),
        ],
    )
    def test_weight_band_boundaries(self, actual: float, expected: float) -> None:
        overall, _ = matching_ratio(weight_claim(100.0), profile_with_weight(actual))
        assert overall == expected

    def test_weight_band_accepts_claim_within_five_percent(self) -> None:
        # candidate / claimed at exactly 1.049 passes, 1.051 fails
        assert matching_ratio(weight_claim(100.0), profile_with_weight(104.9))[0] == 1.0
        assert matching_ratio(weight_claim(100.0), profile_with_weight(105.1))[0] == 0.0

    def test_zero_weight_claim_scores_zero_without_dividing(self) -> None:
        rationale = parse_rationale("The molecular weight is 0.0 g/mol.")
        assert rationale.mask == {K.MOLECULAR_WEIGHT}
        overall, per_component = matching_ratio(rationale, parse_strict("C"))
        assert per_component == {K.MOLECULAR_WEIGHT: 0.0}
        assert overall == 0.0

    def test_iupac_name_scores_zero(self) -> None:
        rationale = Rationale(
            {K.IUPAC_NAME: "butan-2-ol", K.FORMULA: "C4H10O"},
            frozenset({K.IUPAC_NAME, K.FORMULA}),
        )
        overall, per_component = matching_ratio(rationale, parse_strict("CCC(C)O"))
        assert per_component[K.IUPAC_NAME] == 0.0
        assert overall == 0.5

    def test_jaccard_partial_credit(self) -> None:
        rationale = Rationale(
            {K.FUNCTIONAL_GROUPS: ("ester", "hydroxyl")},
            frozenset({K.FUNCTIONAL_GROUPS}),
        )
        assert matching_ratio(rationale, parse_strict("CCO"))[0] == 0.5

    def test_jaccard_both_empty_is_one(self) -> None:
        rationale = Rationale({K.RING_COMPOUNDS: ()}, frozenset({K.RING_COMPOUNDS}))
        assert matching_ratio(rationale, parse_strict("CC"))[0] == 1.0

    def test_jaccard_multiset_counts(self) -> None:
        rationale = Rationale(
            {K.FUNCTIONAL_GROUPS: ("hydroxyl", "hydroxyl")},
            frozenset({K.FUNCTIONAL_GROUPS}),
        )
        assert matching_ratio(rationale, parse_strict("OCC(O)CO"))[0] == pytest.approx(2 / 3)

    def test_chirality_compares_label_multiset(self) -> None:
        rationale = Rationale(
            {K.CHIRALITY: ((99, Configuration.R),)}, frozenset({K.CHIRALITY})
        )
        assert matching_ratio(rationale, parse_strict("C[C@@H](O)CC"))[0] == 1.0
        assert matching_ratio(rationale, parse_strict("C[C@H](O)CC"))[0] == 0.0
        assert matching_ratio(rationale, parse_strict("CC(O)CC"))[0] == 0.0

    def test_mean_over_mask(self) -> None:
        rationale = Rationale(
            {K.FORMULA: "C4H10O", K.LONGEST_CHAIN: 9},
            frozenset({K.FORMULA, K.LONGEST_CHAIN}),
        )
        overall, per_component = matching_ratio(rationale, parse_strict("CCC(C)O"))
        assert per_component == {K.FORMULA: 1.0, K.LONGEST_CHAIN: 0.0}
        assert overall == 0.5

    def test_wrong_extra_claim_lowers_ratio(self) -> None:
        mol = parse_strict("CCC(C)O")
        small = Rationale({K.FORMULA: "C4H10O"}, frozenset({K.FORMULA}))
        large = Rationale(
            {K.FORMULA: "C4H10O", K.LONGEST_CHAIN: 9},
            frozenset({K.FORMULA, K.LONGEST_CHAIN}),
        )
        assert matching_ratio(large, mol)[0] < matching_ratio(small, mol)[0]

    def test_custom_weights(self) -> None:
        rationale = Rationale(
            {K.FORMULA: "CH4", K.IUPAC_NAME: "methane"},
            frozenset({K.FORMULA, K.IUPAC_NAME}),
        )
        mol = parse_strict("C")
        assert matching_ratio(rationale, mol)[0] == 0.5
        weighted, _ = matching_ratio(
            rationale, mol, weights={K.FORMULA: 3.0, K.IUPAC_NAME: 1.0}
        )
        assert weighted == 0.75

    def test_zero_total_weight_rejected(self) -> None:
        rationale = Rationale({K.FORMULA: "CH4"}, frozenset({K.FORMULA}))
        with pytest.raises(ValueError):
            matching_ratio(rationale, parse_strict("C"), weights={K.FORMULA: 0.0})

    def test_empty_mask_raises(self) -> None:
        with pytest.raises(EmptyRationaleError):
            matching_ratio(Rationale({}, frozenset()), parse_strict("C"))

    def test_accepts_precomputed_profile(self) -> None:
        profile = extract_profile(parse_strict("CCO"))
        rationale = from_profile(profile)
        assert matching_ratio(rationale, profile)[0] == 1.0


class TestSelect:
    def test_chiral_rationale_picks_tagged_candidate(self) -> None:
        rationale = from_profile(extract_profile(parse_strict("C[C@@H](O)CC")))
        report = select(
            rationale, ["CCCCO", "C[C@@H](O)CC", "CC(C)O", "garbage((("]
        )
        assert report.selected_index == 1
        assert report.selected_smiles == "C[C@@H](O)CC"
        assert not report.all_failed
        assert report.per_candidate[0].matching_ratio == pytest.approx(6 / 7)
        assert report.per_candidate[3].parse_ok is False
        assert report.per_candidate[3].matching_ratio is None

    def test_indistinguishable_isomers_tie_to_lowest_index(self) -> None:
        rationale = from_profile(extract_profile(parse_strict("CCC(C)O")))
        report = select(rationale, ["CCCCO", "CCC(C)O"])
        assert report.selected_index == 0
        assert [c.matching_ratio for c in report.per_candidate] == [1.0, 1.0]

    def test_exact_duplicates_tie_to_lowest_index(self) -> None:
        rationale = from_profile(extract_profile(parse_strict("CCC(C)O")))
        report = select(rationale, ["CCC(C)O", "OC(C)CC"])
        assert report.selected_index == 0

    def test_all_failed_flags_and_picks_index_zero(self) -> None:
        rationale = from_profile(extract_profile(parse_strict("CCC(C)O")))
        report = select(rationale, ["(((", ")))"])
        assert report.all_failed
        assert report.selected_index == 0
        assert report.selected_smiles == "((("

    def test_empty_candidate_list_rejected(self) -> None:
        rationale = from_profile(extract_profile(parse_strict("C")))
        with pytest.raises(ValueError):
            select(rationale, [])

    def test_empty_mask_rejected(self) -> None:
        with pytest.raises(EmptyRationaleError):
            select(Rationale({}, frozenset()), ["C"])

    def test_unparseable_ranks_below_any_parseable(self) -> None:
        # even a zero-ratio parseable candidate beats a parse failure
        rationale = Rationale({K.FORMULA: "C99"}, frozenset({K.FORMULA}))
        report = select(rationale, ["(((", "C"])
        assert report.selected_index == 1
        assert report.per_candidate[1].matching_ratio == 0.0

    def test_repeated_strings_score_like_separate_calls(self) -> None:
        rationale = from_profile(extract_profile(parse_strict("C[C@@H](O)CC")))
        candidates = [
            "CCCCO", "(((", "C[C@@H](O)CC", "CCCCO", "(((", "C[C@H](O)CC", "C[C@@H](O)CC",
        ]
        report = select(rationale, candidates)
        singles = [select(rationale, [smiles]).per_candidate[0] for smiles in candidates]
        assert report.per_candidate == tuple(singles)
        assert report.selected_index == 2
        dicts = [entry.per_component for entry in report.per_candidate]
        assert len({id(d) for d in dicts}) == len(candidates)

    def test_long_chain_candidate_scores_when_chain_not_asserted(self) -> None:
        long_chain = "C" * 65
        formula_only = Rationale({K.FORMULA: "C65H132"}, frozenset({K.FORMULA}))
        report = select(formula_only, ["CCO", long_chain])
        assert report.selected_index == 1
        assert report.per_candidate[1].matching_ratio == 1.0

        with_chain = Rationale(
            {K.FORMULA: "C65H132", K.LONGEST_CHAIN: 65},
            frozenset({K.FORMULA, K.LONGEST_CHAIN}),
        )
        report = select(with_chain, ["CCO", long_chain])
        assert report.selected_index == 1
        assert report.per_candidate[1].matching_ratio == 1.0
