"""Structural profile extraction: formula, weight, chains, chirality."""

from __future__ import annotations

import pytest

from molstruct.profile import (
    Configuration,
    chiral_centers,
    extract_profile,
    longest_carbon_chain,
    molecular_formula,
    molecular_weight,
)
from molstruct.smiles import parse_strict

from _oracles import formula_oracle, longest_chain_oracle


class TestFormula:
    @pytest.mark.parametrize(
        "smiles,formula",
        [
            ("C", "CH4"),
            ("CCO", "C2H6O"),
            ("CCC(C)O", "C4H10O"),
            ("CC(C)O", "C3H8O"),
            ("c1ccccc1", "C6H6"),
            ("CC(=O)Oc1ccccc1C(=O)O", "C9H8O4"),
            ("N[C@@H](C)C(=O)O", "C3H7NO2"),
            ("[NH4+].[Cl-]", "ClH4N"),
            ("O", "H2O"),
            ("[2H]O[2H]", "H2O"),
            ("[13CH4]", "CH4"),
            ("OS(=O)(=O)O", "H2O4S"),
            ("ClCCBr", "C2H4BrCl"),
            ("N", "H3N"),
            ("[Na+].[Cl-]", "ClNa"),
            ("c1ccc2[nH]ccc2c1", "C8H7N"),
        ],
    )
    def test_hill_order(self, smiles: str, formula: str) -> None:
        assert molecular_formula(parse_strict(smiles)) == formula

    def test_matches_oracle_on_corpus(self, corpus: list[str]) -> None:
        for smiles in corpus:
            mol = parse_strict(smiles)
            assert molecular_formula(mol) == formula_oracle(mol), smiles


class TestMolecularWeight:
    @pytest.mark.parametrize(
        "smiles,weight",
        [
            ("CCC(C)O", 74.12),
            ("CC(C)O", 60.10),
            ("C", 16.04),
            ("c1ccccc1", 78.11),
            ("CCCCCC(O)C", 116.20),
            ("CC(=O)Oc1ccccc1C(=O)O", 180.16),
            ("O", 18.02),
            # mass numbers substitute exactly: 2*2 + 15.999 rounds to 20.00
            ("[2H]O[2H]", 20.00),
            ("[13CH4]", 17.03),
            ("c1ccncc1", 79.10),
            ("c1ccc2ccccc2c1", 128.17),
            ("CC(N)C", 59.11),
            ("[Na+].[Cl-]", 58.44),
        ],
    )
    def test_two_decimal_weights(self, smiles: str, weight: float) -> None:
        assert molecular_weight(parse_strict(smiles)) == pytest.approx(
            weight, abs=0.005
        )

    def test_isotope_substitutes_mass_number(self) -> None:
        assert molecular_weight(parse_strict("[13CH4]")) > molecular_weight(
            parse_strict("C")
        )


class TestLongestChain:
    @pytest.mark.parametrize(
        "smiles,length",
        [
            ("C", 1),
            ("CC", 2),
            ("CCCC", 4),
            ("CCC(C)O", 4),
            ("CC(C)C", 3),
            ("CC(C)(C)C", 3),
            ("CCC(CC)CC", 5),
            ("CCCCCC(O)C", 7),
            ("c1ccccc1", 0),
            ("c1ccccc1CC", 2),
            ("OC1CCCCC1", 0),
            ("CC1CCCCC1C", 1),
            ("O", 0),
            ("CC(=O)Oc1ccccc1C(=O)O", 2),
            ("CCCCCCCCCCCC", 12),
            # the fourth chain carbon opens the second ring, so it is excluded
            ("C1CC1CCCC1CC1", 3),
        ],
    )
    def test_non_ring_carbon_chains(self, smiles: str, length: int) -> None:
        assert longest_carbon_chain(parse_strict(smiles)) == length

    def test_matches_oracle_on_corpus(self, corpus: list[str]) -> None:
        for smiles in corpus:
            mol = parse_strict(smiles)
            assert longest_carbon_chain(mol) == longest_chain_oracle(mol), smiles

    def test_long_chains_are_exact(self) -> None:
        assert longest_carbon_chain(parse_strict("C" * 65)) == 65
        assert extract_profile(parse_strict("C" * 2000)).longest_chain == 2000

    @pytest.mark.parametrize(
        "smiles",
        [
            "O" + "CCO" * 200,  # PEG-200: 400 carbons, no C-C path longer than 2
            "CC(C)(C)" * 100,  # gem-dimethyl branched 400-carbon tree
        ],
    )
    def test_large_trees_match_oracle(self, smiles: str) -> None:
        mol = parse_strict(smiles)
        assert longest_carbon_chain(mol) == longest_chain_oracle(mol)

    def test_size_limit_boundary_passes(self) -> None:
        assert longest_carbon_chain(parse_strict("C" * 64)) == 64


class TestChirality:
    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("C[C@@H](O)CC", [(2, Configuration.R)]),
            ("C[C@H](O)CC", [(2, Configuration.S)]),
            ("N[C@@H](C)C(=O)O", [(1, Configuration.S)]),
            ("N[C@H](C)C(=O)O", [(1, Configuration.R)]),
            ("[C@H](F)(Cl)Br", [(0, Configuration.S)]),
            ("[C@@H](F)(Cl)Br", [(0, Configuration.R)]),
            ("CC(O)CC", []),
            ("CCO", []),
        ],
    )
    def test_cip_assignments(self, smiles: str, expected: list) -> None:
        assert list(chiral_centers(parse_strict(smiles))) == expected

    def test_identical_branches_unresolved(self) -> None:
        got = chiral_centers(parse_strict("C[C@@H](C)O"))
        assert [config for _, config in got] == [Configuration.UNRESOLVED]

    def test_ring_stereocenter(self) -> None:
        got = chiral_centers(parse_strict("C[C@H]1CCCO1"))
        assert len(got) == 1 and got[0][1] in (Configuration.R, Configuration.S)

    def test_symmetric_ring_tag_unresolved(self) -> None:
        got = chiral_centers(parse_strict("C[C@H]1CCCCC1"))
        assert [config for _, config in got] == [Configuration.UNRESOLVED]

    def test_enantiomer_pairs_flip_every_label(self) -> None:
        pairs = [
            ("C[C@@H](O)CC", "C[C@H](O)CC"),
            ("N[C@@H](CO)C(=O)O", "N[C@H](CO)C(=O)O"),
            ("F[C@H](Cl)CC", "F[C@@H](Cl)CC"),
        ]
        flip = {Configuration.R: Configuration.S, Configuration.S: Configuration.R}
        for a, b in pairs:
            ca = chiral_centers(parse_strict(a))
            cb = chiral_centers(parse_strict(b))
            assert [c for _, c in cb] == [flip[c] for _, c in ca], (a, b)

    def test_degenerate_tag_is_dropped(self) -> None:
        # three-neighbor stereo tags carry no tetrahedral information
        assert list(chiral_centers(parse_strict("C[C@@](C)C"))) == []

    def test_untagged_molecule_skips_canonical_numbering(self, monkeypatch) -> None:
        def fail(mol):
            raise AssertionError("canonical_order called")

        monkeypatch.setattr("molstruct.profile.canonical_order", fail)
        assert chiral_centers(parse_strict("CC(O)CC(=O)Oc1ccccc1")) == []
        assert extract_profile(parse_strict("CCC(C)O")).chiral_centers == ()


class TestProfile:
    def test_butanol_profile(self) -> None:
        profile = extract_profile(parse_strict("CCC(C)O"))
        assert profile.formula == "C4H10O"
        assert profile.longest_chain == 4
        assert profile.aromatic_ring_count == 0
        assert profile.ring_compounds == ()
        assert profile.functional_groups == ("hydroxyl",)
        assert profile.chiral_centers == ()
        assert profile.molecular_weight == pytest.approx(74.12, abs=0.005)

    def test_phenylpropanol_profile(self) -> None:
        profile = extract_profile(parse_strict("CC(O)Cc1ccccc1"))
        assert profile.formula == "C9H12O"
        assert profile.longest_chain == 3
        assert profile.aromatic_ring_count == 1
        assert profile.ring_compounds == ("benzene",)
        assert profile.molecular_weight == pytest.approx(136.19, abs=0.005)

    def test_aspirin_profile(self) -> None:
        profile = extract_profile(parse_strict("CC(=O)Oc1ccccc1C(=O)O"))
        assert profile.formula == "C9H8O4"
        assert profile.longest_chain == 2
        assert profile.aromatic_ring_count == 1
        assert profile.ring_compounds == ("benzene",)
        assert sorted(profile.functional_groups) == ["carboxylic acid", "ester"]
        assert profile.molecular_weight == pytest.approx(180.16, abs=0.005)

    def test_alanine_profile(self) -> None:
        profile = extract_profile(parse_strict("N[C@@H](C)C(=O)O"))
        assert profile.formula == "C3H7NO2"
        assert [c for _, c in profile.chiral_centers] == [Configuration.S]
        assert profile.molecular_weight == pytest.approx(89.09, abs=0.005)

    def test_morpholine_profile(self) -> None:
        profile = extract_profile(parse_strict("C1COCCN1"))
        assert profile.ring_compounds == ("morpholine",)
        assert sorted(profile.functional_groups) == ["ether", "secondary amine"]
        assert profile.aromatic_ring_count == 0

    def test_profile_fields_are_sorted_tuples(self) -> None:
        profile = extract_profile(parse_strict("OCC(O)CO"))
        assert profile.functional_groups == ("hydroxyl", "hydroxyl", "hydroxyl")

    def test_chiral_positions_use_canonical_numbering(self) -> None:
        # the same molecule spelled two ways reports the same atom position
        a = extract_profile(parse_strict("C[C@@H](O)CC"))
        b = extract_profile(parse_strict("CC[C@@H](C)O"))
        assert a.chiral_centers == b.chiral_centers

    def test_extraction_on_whole_corpus(self, corpus: list[str]) -> None:
        for smiles in corpus:
            profile = extract_profile(parse_strict(smiles))
            assert profile.molecular_weight > 0, smiles
            assert profile.longest_chain >= 0, smiles
