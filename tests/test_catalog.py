"""Functional group and ring compound recognition."""

from __future__ import annotations

from collections import Counter

import pytest

from molstruct.catalog import Catalog, functional_group_names, ring_compound_names
from molstruct.errors import CatalogError
from molstruct.smiles import parse_strict


def groups(smiles: str, catalog: Catalog | None = None) -> Counter:
    return functional_group_names(parse_strict(smiles), catalog)


def rings(smiles: str, catalog: Catalog | None = None) -> Counter:
    return ring_compound_names(parse_strict(smiles), catalog)


class TestFunctionalGroups:
    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("CCO", {"hydroxyl": 1}),
            ("OCC(O)CO", {"hydroxyl": 3}),
            ("CC(=O)O", {"carboxylic acid": 1}),
            ("OC=O", {"carboxylic acid": 1}),
            ("CC(=O)OC", {"ester": 1}),
            ("CC(=O)OCC", {"ester": 1}),
            ("CC(=O)N", {"amide": 1}),
            ("CC(=O)NC", {"amide": 1}),
            # urea is a bis-amide: one embedding per nitrogen
            ("NC(N)=O", {"amide": 2}),
            ("C[N+](=O)[O-]", {"nitro": 1}),
            ("CC=O", {"aldehyde": 1}),
            ("C=O", {"aldehyde": 1}),
            ("CC(=O)C", {"ketone": 1}),
            ("CC#N", {"nitrile": 1}),
            ("c1ccccc1O", {"phenol": 1}),
            ("CS", {"thiol": 1}),
            ("CN", {"primary amine": 1}),
            ("CNC", {"secondary amine": 1}),
            ("CN(C)C", {"tertiary amine": 1}),
            ("COC", {"ether": 1}),
            ("CSC", {"sulfide": 1}),
            ("CCl", {"halide (Cl)": 1}),
            ("CF", {"halide (F)": 1}),
            ("CBr", {"halide (Br)": 1}),
            ("CI", {"halide (I)": 1}),
            ("C=C", {"alkene": 1}),
            ("C#C", {"alkyne": 1}),
            ("CS(=O)(=O)O", {"sulfonic acid": 1}),
            ("COP(=O)(OC)OC", {"phosphate": 1}),
            ("CC", {}),
            ("c1ccccc1", {}),
            ("C1CCCCC1", {}),
        ],
    )
    def test_single_group_families(self, smiles: str, expected: dict) -> None:
        assert groups(smiles) == Counter(expected)

    def test_aspirin(self) -> None:
        assert groups("CC(=O)Oc1ccccc1C(=O)O") == Counter(
            {"carboxylic acid": 1, "ester": 1}
        )

    def test_glycine(self) -> None:
        assert groups("NCC(=O)O") == Counter(
            {"carboxylic acid": 1, "primary amine": 1}
        )

    def test_paracetamol(self) -> None:
        assert groups("CC(=O)Nc1ccc(O)cc1") == Counter({"amide": 1, "phenol": 1})

    def test_morpholine(self) -> None:
        assert groups("C1COCCN1") == Counter({"secondary amine": 1, "ether": 1})

    def test_chloroform_counts_each_bond(self) -> None:
        assert groups("ClC(Cl)Cl") == Counter({"halide (Cl)": 3})

    def test_mixed_halides_name_each_element(self) -> None:
        assert groups("ClCCBr") == Counter({"halide (Cl)": 1, "halide (Br)": 1})

    def test_suppression_acid_beats_hydroxyl_and_ketone(self) -> None:
        # carboxylic acid atoms must not double-report as hydroxyl/aldehyde
        assert groups("OC=O") == Counter({"carboxylic acid": 1})
        assert groups("CCCC(=O)O") == Counter({"carboxylic acid": 1})

    def test_suppression_ester_beats_ether(self) -> None:
        assert groups("CC(=O)OC")["ether"] == 0

    def test_suppression_amide_beats_amine(self) -> None:
        assert groups("CC(=O)NC")["secondary amine"] == 0

    def test_aromatic_nitrogens_are_not_amines(self) -> None:
        assert groups("c1ccncc1") == Counter()
        assert groups("c1cc[nH]c1") == Counter()

    def test_phenol_beats_plain_hydroxyl(self) -> None:
        got = groups("c1ccccc1O")
        assert got["phenol"] == 1 and got["hydroxyl"] == 0

    def test_phosphate_oxygens_not_ethers(self) -> None:
        assert groups("COP(=O)(OC)OC") == Counter({"phosphate": 1})

    def test_enol_ether_vs_alkene_coexist(self) -> None:
        got = groups("C=CCO")
        assert got == Counter({"alkene": 1, "hydroxyl": 1})

    def test_amino_acid_with_side_chain(self) -> None:
        got = groups("N[C@@H](CO)C(=O)O")
        assert got == Counter(
            {"carboxylic acid": 1, "primary amine": 1, "hydroxyl": 1}
        )


class TestRingCompounds:
    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("c1ccccc1", {"benzene": 1}),
            ("c1ccncc1", {"pyridine": 1}),
            ("c1cncnc1", {"pyrimidine": 1}),
            ("c1cc[nH]c1", {"pyrrole": 1}),
            ("c1ccoc1", {"furan": 1}),
            ("c1ccsc1", {"thiophene": 1}),
            ("c1cnc[nH]1", {"imidazole": 1}),
            ("c1cc[nH]n1", {"pyrazole": 1}),
            ("C1CCNCC1", {"piperidine": 1}),
            ("C1CCNC1", {"pyrrolidine": 1}),
            ("C1COCCN1", {"morpholine": 1}),
            ("C1CCOC1", {"tetrahydrofuran": 1}),
            ("C1CC1", {"cyclopropane": 1}),
            ("C1CCC1", {"cyclobutane": 1}),
            ("C1CCCC1", {"cyclopentane": 1}),
            ("C1CCCCC1", {"cyclohexane": 1}),
            ("C1CCCCCC1", {"cycloheptane": 1}),
            ("C1CCCCCCC1", {"cyclooctane": 1}),
            ("CCO", {}),
        ],
    )
    def test_named_rings(self, smiles: str, expected: dict) -> None:
        assert rings(smiles) == Counter(expected)

    def test_substituents_do_not_change_ring_name(self) -> None:
        assert rings("Cc1ccccc1C") == Counter({"benzene": 1})
        assert rings("OC1CCCCC1") == Counter({"cyclohexane": 1})

    def test_naphthalene_is_two_benzenes(self) -> None:
        assert rings("c1ccc2ccccc2c1") == Counter({"benzene": 2})

    def test_decalin_is_two_cyclohexanes(self) -> None:
        assert rings("C1CCC2CCCCC2C1") == Counter({"cyclohexane": 2})

    def test_indole_decomposes(self) -> None:
        assert rings("c1ccc2[nH]ccc2c1") == Counter({"benzene": 1, "pyrrole": 1})

    def test_quinoline_decomposes(self) -> None:
        assert rings("c1ccc2ncccc2c1") == Counter({"benzene": 1, "pyridine": 1})

    def test_azaindole_decomposes(self) -> None:
        assert rings("c1cnc2[nH]ccc2c1") == Counter({"pyridine": 1, "pyrrole": 1})

    def test_pyrazine_gets_generic_name(self) -> None:
        # same composition as pyrimidine, different nitrogen spacing
        got = rings("c1cnccn1")
        assert got == Counter({"aromatic 6-membered ring (heteroatoms: N,N)": 1})

    def test_pyridazine_gets_generic_name(self) -> None:
        got = rings("c1ccnnc1")
        assert got == Counter({"aromatic 6-membered ring (heteroatoms: N,N)": 1})

    def test_cyclohexene_is_generic(self) -> None:
        assert rings("C1=CCCCC1") == Counter({"6-membered ring": 1})

    def test_kekule_benzene_still_named(self) -> None:
        assert rings("C1=CC=CC=C1") == Counter({"benzene": 1})

    def test_piperazine_generic(self) -> None:
        got = rings("C1CNCCN1")
        assert got == Counter({"6-membered ring (heteroatoms: N,N)": 1})

    def test_aromatic_flag_distinguishes(self) -> None:
        # cyclohexane vs benzene keys differ by aromatic flag, not just bonds
        assert rings("C1CCCCC1") != rings("c1ccccc1")


class TestCatalogConfig:
    def test_custom_group_only_catalog(self) -> None:
        catalog = Catalog.from_text("group | hydroxyl | [O;H1;D1] | 1\n")
        assert groups("OCC(O)CO", catalog) == Counter({"hydroxyl": 3})
        assert rings("c1ccccc1", catalog) == Counter(
            {"aromatic 6-membered ring": 1}
        )

    def test_custom_ring_catalog(self) -> None:
        catalog = Catalog.from_text(
            "group | hydroxyl | [O;H1;D1] | 1\nring | benzene | c1ccccc1\n"
        )
        assert rings("c1ccccc1O", catalog) == Counter({"benzene": 1})

    def test_full_line_comments_and_blanks(self) -> None:
        catalog = Catalog.from_text(
            "# a comment\n\ngroup | nitrile | [C;A]#[N;A] | 1\n"
        )
        assert groups("CC#N", catalog) == Counter({"nitrile": 1})

    def test_hash_inside_pattern_is_not_comment(self) -> None:
        catalog = Catalog.from_text("group | ether | [#6][O;H0;D2][#6] | 1\n")
        assert groups("COC", catalog) == Counter({"ether": 1})

    @pytest.mark.parametrize(
        "text",
        [
            "group | broken\n",
            "ring | benzene\n",
            "bogus | x | y | 1\n",
            "group | bad | [Q] | 1\n",
            "ring | notring | CCC\n",
            "group | badprec | C | zero\n",
        ],
    )
    def test_malformed_config_rejected(self, text: str) -> None:
        with pytest.raises(CatalogError):
            Catalog.from_text(text)

    def test_equal_precedence_never_suppresses(self) -> None:
        # suppression is strictly-lower-wins, so ties coexist
        catalog = Catalog.from_text(
            "group | one | [O;H1;D1] | 1\ngroup | two | [O;H1] | 1\n"
        )
        assert groups("CO", catalog) == Counter({"one": 1, "two": 1})

    def test_default_catalog_is_cached(self) -> None:
        assert Catalog.default() is Catalog.default()


def pattern_matches(pattern: str, smiles: str) -> int:
    """Surviving matches of one pattern, compiled through a catalog line."""
    catalog = Catalog.from_text(f"group | p | {pattern} | 1\n")
    return groups(smiles, catalog)["p"]


class TestPatternNotation:
    @pytest.mark.parametrize(
        "pattern,smiles,count",
        [
            # bracket alternatives
            ("[C]", "c1ccccc1CCO", 2),
            ("[c]", "c1ccccc1CCO", 6),
            ("[n]", "c1ccncc1", 1),
            ("[Cl]", "ClCCCl", 2),
            ("[Br,I]", "BrCCI", 2),
            ("[#6]", "c1ccccc1CCO", 8),
            ("[#8]", "OCC=O", 2),
            ("[a]", "c1ccccc1O", 6),
            ("[A]", "c1ccccc1O", 1),
            ("[C;H3]", "CC(C)CO", 2),
            ("[O;H1]", "OCC=O", 1),
            ("[C;H0]", "CC(C)(C)C=O", 1),
            ("[C;D1]", "CC(C)CO", 2),
            ("[C;D3]", "CC(C)CO", 1),
            ("[N;+1]", "C[N+](=O)[O-]", 1),
            ("[O;-1]", "C[N+](=O)[O-]", 1),
            ("[O;+0]", "C[N+](=O)[O-]", 1),
            ("[X]", "FC(Cl)(Br)I", 4),
            ("[X]", "Clc1ccccc1", 1),
            ("[*]", "CCO", 3),
            ("[O,N]", "OCCN", 2),
            ("[C,c;H2]", "c1ccccc1CCO", 2),
            # bare atoms
            ("*", "CCO", 3),
            ("*", "[Na+].[Cl-]", 2),
            ("Cl", "ClCCBr", 1),
            ("Br", "ClCCBr", 1),
            ("c", "c1ccccc1C", 6),
            ("n", "c1ccncc1", 1),
            ("o", "c1ccoc1", 1),
            # bonds: default is single or aromatic
            ("CC", "CC=CC#CC", 3),
            ("C-C", "CC=CC#CC", 3),
            ("C=C", "CC=CC#CC", 1),
            ("C#C", "CC=CC#CC", 1),
            ("C~C", "CC=CC#CC", 5),
            ("C:C", "CC=CC#CC", 0),
            ("cc", "c1ccccc1-c1ccccc1", 13),
            ("c-c", "c1ccccc1-c1ccccc1", 1),
            ("c:c", "c1ccccc1-c1ccccc1", 12),
            ("c~c", "c1ccccc1-c1ccccc1", 13),
            ("c=c", "c1ccccc1-c1ccccc1", 0),
            ("CO", "CC(=O)OC", 2),
            ("C=O", "CC(=O)OC", 1),
            ("C~O", "CC(=O)OC", 3),
            ("C(=O)O", "CC(=O)OC", 1),
            ("*~*", "CC#N", 2),
        ],
    )
    def test_documented_notation(self, pattern: str, smiles: str, count: int) -> None:
        assert pattern_matches(pattern, smiles) == count

    @pytest.mark.parametrize(
        "line,message",
        [
            ("group | p | [C;%] | 1", "bad constraint alternative"),
            ("group | p | [Q] | 1", "unknown element"),
            ("group | p | [C;H1 | 1", "unterminated bracket"),
            ("group | p | C==C | 1", "misplaced bond"),
            ("group | p | =C | 1", "misplaced bond"),
            ("group | p | (C)C | 1", "branch before any atom"),
            ("group | p | C)C | 1", r"unbalanced '\)'"),
            ("group | p | C1CC1 | 1", "unexpected character"),
            ("group | p | C(C | 1", r"unbalanced '\('"),
            ("group | p | CC= | 1", "dangling bond"),
            ("group | p |  | 1", "empty pattern"),
            ("group | halide ({X}) | CCl | 1", "no X slot"),
        ],
    )
    def test_malformed_pattern_rejected(self, line: str, message: str) -> None:
        with pytest.raises(CatalogError, match=message):
            Catalog.from_text(line + "\n")
