"""Functional group and ring compound recognition."""

from __future__ import annotations

from collections import Counter

import pytest

from molstruct import catalog as catalog_module
from molstruct import random_equivalent
from molstruct.catalog import (
    DEFAULT_CATALOG_TEXT,
    Catalog,
    find_groups,
    functional_group_names,
    ring_compound_names,
)
from molstruct.errors import CatalogError
from molstruct.graph import BondOrder
from molstruct.smiles import parse_strict

from _oracles import groups_oracle
from conftest import corpus_rows
from test_golden_canonical import cycloalkane
from test_smiles import LARGE_WORKLOAD


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
            "ring | unclosed | C1CC\n",
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


# Each multi-atom default pattern written from other atoms.  The root is the
# rarest atom that comes first in the text, so each spelling moves it.
RESPELLED_PATTERNS = {
    "carboxylic acid": ("O=[C;A][O;H1;D1]", "[O;H1;D1][C;A]=O"),
    "sulfonic acid": ("O=[S;A](=O)[O;H1;D1]", "[O;H1;D1][S;A](=O)=O"),
    "phosphate": ("O=[P;A]([O;A])([O;A])[O;A]", "[O;A][P;A](=O)([O;A])[O;A]"),
    "ester": ("O=[C;A][O;H0;D2][#6]", "[#6][O;H0;D2][C;A]=O"),
    "amide": ("O=[C;A][N;+0]", "[N;+0][C;A]=O"),
    "nitro": ("O=[N;+1][O;-1]", "[O;-1][N;+1]=O"),
    "aldehyde": ("O=[C;A;H1,H2]", "O=[C;A;H1,H2]"),
    "ketone": ("O=[C;A;H0]([#6])[#6]", "[C;A;H0](=O)([#6])[#6]"),
    "nitrile": ("[N;A]#[C;A]", "[N;A]#[C;A]"),
    "phenol": ("c[O;H1;D1]", "c[O;H1;D1]"),
    "ether": ("[O;H0;D2]([#6])[#6]", "[O;H0;D2]([#6])[#6]"),
    "sulfide": ("[S;A;H0;D2]([#6])[#6]", "[S;A;H0;D2]([#6])[#6]"),
    "halide ({X})": ("[#6][X;D1]", "[#6][X;D1]"),
}


def respelled_catalog(which: int) -> Catalog:
    """The default catalog with spelling ``which`` of each respelled pattern."""
    lines = []
    for line in DEFAULT_CATALOG_TEXT.splitlines():
        parts = [part.strip() for part in line.split("|")]
        if parts[0] == "group" and parts[1] in RESPELLED_PATTERNS:
            parts[2] = RESPELLED_PATTERNS[parts[1]][which]
            line = " | ".join(parts)
        lines.append(line)
    return Catalog.from_text("\n".join(lines))


class TestAnchoredMatching:
    """Matching starts from each pattern's rarest atom and skips patterns
    whose elements are absent; counts must not depend on either."""

    @pytest.mark.parametrize(
        "pattern,smiles,count",
        [
            # element and aromatic alternatives key one (element, aromatic)
            ("[O]", "Cc1ccoc1CO", 1),
            ("[o]", "Cc1ccoc1CO", 1),
            # an atomic number keys its element in both forms
            ("[#6]", "Cc1ccoc1CO", 6),
            ("[#8]C", "Cc1ccoc1CO", 1),
            ("[#8]c", "Cc1ccoc1CO", 2),
            # an unknown atomic number keys nothing and matches nothing
            ("[#200]", "Cc1ccoc1CO", 0),
            ("C[#200,O]", "CCO", 1),
            # X keys the aliphatic halogens only
            ("[X]", "FC(Cl)c1ccc(Br)cc1I", 4),
            ("[X]c", "FC(Cl)c1ccc(Br)cc1I", 2),
            # a term's keys are the union of its alternatives' keys ...
            ("[O,N]", "CC(=O)NC", 2),
            ("[O,n]", "Oc1ccncc1", 2),
            ("[C,n;D2]", "Oc1ccncc1", 1),
            # ... and an atom's keys the intersection over its terms
            ("[#6;c]", "Cc1ccoc1CO", 4),
            ("[#6,O;O,N]", "Cc1ccoc1CO", 1),
            ("[c;A]", "Cc1ccoc1CO", 0),
            # a, A, H, D, charge and * give no keys: any atom may match
            ("[a;H1]", "Oc1ccncc1", 4),
            ("[A;H1]", "Oc1ccncc1", 1),
            ("[*;D4]", "CC(C)(C)C", 1),
            ("[+1]", "C[N+](=O)[O-]", 1),
            ("[-1]~[+1]=O", "C[N+](=O)[O-]", 1),
            ("[a;H1]:[a;H1]", "Oc1ccncc1", 2),
        ],
    )
    def test_keys_of_each_alternative(self, pattern: str, smiles: str, count: int) -> None:
        assert pattern_matches(pattern, smiles) == count

    @pytest.mark.parametrize("which", [0, 1])
    def test_groups_do_not_depend_on_the_root(self, corpus: list[str], which: int) -> None:
        catalog = respelled_catalog(which)
        for index, smiles in enumerate(corpus):
            mol = parse_strict(smiles)
            spellings = [smiles] + [random_equivalent(mol, index * 1000 + k) for k in range(2)]
            for spelling in spellings:
                respelled = parse_strict(spelling)
                assert functional_group_names(respelled, catalog) == (
                    functional_group_names(respelled)
                ), spelling

    def test_readme_halide_names_each_halogen(self) -> None:
        catalog = Catalog.from_text("group | halide ({X}) | [#6][X] | 21\n")
        assert groups("ClCC(Br)F", catalog) == Counter(
            {"halide (Cl)": 1, "halide (Br)": 1, "halide (F)": 1}
        )

    @pytest.mark.parametrize("smiles", ["ClBr", "BrCl", "FI", "IF", "ClF", "FCl"])
    def test_halogen_name_does_not_depend_on_the_spelling(self, smiles: str) -> None:
        # Both atoms of a dihalogen fit the X slot; the name takes the
        # alphabetically smallest halogen symbol.
        catalog = Catalog.from_text("group | h ({X}) | [X]* | 1\n")
        expected = min(atom.element for atom in parse_strict(smiles).atoms)
        assert groups(smiles, catalog) == Counter({f"h ({expected})": 1})


# Edges of every bond symbol, with patterns that need triple, aromatic-only
# and any-order bonds.
EDGE_CATALOG = Catalog.from_text(
    "group | triple | [#6]#[#7,#6] | 1\n"
    "group | aromatic pair | [#6]:[#7,#6] | 2\n"
    "group | aromatic path | *:*:*:* | 3\n"
    "group | any bond | [#6]~[#8,#7] | 4\n"
    "group | doubled any | [#6](~*)=* | 5\n"
    "group | single only | [#6]-[#6]-[#8] | 6\n"
    "group | halide ({X}) | [X]~* | 7\n"
)

EDGE_CASES = ["CC#N", "C#CC#C", "c1ccncc1C#N", "c1ccccc1-c1ccccc1", "N#Cc1ccoc1", "ClC#CBr", "C=C=O", "[Na+].[Cl-]", "C"]


def groups_as_tuples(mol, catalog: Catalog | None = None) -> list[tuple[str, int, frozenset[int]]]:
    return [(match.name, match.precedence, match.atoms) for match in find_groups(mol, catalog)]


class TestGroupScreen:
    """Skipping a pattern whose elements or bond orders the molecule lacks
    gives the matches of embedding every pattern from every atom
    (``groups_oracle``)."""

    @pytest.mark.parametrize("catalog", [Catalog.default(), EDGE_CATALOG], ids=["default", "edges"])
    def test_matches_oracle_on_corpus(self, catalog: Catalog) -> None:
        for row in corpus_rows():
            for smiles in row:
                mol = parse_strict(smiles)
                assert groups_as_tuples(mol, catalog) == groups_oracle(mol, catalog), smiles

    @pytest.mark.parametrize("catalog", [Catalog.default(), EDGE_CATALOG], ids=["default", "edges"])
    def test_matches_oracle_on_large_families(self, catalog: Catalog) -> None:
        for smiles in LARGE_WORKLOAD + EDGE_CASES:
            mol = parse_strict(smiles)
            assert groups_as_tuples(mol, catalog) == groups_oracle(mol, catalog), smiles

    def test_compiled_needs(self) -> None:
        triple, pair, path, anything, doubled, single, halide = EDGE_CATALOG.groups
        assert [len(pattern.edge_orders) for pattern in EDGE_CATALOG.groups] == [1, 1, 1, 1, 2, 1, 1]
        assert path.atom_keys == () and halide.atom_keys == (catalog_module._HALOGEN_KEYS,)
        assert triple.edge_orders == (frozenset({BondOrder.TRIPLE}),)
        assert pair.edge_orders == (frozenset({BondOrder.AROMATIC}),)
        assert anything.edge_orders == (frozenset(BondOrder),)

    @pytest.mark.parametrize(
        "smiles,embedded",
        [
            ("CCO", ["any bond", "single only"]),
            ("CC#N", ["triple", "any bond"]),
            ("c1ccccc1O", ["aromatic pair", "aromatic path", "any bond", "single only"]),
            ("c1ccccc1", ["aromatic pair", "aromatic path"]),
            ("C=CCl", ["doubled any", "halide ({X})"]),
            ("[Na+].[Cl-]", []),
        ],
    )
    def test_pattern_needing_an_absent_bond_order_is_not_embedded(
        self, smiles: str, embedded: list[str], monkeypatch
    ) -> None:
        tried: list[str] = []
        embeddings = catalog_module._embeddings
        monkeypatch.setattr(
            catalog_module, "_embeddings", lambda mol, pattern, roots: tried.append(pattern.name) or embeddings(mol, pattern, roots)
        )
        find_groups(parse_strict(smiles), EDGE_CATALOG)
        assert tried == embedded


class TestRingSizeScreen:
    def test_named_sizes(self) -> None:
        assert Catalog.default().ring_sizes == frozenset(range(3, 9))
        assert Catalog.from_text("ring | benzene | c1ccccc1\n").ring_sizes == frozenset({6})
        assert Catalog.from_text("group | nitrile | [C;A]#[N;A] | 1\n").ring_sizes == frozenset()

    def test_shape_key_only_for_named_sizes(self, monkeypatch) -> None:
        keyed: list[int] = []
        ring_key = catalog_module.ring_key
        monkeypatch.setattr(catalog_module, "ring_key", lambda mol, ring: keyed.append(ring.size) or ring_key(mol, ring))
        names = rings(cycloalkane(12) + "." + cycloalkane(9) + ".c1ccccc1.C1CC1")
        assert sorted(keyed) == [3, 6]
        assert names == Counter(
            {"12-membered ring": 1, "9-membered ring": 1, "benzene": 1, "cyclopropane": 1}
        )
