"""Graph perception: implicit hydrogens, ring finding, aromaticity."""

from __future__ import annotations

import statistics

import pytest

from molstruct.errors import AromaticityError, ValenceError
from molstruct.graph import (
    Atom,
    Bond,
    BondOrder,
    Chirality,
    Molecule,
    _ring_blocks,
    aromatic_neighbor_mean,
    assign_implicit_hydrogens,
    perceive_aromaticity,
    perceive_rings,
)
from molstruct.profile import extract_profile
from molstruct.smiles import parse_strict

from _oracles import cyclomatic_count, ring_atoms_oracle, sssr_oracle
from test_golden_canonical import adamantane, cycloalkane, ladder, polyphenyl, prismane, spiro_chain
from test_smiles import best_seconds


def hydrogens(smiles: str) -> list[int]:
    return [atom.total_h for atom in parse_strict(smiles).atoms]


class TestImplicitHydrogens:
    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("C", [4]),
            ("CC", [3, 3]),
            ("C=C", [2, 2]),
            ("C#C", [1, 1]),
            ("N", [3]),
            ("O", [2]),
            ("F", [1]),
            ("Cl", [1]),
            ("Br", [1]),
            ("I", [1]),
            ("P", [3]),
            ("S", [2]),
            ("B", [3]),
            ("CN", [3, 2]),
            ("CO", [3, 1]),
            ("C=O", [2, 0]),
            ("CS(=O)(=O)C", [3, 0, 0, 0, 3]),
            ("CP(C)C", [3, 0, 3, 3]),
            ("OP(=O)(O)O", [1, 0, 0, 1, 1]),
            ("FS(F)(F)(F)(F)F", [0, 0, 0, 0, 0, 0, 0]),
        ],
    )
    def test_plain_atoms(self, smiles: str, expected: list[int]) -> None:
        assert hydrogens(smiles) == expected

    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("[CH4]", [4]),
            ("[CH3]C", [3, 3]),
            ("[C]", [0]),
            ("[NH4+]", [4]),
            ("[NH3]", [3]),
            ("[OH-]", [1]),
            ("[O-]C", [0, 3]),
            ("[13CH4]", [4]),
            # deuteriums already fill the oxygen valence, so no implicit H
            ("[2H]O[2H]", [0, 0, 0]),
        ],
    )
    def test_bracket_atoms_take_written_count(
        self, smiles: str, expected: list[int]
    ) -> None:
        assert hydrogens(smiles) == expected

    def test_cation_shift_nitrogen(self) -> None:
        # quaternary ammonium: +1 nitrogen has target valence 4
        mol = parse_strict("C[N+](C)(C)C")
        assert mol.atoms[1].total_h == 0

    def test_aromatic_atom_reserves_pi_slot(self) -> None:
        mol = parse_strict("c1ccccc1")
        assert [a.total_h for a in mol.atoms] == [1] * 6

    def test_pyrrole_nh_is_explicit(self) -> None:
        mol = parse_strict("c1cc[nH]c1")
        n = next(a for a in mol.atoms if a.element == "N")
        assert n.total_h == 1

    def test_pyridine_n_has_no_h(self) -> None:
        mol = parse_strict("c1ccncc1")
        n = next(a for a in mol.atoms if a.element == "N")
        assert n.total_h == 0

    @pytest.mark.parametrize("smiles", ["N(C)(C)(C)C", "O(C)(C)C", "FF(F)F", "C(C)(C)(C)(C)C"])
    def test_hypervalent_plain_atom_rejected(self, smiles: str) -> None:
        with pytest.raises(ValueError):
            parse_strict(smiles)

    def test_bracket_atoms_never_valence_error(self) -> None:
        # bracket atoms state their own hydrogen count, so no filling occurs
        mol = parse_strict("[C](C)(C)(C)(C)C")
        assert mol.atoms[0].total_h == 0


class TestRingPerception:
    @pytest.mark.parametrize(
        "smiles,count,sizes",
        [
            ("C1CC1", 1, [3]),
            ("C1CCC1", 1, [4]),
            ("C1CCCCC1", 1, [6]),
            ("c1ccccc1", 1, [6]),
            ("CCO", 0, []),
            ("c1ccc2ccccc2c1", 2, [6, 6]),
            ("c1ccc2cc3ccccc3cc2c1", 3, [6, 6, 6]),
            ("C1CCC2(CC1)CCCC2", 2, [5, 6]),
            ("C1CCC2CCCCC2C1", 2, [6, 6]),
            ("C1CC2CCC1C2", 2, [5, 5]),
            ("c1ccc2cccc2cc1", 2, [5, 7]),
            ("C1CC2(CC2)C1", 2, [3, 4]),
            ("[Na+].[Cl-]", 0, []),
            ("c1ccc(cc1)-c1ccccc1", 2, [6, 6]),
            ("C1CC1.C1CCC1", 2, [3, 4]),
        ],
    )
    def test_sssr_counts_and_sizes(
        self, smiles: str, count: int, sizes: list[int]
    ) -> None:
        mol = parse_strict(smiles)
        assert mol.rings is not None
        assert len(mol.rings) == count
        assert sorted(len(r.atoms) for r in mol.rings) == sizes

    def test_ring_count_is_cyclomatic(self, corpus: list[str]) -> None:
        for smiles in corpus:
            mol = parse_strict(smiles)
            assert len(mol.rings) == cyclomatic_count(mol), smiles

    def test_ring_membership_matches_oracle(self, corpus: list[str]) -> None:
        for smiles in corpus:
            mol = parse_strict(smiles)
            perceived = {a for ring in mol.rings for a in ring.atoms}
            assert perceived == ring_atoms_oracle(mol), smiles


class TestRingBlocks:
    """The biconnected blocks that ring perception enumerates cycles in."""

    @pytest.mark.parametrize(
        "smiles,blocks",
        [
            ("C1CC1C1CC1", [([0, 1, 2], 3), ([3, 4, 5], 3)]),
            ("C1CC1CCC1CCCC1", [([0, 1, 2], 3), ([5, 6, 7, 8, 9], 5)]),
            ("C1CCC12CCC2", [([0, 1, 2, 3], 4), ([3, 4, 5, 6], 4)]),
            ("C1CC11CC1", [([0, 1, 2], 3), ([2, 3, 4], 3)]),
            ("C", []),
            ("CCO", []),
            ("C1CC1.[Na+]", [([0, 1, 2], 3)]),
            ("[Na+].C1CC1", [([1, 2, 3], 3)]),
            (prismane(4), [(list(range(8)), 12)]),
            (adamantane(1), [(list(range(10)), 12)]),
            ("C1CC1.C1CCC2CCCCC2C1", [([0, 1, 2], 3), (list(range(3, 13)), 11)]),
            ("C1CC1CC(C)C1CCCC1C", [([0, 1, 2], 3), ([6, 7, 8, 9, 10], 5)]),
        ],
        ids=[
            "bridge", "chain-between-rings", "spiro", "spiropentane", "one-atom", "acyclic",
            "isolated-atom-after", "isolated-atom-first", "cubane", "adamantane", "disconnected",
            "substituted",
        ],
    )
    def test_blocks(self, smiles: str, blocks: list[tuple[list[int], int]]) -> None:
        mol = parse_strict(smiles)
        found = sorted((atoms, len(bonds)) for atoms, bonds in _ring_blocks(mol))
        assert found == blocks
        assert [ring.atoms for ring in mol.rings] == sssr_oracle(mol)

    def test_block_bonds_join_block_atoms(self) -> None:
        mol = parse_strict("C1CC1C1CC12CCC2")
        for atoms, bonds in _ring_blocks(mol):
            assert {end for bond in bonds for end in (bond.a, bond.b)} == set(atoms)

    def test_one_cycle_block_is_kept_in_canonical_order(self) -> None:
        # Bonds listed backwards, so the walk around the cycle leaves atom 0
        # toward its higher neighbor first.
        bonds = [Bond(a=0, b=5)] + [Bond(a=k, b=k - 1) for k in range(5, 0, -1)]
        mol = Molecule([Atom(element="C", bracket=True) for _ in range(6)], bonds)
        assert mol.neighbors(0) == [5, 1]
        assert [ring.atoms for ring in perceive_rings(mol)] == [(0, 1, 2, 3, 4, 5)] == sssr_oracle(mol)

    def test_deep_search_does_not_recurse(self) -> None:
        mol = parse_strict("C" * 2000 + "1CC1")
        assert [(atoms, len(bonds)) for atoms, bonds in _ring_blocks(mol)] == [([1999, 2000, 2001], 3)]
        assert [ring.atoms for ring in mol.rings] == [(1999, 2000, 2001)]


class TestRingScaling:
    """Ring molecules whose perception ran a search from every atom over
    the whole molecule.

    Each bound is about five times the parse time measured on a 2-core
    machine (Python 3.11).  Before ring perception kept to ring blocks,
    these parses took 0.3 to 0.8 s each on the same machine, and a
    ladder of 199 cyclobutanes took 6 to 9 s.  Before the search stopped
    at the depth its rings need, a ladder of 300 took 1.2 s and
    cyclo-C2000 1.1 s.
    """

    @pytest.mark.parametrize(
        "smiles,bound",
        [
            (cycloalkane(200), 0.05),
            (spiro_chain(60), 0.025),
            (ladder(100), 0.4),
            (polyphenyl(30), 0.015),
            (ladder(300), 0.15),
            (cycloalkane(2000), 0.12),
        ],
        ids=["cyclo-C200", "spiro-60", "ladder-100", "polyphenyl-30", "ladder-300", "cyclo-C2000"],
    )
    def test_parse_in_time(self, smiles: str, bound: float) -> None:
        assert best_seconds(lambda: parse_strict(smiles), bound) < bound
        mol = parse_strict(smiles)
        assert len(mol.rings) == cyclomatic_count(mol)


class TestAromaticity:
    @pytest.mark.parametrize(
        "smiles,aromatic_rings",
        [
            ("c1ccccc1", 1),
            ("C1=CC=CC=C1", 1),
            ("c1ccncc1", 1),
            ("c1cc[nH]c1", 1),
            ("C1=CC=CN1", 1),
            ("c1ccoc1", 1),
            ("c1ccsc1", 1),
            ("c1cnc[nH]1", 1),
            ("c1ccc2ccccc2c1", 2),
            ("c1ccc2[nH]ccc2c1", 2),
            ("O=c1ccocc1", 1),
            ("O=c1cccc[nH]1", 1),
            ("O=c1ccc2ccccc2o1", 2),
            ("c1ccc2cccc2cc1", 2),
            ("[O-][n+]1ccccc1", 1),
            ("Cn1cccc1", 1),
            ("[cH-]1cccc1", 1),
            ("[Fe]1C=CC=C1", 0),
            ("C1CCCCC1", 0),
            ("C1=CCCCC1", 0),
            ("C1=CC=CC1", 0),
            ("CCO", 0),
            ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", 2),
            ("CN1C=NC2=C1C(=O)N(C)C(=O)N2C", 2),
        ],
    )
    def test_aromatic_ring_count(self, smiles: str, aromatic_rings: int) -> None:
        mol = parse_strict(smiles)
        assert sum(1 for r in mol.rings if r.aromatic) == aromatic_rings

    @pytest.mark.parametrize(
        "smiles",
        [
            "c1ccc1",        # cyclobutadiene written aromatic: 4n
            "c1cccc1",       # cyclopentadienyl cation-like: no donor
            "C[nH]C",        # aromatic atom outside any ring
            "c1ccccc1c",     # trailing aromatic atom not in a ring
            "[cH2]1ccccc1",  # aromatic atom with no bonding slot left
        ],
    )
    def test_false_aromatic_claims_rejected(self, smiles: str) -> None:
        with pytest.raises(ValueError):
            parse_strict(smiles)

    def test_kekule_and_aromatic_converge(self) -> None:
        for a, b in [
            ("c1ccccc1", "C1=CC=CC=C1"),
            ("c1ccncc1", "C1=CC=NC=C1"),
            ("c1cc[nH]c1", "C1=CC=CN1"),
        ]:
            ma, mb = parse_strict(a), parse_strict(b)
            assert [x.is_aromatic for x in ma.atoms] == [True] * len(ma.atoms)
            assert [x.is_aromatic for x in mb.atoms] == [True] * len(mb.atoms)
            assert all(bond.order is BondOrder.AROMATIC for bond in mb.bonds)

    def test_rings_perceived_on_demand(self) -> None:
        orders = [BondOrder.SINGLE, BondOrder.DOUBLE] * 3
        bonds = [Bond(i, (i + 1) % 6, orders[i]) for i in range(6)]
        mol = assign_implicit_hydrogens(Molecule([Atom("C") for _ in range(6)], bonds))
        perceive_aromaticity(mol)
        assert [ring.aromatic for ring in mol.rings] == [True]
        assert all(bond.order is BondOrder.AROMATIC for bond in mol.bonds)

    def test_aromatic_neighbor_mean(self) -> None:
        mol = parse_strict("c1ccncc1C")
        assert [aromatic_neighbor_mean(mol, i) for i in (0, 2, 3, 6)] == [6.0, 6.5, 6.0, None]

    def test_aromatic_neighbor_mean_equals_fmean_on_the_corpus(self, corpus) -> None:
        checked = 0
        for smiles in corpus:
            mol = parse_strict(smiles)
            for atom in mol.atoms:
                if atom.is_aromatic:
                    numbers = [
                        mol.atoms[j].atomic_number
                        for j, bond in mol.bonds_of(atom.index)
                        if bond.order is BondOrder.AROMATIC
                    ]
                    assert aromatic_neighbor_mean(mol, atom.index) == statistics.fmean(numbers)
                    checked += 1
        assert checked > 100

    def test_exocyclic_double_does_not_count_alone(self) -> None:
        # methylenecyclohexadiene pattern stays non-aromatic
        mol = parse_strict("C=C1C=CC=CC1")
        assert all(not r.aromatic for r in mol.rings)

    def test_perception_is_idempotent(self, corpus: list[str]) -> None:
        for smiles in corpus:
            mol = parse_strict(smiles)
            before = (
                [a.is_aromatic for a in mol.atoms],
                [b.order for b in mol.bonds],
                [a.total_h for a in mol.atoms],
            )
            perceive_rings(mol)
            perceive_aromaticity(mol)
            after = (
                [a.is_aromatic for a in mol.atoms],
                [b.order for b in mol.bonds],
                [a.total_h for a in mol.atoms],
            )
            assert before == after, smiles


class TestMoleculeBasics:
    def test_components_split_on_dot(self) -> None:
        mol = parse_strict("CC(=O)[O-].[Na+]")
        assert len(mol.components()) == 2

    def test_bond_between(self) -> None:
        mol = parse_strict("C=O")
        bond = mol.bond_between(0, 1)
        assert bond is not None and bond.order is BondOrder.DOUBLE
        assert mol.bond_between(0, 0) is None

    def test_chirality_recorded(self) -> None:
        mol = parse_strict("C[C@@H](O)CC")
        center = mol.atoms[1]
        assert center.chirality is Chirality.CLOCKWISE
        assert len(center.stereo_order) == 4

    @pytest.mark.parametrize(
        "bonds,message",
        [
            ([Bond(1, 1)], "to itself"),
            ([Bond(0, 3)], "out of range"),
            ([Bond(-1, 0)], "out of range"),
            ([Bond(0, 1), Bond(2, 1), Bond(1, 0)], "duplicate bond between atoms 0 and 1"),
        ],
    )
    def test_constructor_rejects_bad_bonds(self, bonds: list[Bond], message: str) -> None:
        atoms = [Atom("C"), Atom("C"), Atom("O")]
        with pytest.raises(ValueError, match=message):
            Molecule(atoms, bonds)

    def test_unknown_element_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown element symbol 'Xx'"):
            Atom("Xx")

    def test_bonds_of_and_neighbors_follow_insertion_order(self) -> None:
        mol = Molecule([Atom("C"), Atom("C"), Atom("O")], [Bond(1, 2), Bond(0, 1)])
        assert mol.neighbors(1) == [2, 0]
        assert [(j, bond.a, bond.b) for j, bond in mol.bonds_of(1)] == [(2, 1, 2), (0, 0, 1)]
        assert mol.bond_between(2, 1) is mol.bonds[0]
        assert mol.bond_between(0, 2) is None

    def test_profile_of_an_unperceived_molecule(self) -> None:
        # A hand-built molecule has no hydrogens, rings or aromaticity yet;
        # extract_profile perceives it first.
        mol = Molecule([Atom("C"), Atom("C"), Atom("O")], [Bond(0, 1), Bond(1, 2)])
        assert mol.rings is None
        assert extract_profile(mol) == extract_profile(parse_strict("CCO"))
        assert [atom.total_h for atom in mol.atoms] == [3, 2, 1]
