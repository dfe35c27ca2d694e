"""SMILES parsing, diagnostics, writing, and canonicalization."""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import Callable

import pytest

from molstruct import smiles
from molstruct.graph import Atom, Bond, Chirality, Molecule, assign_implicit_hydrogens
from molstruct.profile import extract_profile
from molstruct.smiles import (
    DiagnosticKind,
    ParseDiagnostic,
    TokenKind,
    _bond_adjacency,
    _grown_map,
    _initial_invariants,
    _rank_map,
    _refine,
    _write_component,
    _writer_texts,
    canonical_order,
    canonicalize,
    parse,
    parse_strict,
    random_equivalent,
    tokenize,
    write,
)

from _oracles import automorphism_oracle, refine_oracle
from conftest import corpus_rows
from test_golden_canonical import (
    RESPELLING_SEEDS,
    acene,
    adamantane,
    alkane,
    cycloalkane,
    isopropyl_chain,
    oligovaline,
    peg,
    polyphenyl,
    prismane,
)


def diagnostic(text: str) -> ParseDiagnostic:
    result = parse(text)
    assert isinstance(result, ParseDiagnostic), f"{text!r} parsed as a molecule"
    return result


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text,kind,position",
        [
            ("", DiagnosticKind.EMPTY_INPUT, 0),
            ("   ", DiagnosticKind.EMPTY_INPUT, 0),
            ("C1CC", DiagnosticKind.UNCLOSED_RING, 1),
            ("C1CC2CC1", DiagnosticKind.UNCLOSED_RING, 4),
            ("C%10CC", DiagnosticKind.UNCLOSED_RING, 1),
            ("C(C", DiagnosticKind.UNBALANCED_BRANCH, 1),
            ("CC)C", DiagnosticKind.UNBALANCED_BRANCH, 2),
            ("C()C", DiagnosticKind.UNBALANCED_BRANCH, 2),
            ("[CH3", DiagnosticKind.BAD_BRACKET_ATOM, 0),
            ("[]", DiagnosticKind.BAD_BRACKET_ATOM, 0),
            ("[H3C]", DiagnosticKind.BAD_BRACKET_ATOM, 0),
            ("[CH3:1]", DiagnosticKind.BAD_BRACKET_ATOM, 0),
            ("[Cq]", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("[Xx]", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("Cq", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("CX", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("N(C)(C)(C)C", DiagnosticKind.VALENCE_VIOLATION, 0),
            ("C(C)(C)(C)(C)C", DiagnosticKind.VALENCE_VIOLATION, 0),
            ("c1ccc1", DiagnosticKind.VALENCE_VIOLATION, 0),
            ("c1cccc1", DiagnosticKind.VALENCE_VIOLATION, 0),
            ("C[nH]C", DiagnosticKind.VALENCE_VIOLATION, 1),
            ("=CC", DiagnosticKind.UNKNOWN_ELEMENT, 0),
            ("C=", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("C.", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("C..C", DiagnosticKind.UNKNOWN_ELEMENT, 2),
            ("C12CC12", DiagnosticKind.UNCLOSED_RING, 6),
            ("[HH1]", DiagnosticKind.BAD_BRACKET_ATOM, 0),
            ("C=-C", DiagnosticKind.UNKNOWN_ELEMENT, 2),
            ("C-.C", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("C(C.C)", DiagnosticKind.UNBALANCED_BRANCH, 3),
            ("C11", DiagnosticKind.UNCLOSED_RING, 2),
            ("C-(C)", DiagnosticKind.UNBALANCED_BRANCH, 2),
            ("C(C-)", DiagnosticKind.UNBALANCED_BRANCH, 4),
            ("C%5CC%5", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("C%()CC1", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("C%(123456)CC%(123456)", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("C\u00b2CC\u00b2", DiagnosticKind.UNKNOWN_ELEMENT, 1),
            ("C1C1", DiagnosticKind.UNCLOSED_RING, 3),
            ("C(C1)1", DiagnosticKind.UNCLOSED_RING, 5),
        ],
    )
    def test_kind_and_position(
        self, text: str, kind: DiagnosticKind, position: int
    ) -> None:
        diag = diagnostic(text)
        assert diag.kind is kind
        assert diag.position == position

    def test_ring_bond_symbol_disagreement(self) -> None:
        assert diagnostic("C=1CCCCC-1").kind is DiagnosticKind.UNCLOSED_RING

    def test_ring_bond_symbol_agreement(self) -> None:
        mol = parse("C=1CCCCC=1")
        assert isinstance(mol, Molecule)

    def test_valence_legal_cumulated_doubles_parse(self) -> None:
        # ethylenedione and methylenecyclopropene are valence-consistent
        assert isinstance(parse("O=C=C=O"), Molecule)
        assert isinstance(parse("C1=CC1=C"), Molecule)

    def test_nested_branch_is_tolerated(self) -> None:
        assert canonicalize(parse_strict("C((C))")) == canonicalize(parse_strict("CC"))

    def test_degenerate_stereo_tag_parses(self) -> None:
        # three-neighbor @@ carries no usable order; structure still loads
        assert isinstance(parse("C[C@@](C)C"), Molecule)

    def test_charge_limit(self) -> None:
        assert diagnostic("[C+16]").kind is DiagnosticKind.BAD_BRACKET_ATOM

    def test_isotope_limit(self) -> None:
        assert diagnostic("[1000CH4]").kind is DiagnosticKind.BAD_BRACKET_ATOM

    def test_leading_whitespace_offsets_positions(self) -> None:
        diag = diagnostic("  C1CC")
        assert diag.position == 3

    def test_parse_is_total_over_garbage(self) -> None:
        for text in ["!!!", "((((", "]]", "C@H", "%%", "123", "..", "\x00C"]:
            result = parse(text)
            assert isinstance(result, ParseDiagnostic), text

    def test_parse_strict_raises(self) -> None:
        with pytest.raises(ValueError):
            parse_strict("C1CC")


class TestParsing:
    def test_atom_count_and_elements(self) -> None:
        mol = parse_strict("CC(=O)Oc1ccccc1C(=O)O")
        assert [a.element for a in mol.atoms] == list("CCOOCCCCCCCOO")

    def test_two_digit_ring_closure(self) -> None:
        assert canonicalize(parse_strict("C%10CCCCC%10")) == canonicalize(
            parse_strict("C1CCCCC1")
        )

    @pytest.mark.parametrize("text", ["C%05CCCC5", "C5CCCC%05", "C%(5)CCCC5", "C%(123)CCCC%(123)"])
    def test_ring_numbers_match_by_value(self, text: str) -> None:
        assert canonicalize(parse_strict(text)) == canonicalize(parse_strict("C1CCCC1"))

    def test_digit_reuse_after_closure(self) -> None:
        # digit 1 closes the first ring, then opens a second one
        mol = parse_strict("c1ccccc1-c1ccccc1")
        assert len(mol.rings) == 2

    def test_dot_separates_components(self) -> None:
        mol = parse_strict("[Na+].[Cl-]")
        assert len(mol.components()) == 2
        assert mol.atoms[0].charge == 1
        assert mol.atoms[1].charge == -1

    def test_isotope_and_charge_parse(self) -> None:
        mol = parse_strict("[13CH3-]")
        atom = mol.atoms[0]
        assert atom.isotope == 13
        assert atom.charge == -1
        assert atom.total_h == 3

    def test_directional_bonds_preserved(self) -> None:
        text = write(parse_strict("C/C=C/C"))
        assert "/" in text or "\\" in text
        assert canonicalize(parse_strict("C/C=C/C")) != canonicalize(
            parse_strict("C/C=C\\C")
        )


class TestWriter:
    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("c1ccccc1", "c1ccccc1"),
            ("C", "C"),
            ("[CH4]", "C"),
            ("O", "O"),
            ("[NH4+]", "[NH4+]"),
            ("[13CH4]", "[13CH4]"),
            ("c1cc[nH]c1", "c1cc[nH]c1"),
            ("[SiH4]", "[SiH4]"),
            ("c1cc[se]c1", "c1cc[se]c1"),
        ],
    )
    def test_conventional_forms(self, smiles: str, expected: str) -> None:
        assert write(parse_strict(smiles)) == expected

    @pytest.mark.parametrize(
        "smiles,expected",
        [
            # A ring bond takes its direction from either end.
            ("C-1CCCCC/1", "C/1CCCCC\\1"),
            ("C1CCCCC/1", "C/1CCCCC\\1"),
            # A number closed at an atom is not reused by a ring opened there.
            ("C1CC12CC2", "C1CC12CC2"),
        ],
    )
    def test_ring_bond_numbers_and_directions(self, smiles: str, expected: str) -> None:
        assert write(parse_strict(smiles)) == expected

    def test_chiral_tag_without_recorded_order_is_kept(self) -> None:
        # A hand-built center has no source neighbor order to permute from.
        center = Atom("C", chirality=Chirality.CLOCKWISE, bracket=True, explicit_h=1)
        mol = Molecule(
            [Atom("F"), center, Atom("Cl"), Atom("Br")], [Bond(0, 1), Bond(1, 2), Bond(1, 3)]
        )
        assign_implicit_hydrogens(mol)
        assert write(mol) == "F[C@@H](Cl)Br"

    def test_chiral_tag_with_a_recorded_order_of_other_neighbors_is_kept(self) -> None:
        # A hand-built order that leaves out the hydrogen names no
        # permutation of the written neighbors, so the tag stays as given.
        center = Atom(
            "C", chirality=Chirality.CLOCKWISE, bracket=True, explicit_h=1, stereo_order=(0, 2, 3)
        )
        mol = Molecule(
            [Atom("F"), center, Atom("Cl"), Atom("Br")], [Bond(0, 1), Bond(1, 2), Bond(1, 3)]
        )
        assign_implicit_hydrogens(mol)
        assert write(mol) == "F[C@@H](Cl)Br"

    def test_kekule_input_writes_aromatic(self) -> None:
        assert write(parse_strict("C1=CC=CC=C1")) == "c1ccccc1"

    def test_biphenyl_junction_is_single(self) -> None:
        text = write(parse_strict("c1ccc(cc1)-c1ccccc1"))
        assert "-" in text

    def test_round_trip_corpus(self, corpus_with_alternates: list[list[str]]) -> None:
        for row in corpus_with_alternates:
            for form in row:
                mol = parse_strict(form)
                text = write(mol)
                back = parse(text)
                assert isinstance(back, Molecule), (form, text)
                assert canonicalize(back) == canonicalize(mol), (form, text)

    def test_alternate_spellings_share_canonical_form(
        self, corpus_with_alternates: list[list[str]]
    ) -> None:
        for row in corpus_with_alternates:
            canons = {canonicalize(parse_strict(form)) for form in row}
            assert len(canons) == 1, row


def ladder(rungs: int, index: Callable[[int], int] = lambda i: i) -> Molecule:
    """Fused cyclobutanes: two carbon strands joined rung by rung.

    Top atom k is ``index(k)`` and bottom atom k is ``index(rungs + k)``.
    Built from the graph, because ring perception is slow on long ladders
    and neither the writer nor the canonicalizer reads the rings.
    """
    atoms = [Atom(element="C") for _ in range(2 * rungs)]
    pairs = [(k, k + 1) for k in range(rungs - 1)]
    pairs += [(rungs + k, rungs + k + 1) for k in range(rungs - 1)]
    pairs += [(k, rungs + k) for k in range(rungs)]
    bonds = [Bond(a=index(a), b=index(b)) for a, b in pairs]
    return assign_implicit_hydrogens(Molecule(atoms, bonds))


class TestManyOpenRingBonds:
    def test_writer_numbers_ring_bonds_above_99(self) -> None:
        # In input order the walk runs the whole top strand first and
        # leaves 100 rungs open at once.
        mol = ladder(101)
        text = write(mol)
        assert "%99" in text and "%(100)" in text
        assert canonicalize(parse_strict(text)) == canonicalize(mol)

    def test_canonicalize_with_more_than_99_open_ring_bonds(self) -> None:
        canon = canonicalize(ladder(200))
        assert "%(100)" in canon
        numbers = Counter(t.text for t in tokenize(canon) if t.kind is TokenKind.RING_CLOSURE)
        assert sum(numbers.values()) == 2 * 199
        assert all(count % 2 == 0 for count in numbers.values())
        assert canonicalize(ladder(200, lambda i: (7 * i) % 400)) == canon


def best_seconds(call: Callable[[], object], bound: float, tries: int = 3) -> float:
    """Wall time of ``call``: the first try under ``bound``, else the fastest."""
    best = float("inf")
    for _ in range(tries):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
        if best < bound:
            break
    return best


class TestCanonicalScaling:
    """Symmetric molecules whose tie-break search was exponential, and
    long chains whose refinement rounds were quadratic.

    Each bound is about five times the time measured on a 2-core machine
    (Python 3.11); an exhaustive tie-break search takes from tens of
    seconds to minutes on each, and full refinement rounds take about
    8 s on C2000 and 0.5 s on PEG-200.  The canonical form must also
    survive a respelling and a parse back.
    """

    @pytest.mark.parametrize(
        "smiles,bound",
        [
            (polyphenyl(15), 0.5),
            (isopropyl_chain(12), 0.15),
            (cycloalkane(200), 1.0),
            (prismane(40), 0.2),
            (alkane(2000), 0.7),
            (peg(200), 0.2),
        ],
        ids=[
            "polyphenyl-15", "isopropyl-chain-12", "cyclo-C200", "prismane-40", "C2000", "PEG-200",
        ],
    )
    def test_canonicalize_in_time(self, smiles: str, bound: float) -> None:
        mol = parse_strict(smiles)
        assert best_seconds(lambda: canonicalize(mol), bound) < bound
        canon = canonicalize(mol)
        assert canonicalize(parse_strict(random_equivalent(mol, 5))) == canon
        assert canonicalize(parse_strict(canon)) == canon

    @pytest.mark.parametrize(
        "text,several_leaves",
        [
            (polyphenyl(6), False),
            (isopropyl_chain(6), False),
            # Chirality tags keep every leaf written.
            ("C[C@@H]1CC[C@H](C)CC1", True),
            ("c1ccc(cc1)[C@@H](F)c1ccccc1", True),
        ],
        ids=[
            "polyphenyl-6", "isopropyl-chain-6", "dimethylcyclohexane-tagged", "diphenylfluoromethane-tagged",
        ],
    )
    def test_bracket_decided_once_per_atom(self, text: str, several_leaves: bool, monkeypatch) -> None:
        mol = parse_strict(text)
        calls = Counter()
        needs_bracket = smiles._needs_bracket

        def counted(mol: Molecule, atom: Atom) -> bool:
            calls[atom.index] += 1
            return needs_bracket(mol, atom)

        monkeypatch.setattr(smiles, "_needs_bracket", counted)
        leaves = Counter()
        write_component = smiles._write_component

        def counted_leaf(*args, **kwargs):
            leaves["written"] += 1
            return write_component(*args, **kwargs)

        monkeypatch.setattr(smiles, "_write_component", counted_leaf)
        canonicalize(mol)
        if several_leaves:
            assert leaves["written"] > 1
        assert max(calls.values()) == 1 and len(calls) == len(mol.atoms)

    def test_stereo_tagged_oligovaline_profile_in_time(self) -> None:
        mol = parse_strict(oligovaline(20))
        assert best_seconds(lambda: extract_profile(mol), 0.6) < 0.6
        centers = extract_profile(mol).chiral_centers
        assert len(centers) == 20
        assert extract_profile(parse_strict(random_equivalent(mol, 5))).chiral_centers == centers


def graph_molecule(n: int, edges: list[tuple[int, int]], perm: list[int]) -> Molecule:
    """Bracket carbons joined by single bonds, atom ``i`` renumbered ``perm[i]``."""
    atoms = [Atom(element="C", bracket=True) for _ in range(n)]
    return Molecule(atoms, [Bond(a=perm[a], b=perm[b]) for a, b in edges])


def torus_graph(steps: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Cayley graph of Z4 x Z4 with the given steps."""
    return sorted({
        tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
        for a in range(4) for b in range(4) for da, db in steps
    })


# Vertex-transitive graphs where neighborhood refinement leaves every atom
# tied, so every canonical form comes from the tie-break search.
SYMMETRIC_GRAPHS = {
    "petersen": (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    "hypercube-4": (16, [(i, i ^ (1 << k)) for i in range(16) for k in range(4) if i < i ^ (1 << k)]),
    "heawood": (14, [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)]),
    "shrikhande": (16, torus_graph([(0, 1), (1, 0), (1, 1), (0, 3), (3, 0), (3, 3)])),
    "rook-4x4": (16, torus_graph([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])),
}


def cells(ranks: list[int]) -> list[list[int]]:
    """Atoms grouped by rank, the groups in rank order."""
    by_rank: dict[int, list[int]] = {}
    for i, rank in enumerate(ranks):
        by_rank.setdefault(rank, []).append(i)
    return [by_rank[rank] for rank in sorted(by_rank)]


def first_tied(ranks: list[int], atoms: set[int] | None = None) -> list[int]:
    """The first cell with more than one atom (of ``atoms``, when given)."""
    tied = (cell if atoms is None else [i for i in cell if i in atoms] for cell in cells(ranks))
    return next((cell for cell in tied if len(cell) > 1), [])


def individualized(
    adjacency: list[list[tuple[int, int]]], ranks: list[int], candidate: int
) -> list[int]:
    """Refined ranks once ``candidate`` keeps its cell's rank and the rest
    of the cell moves one up, as in the tie-break search."""
    rank = ranks[candidate]
    moved_up = [r + (r == rank and i != candidate) for i, r in enumerate(ranks)]
    return _refine(adjacency, moved_up, [candidate])


def first_path(adjacency: list[list[tuple[int, int]]], ranks: list[int]) -> list[list[int]]:
    """Ranks at each node of the search path from ``ranks`` that
    individualizes the first atom of the first tied cell until none is tied."""
    path = [ranks]
    while tied := first_tied(path[-1]):
        path.append(individualized(adjacency, path[-1], tied[0]))
    return path


def assert_refines_like_oracle(mol: Molecule) -> None:
    """``_refine`` reaches the ordered partition of full refinement rounds.

    Checked from the initial invariants, after individualizing each atom
    of the first tied cell, and down the first search path.
    """
    adjacency = _bond_adjacency(mol)
    invariants = _initial_invariants(mol)

    def assert_like_oracle(ranks: list[int], candidate: int, refined: list[int]) -> None:
        singled_out = [(r, i != candidate) for i, r in enumerate(ranks)]
        assert cells(refined) == cells(refine_oracle(adjacency, singled_out)), candidate

    ranks = _refine(adjacency, invariants)
    assert cells(ranks) == cells(refine_oracle(adjacency, invariants))
    for candidate in first_tied(ranks)[1:]:
        assert_like_oracle(ranks, candidate, individualized(adjacency, ranks, candidate))
    path = first_path(adjacency, ranks)
    for before, after in zip(path, path[1:]):
        assert_like_oracle(before, first_tied(before)[0], after)


def first_cell_leaves(mol: Molecule) -> list[tuple[str, list[int]]]:
    """Per component, each atom of its first tied cell individualized, the
    first search path followed to a leaf, and the component written by
    the leaf's ranks: (string, atom emission order) pairs."""
    adjacency = _bond_adjacency(mol)
    ranks = _refine(adjacency, _initial_invariants(mol))
    texts = _writer_texts(mol)
    leaves = []
    for comp in mol.components():
        for candidate in first_tied(ranks, set(comp)):
            leaf = first_path(adjacency, individualized(adjacency, ranks, candidate))[-1]
            start = min(comp, key=leaf.__getitem__)
            leaves.append(_write_component(mol, start, leaf.__getitem__, texts))
    return leaves


class TestRefinement:
    def test_refinement_matches_full_rounds_on_corpus_and_respellings(self) -> None:
        for row in corpus_rows():
            mol = parse_strict(row[0])
            assert_refines_like_oracle(mol)
            for seed in RESPELLING_SEEDS:
                assert_refines_like_oracle(parse_strict(random_equivalent(mol, seed)))

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
    def test_refinement_matches_full_rounds_on_symmetric_graphs(self, name: str) -> None:
        n, edges = SYMMETRIC_GRAPHS[name]
        for seed in range(3):
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            assert_refines_like_oracle(graph_molecule(n, edges, perm))

    @pytest.mark.parametrize(
        "smiles",
        [alkane(100), peg(40), cycloalkane(32), polyphenyl(6), prismane(10), acene(8), adamantane(10)],
        ids=["n-alkane-100", "PEG-40", "cyclo-C32", "polyphenyl-6", "prismane-10", "acene-8", "adamantane"],
    )
    def test_refinement_matches_full_rounds_on_large_families(self, smiles: str) -> None:
        # Long chains take the most rounds; the search path covers
        # individualized atoms in every family.
        assert_refines_like_oracle(parse_strict(smiles))

    def test_rank_is_the_number_of_atoms_in_earlier_cells(self) -> None:
        mol = parse_strict("OCC(C)(C)CO")
        ranks = _refine(_bond_adjacency(mol), _initial_invariants(mol))
        assert ranks == [sum(other < rank for other in ranks) for rank in ranks]


def symmetries_checked(mol: Molecule) -> int:
    """Check every two first-cell leaves that write one string; count them.

    The tie-break search keeps the position-wise map between two such
    leaves as an automorphism without checking it; the oracle checks it.
    """
    leaves = first_cell_leaves(mol)
    checked = 0
    for k, (text, order) in enumerate(leaves):
        for other_text, other_order in leaves[k + 1 :]:
            if text == other_text:
                moved = {a: b for a, b in zip(order, other_order) if a != b}
                assert automorphism_oracle(mol, moved), text
                checked += 1
    return checked


class TestEqualLeavesAreSymmetries:
    def test_corpus(self) -> None:
        assert sum(symmetries_checked(parse_strict(row[0])) for row in corpus_rows())

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
    def test_symmetric_graphs(self, name: str) -> None:
        n, edges = SYMMETRIC_GRAPHS[name]
        assert symmetries_checked(graph_molecule(n, edges, list(range(n))))

    def test_charge_on_one_atom_of_a_symmetric_graph(self) -> None:
        # Every map of the bare graph that moves the charged atom is wrong.
        n, edges = SYMMETRIC_GRAPHS["petersen"]
        mol = graph_molecule(n, edges, list(range(n)))
        mol.atoms[0].charge = -1
        assert symmetries_checked(mol)

    @pytest.mark.parametrize(
        "smiles", [polyphenyl(3), polyphenyl(5), prismane(4), prismane(6), acene(3), acene(4)]
    )
    def test_symmetric_families(self, smiles: str) -> None:
        assert symmetries_checked(parse_strict(smiles))


def twin_leaves_checked(mol: Molecule, monkeypatch) -> int:
    """Canonicalize ``mol`` with no map tried at search nodes, writing each
    leaf that the search skips as a twin and checking it; count them.

    A skipped leaf must write its twin's string, in the twin's emission
    order under the rank-order map, and that map must be an automorphism.
    The node map is switched off because it finds most of these
    symmetries before the leaves are reached.
    """
    texts = _writer_texts(mol)
    checked = 0

    def write_in(by_rank: list[int]) -> tuple[str, list[int]]:
        position = {atom: k for k, atom in enumerate(by_rank)}
        return _write_component(mol, by_rank[0], position.__getitem__, texts)

    def checked_map(search_texts, by_rank: list[int], twin_by_rank: list[int]) -> dict[int, int] | None:
        nonlocal checked
        image = _rank_map(search_texts, by_rank, twin_by_rank)
        if image is not None:
            back = {b: a for a, b in image.items()}
            twin_string, twin_order = write_in(twin_by_rank)
            assert write_in(by_rank) == (twin_string, [back.get(t, t) for t in twin_order])
            assert automorphism_oracle(mol, back)
            checked += 1
        return image

    monkeypatch.setattr(smiles, "_rank_map", checked_map)
    monkeypatch.setattr(smiles, "_grown_map", lambda *args: None)
    canonicalize(mol)
    monkeypatch.undo()
    return checked


def leaves_written(mol: Molecule, monkeypatch, rank_map=None) -> tuple[int, str, list[int]]:
    """Leaves that ``canonicalize`` writes, with its string and canonical
    order, under ``rank_map`` in place of the search's own when given."""
    written = 0
    write_component = smiles._write_component

    def counted(*args, **kwargs):
        nonlocal written
        written += 1
        return write_component(*args, **kwargs)

    monkeypatch.setattr(smiles, "_write_component", counted)
    if rank_map is not None:
        monkeypatch.setattr(smiles, "_rank_map", rank_map)
    canon = canonicalize(mol)
    count = written
    order = canonical_order(mol)
    monkeypatch.undo()
    return count, canon, order


# Every molecule of the benchmark's ``large`` workload.
LARGE_WORKLOAD = [
    *(cycloalkane(n) for n in (6, 12, 18, 24, 32)),
    *(alkane(n) for n in (8, 16, 32, 48, 64, 65, 80, 100)),
    *(peg(n) for n in (4, 8, 16, 32, 40)),
    *(polyphenyl(n) for n in (2, 3, 4, 5, 6)),
    *(prismane(n) for n in (3, 4, 5, 6, 8, 10)),
    adamantane(10),
    *(acene(n) for n in (2, 3, 4, 6, 8)),
]


class TestTwinLeavesAreNotWritten:
    def test_corpus(self, monkeypatch) -> None:
        assert sum(twin_leaves_checked(parse_strict(row[0]), monkeypatch) for row in corpus_rows())

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
    def test_symmetric_graphs(self, name: str, monkeypatch) -> None:
        n, edges = SYMMETRIC_GRAPHS[name]
        assert twin_leaves_checked(graph_molecule(n, edges, list(range(n))), monkeypatch)

    def test_charge_on_one_atom_of_a_symmetric_graph(self, monkeypatch) -> None:
        n, edges = SYMMETRIC_GRAPHS["petersen"]
        mol = graph_molecule(n, edges, list(range(n)))
        mol.atoms[0].charge = -1
        assert twin_leaves_checked(mol, monkeypatch)

    @pytest.mark.parametrize(
        "smiles", [polyphenyl(3), polyphenyl(5), prismane(4), prismane(6), acene(3), acene(4)]
    )
    def test_symmetric_families(self, smiles: str, monkeypatch) -> None:
        assert twin_leaves_checked(parse_strict(smiles), monkeypatch)

    def test_large_workload_writes_one_leaf_per_component(self, monkeypatch) -> None:
        # Without the twin check these 105 canonicalizations write 400 leaves.
        for smiles in LARGE_WORKLOAD:
            mol = parse_strict(smiles)
            for spelling in [mol] + [parse_strict(random_equivalent(mol, seed)) for seed in RESPELLING_SEEDS]:
                assert leaves_written(spelling, monkeypatch)[0] == len(spelling.components()), smiles

    @pytest.mark.parametrize(
        "text,expected",
        [("CCC", {0: 2, 2: 0}), ("CCN", None), ("C=CC", None)],
        ids=["kept", "atom-text-changed", "bond-text-changed"],
    )
    def test_map_reversing_a_chain(self, text: str, expected: dict[int, int] | None) -> None:
        assert _rank_map(_writer_texts(parse_strict(text)), [0, 1, 2], [2, 1, 0]) == expected

    @pytest.mark.parametrize("text", ["F/C=C/F", "C/C=C/C"])
    def test_leaf_whose_map_fails_is_written(self, text: str, monkeypatch) -> None:
        # The reflection that maps one leaf onto the other reverses the
        # bond directions, so the map changes a bond text.
        failed = []

        def recorded(*args):
            image = _rank_map(*args)
            failed.append(image is None)
            return image

        mol = parse_strict(text)
        written, canon, order = leaves_written(mol, monkeypatch, recorded)
        assert failed and all(failed) and written == 2
        assert (canon, order) == leaves_written(mol, monkeypatch, lambda *args: None)[1:]

    def test_tagged_component_writes_every_leaf(self, monkeypatch) -> None:
        def unused(*args):
            raise AssertionError("rank map tried on a chirality-tagged component")

        mol = parse_strict("C[C@@H]1CC[C@H](C)CC1")
        written, canon, _ = leaves_written(mol, monkeypatch, unused)
        assert written > 1
        assert canon == canonicalize(parse_strict(random_equivalent(mol, 3)))


def node_maps_checked(mol: Molecule, monkeypatch) -> int:
    """Canonicalize ``mol``, checking each map that the search keeps at a
    node in place of refining a candidate; count them.

    A kept map must be an automorphism, fix every atom individualized
    above its node, and send the node's first tried candidate, the first
    atom of its lowest tied cell, onto the candidate it skips, which is
    then never refined.  A node is known by its ranks.  A refine call that
    individualizes ``candidate`` got its keys from the node's ranks with
    the rest of the candidate's cell moved one up; that cell holds more
    than one atom, so no node rank sits one above the candidate's.
    """
    comp_of = {atom: frozenset(comp) for comp in mol.components() for atom in comp}
    fixed_at: dict[tuple[int, ...], list[int]] = {}
    refined_at: dict[tuple[int, ...], set[int]] = {}
    kept: list[tuple[tuple[int, ...], int, int, dict[int, int]]] = []
    refine, grown_map = smiles._refine, smiles._grown_map

    def recorded_refine(adjacency, keys, moved=None):
        ranks = refine(adjacency, keys, moved)
        if moved is None:
            fixed_at[tuple(ranks)] = []
        else:
            (candidate,) = moved
            rank = keys[candidate]
            node = tuple(r - (r == rank + 1) for r in keys)
            fixed_at[tuple(ranks)] = fixed_at[node] + [candidate]
            refined_at.setdefault(node, set()).add(candidate)
        return ranks

    def recorded_map(texts, adjacency, ranks, source, target):
        image = grown_map(texts, adjacency, ranks, source, target)
        if image is not None:
            kept.append((tuple(ranks), source, target, image))
        return image

    monkeypatch.setattr(smiles, "_refine", recorded_refine)
    monkeypatch.setattr(smiles, "_grown_map", recorded_map)
    canonicalize(mol)
    monkeypatch.undo()
    for node, source, target, image in kept:
        assert automorphism_oracle(mol, image), (source, target)
        assert all(image.get(atom, atom) == atom for atom in fixed_at[node])
        cell = first_tied(list(node), comp_of[source])
        assert source == cell[0] and target in cell and image[source] == target
        assert target not in refined_at[node]
    return len(kept)


class TestNodeMapsAreSymmetries:
    def test_corpus(self, monkeypatch) -> None:
        assert sum(node_maps_checked(parse_strict(row[0]), monkeypatch) for row in corpus_rows())

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
    def test_symmetric_graphs(self, name: str, monkeypatch) -> None:
        n, edges = SYMMETRIC_GRAPHS[name]
        for seed in range(3):
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            assert node_maps_checked(graph_molecule(n, edges, perm), monkeypatch)

    def test_large_workload(self, monkeypatch) -> None:
        checked = 0
        for smiles_text in LARGE_WORKLOAD:
            mol = parse_strict(smiles_text)
            for spelling in [mol] + [parse_strict(random_equivalent(mol, seed)) for seed in RESPELLING_SEEDS]:
                checked += node_maps_checked(spelling, monkeypatch)
        assert checked

    def test_large_workload_refines(self, monkeypatch) -> None:
        # Measured: these 105 canonicalizations refine 349 times, and 829
        # times when every candidate not in a known orbit is refined.
        refines = 0
        refine = smiles._refine

        def counted(*args):
            nonlocal refines
            refines += 1
            return refine(*args)

        monkeypatch.setattr(smiles, "_refine", counted)
        for smiles_text in LARGE_WORKLOAD:
            mol = parse_strict(smiles_text)
            for spelling in [mol] + [parse_strict(random_equivalent(mol, seed)) for seed in RESPELLING_SEEDS]:
                canonicalize(spelling)
        assert refines <= 349

    @pytest.mark.parametrize(
        "text,source,target,expected",
        [
            ("CCC", 0, 2, {0: 2, 2: 0}),
            ("FC=CF", 1, 2, {0: 3, 1: 2, 2: 1, 3: 0}),
            # Mass number 0 ranks like no label but writes a bracket.
            ("[0CH3]CC", 0, 2, None),
            # The reflection reverses both bond directions.
            ("F/C=C/F", 1, 2, None),
        ],
        ids=["kept", "kept-double-bond", "atom-text-changed", "bond-text-changed"],
    )
    def test_grown_map(self, text: str, source: int, target: int, expected: dict[int, int] | None) -> None:
        mol = parse_strict(text)
        adjacency = _bond_adjacency(mol)
        ranks = _refine(adjacency, _initial_invariants(mol))
        assert _grown_map(_writer_texts(mol), adjacency, ranks, source, target) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [("[0CH3]CC", "CC[0CH3]"), ("F/C=C/F", "C(=C/F)\\F"), ("C/C=C/C", "C/C=C/C")],
        ids=["isotope-0", "difluoroethylene", "butene"],
    )
    def test_refused_map_leaves_the_candidate_searched(self, text: str, expected: str, monkeypatch) -> None:
        refused = []
        grown_map = smiles._grown_map

        def recorded(*args):
            image = grown_map(*args)
            refused.append(image is None)
            return image

        monkeypatch.setattr(smiles, "_grown_map", recorded)
        mol = parse_strict(text)
        canon = canonicalize(mol)
        monkeypatch.undo()
        assert refused and all(refused)
        assert canon == expected
        for seed in range(4):
            assert canonicalize(parse_strict(random_equivalent(mol, seed))) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("C[C@@H]1CC[C@H](C)CC1", "C[C@@H]1CC[C@H](C)CC1"),
            ("c1ccc(cc1)[C@@H](F)c1ccccc1", "c1ccc(cc1)[C@@H](c1ccccc1)F"),
        ],
        ids=["dimethylcyclohexane-tagged", "diphenylfluoromethane-tagged"],
    )
    def test_tagged_component_tries_no_map(self, text: str, expected: str, monkeypatch) -> None:
        def unused(*args):
            raise AssertionError("node map tried on a chirality-tagged component")

        monkeypatch.setattr(smiles, "_grown_map", unused)
        mol = parse_strict(text)
        assert canonicalize(mol) == expected
        for seed in range(4):
            assert canonicalize(parse_strict(random_equivalent(mol, seed))) == expected


class TestCanonicalization:
    @pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
    def test_symmetric_graph_form_survives_renumbering(self, name: str) -> None:
        n, edges = SYMMETRIC_GRAPHS[name]
        reference = canonicalize(graph_molecule(n, edges, list(range(n))))
        for seed in range(3):
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            assert canonicalize(graph_molecule(n, edges, perm)) == reference

    def test_random_cubic_graph_forms_survive_renumbering(self) -> None:
        rng = random.Random(1)
        for _ in range(30):
            n = rng.choice([10, 12, 14, 16, 18, 20])
            edges: set[tuple[int, int]] = set()
            while len(edges) < 3 * n // 2:  # random perfect matchings of 3n stubs
                stubs = [i for i in range(n) for _ in range(3)]
                rng.shuffle(stubs)
                pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
                edges = pairs if len(pairs) == 3 * n // 2 else set()
            forms = set()
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                forms.add(canonicalize(graph_molecule(n, sorted(edges), perm)))
            assert len(forms) == 1, sorted(edges)

    def test_refinement_equivalent_graphs_stay_distinct(self) -> None:
        # Both are strongly regular with parameters (16, 6, 2, 2).
        forms = {
            canonicalize(graph_molecule(16, SYMMETRIC_GRAPHS[name][1], list(range(16))))
            for name in ("shrikhande", "rook-4x4")
        }
        assert len(forms) == 2

    def test_spelling_invariance(self) -> None:
        groups = [
            ["CCO", "OCC", "C(O)C", "C(C)O"],
            ["c1ccccc1", "C1=CC=CC=C1", "c1ccc(cc1)"],
            ["CC(=O)O", "OC(C)=O", "C(C)(=O)O"],
            ["C[C@@H](O)CC", "CC[C@@H](C)O"],
        ]
        for group in groups:
            canons = {canonicalize(parse_strict(s)) for s in group}
            assert len(canons) == 1, group

    def test_enantiomers_stay_distinct(self) -> None:
        assert canonicalize(parse_strict("C[C@@H](O)CC")) != canonicalize(
            parse_strict("C[C@H](O)CC")
        )

    def test_isotopes_stay_distinct(self) -> None:
        assert canonicalize(parse_strict("[13CH4]")) != canonicalize(parse_strict("C"))

    def test_charges_stay_distinct(self) -> None:
        assert canonicalize(parse_strict("CC(=O)[O-]")) != canonicalize(
            parse_strict("CC(=O)O")
        )

    def test_renumbering_invariance_on_corpus(self, corpus: list[str]) -> None:
        for smiles in corpus:
            mol = parse_strict(smiles)
            reference = canonicalize(mol)
            for seed in (1, 7, 42):
                shuffled = random_equivalent(mol, seed)
                back = parse(shuffled)
                assert isinstance(back, Molecule), (smiles, seed, shuffled)
                assert canonicalize(back) == reference, (smiles, seed, shuffled)

    def test_canonical_output_is_fixed_point(self, corpus: list[str]) -> None:
        for smiles in corpus:
            canon = canonicalize(parse_strict(smiles))
            assert canonicalize(parse_strict(canon)) == canon, smiles

    def test_component_order_is_normalized(self) -> None:
        assert canonicalize(parse_strict("[Na+].CC(=O)[O-]")) == canonicalize(
            parse_strict("CC(=O)[O-].[Na+]")
        )

    def test_canonical_order_is_permutation(self, corpus: list[str]) -> None:
        for smiles in corpus[:40]:
            mol = parse_strict(smiles)
            order = canonical_order(mol)
            assert sorted(order) == list(range(len(mol.atoms))), smiles
