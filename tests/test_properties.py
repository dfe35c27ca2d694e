"""Property-based invariants over random inputs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from molstruct.catalog import Catalog, find_groups
from molstruct.errors import RationaleParseError
from molstruct.graph import Atom, Bond, Molecule, perceive_rings
from molstruct.metrics import (
    corpus_bleu,
    levenshtein,
    morgan_fingerprint,
    tanimoto,
)
from molstruct.profile import Configuration, extract_profile, longest_carbon_chain
from molstruct.rationale import (
    ComponentKind,
    Rationale,
    RationaleFormat,
    from_profile,
    parse_rationale,
    render,
)
from molstruct.selection import matching_ratio, select
from molstruct.smiles import (
    ParseDiagnostic,
    canonicalize,
    parse,
    parse_strict,
    random_equivalent,
    same_canonical,
)

from _oracles import groups_oracle, isomorphic_oracle, levenshtein_oracle, longest_chain_oracle, sssr_oracle
from conftest import corpus_rows
from test_golden_canonical import (
    RESPELLING_SEEDS,
    RING_BLOCK_CASES,
    cycloalkane,
    ladder,
    polyphenyl,
    prismane,
    spiro_chain,
)
from test_smiles import assert_refines_like_oracle

CORPUS = [row[0] for row in corpus_rows()]

K = ComponentKind

smiles_alphabet = st.sampled_from(list("CcNnOoSsPp()[]=#123456%+-.@/\\BrClIF lH"))
biased_text = st.lists(smiles_alphabet, max_size=60).map("".join)
any_text = st.one_of(st.text(max_size=60), biased_text)


VALENCE = {"C": 4, "N": 3, "O": 2}
PENDANT_RINGS = ("C1CC1", "c1ccccc1", "C1CCOC1")


@st.composite
def acyclic_skeletons(draw: st.DrawFn) -> str:
    """SMILES of a random tree of C, N and O atoms, some bearing a pendant ring."""
    elements = draw(st.lists(st.sampled_from("CCCCCCNO"), min_size=1, max_size=40))
    free = [VALENCE[e] for e in elements]
    children: list[list[int]] = [[] for _ in elements]
    for i in range(1, len(elements)):
        open_atoms = [j for j in range(i) if free[j] > 0]
        if not open_atoms:
            break
        # Mostly recent atoms, so trees grow long chains as well as branches.
        parent = open_atoms[-1 - draw(st.integers(0, min(3, len(open_atoms) - 1)))]
        children[parent].append(i)
        free[parent] -= 1
        free[i] -= 1
    rings = [draw(st.sampled_from(("",) + PENDANT_RINGS)) if n else "" for n in free]

    def write(i: int) -> str:
        branches = [rings[i]] if rings[i] else []
        branches += [write(c) for c in children[i]]
        return elements[i] + "".join(f"({b})" for b in branches)

    return write(0)


class TestParserTotality:
    @given(any_text)
    @settings(max_examples=400, deadline=None)
    def test_parse_never_raises(self, text: str) -> None:
        result = parse(text)
        assert isinstance(result, (Molecule, ParseDiagnostic))

    @given(any_text)
    @settings(max_examples=150, deadline=None)
    def test_accepted_inputs_round_trip(self, text: str) -> None:
        result = parse(text)
        if isinstance(result, Molecule):
            again = parse(canonicalize(result))
            assert isinstance(again, Molecule)
            assert canonicalize(again) == canonicalize(result)


class TestLongestChain:
    @given(acyclic_skeletons())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, smiles: str) -> None:
        mol = parse_strict(smiles)
        assert longest_carbon_chain(mol) == longest_chain_oracle(mol), smiles


class TestCanonicalInvariance:
    @given(st.sampled_from(CORPUS), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_renumbering_preserves_canonical_form(self, smiles: str, seed: int) -> None:
        mol = parse_strict(smiles)
        shuffled = random_equivalent(mol, seed)
        back = parse(shuffled)
        assert isinstance(back, Molecule), shuffled
        assert canonicalize(back) == canonicalize(mol)

    @given(st.sampled_from(CORPUS), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_renumbering_preserves_profile(self, smiles: str, seed: int) -> None:
        mol = parse_strict(smiles)
        reference = extract_profile(mol)
        shuffled = parse_strict(random_equivalent(mol, seed))
        assert extract_profile(shuffled) == reference


# Random molecules for the canonical-form properties.  An atom kind is
# (isotope, symbol, charge, valence); the valence is the element's lowest
# one, so a kind written bare reads back with the hydrogens written here.
MOLECULE_KINDS = (
    ("", "C", "", 4),
    ("", "C", "", 4),
    ("", "C", "", 4),
    ("", "N", "", 3),
    ("", "O", "", 2),
    ("", "S", "", 2),
    ("", "F", "", 1),
    ("", "Cl", "", 1),
    ("13", "C", "", 4),
    ("", "N", "+", 4),
    ("", "O", "-", 1),
)
KIND_SWAPS = {
    MOLECULE_KINDS[0]: (MOLECULE_KINDS[8], MOLECULE_KINDS[9]),
    MOLECULE_KINDS[4]: (MOLECULE_KINDS[5],),
    MOLECULE_KINDS[5]: (MOLECULE_KINDS[4],),
    MOLECULE_KINDS[6]: (MOLECULE_KINDS[7], MOLECULE_KINDS[10]),
    MOLECULE_KINDS[7]: (MOLECULE_KINDS[6],),
    MOLECULE_KINDS[8]: (MOLECULE_KINDS[0],),
    MOLECULE_KINDS[9]: (MOLECULE_KINDS[0],),
}
BOND_SYMBOL = {1: "", 2: "=", 3: "#"}


@dataclass
class MoleculeSpec:
    """A molecular graph to write as SMILES: kinds, bond orders, stereo tags."""

    kinds: list[tuple[str, str, str, int]]
    bonds: dict[tuple[int, int], int]
    tags: dict[int, str] = field(default_factory=dict)
    ring_size: int = 0  # atoms 0..ring_size-1 form a Kekule ring

    def in_ring(self, *atoms: int) -> bool:
        return any(i < self.ring_size for i in atoms)

    def hydrogens(self, i: int) -> int:
        return self.kinds[i][3] - sum(o for pair, o in self.bonds.items() if i in pair)

    def degree(self, i: int) -> int:
        return sum(1 for pair in self.bonds if i in pair)

    def can_be_tagged(self, i: int) -> bool:
        h = self.hydrogens(i)
        return self.kinds[i][3] == 4 and h <= 1 and self.degree(i) + h == 4

    def smiles(self) -> str:
        """Depth-first SMILES by ascending atom index; tags read in this order."""
        nbrs = {i: sorted(j for pair in self.bonds for j in pair if i in pair and j != i)
                for i in range(len(self.kinds))}
        rank: dict[int, int] = {}
        children: dict[int, list[int]] = {i: [] for i in nbrs}
        marks: dict[int, list[str]] = {i: [] for i in nbrs}

        def order(i: int, j: int) -> int:
            return self.bonds[(min(i, j), max(i, j))]

        def visit(u: int, parent: int) -> None:
            rank[u] = len(rank)
            for v in nbrs[u]:
                if v not in rank:
                    children[u].append(v)
                    visit(v, u)
                elif v != parent and rank[v] < rank[u]:
                    number = str(sum(len(m) for m in marks.values()) // 2 + 1)
                    marks[v].append(BOND_SYMBOL[order(u, v)] + "%" + number.zfill(2))
                    marks[u].append("%" + number.zfill(2))

        def atom(i: int) -> str:
            isotope, symbol, charge, _ = self.kinds[i]
            h = self.hydrogens(i)
            tag = self.tags.get(i, "")
            if not (isotope or charge or tag):
                return symbol
            return f"[{isotope}{symbol}{tag}{'H' * bool(h)}{h if h > 1 else ''}{charge}]"

        def emit(u: int) -> str:
            text = atom(u) + "".join(marks[u])
            kids = children[u]
            for k, v in enumerate(kids):
                branch = BOND_SYMBOL[order(u, v)] + emit(v)
                text += f"({branch})" if k < len(kids) - 1 else branch
            return text

        roots = []
        for i in nbrs:
            if i not in rank:
                roots.append(i)
                visit(i, -1)
        return ".".join(emit(root) for root in roots)


@st.composite
def molecule_specs(draw: st.DrawFn) -> MoleculeSpec:
    """A random tree plus ring bonds over 1 to 14 heavy atoms.

    Some carry charges, isotopes and multiple bonds; one in two of the
    larger ones starts from a Kekule six-ring of C and N that perceives
    aromatic; tetrahedral atoms may carry a stereo tag.  Extra ring bonds
    never touch the six-ring, so it is never fused or bridged.
    """
    n = draw(st.integers(min_value=1, max_value=14))
    kinds = [draw(st.sampled_from(MOLECULE_KINDS)) for _ in range(n)]
    spec = MoleculeSpec(kinds, {})
    first_free = 0
    if n >= 6 and draw(st.booleans()):
        for i in range(6):
            kinds[i] = draw(st.sampled_from((MOLECULE_KINDS[0], MOLECULE_KINDS[0], MOLECULE_KINDS[3])))
            spec.bonds[(min(i, (i + 1) % 6), max(i, (i + 1) % 6))] = 2 if i % 2 == 0 else 1
        first_free = spec.ring_size = 6
    for i in range(max(1, first_free), n):
        open_atoms = [j for j in range(i) if spec.hydrogens(j) > 0]
        if not open_atoms or draw(st.integers(0, 9)) == 9:
            continue  # start a new component
        j = draw(st.sampled_from(open_atoms))
        top = min(spec.hydrogens(i), spec.hydrogens(j), 3)
        spec.bonds[(j, i)] = min(draw(st.sampled_from((1, 1, 1, 2, 3))), top)
    for _ in range(draw(st.integers(0, 3))):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        if i == j or (i, j) in spec.bonds or spec.in_ring(i, j):
            continue
        if min(spec.hydrogens(i), spec.hydrogens(j)) > 0:
            spec.bonds[(i, j)] = draw(st.sampled_from((1, 1, 2))) if min(
                spec.hydrogens(i), spec.hydrogens(j)) > 1 else 1
    for i in range(n):
        if spec.can_be_tagged(i):
            tag = draw(st.sampled_from(("", "@", "@@")))
            if tag:
                spec.tags[i] = tag
    return spec


def mutants(spec: MoleculeSpec) -> list[MoleculeSpec]:
    """Every single edit of ``spec``: a tag flipped or dropped, a kind
    swapped for one of the same valence, a bond order changed, a bond
    removed or added.  Tags next to an edited bond are dropped."""
    out: list[MoleculeSpec] = []

    def edited(kinds=None, bonds=None, tags=None) -> MoleculeSpec:
        return MoleculeSpec(
            list(spec.kinds) if kinds is None else kinds,
            dict(spec.bonds) if bonds is None else bonds,
            dict(spec.tags) if tags is None else tags,
            spec.ring_size,
        )

    for i, tag in spec.tags.items():
        out.append(edited(tags={**spec.tags, i: "@" if tag == "@@" else "@@"}))
        out.append(edited(tags={k: t for k, t in spec.tags.items() if k != i}))
    for i, kind in enumerate(spec.kinds):
        for other in KIND_SWAPS.get(kind, ()):
            kinds = list(spec.kinds)
            kinds[i] = other
            tags = spec.tags if other[3] == 4 else {k: t for k, t in spec.tags.items() if k != i}
            out.append(edited(kinds=kinds, tags=dict(tags)))
    n = len(spec.kinds)
    for pair, order in spec.bonds.items():
        untagged = {k: t for k, t in spec.tags.items() if k not in pair}
        out.append(edited(bonds={p: o for p, o in spec.bonds.items() if p != pair}, tags=untagged))
        if order > 1:
            out.append(edited(bonds={**spec.bonds, pair: order - 1}, tags=untagged))
        if order < 3 and min(spec.hydrogens(pair[0]), spec.hydrogens(pair[1])) > 0:
            out.append(edited(bonds={**spec.bonds, pair: order + 1}, tags=untagged))
    for i in range(n):
        for j in range(i + 1, n):
            if spec.in_ring(i, j) or (i, j) in spec.bonds:
                continue
            if min(spec.hydrogens(i), spec.hydrogens(j)) > 0:
                untagged = {k: t for k, t in spec.tags.items() if k not in (i, j)}
                out.append(edited(bonds={**spec.bonds, (i, j): 1}, tags=untagged))
    return out


def _spec_molecule(spec: MoleculeSpec) -> Molecule:
    """The parsed molecule, when its aromatic atoms are one isolated six-ring or none.

    Aromaticity perceived in fused, bridged or odd rings can depend on the
    atom numbering or fail to read back from its lowercase form (see
    TestAromaticRoundTripFaults); those molecules are left out.
    """
    mol = parse(spec.smiles())
    assume(isinstance(mol, Molecule))
    aromatic = {atom.index for atom in mol.atoms if atom.is_aromatic}
    rings = [set(ring.atoms) for ring in mol.rings]
    assume(
        not aromatic
        or (aromatic in rings and len(aromatic) == 6
            and all(ring == aromatic or ring.isdisjoint(aromatic) for ring in rings))
    )
    return mol


class TestRespellingIsTotal:
    """``random_equivalent`` writes any perceived molecule, even one whose
    aromatic form does not read back (see TestAromaticRoundTripFaults)."""

    def test_bridged_aromatic_ring_respells_under_every_seed(self) -> None:
        mol = parse_strict("c1cc2ccc1CC2")
        for seed in range(200):
            assert isinstance(random_equivalent(mol, seed), str), seed

    @given(molecule_specs(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_parsed_molecule_respells(self, spec: MoleculeSpec, seed: int) -> None:
        mol = parse(spec.smiles())
        assume(isinstance(mol, Molecule))
        assert isinstance(random_equivalent(mol, seed), str), spec.smiles()


class TestCanonicalIsomorphism:
    @given(molecule_specs())
    @settings(max_examples=300, deadline=None)
    def test_canonical_form_parses_back_isomorphic(self, spec: MoleculeSpec) -> None:
        mol = _spec_molecule(spec)
        canon = canonicalize(mol)
        back = parse(canon)
        assert isinstance(back, Molecule), (spec.smiles(), canon)
        assert isomorphic_oracle(back, mol), (spec.smiles(), canon)

    @given(molecule_specs(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_respellings_are_isomorphic_with_equal_forms(self, spec: MoleculeSpec, seed: int) -> None:
        mol = _spec_molecule(spec)
        respelled = parse_strict(random_equivalent(mol, seed))
        assert isomorphic_oracle(respelled, mol), spec.smiles()
        assert canonicalize(respelled) == canonicalize(mol), spec.smiles()

    @given(molecule_specs(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_equal_forms_exactly_for_isomorphic_mutants(self, spec: MoleculeSpec, data: st.DataObject) -> None:
        mol = _spec_molecule(spec)
        edits = mutants(spec)
        assume(edits)
        other = _spec_molecule(data.draw(st.sampled_from(edits)))
        same = canonicalize(other) == canonicalize(mol)
        assert same == isomorphic_oracle(other, mol), (spec.smiles(), canonicalize(other))

    @given(molecule_specs(), molecule_specs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_canonical_is_equality_of_canonical_forms(
        self, spec: MoleculeSpec, unrelated: MoleculeSpec, data: st.DataObject
    ) -> None:
        """Against an unrelated molecule, the stereo flip of every tag, one
        mutant and one respelling."""
        mol = parse(spec.smiles())
        assume(isinstance(mol, Molecule))
        flipped = {i: "@" if tag == "@@" else "@@" for i, tag in spec.tags.items()}
        others = [unrelated.smiles(), MoleculeSpec(spec.kinds, spec.bonds, flipped, spec.ring_size).smiles()]
        edits = mutants(spec)
        if edits:
            others.append(data.draw(st.sampled_from(edits)).smiles())
        others.append(random_equivalent(mol, data.draw(st.integers(min_value=0, max_value=2**32 - 1))))
        for text in others:
            other = parse(text)
            if isinstance(other, Molecule):
                same = canonicalize(mol) == canonicalize(other)
                assert same_canonical(mol, other) == same, (spec.smiles(), text)

    @given(molecule_specs())
    @settings(max_examples=300, deadline=None)
    def test_refinement_matches_full_rounds(self, spec: MoleculeSpec) -> None:
        assert_refines_like_oracle(_spec_molecule(spec))


@st.composite
def ring_graphs(draw: st.DrawFn) -> Molecule:
    """Up to 14 bracket carbons joined by random single bonds.

    Bonds come in random order and direction, so the graphs mix trees,
    bridges, spiro atoms, fused and bridged blocks and separate parts.
    """
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    bonds = [Bond(a=j, b=i) if draw(st.booleans()) else Bond(a=i, b=j) for i, j in chosen]
    return Molecule([Atom(element="C", bracket=True) for _ in range(n)], bonds)


RING_FAMILIES = {
    **{f"spiro-{n}": spiro_chain(n) for n in (5, 20, 60)},
    **{f"ladder-{n}": ladder(n) for n in (10, 50, 100)},
    "polyphenyl-30": polyphenyl(30),
    **{smiles: smiles for smiles in RING_BLOCK_CASES},
    # Blocks whose SSSR holds rings longer than the first depth bound finds.
    "prismane-10": prismane(10),
    "fused-12-12": "C1CCCCCCCCCC2CCCCCCCCCCC12",
    "fused-3-20": "C1C2C1" + "C" * 17 + "C2",
}

# Molecules whose ring blocks are single cycles.
ONE_CYCLE_BLOCKS = (
    cycloalkane(3), cycloalkane(12), cycloalkane(40), spiro_chain(5), polyphenyl(3),
    "C1CC1.c1ccccc1CC1CCCC1", "OC1CCC(N)CC1C1CC1",
)


def assert_sssr_like_oracle(mol: Molecule) -> None:
    assert [ring.atoms for ring in mol.rings] == sssr_oracle(mol)


class TestRingPerception:
    """Ring perception inside ring blocks keeps the SSSR of the Horton
    set of every atom over the whole molecule (``sssr_oracle``)."""

    def test_matches_oracle_on_corpus_and_respellings(self) -> None:
        for row in corpus_rows():
            mol = parse_strict(row[0])
            assert_sssr_like_oracle(mol)
            for seed in RESPELLING_SEEDS:
                assert_sssr_like_oracle(parse_strict(random_equivalent(mol, seed)))

    @pytest.mark.parametrize("name", sorted(RING_FAMILIES))
    def test_matches_oracle_on_ring_families(self, name: str) -> None:
        assert_sssr_like_oracle(parse_strict(RING_FAMILIES[name]))

    def test_long_rings_are_in_the_families(self) -> None:
        for name in ("prismane-10", "fused-12-12", "fused-3-20"):
            assert max(ring.size for ring in parse_strict(RING_FAMILIES[name]).rings) > 7, name

    @pytest.mark.parametrize("smiles", ONE_CYCLE_BLOCKS)
    def test_matches_oracle_on_one_cycle_blocks_and_respellings(self, smiles: str) -> None:
        mol = parse_strict(smiles)
        assert_sssr_like_oracle(mol)
        for seed in range(4):
            assert_sssr_like_oracle(parse_strict(random_equivalent(mol, seed)))

    @given(molecule_specs())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_random_molecules(self, spec: MoleculeSpec) -> None:
        mol = parse(spec.smiles())
        assume(isinstance(mol, Molecule))
        assert_sssr_like_oracle(mol)

    @given(ring_graphs())
    @settings(max_examples=500, deadline=None)
    def test_matches_oracle_on_random_graphs(self, mol: Molecule) -> None:
        perceive_rings(mol)
        assert_sssr_like_oracle(mol)


class TestGroupScreen:
    @given(molecule_specs())
    @settings(max_examples=200, deadline=None)
    def test_matches_unscreened_oracle(self, spec: MoleculeSpec) -> None:
        mol = _spec_molecule(spec)
        catalog = Catalog.default()
        found = [(match.name, match.precedence, match.atoms) for match in find_groups(mol, catalog)]
        assert found == groups_oracle(mol, catalog)


group_name = st.from_regex(r"[a-z]{1,12}", fullmatch=True)
multiset = st.lists(group_name, max_size=5).map(lambda items: tuple(sorted(items)))
chirality_value = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60), st.sampled_from(list(Configuration))
    ),
    max_size=4,
    unique_by=lambda item: item[0],
).map(lambda items: tuple(sorted(items)))

component_values = {
    K.FORMULA: st.from_regex(r"[A-Z][A-Za-z0-9]{0,9}", fullmatch=True),
    K.LONGEST_CHAIN: st.integers(min_value=0, max_value=64),
    K.AROMATIC_RINGS: st.integers(min_value=0, max_value=9),
    K.RING_COMPOUNDS: multiset,
    K.FUNCTIONAL_GROUPS: multiset,
    K.CHIRALITY: chirality_value,
    K.MOLECULAR_WEIGHT: st.floats(
        min_value=0.01, max_value=5000.0, allow_nan=False, allow_infinity=False
    ),
    K.IUPAC_NAME: st.from_regex(r"[a-z][a-z0-9->,()\[\]]{0,20}", fullmatch=True),
}


@st.composite
def rationales(draw) -> Rationale:
    mask = draw(
        st.sets(st.sampled_from(list(ComponentKind)), min_size=1).map(frozenset)
    )
    components = {kind: draw(component_values[kind]) for kind in mask}
    return Rationale(components=components, mask=mask)


# Arbitrary JSON component values: wrong types, negative numbers, NaN and
# infinities, and strings with the item and sentence delimiters in them.
json_text = st.one_of(st.text(max_size=12), st.text(st.sampled_from("ab2 x.,-\n"), max_size=12))
json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**20), st.floats(), json_text
)
json_center = st.fixed_dictionaries(
    {
        "configuration": st.sampled_from(["R", "S", "Unresolved", "Q"]),
        "atom_index": st.one_of(st.integers(-5, 60), json_scalar),
    }
)
json_rationale = st.dictionaries(
    st.sampled_from([kind.value for kind in ComponentKind]),
    st.one_of(
        json_scalar,
        st.lists(json_text, max_size=4),
        st.lists(json_center, max_size=3),
    ),
    min_size=1,
).map(json.dumps)

# Prose sentences of every kind around arbitrary value texts: counted and
# twice-counted items, chiral items, overflowing numbers and stray delimiters.
prose_value = st.one_of(
    st.text(st.sampled_from("ab01 x.,-e+\n"), min_size=1, max_size=12),
    st.lists(
        st.sampled_from(
            ["a", "b", "", "2 x a", "0 x b", "1 x 2 x a", "R at atom 1", "S at atom 02",
             "Q at atom 3", "7", "1e400", "1.5"]
        ),
        min_size=1,
        max_size=4,
    ).map(", ".join),
)
prose_sentence = st.builds(
    str.format,
    st.sampled_from(
        [
            "The molecular formula is {}.",
            "The longest carbon chain has {} carbons.",
            "The molecule has {} aromatic ring.",
            "The molecule contains 2 rings: {}.",
            "The molecule contains 1 functional group: {}.",
            "The molecule has 2 chiral centers: {}.",
            "The molecular weight is {} g/mol.",
            "The IUPAC name is {}.",
        ]
    ),
    prose_value,
)
prose_rationale = st.lists(prose_sentence, min_size=1, max_size=4).map(" ".join)


class TestRationaleRoundTrip:
    @given(json_rationale)
    @settings(max_examples=400, deadline=None)
    def test_json_rationale_reads_back_from_its_prose(self, text: str) -> None:
        try:
            rationale = parse_rationale(text)
        except RationaleParseError:
            return
        assert parse_rationale(render(rationale, RationaleFormat.PROSE)) == rationale

    @given(prose_rationale)
    @settings(max_examples=400, deadline=None)
    def test_prose_rationale_reads_back_in_both_formats(self, text: str) -> None:
        try:
            rationale = parse_rationale(text)
        except RationaleParseError:
            return
        for fmt in RationaleFormat:
            assert parse_rationale(render(rationale, fmt)) == rationale

    @given(rationales(), st.sampled_from(list(RationaleFormat)))
    @settings(max_examples=300, deadline=None)
    def test_render_parse_identity(
        self, rationale: Rationale, fmt: RationaleFormat
    ) -> None:
        back = parse_rationale(render(rationale, fmt))
        assert back == rationale
        assert back.warnings == ()

    @given(st.sampled_from(CORPUS), st.sampled_from(list(RationaleFormat)))
    @settings(max_examples=150, deadline=None)
    def test_extracted_rationales_round_trip(
        self, smiles: str, fmt: RationaleFormat
    ) -> None:
        rationale = from_profile(extract_profile(parse_strict(smiles)))
        assert parse_rationale(render(rationale, fmt)) == rationale


class TestMatchingRatioInvariants:
    @given(
        st.sampled_from(CORPUS),
        st.sets(
            st.sampled_from(
                [
                    K.FORMULA,
                    K.LONGEST_CHAIN,
                    K.AROMATIC_RINGS,
                    K.RING_COMPOUNDS,
                    K.FUNCTIONAL_GROUPS,
                    K.CHIRALITY,
                    K.MOLECULAR_WEIGHT,
                ]
            ),
            min_size=1,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_self_rationale_scores_one_under_any_mask(
        self, smiles: str, mask: set
    ) -> None:
        mol = parse_strict(smiles)
        rationale = from_profile(extract_profile(mol), frozenset(mask))
        overall, per_component = matching_ratio(rationale, mol)
        assert overall == 1.0
        assert all(value == 1.0 for value in per_component.values())

    @given(rationales(), st.sampled_from(CORPUS))
    @settings(max_examples=150, deadline=None)
    def test_ratio_bounds(self, rationale: Rationale, smiles: str) -> None:
        overall, per_component = matching_ratio(rationale, parse_strict(smiles))
        assert 0.0 <= overall <= 1.0
        assert all(0.0 <= value <= 1.0 for value in per_component.values())

    @given(
        st.sampled_from(CORPUS),
        st.lists(st.sampled_from(CORPUS), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_select_is_argmax_with_lowest_index_ties(
        self, target: str, others: list[str]
    ) -> None:
        rationale = from_profile(extract_profile(parse_strict(target)))
        candidates = others + [target]
        report = select(rationale, candidates)
        ratios = [
            entry.matching_ratio if entry.matching_ratio is not None else -1.0
            for entry in report.per_candidate
        ]
        best = max(ratios)
        assert ratios[report.selected_index] == best
        assert report.selected_index == ratios.index(best)


class TestMetricAxioms:
    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_levenshtein_axioms(self, a: str, b: str) -> None:
        d = levenshtein(a, b)
        assert d >= 0
        assert (d == 0) == (a == b)
        assert d == levenshtein(b, a)
        assert d <= max(len(a), len(b))

    @given(st.text(max_size=12), st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_levenshtein_triangle_inequality(self, a: str, b: str, c: str) -> None:
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.text(max_size=10), st.text(max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_matches_oracle(self, a: str, b: str) -> None:
        assert levenshtein(a, b) == levenshtein_oracle(a, b)

    @given(st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bleu_self_identity(self, texts: list[str]) -> None:
        assert corpus_bleu(texts, texts) == 1.0

    @given(
        st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=5),
        st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_bleu_bounds(self, refs: list[str], cands: list[str]) -> None:
        n = min(len(refs), len(cands))
        score = corpus_bleu(refs[:n], cands[:n])
        assert 0.0 <= score <= 1.0

    @given(st.sampled_from(CORPUS), st.sampled_from(CORPUS))
    @settings(max_examples=100, deadline=None)
    def test_tanimoto_axioms(self, a: str, b: str) -> None:
        fa = morgan_fingerprint(parse_strict(a))
        fb = morgan_fingerprint(parse_strict(b))
        similarity = tanimoto(fa, fb)
        assert 0.0 <= similarity <= 1.0
        assert similarity == tanimoto(fb, fa)
        assert tanimoto(fa, fa) == 1.0

    @given(st.sampled_from(CORPUS), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_fingerprint_is_representation_invariant(
        self, smiles: str, seed: int
    ) -> None:
        mol = parse_strict(smiles)
        shuffled = parse_strict(random_equivalent(mol, seed))
        assert morgan_fingerprint(mol) == morgan_fingerprint(shuffled)


class TestAromaticRoundTripFaults:
    """Known faults of aromaticity perception, kept out of the random molecules above.

    The writer spells the aromatic atoms that parsing perceived, but when
    rings are fused or bridged the parser can reject that spelling: read
    back, a lowercase atom lands in no ring it perceives aromatic.  So a
    respelling, or a canonical form, of such a molecule may not parse
    back.  Each case fails the same way with and without the automorphism
    pruning of the canonical writer.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="aromatic form of the respelling is rejected")
    @pytest.mark.parametrize(
        "smiles,seed",
        [
            ("C1(=CC2=CC=C1C[NH2+]2)S", 46495),
            ("C12=NC=NC(=C1)O2.O", 312800),
            ("c1cc2ccc1CC2", 2),  # written C1c2ccc(cc2)C1
        ],
    )
    def test_respelling_is_isomorphic(self, smiles: str, seed: int) -> None:
        mol = parse_strict(smiles)
        back = parse(random_equivalent(mol, seed))
        assert isinstance(back, Molecule) and isomorphic_oracle(back, mol)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="aromatic form is rejected")
    @pytest.mark.parametrize("smiles", ["C1=C(C(=C2C(=C1)N2F)C)CC", "C=1=C=CO[N+]1[O-]"])
    def test_canonical_form_parses_back(self, smiles: str) -> None:
        assert isinstance(parse(canonicalize(parse_strict(smiles))), Molecule)
