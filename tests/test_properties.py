"""Property-based invariants over random inputs."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from molstruct.errors import RationaleParseError
from molstruct.graph import Molecule
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
)

from _oracles import levenshtein_oracle, longest_chain_oracle
from conftest import corpus_rows

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
