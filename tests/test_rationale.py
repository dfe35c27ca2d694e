"""Rationale rendering and parsing, both formats."""

from __future__ import annotations

import json

import pytest

from molstruct.errors import EmptyRationaleError, RationaleParseError
from molstruct.profile import Configuration, extract_profile
from molstruct.rationale import (
    CANONICAL_ORDER,
    CORE_KINDS,
    EXTRACTABLE_KINDS,
    ComponentKind,
    Rationale,
    RationaleFormat,
    RationaleSource,
    apply_reliability_mask,
    from_profile,
    parse_rationale,
    render,
)
from molstruct.smiles import parse_strict

K = ComponentKind

BUTANOL_CORE_PROSE = (
    "The molecular formula is C4H10O. "
    "The longest carbon chain has 4 carbons. "
    "The molecule has 0 aromatic rings. "
    "The molecule contains no rings. "
    "The molecule contains 1 functional group: hydroxyl. "
    "The molecule has no specified chiral centers."
)


def rationale_for(smiles: str, mask=None) -> Rationale:
    return from_profile(extract_profile(parse_strict(smiles)), mask)


class TestRender:
    def test_butanol_core_sentences(self) -> None:
        assert render(rationale_for("CCC(C)O", CORE_KINDS)) == BUTANOL_CORE_PROSE

    def test_default_mask_appends_weight(self) -> None:
        assert render(rationale_for("CCC(C)O")) == (
            BUTANOL_CORE_PROSE + " The molecular weight is 74.12 g/mol."
        )

    def test_singular_forms(self) -> None:
        text = render(rationale_for("Cc1ccccc1"))
        assert "The molecule has 1 aromatic ring." in text
        assert "The longest carbon chain has 1 carbon." in text
        assert "The molecule contains 1 ring: benzene." in text

    def test_chiral_sentence(self) -> None:
        text = render(rationale_for("N[C@@H](C)C(=O)O"))
        assert "The molecule has 1 chiral center: S at atom 1." in text

    def test_multiset_counts_collapse(self) -> None:
        text = render(rationale_for("OCC(O)CO"))
        assert "The molecule contains 3 functional groups: 3 x hydroxyl." in text

    def test_multiple_named_items_sorted(self) -> None:
        text = render(rationale_for("c1ccc2[nH]ccc2c1"))
        assert "The molecule contains 2 rings: benzene, pyrrole." in text

    def test_json_key_order_is_canonical(self) -> None:
        payload = render(rationale_for("N[C@@H](C)C(=O)O"), RationaleFormat.JSON)
        keys = list(json.loads(payload))
        order = [kind.value for kind in CANONICAL_ORDER]
        assert keys == sorted(keys, key=order.index)

    def test_json_chirality_shape(self) -> None:
        payload = json.loads(
            render(rationale_for("N[C@@H](C)C(=O)O"), RationaleFormat.JSON)
        )
        assert payload["chirality"] == [{"configuration": "S", "atom_index": 1}]

    def test_empty_mask_raises(self) -> None:
        empty = Rationale({}, frozenset())
        with pytest.raises(EmptyRationaleError):
            render(empty)

    def test_iupac_name_sentence(self) -> None:
        r = Rationale(
            {K.IUPAC_NAME: "butan-2-ol"}, frozenset({K.IUPAC_NAME})
        )
        assert render(r) == "The IUPAC name is butan-2-ol."

    def test_mask_must_match_components(self) -> None:
        with pytest.raises(ValueError):
            Rationale({K.FORMULA: "CH4"}, frozenset({K.FORMULA, K.LONGEST_CHAIN}))

    def test_iupac_name_not_extractable(self) -> None:
        with pytest.raises(ValueError):
            rationale_for("C", {K.IUPAC_NAME})


class TestParse:
    @pytest.mark.parametrize(
        "smiles",
        [
            "CCC(C)O",
            "C[C@@H](O)CC",
            "CC(=O)Oc1ccccc1C(=O)O",
            "OCC(O)CO",
            "C1COCCN1",
            "c1ccc2[nH]ccc2c1",
            "N[C@@H](C)C(=O)O",
            "[O-][n+]1ccccc1",
            "Cc1c(cc(cc1[N+](=O)[O-])[N+](=O)[O-])[N+](=O)[O-]",
        ],
    )
    def test_round_trip_both_formats(self, smiles: str) -> None:
        r = rationale_for(smiles)
        for fmt in RationaleFormat:
            back = parse_rationale(render(r, fmt))
            assert back == r, (smiles, fmt)
            assert back.warnings == ()
            assert back.source is RationaleSource.PARSED

    def test_weight_only_sentence(self) -> None:
        r = parse_rationale("The molecular weight is 74.1 g/mol.")
        assert r.mask == frozenset({K.MOLECULAR_WEIGHT})
        assert r.components[K.MOLECULAR_WEIGHT] == 74.1

    def test_unknown_sentences_warn_but_do_not_fail(self) -> None:
        r = parse_rationale(
            "This molecule smells nice. The molecular formula is CH4. Trust me."
        )
        assert r.mask == frozenset({K.FORMULA})
        assert len(r.warnings) == 2

    def test_zero_recognized_raises(self) -> None:
        with pytest.raises(RationaleParseError):
            parse_rationale("Nothing structural here.")

    def test_malformed_json_raises(self) -> None:
        with pytest.raises(RationaleParseError):
            parse_rationale("{not json")

    def test_json_array_raises(self) -> None:
        with pytest.raises(RationaleParseError):
            parse_rationale("[1, 2]")

    def test_json_unknown_keys_warn(self) -> None:
        r = parse_rationale('{"formula": "CH4", "bogus": 1}')
        assert r.mask == frozenset({K.FORMULA})
        assert len(r.warnings) == 1

    def test_json_type_mismatch_warns(self) -> None:
        r = parse_rationale('{"formula": "CH4", "longest_chain": "four"}')
        assert r.mask == frozenset({K.FORMULA})
        assert any("longest_chain" in w for w in r.warnings)

    def test_json_bool_is_not_int(self) -> None:
        with pytest.raises(RationaleParseError):
            parse_rationale('{"longest_chain": true}')

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("longest_chain", "-3"),
            ("aromatic_rings", "-1"),
            ("chirality", '[{"configuration": "R", "atom_index": -2}]'),
            ("molecular_weight", "-1.5"),
            ("molecular_weight", "-0.0"),
            ("molecular_weight", "NaN"),
            ("molecular_weight", "Infinity"),
            ("molecular_weight", "-Infinity"),
            ("molecular_weight", "1e400"),
            ("molecular_weight", "1{big}"),
            ("formula", '""'),
            ("formula", '"C H4"'),
            ("iupac_name", '"ethanol. Or not"'),
            ("functional_groups", '["ester, hydroxyl"]'),
            ("functional_groups", '["2 x ester"]'),
            ("functional_groups", '["1000000000 x ester"]'),
            ("functional_groups", '["1{huge} x ester"]'),
            ("functional_groups", '["1 x 1{huge} x ester"]'),
        ],
    )
    def test_json_value_prose_cannot_carry_is_malformed(self, key: str, raw: str) -> None:
        raw = raw.replace("{big}", "0" * 400).replace("{huge}", "0" * 5000)
        r = parse_rationale(f'{{"ring_compounds": [], "{key}": {raw}}}')
        assert r.mask == frozenset({K.RING_COMPOUNDS})
        assert r.warnings == (f"component {key!r} has a malformed value",)

    @pytest.mark.parametrize(
        "text",
        [
            "The longest carbon chain has 1{big} carbons.",
            "The molecule has 1 chiral center: R at atom 1{big}.",
            "The molecular weight is 1e400 g/mol.",
            "The molecule contains 1 ring: 1 x 2 x benzene.",
            "The molecule contains 2 rings: , .",
            "The molecule contains 2 rings: 0 x benzene, .",
            "The molecule contains 1 ring: 1 x 1{big} x benzene.",
            "The molecule contains 1 ring: 1{big} x benzene.",
            "The molecule contains 1 ring: 1000000000 x benzene.",
            "The molecule contains 2 rings: 600000 x benzene, 600000 x pyridine.",
        ],
    )
    def test_prose_value_outside_the_domain_is_unrecognized(self, text: str) -> None:
        text = text.replace("{big}", "0" * 5000)
        r = parse_rationale("The molecular formula is CH4. " + text)
        assert r.mask == frozenset({K.FORMULA})
        assert r.warnings == (f"unrecognized sentence: {text!r}",)

    @pytest.mark.parametrize(
        "text", ['{"longest_chain": 1{big}}', '{"x": {deep}]}']
    )
    def test_json_too_large_to_decode_is_a_parse_error(self, text: str) -> None:
        text = text.replace("{big}", "0" * 5000).replace("{deep}", "[" * 100_000)
        with pytest.raises(RationaleParseError, match="malformed JSON rationale"):
            parse_rationale(text)

    def test_chirality_items_parse(self) -> None:
        r = parse_rationale(
            "The molecule has 2 chiral centers: R at atom 2, S at atom 5."
        )
        assert r.components[K.CHIRALITY] == (
            (2, Configuration.R),
            (5, Configuration.S),
        )

    def test_unresolved_configuration_parses(self) -> None:
        r = parse_rationale("The molecule has 1 chiral center: Unresolved at atom 0.")
        assert r.components[K.CHIRALITY] == ((0, Configuration.UNRESOLVED),)

    def test_counted_multiset_expands(self) -> None:
        r = parse_rationale(
            "The molecule contains 3 functional groups: 2 x hydroxyl, ester."
        )
        assert r.components[K.FUNCTIONAL_GROUPS] == ("ester", "hydroxyl", "hydroxyl")

    def test_list_of_the_most_items_reads(self) -> None:
        text = "The molecule contains 2 rings: 999999 x benzene, pyridine."
        rings = parse_rationale(text).components[K.RING_COMPOUNDS]
        assert len(rings) == 1_000_000
        assert rings[-1] == "pyridine"
        with pytest.raises(RationaleParseError):
            parse_rationale(text.replace("999999", "1000000"))

    def test_negative_sentences(self) -> None:
        r = parse_rationale(
            "The molecule contains no rings. The molecule contains no functional "
            "groups. The molecule has no specified chiral centers."
        )
        assert r.components[K.RING_COMPOUNDS] == ()
        assert r.components[K.FUNCTIONAL_GROUPS] == ()
        assert r.components[K.CHIRALITY] == ()


class TestEquality:
    def test_provenance_ignored(self) -> None:
        a = Rationale({K.FORMULA: "CH4"}, frozenset({K.FORMULA}))
        b = Rationale(
            {K.FORMULA: "CH4"},
            frozenset({K.FORMULA}),
            source=RationaleSource.PARSED,
            warnings=("noise",),
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_value_differences_matter(self) -> None:
        a = Rationale({K.FORMULA: "CH4"}, frozenset({K.FORMULA}))
        b = Rationale({K.FORMULA: "C2H6"}, frozenset({K.FORMULA}))
        assert a != b


class TestReliabilityMask:
    def test_keeps_intersection(self) -> None:
        r = rationale_for("CCC(C)O")
        masked = apply_reliability_mask(r, {K.FORMULA, K.IUPAC_NAME})
        assert masked.mask == frozenset({K.FORMULA})
        assert masked.components == {K.FORMULA: "C4H10O"}

    def test_empty_result_allowed_but_unrenderable(self) -> None:
        r = rationale_for("C")
        masked = apply_reliability_mask(r, set())
        assert masked.mask == frozenset()
        with pytest.raises(EmptyRationaleError):
            render(masked)

    def test_extractable_kinds_cover_seven(self) -> None:
        assert len(EXTRACTABLE_KINDS) == 7
        assert K.IUPAC_NAME not in EXTRACTABLE_KINDS
        assert len(CORE_KINDS) == 6
        assert K.MOLECULAR_WEIGHT not in CORE_KINDS
