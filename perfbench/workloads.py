"""Seeded workload generators for the molstruct benchmark.

A workload turns a seed into a stream of records grouped in cycles.
Every cycle has the same composition (the seed only picks spellings,
order, formats and perturbations), so runs on different seeds do the
same amount of work and their numbers can be compared.  Each record
carries its known answer; the answers come from closed-form family
formulas, respelling invariance, self-match = 1.0, documented scoring
rules and the independent oracles in tests/_oracles.py.  Reference
profiles of the golden corpus are computed once per run, outside every
timed region, and cross-checked against those oracles.

The package sees only ``Record.payload``.  ``python3 perfbench/run.py``
drives the records; see perfbench/README.md for the metrics.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put the checkout's src/ first on sys.path; exit if it is missing."""
    if not (SRC / "molstruct" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no molstruct sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


use_checkout_sources()

import molstruct  # noqa: E402
from molstruct import (  # noqa: E402
    ComponentKind,
    Configuration,
    Rationale,
    RationaleFormat,
    StructuralProfile,
    extract_profile,
    from_profile,
    parse_strict,
    random_equivalent,
    render,
)

if not Path(molstruct.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: molstruct was imported from outside {SRC}")

K = ComponentKind
PROSE, JSON = RationaleFormat.PROSE, RationaleFormat.JSON
CORPUS_PATH = ROOT / "tests" / "data" / "golden_corpus.smi"
ORACLES_PATH = ROOT / "tests" / "_oracles.py"

# Standard atomic weights (IUPAC conventional values), for closed forms.
WEIGHTS = {"C": Decimal("12.011"), "H": Decimal("1.008"), "O": Decimal("15.999")}
RING_NAMES = {
    3: "cyclopropane", 4: "cyclobutane", 5: "cyclopentane",
    6: "cyclohexane", 7: "cycloheptane", 8: "cyclooctane",
}
INVALID_SMILES = ("C1CC", "CC(C", "C)C", "[Xx]C")
LONG_CHAINS = (66, 72, 80, 96)


@dataclass(frozen=True)
class Record:
    """One closed-loop request: what the package sees and the known answer."""

    rid: int
    payload: tuple
    answer: object
    key: str = ""


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Closed forms


def formula_text(counts: dict[str, int]) -> str:
    """Hill order: C, H, then the rest alphabetically."""
    order = ["C", "H"] + sorted(set(counts) - {"C", "H"})
    return "".join(
        f"{sym}{counts[sym] if counts[sym] > 1 else ''}" for sym in order if counts.get(sym)
    )


def weight(counts: dict[str, int]) -> float:
    total = sum(WEIGHTS[sym] * n for sym, n in counts.items())
    return float(total.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def ring_name(size: int) -> str:
    return RING_NAMES.get(size, f"{size}-membered ring")


def closed_profile(
    counts: dict[str, int],
    chain: int = 0,
    aromatic: int = 0,
    rings: tuple[str, ...] = (),
    groups: tuple[str, ...] = (),
) -> StructuralProfile:
    return StructuralProfile(
        formula=formula_text(counts),
        longest_chain=chain,
        aromatic_ring_count=aromatic,
        ring_compounds=tuple(sorted(rings)),
        functional_groups=tuple(sorted(groups)),
        chiral_centers=(),
        molecular_weight=weight(counts),
    )


def _digit(k: int) -> str:
    return str(k) if k < 10 else f"%{k}"


def alkane(n: int) -> tuple[str, StructuralProfile]:
    return "C" * n, closed_profile({"C": n, "H": 2 * n + 2}, chain=n)


def cycloalkane(n: int) -> tuple[str, StructuralProfile]:
    return "C1" + "C" * (n - 2) + "C1", closed_profile({"C": n, "H": 2 * n}, rings=(ring_name(n),))


def peg(n: int) -> tuple[str, StructuralProfile]:
    """HO-(CH2CH2O)n-H: two hydroxyls, n-1 ethers, chain of 2."""
    return "O" + "CCO" * n, closed_profile(
        {"C": 2 * n, "H": 4 * n + 2, "O": n + 1},
        chain=2,
        groups=("hydroxyl",) * 2 + ("ether",) * (n - 1),
    )


def polyphenyl(n: int) -> tuple[str, StructuralProfile]:
    """n benzene rings joined para to para."""
    return "c1ccc(cc1)" * (n - 1) + "c1ccccc1", closed_profile(
        {"C": 6 * n, "H": 4 * n + 2}, aromatic=n, rings=("benzene",) * n
    )


def acene(n: int) -> tuple[str, StructuralProfile]:
    """n benzene rings fused in a line (naphthalene, anthracene, ...)."""
    smiles = (
        "c1ccc2"
        + "".join(f"cc{_digit(k)}" for k in range(3, n + 1))
        + "ccccc" + _digit(n)
        + "".join(f"cc{_digit(k)}" for k in range(n - 1, 1, -1))
        + "c1"
    )
    return smiles, closed_profile(
        {"C": 4 * n + 2, "H": 2 * n + 4}, aromatic=n, rings=("benzene",) * n
    )


def prismane(n: int) -> tuple[str, StructuralProfile]:
    """Two n-rings joined rung by rung; [4]prismane is cubane.

    The SSSR has n + 1 rings: both triangles and two squares for n = 3,
    otherwise the n squares and one n-ring.
    """
    atoms = list(range(2 * n))  # top ring 0..n-1, then bottom ring walked back
    closures = [(0, n - 1), (n, 2 * n - 1)] + [(i, 2 * n - 1 - i) for i in range(n - 1)]
    marks: dict[int, str] = {i: "" for i in atoms}
    for label, (i, j) in enumerate(closures, start=1):
        marks[i] += _digit(label)
        marks[j] += _digit(label)
    rings = ("cyclopropane",) * 2 + ("cyclobutane",) * 2 if n == 3 else (
        ("cyclobutane",) * n + (ring_name(n),)
    )
    return "".join("C" + marks[i] for i in atoms), closed_profile(
        {"C": 2 * n, "H": 2 * n}, rings=rings
    )


def adamantane(_: int = 0) -> tuple[str, StructuralProfile]:
    return "C1C2CC3CC1CC(C2)C3", closed_profile(
        {"C": 10, "H": 16}, rings=("cyclohexane",) * 3
    )


# Sizes keep every molecule far under the per-case budget on the seed and
# a cycle short enough for several per run (cyclo-C32 and a 6-ring
# polyphenyl canonicalize in about 0.2 s; cyclo-C40 and 7 rings took
# three times as long and made the run too few cycles to be steady).
# The alkanes above 64 carbons and PEG-40 (80 carbons) exceed today's
# chain search cap and are kept on purpose.
LARGE_FAMILIES = (
    ("cycloalkane", cycloalkane, (6, 12, 18, 24, 32)),
    ("alkane", alkane, (8, 16, 32, 48, 64, 65, 80, 100)),
    ("peg", peg, (4, 8, 16, 32, 40)),
    ("polyphenyl", polyphenyl, (2, 3, 4, 5, 6)),
    ("prismane", prismane, (3, 4, 5, 6, 8, 10)),
    ("adamantane", adamantane, (10,)),
    ("acene", acene, (2, 3, 4, 6, 8)),
)


# ---------------------------------------------------------------------------
# Expected rationale text (the templates documented in README.md)


def _plural(n: int, word: str) -> str:
    return word if n == 1 else word + "s"


def _multiset(items: tuple[str, ...]) -> str:
    counts = Counter(items)
    return ", ".join(
        name if counts[name] == 1 else f"{counts[name]} x {name}" for name in sorted(counts)
    )


def expected_prose(p: StructuralProfile) -> str:
    rings = (
        f"The molecule contains {len(p.ring_compounds)} "
        f"{_plural(len(p.ring_compounds), 'ring')}: {_multiset(p.ring_compounds)}."
        if p.ring_compounds else "The molecule contains no rings."
    )
    groups = (
        f"The molecule contains {len(p.functional_groups)} functional "
        f"{_plural(len(p.functional_groups), 'group')}: {_multiset(p.functional_groups)}."
        if p.functional_groups else "The molecule contains no functional groups."
    )
    chiral = (
        f"The molecule has {len(p.chiral_centers)} chiral "
        f"{_plural(len(p.chiral_centers), 'center')}: "
        + ", ".join(f"{c.value} at atom {pos}" for pos, c in p.chiral_centers) + "."
        if p.chiral_centers else "The molecule has no specified chiral centers."
    )
    return " ".join((
        f"The molecular formula is {p.formula}.",
        f"The longest carbon chain has {p.longest_chain} {_plural(p.longest_chain, 'carbon')}.",
        f"The molecule has {p.aromatic_ring_count} aromatic "
        f"{_plural(p.aromatic_ring_count, 'ring')}.",
        rings, groups, chiral,
        f"The molecular weight is {float(p.molecular_weight)} g/mol.",
    ))


# ---------------------------------------------------------------------------
# Scoring rules (README "Scoring semantics"), for known answers


def full_match(claims: dict[ComponentKind, object], p: StructuralProfile) -> bool:
    """True when a profile satisfies every asserted component (ratio 1.0)."""
    actual = {
        K.FORMULA: p.formula,
        K.LONGEST_CHAIN: p.longest_chain,
        K.AROMATIC_RINGS: p.aromatic_ring_count,
        K.RING_COMPOUNDS: p.ring_compounds,
        K.FUNCTIONAL_GROUPS: p.functional_groups,
    }
    for kind, claimed in claims.items():
        if kind in actual:
            if claimed != actual[kind]:
                return False
        elif kind is K.CHIRALITY:
            if Counter(c for _, c in claimed) != Counter(c for _, c in p.chiral_centers):
                return False
        elif kind is K.MOLECULAR_WEIGHT:
            if not 0.95 <= p.molecular_weight / claimed <= 1.05:
                return False
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference data


class Corpus:
    """The golden corpus with reference profiles, checked against oracles."""

    def __init__(self) -> None:
        rows = [line.split("\t") for line in CORPUS_PATH.read_text().splitlines() if line.strip()]
        self.smiles = [row[0] for row in rows]
        self.molecules = [parse_strict(s) for s in self.smiles]
        self.profiles = [extract_profile(m) for m in self.molecules]
        oracles = load_oracles()
        self.problems = [
            f"corpus reference for {s!r} disagrees with tests/_oracles.py"
            for s, m, p in zip(self.smiles, self.molecules, self.profiles)
            if p.longest_chain != oracles.longest_chain_oracle(m)
            or len(m.rings) != oracles.cyclomatic_count(m)
        ]
        self.by_formula: dict[str, list[int]] = {}
        for i, p in enumerate(self.profiles):
            self.by_formula.setdefault(p.formula, []).append(i)

    @cached_property
    def texts(self) -> list[str]:
        return [render(from_profile(p)) for p in self.profiles]


class Workload:
    """Common cycle bookkeeping; subclasses build one cycle of records."""

    name = ""
    why = ""
    tail_percentile = 99.0
    cycles_per_round = 1  # in-process cycles between two CLI repetitions
    cli_cycles = 1  # the CLI runs the records of the first cycles
    cli: tuple[str, ...] = ()  # CLI subcommands, run in this order

    def __init__(self, seed: int, corpus: Corpus) -> None:
        self.seed = seed
        self.corpus = corpus

    @property
    def cycle_len(self) -> int:
        raise NotImplementedError

    def rng(self, cycle: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{cycle}")

    def cycle(self, c: int) -> list[Record]:
        raise NotImplementedError

    def respell(self, mol, rng: random.Random) -> str:
        return random_equivalent(mol, rng.getrandbits(32))


class Describe(Workload):
    name = "describe"
    why = "small-molecule hot path: respelled corpus molecules through parse, profile, rationale render"
    tail_percentile = 99.0
    cycles_per_round = 2
    cli_cycles = 3
    cli = ("analyze",)

    @property
    def cycle_len(self) -> int:
        return len(self.corpus.smiles)

    def cycle(self, c: int) -> list[Record]:
        rng = self.rng(c)
        order = list(range(self.cycle_len))
        rng.shuffle(order)
        base = c * self.cycle_len
        return [
            Record(base + j, (self.respell(self.corpus.molecules[i], rng),),
                   self.corpus.texts[i], str(i))
            for j, i in enumerate(order)
        ]


def _flip_stereo(smiles: str) -> str:
    return smiles.replace("@@", "\0").replace("@", "@@").replace("\0", "@")


@dataclass(frozen=True)
class SelectAnswer:
    index: int
    parse_ok: tuple[bool, ...]


class Select(Workload):
    name = "select"
    why = ("read-direction rationales against k=2..16 repeating candidates; "
           "keeps >64-carbon chains that fail whole records today")
    tail_percentile = 99.0
    cycles_per_round = 2
    cli = ("select",)
    long_chain_records = 4  # per cycle
    masks = (
        frozenset({K.FORMULA}),
        frozenset({K.FORMULA, K.MOLECULAR_WEIGHT}),
        frozenset({K.FORMULA, K.FUNCTIONAL_GROUPS}),
        frozenset({K.LONGEST_CHAIN, K.AROMATIC_RINGS, K.RING_COMPOUNDS, K.FUNCTIONAL_GROUPS}),
        frozenset(set(K) - {K.CHIRALITY, K.IUPAC_NAME}),
    )

    def __init__(self, seed: int, corpus: Corpus) -> None:
        super().__init__(seed, corpus)
        c = corpus
        self.targets = [
            i for i, s in enumerate(c.smiles)
            if len(c.by_formula[c.profiles[i].formula]) > 1 or "@" in s
        ]
        self.long = [alkane(n) for n in LONG_CHAINS]
        self.stereo: dict[int, tuple[str, StructuralProfile]] = {}
        for i in self.targets:
            if "@" in c.smiles[i]:
                flipped = _flip_stereo(c.smiles[i])
                self.stereo[i] = (flipped, extract_profile(parse_strict(flipped)))
        # Bounded pools: a few fixed spellings per molecule, so strings repeat.
        rng = self.rng(-1)
        self.spellings = {
            i: (c.smiles[i], self.respell(c.molecules[i], rng), self.respell(c.molecules[i], rng))
            for i in range(len(c.smiles))
        }

    @property
    def cycle_len(self) -> int:
        return len(self.targets)

    def _draw(self, rng: random.Random, t: int) -> tuple[str, StructuralProfile | None]:
        c = self.corpus
        contrast = [j for j in c.by_formula[c.profiles[t].formula] if j != t]
        roll = rng.random()
        if roll < 0.1:
            return rng.choice(INVALID_SMILES), None
        if roll < 0.25 and t in self.stereo:
            return self.stereo[t]
        if roll < 0.45 or not contrast:
            return rng.choice(self.spellings[t]), c.profiles[t]
        j = rng.choice(contrast)
        return rng.choice(self.spellings[j][:2]), c.profiles[j]

    def cycle(self, cyc: int) -> list[Record]:
        c = self.corpus
        rng = self.rng(cyc)
        order = list(self.targets)
        rng.shuffle(order)
        # Every cycle has the same candidate counts, so its work does not
        # depend on the seed; only their order and the draws do.
        ks = [2 + j % 15 for j in range(len(order))]
        rng.shuffle(ks)
        with_long = set(rng.sample(range(len(order)), self.long_chain_records))
        base = cyc * self.cycle_len
        out = []
        for j, (t, k) in enumerate(zip(order, ks)):
            drawn = [self._draw(rng, t) for _ in range(k - 1)]
            if j in with_long:
                drawn[rng.randrange(len(drawn))] = rng.choice(self.long)
            drawn.insert(rng.randint(0, len(drawn)), (rng.choice(self.spellings[t]), c.profiles[t]))
            mask = rng.choice(self.masks) if rng.random() < 0.3 else None
            rationale = from_profile(c.profiles[t], mask)
            text = render(rationale, rng.choice((PROSE, JSON)))
            index = next(
                i for i, (_, p) in enumerate(drawn)
                if p is not None and full_match(rationale.components, p)
            )
            answer = SelectAnswer(index, tuple(p is not None for _, p in drawn))
            out.append(Record(base + j, (text, tuple(s for s, _ in drawn)), answer, str(t)))
        return out


@dataclass(frozen=True)
class GradeAnswer:
    scores: dict[str, float]
    valid: bool
    exact: bool
    levenshtein: int
    morgan: float | None  # None: only the [0, 1] range is known


def edit_distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


class Grade(Workload):
    name = "grade"
    why = ("gold/rationale/prediction triples with known perturbations; the only workload "
           "exercising metrics and the canonical writer twice per record")
    tail_percentile = 99.0
    cycles_per_round = 2
    cli_cycles = 2
    cli = ("score", "compare")

    @property
    def cycle_len(self) -> int:
        return len(self.corpus.smiles)

    def _other(self, rng: random.Random, i: int) -> int:
        formula = self.corpus.profiles[i].formula
        while True:
            j = rng.randrange(self.cycle_len)
            if self.corpus.profiles[j].formula != formula:
                return j

    def _perturb(self, rng: random.Random, i: int, perturb: bool) -> tuple[Rationale, dict[str, float]]:
        """Reference rationale, with one known perturbation if asked."""
        p = self.corpus.profiles[i]
        rationale = from_profile(p)
        scores = {kind.value: 1.0 for kind in rationale.mask}
        if not perturb:
            return rationale, scores
        values = dict(rationale.components)
        kinds = [K.FORMULA, K.LONGEST_CHAIN, K.AROMATIC_RINGS, K.MOLECULAR_WEIGHT,
                 K.FUNCTIONAL_GROUPS, K.RING_COMPOUNDS]
        if any(c is not Configuration.UNRESOLVED for _, c in p.chiral_centers):
            kinds.append(K.CHIRALITY)
        kind = rng.choice(kinds)
        if kind is K.FORMULA:
            values[kind], score = self.corpus.profiles[self._other(rng, i)].formula, 0.0
        elif kind in (K.LONGEST_CHAIN, K.AROMATIC_RINGS):
            values[kind], score = values[kind] + 1, 0.0
        elif kind is K.MOLECULAR_WEIGHT:
            factor = rng.choice((1.02, 0.8, 1.2))  # 1.02 stays inside the 5% band
            values[kind], score = p.molecular_weight * factor, float(factor == 1.02)
        elif kind is K.FUNCTIONAL_GROUPS:
            groups = p.functional_groups
            values[kind] = tuple(sorted(groups + ("nitro",)))
            score = len(groups) / (len(groups) + 1)
        elif kind is K.RING_COMPOUNDS:
            rings = p.ring_compounds
            values[kind] = rings[1:] if rings else ("benzene",)
            score = (len(rings) - 1) / len(rings) if rings else 0.0
        else:
            centers = list(p.chiral_centers)
            pos, config = next((pc for pc in centers if pc[1] is not Configuration.UNRESOLVED))
            flipped = Configuration.S if config is Configuration.R else Configuration.R
            centers[centers.index((pos, config))] = (pos, flipped)
            values[kind], score = tuple(centers), 0.0
        scores[kind.value] = score
        return replace(rationale, components=values), scores

    def cycle(self, cyc: int) -> list[Record]:
        c = self.corpus
        rng = self.rng(cyc)
        n = self.cycle_len
        order = list(range(n))
        rng.shuffle(order)
        # Fixed shares per cycle (40% perturbed; predictions 50% respelled,
        # 30% another molecule, 20% corrupted), so a cycle's work does not
        # depend on the seed.
        perturbed = [j < 0.4 * n for j in range(n)]
        predictions = ["respell" if j < 0.5 * n else "other" if j < 0.8 * n else "corrupt"
                       for j in range(n)]
        rng.shuffle(perturbed)
        rng.shuffle(predictions)
        base = cyc * n
        out = []
        for j, i in enumerate(order):
            gold = c.smiles[i] if rng.random() < 0.5 else self.respell(c.molecules[i], rng)
            rationale, scores = self._perturb(rng, i, perturbed[j])
            text = render(rationale, rng.choice((PROSE, JSON)))
            if predictions[j] == "respell":
                predicted = self.respell(c.molecules[i], rng)
                valid, exact, morgan = True, True, 1.0
            elif predictions[j] == "other":
                predicted = c.smiles[self._other(rng, i)]
                valid, exact, morgan = True, False, None
            else:
                predicted = rng.choice((gold + "(", ")" + gold))
                valid, exact, morgan = False, False, 0.0
            answer = GradeAnswer(scores, valid, exact, edit_distance(gold, predicted), morgan)
            out.append(Record(base + j, (gold, text, predicted), answer, str(i)))
        return out


@dataclass(frozen=True)
class LargeAnswer:
    profile: StructuralProfile
    text: str
    heavy_atoms: int


class Large(Workload):
    name = "large"
    why = ("synthetic families of 6 to 121 atoms with closed-form answers; the only workload "
           "where ring perception and canonicalization scaling dominate")
    tail_percentile = 90.0
    cycles_per_round = 1
    cli = ("canon", "analyze")

    def __init__(self, seed: int, corpus: Corpus) -> None:
        super().__init__(seed, corpus)
        self.items = []
        for family, build, sizes in LARGE_FAMILIES:
            for n in sizes:
                smiles, profile = build(n)
                mol = parse_strict(smiles)
                answer = LargeAnswer(profile, expected_prose(profile), len(mol.atoms))
                self.items.append((f"{family}-{n}", mol, answer))

    @property
    def cycle_len(self) -> int:
        return len(self.items)

    def cycle(self, c: int) -> list[Record]:
        rng = self.rng(c)
        order = list(self.items)
        rng.shuffle(order)
        base = c * self.cycle_len
        return [
            Record(base + j, (self.respell(mol, rng),), answer, key)
            for j, (key, mol, answer) in enumerate(order)
        ]


WORKLOADS = {w.name: w for w in (Describe, Select, Grade, Large)}


def cli_lines(subcommand: str, records: list[Record]) -> list[str]:
    """JSONL input for one CLI subcommand over the given records."""
    if subcommand in ("analyze", "canon"):
        rows = [{"smiles": r.payload[0]} for r in records]
    elif subcommand == "select":
        rows = [{"rationale": r.payload[0], "candidates": list(r.payload[1])} for r in records]
    elif subcommand == "score":
        rows = [{"smiles": r.payload[0], "rationale": r.payload[1]} for r in records]
    else:
        rows = [{"smiles": r.payload[0], "predicted": r.payload[2]} for r in records]
    return [json.dumps(row) for row in rows]
