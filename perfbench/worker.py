"""Per-record pipelines, run in a worker process the main process can kill.

``run_<workload>`` is the untraced pipeline: the public calls a user
makes for one record.  ``traced_<workload>`` does the same work split
into its public parts, with a span around every call, and adds probes:
re-runs of composite calls (and of inner layers such as ring perception)
whose results must equal the parts' results.  Probe time is excluded
from the traced record time and from every layer's self time.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager

from workloads import use_checkout_sources

use_checkout_sources()

from molstruct import (  # noqa: E402
    Chirality,
    Molecule,
    MolstructError,
    StructuralProfile,
    canonical_order,
    canonicalize,
    compare_pair,
    extract_profile,
    from_profile,
    levenshtein,
    matching_ratio,
    morgan_fingerprint,
    parse,
    parse_rationale,
    render,
    score_reasoning,
    select,
    tanimoto,
    write,
)
from molstruct.catalog import functional_group_names, ring_compound_names  # noqa: E402
from molstruct.graph import perceive_rings  # noqa: E402
from molstruct.metrics import ComparisonRecord, bleu_stats  # noqa: E402
from molstruct.profile import (  # noqa: E402
    aromatic_ring_count,
    chiral_centers,
    longest_carbon_chain,
    molecular_formula,
    molecular_weight,
)
from molstruct.selection import CandidateScore, SelectionReport  # noqa: E402
from molstruct.smiles import ParseDiagnostic, tokenize  # noqa: E402

_now = time.perf_counter_ns

# The calibration loop's duration at the reference speed.  Times are
# scaled by nominal / measured, so a slow stretch of the machine (which
# slows this loop as much as the package) does not show in the metrics.
CALIBRATION_NOMINAL_NS = 4_000_000


class _Node:
    __slots__ = ("index", "label", "neighbours")

    def __init__(self, index: int, label: str) -> None:
        self.index = index
        self.label = label
        self.neighbours: tuple = ()


def calibrate() -> int:
    """Nanoseconds for a fixed pure-Python loop: the machine-speed probe.

    It does what the package does most (small objects with slots,
    attribute access, breadth-first search over a graph, dicts, sorted
    tuples, string joins, frozensets), so a busy machine slows it about
    as much as the package; an int/dict/str-only loop swung twice as
    much.  It never touches the package, so a change to the package
    cannot move it.
    """
    start = _now()
    nodes = [_Node(i, "CNOS"[i * 7 % 4]) for i in range(120)]
    for node in nodes:
        i = node.index
        node.neighbours = tuple(nodes[j % 120] for j in (i + 1, i + 7, i * 3 + 1))
    out = []
    for root in nodes[:50]:
        dist = {root.index: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in node.neighbours:
                    if nb.index not in dist:
                        dist[nb.index] = dist[node.index] + 1
                        nxt.append(nb)
            frontier = nxt
        ranked = sorted((nodes[k].label, d, k) for k, d in dist.items())
        out.append("".join(f"{label}{d}" for label, d, _ in ranked[:40]))
        out.append(str(len(frozenset(k for k, d in dist.items() if d % 2))))
    return _now() - start


class BadInput(Exception):
    """A record input the workload promised to be parseable was not."""


class ProbeMismatch(Exception):
    """A composite call disagreed with its public parts."""


def _molecule(smiles: str) -> Molecule:
    mol = parse(smiles)
    if isinstance(mol, ParseDiagnostic):
        raise BadInput(f"{mol.kind.value}: {mol.message}")
    return mol


def _comparison(rec: ComparisonRecord) -> tuple:
    return (rec.valid, rec.exact, rec.levenshtein, rec.morgan_similarity, rec.bleu)


def _selection(report: SelectionReport) -> tuple:
    chosen = report.per_candidate[report.selected_index]
    return (report.selected_index, tuple(c.parse_ok for c in report.per_candidate),
            chosen.matching_ratio)


# ---------------------------------------------------------------------------
# Untraced pipelines


def run_describe(smiles: str) -> str:
    return render(from_profile(extract_profile(_molecule(smiles))))


def run_select(text: str, candidates: tuple[str, ...]) -> tuple:
    return _selection(select(parse_rationale(text), candidates))


def run_grade(gold: str, text: str, predicted: str) -> tuple:
    scores = score_reasoning(_molecule(gold), parse_rationale(text))
    return ({k.value: v for k, v in scores.items()}, _comparison(compare_pair(gold, predicted)))


def run_large(smiles: str) -> tuple:
    mol = _molecule(smiles)
    canonical = canonicalize(mol)
    profile = extract_profile(mol)
    return canonical, profile, render(from_profile(profile))


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """In-memory spans (name, start, end, parent, probe) and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._probe_depth = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self._probe_depth > 0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        index = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(index)

    @contextmanager
    def probes(self):
        """Mark everything inside, checks included, as probe work."""
        self._probe_depth += 1
        index = self.begin("probes")
        try:
            yield
        finally:
            self.end(index)
            self._probe_depth -= 1


def _t_parse(t: Tracer, smiles: str) -> Molecule | ParseDiagnostic:
    mol = t.call("smiles.parse", parse, smiles)
    t.counts["smiles.parse.calls"] += 1
    if isinstance(mol, ParseDiagnostic):
        t.counts["smiles.parse.diagnostics"] += 1
    else:
        t.counts["graph.atoms"] += len(mol.atoms)
        t.counts["graph.rings"] += len(mol.rings)
    return mol


def _t_molecule(t: Tracer, smiles: str) -> Molecule:
    mol = _t_parse(t, smiles)
    if isinstance(mol, ParseDiagnostic):
        raise BadInput(f"{mol.kind.value}: {mol.message}")
    return mol


def _t_profile(t: Tracer, mol: Molecule) -> StructuralProfile:
    """extract_profile split into its component calls."""
    stage = t.begin("profile.extract_profile[parts]")
    rings = t.call("catalog.ring_compound_names", ring_compound_names, mol)
    groups = t.call("catalog.functional_group_names", functional_group_names, mol)
    t.counts["catalog.functional_group_names.calls"] += 1
    t.counts["catalog.groups"] += sum(groups.values())
    profile = StructuralProfile(
        formula=t.call("profile.molecular_formula", molecular_formula, mol),
        longest_chain=t.call("profile.longest_carbon_chain", longest_carbon_chain, mol),
        aromatic_ring_count=t.call("profile.aromatic_ring_count", aromatic_ring_count, mol),
        ring_compounds=tuple(sorted(rings.elements())),
        functional_groups=tuple(sorted(groups.elements())),
        chiral_centers=tuple(t.call("profile.chiral_centers", chiral_centers, mol)),
        molecular_weight=t.call("profile.molecular_weight", molecular_weight, mol),
    )
    t.counts["profile.chiral_centers.calls"] += 1
    t.counts["profile.stereo_tagged"] += any(a.chirality is not Chirality.NONE for a in mol.atoms)
    t.end(stage)
    return profile


def _expect(same: bool, what: str) -> None:
    if not same:
        raise ProbeMismatch(what)


def _probe_molecule(t: Tracer, smiles: str, mol: Molecule, profile: StructuralProfile | None) -> None:
    """Re-run inner layers on a parsed molecule and check them (inside probes())."""
    tokens = t.call("smiles.tokenize", tokenize, smiles)
    _expect("".join(tok.text for tok in tokens) == smiles, "tokenize round trip")
    first = mol.rings
    again = t.call("graph.perceive_rings", perceive_rings, mol)
    mol.rings = first  # the re-run drops aromatic flags; keep the first result
    _expect([r.atoms for r in again] == [r.atoms for r in first], "perceive_rings re-run")
    order = t.call("smiles.canonical_order", canonical_order, mol)
    _expect(sorted(order) == list(range(len(mol.atoms))), "canonical_order is a permutation")
    written = t.call("smiles.write", write, mol)
    reparsed = parse(written)
    _expect(isinstance(reparsed, Molecule) and len(reparsed.atoms) == len(mol.atoms), "write")
    if profile is not None:
        _expect(t.call("profile.extract_profile", extract_profile, mol) == profile,
                "extract_profile vs its parts")


def traced_describe(t: Tracer, smiles: str) -> str:
    mol = _t_molecule(t, smiles)
    profile = _t_profile(t, mol)
    rationale = t.call("rationale.from_profile", from_profile, profile)
    text = t.call("rationale.render", render, rationale)
    with t.probes():
        _probe_molecule(t, smiles, mol, profile)
    return text


def traced_select(t: Tracer, text: str, candidates: tuple[str, ...]) -> tuple:
    rationale = t.call("rationale.parse_rationale", parse_rationale, text)
    stage = t.begin("selection.select[parts]")
    scored = []
    probes = []
    for smiles in candidates:
        mol = _t_parse(t, smiles)
        if isinstance(mol, Molecule):
            profile = _t_profile(t, mol)
            ratio, per = t.call("selection.matching_ratio", matching_ratio, rationale, profile)
            scored.append(CandidateScore(smiles, True, ratio, per))
            probes.append((smiles, mol, profile))
        else:
            scored.append(CandidateScore(smiles, False, None, {}))
    ok = [i for i, c in enumerate(scored) if c.parse_ok]
    best = max(ok, key=lambda i: (scored[i].matching_ratio, -i)) if ok else 0
    report = SelectionReport(tuple(scored), best, candidates[best], not ok)
    t.end(stage)
    t.counts["selection.records"] += 1
    t.counts["selection.candidates"] += len(candidates)
    t.counts["selection.distinct"] += len(set(candidates))
    t.counts["selection.parse_failed"] += len(candidates) - len(ok)
    with t.probes():
        _expect(t.call("selection.select", select, rationale, candidates) == report,
                "select vs its parts")
        for smiles, mol, profile in probes:
            _probe_molecule(t, smiles, mol, profile)
    return _selection(report)


def traced_grade(t: Tracer, gold: str, text: str, predicted: str) -> tuple:
    mol = _t_molecule(t, gold)
    profile = _t_profile(t, mol)
    rationale = t.call("rationale.parse_rationale", parse_rationale, text)
    # Scoring on the profile only; the composite call is timed as a probe.
    scores = t.call("metrics.score_reasoning[profile]", score_reasoning, profile, rationale)

    stage = t.begin("metrics.compare_pair[parts]")
    gold_mol, pred_mol = _t_parse(t, gold), _t_parse(t, predicted)
    both = isinstance(gold_mol, Molecule) and isinstance(pred_mol, Molecule)
    exact, similarity = False, 0.0
    if both:
        exact = (t.call("smiles.canonicalize", canonicalize, gold_mol)
                 == t.call("smiles.canonicalize", canonicalize, pred_mol))
        similarity = t.call("metrics.tanimoto", tanimoto,
                            t.call("metrics.morgan_fingerprint", morgan_fingerprint, gold_mol),
                            t.call("metrics.morgan_fingerprint", morgan_fingerprint, pred_mol))
    comparison = ComparisonRecord(
        valid=isinstance(pred_mol, Molecule),
        exact=exact,
        levenshtein=t.call("metrics.levenshtein", levenshtein, gold, predicted),
        morgan_similarity=similarity,
        bleu=t.call("metrics.bleu_stats", bleu_stats, gold, predicted),
    )
    t.end(stage)

    with t.probes():
        _expect(t.call("metrics.score_reasoning", score_reasoning, mol, rationale) == scores,
                "score_reasoning on a molecule vs on its profile")
        _expect(t.call("metrics.compare_pair", compare_pair, gold, predicted) == comparison,
                "compare_pair vs its parts")
        _probe_molecule(t, gold, mol, profile)
    return {k.value: v for k, v in scores.items()}, _comparison(comparison)


def traced_large(t: Tracer, smiles: str) -> tuple:
    mol = _t_molecule(t, smiles)
    canonical = t.call("smiles.canonicalize", canonicalize, mol)
    profile = _t_profile(t, mol)
    text = t.call("rationale.render", render, t.call("rationale.from_profile", from_profile, profile))
    with t.probes():
        _probe_molecule(t, smiles, mol, profile)
    return canonical, profile, text


PIPELINES = {
    "describe": (run_describe, traced_describe),
    "select": (run_select, traced_select),
    "grade": (run_grade, traced_grade),
    "large": (run_large, traced_large),
}


# ---------------------------------------------------------------------------
# Worker loop


def serve(conn, workload: str, traced: bool) -> None:
    """Answer (payload) messages with (status, value, ns, spans, counts).

    status is "ok", "error" (a MolstructError or an unparseable required
    input), "crash" (any other exception) or "mismatch" (a probe
    disagreed).  "calibrate" is answered with calibrate()'s nanoseconds;
    None ends the loop.
    """
    plain, with_trace = PIPELINES[workload]
    while True:
        payload = conn.recv()
        if payload is None:
            break
        if payload == "calibrate":
            conn.send(calibrate())
            continue
        tracer = Tracer() if traced else None
        status, value = "ok", None
        start = _now()
        try:
            if tracer is None:
                value = plain(*payload)
            else:
                root = tracer.begin("record")
                try:
                    value = with_trace(tracer, *payload)
                finally:
                    tracer.end(root)
        except MolstructError as exc:
            status, value = "error", type(exc).__name__
        except BadInput as exc:
            status, value = "error", f"BadInput: {exc}"
        except ProbeMismatch as exc:
            status, value = "mismatch", str(exc)
        except Exception:  # one record's crash must not end the run
            status, value = "crash", traceback.format_exc(limit=3)
        elapsed = _now() - start
        conn.send((status, value, elapsed,
                   tracer.spans if tracer else None, tracer.counts if tracer else None))


if __name__ == "__main__":
    # python3 worker.py <socket fd> <workload> <traced 0|1>, started by run.Worker
    from multiprocessing.connection import Connection

    serve(Connection(int(sys.argv[1])), sys.argv[2], sys.argv[3] == "1")
