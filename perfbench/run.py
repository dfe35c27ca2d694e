"""molstruct benchmark runner.

    python3 perfbench/run.py --workload describe --seed 1 --seconds 25 --trace 0

Generates one workload from the seed and, for ``--seconds``, repeats
rounds of: in-process records sent one at a time (closed loop) to a
worker process, one run of the workload's CLI subcommands over the
records of its first cycles at ``--jobs 1`` (and ``--jobs 2`` when
tracing), and fresh interpreters timing ``import molstruct`` plus the
default catalog load.
Every output is checked against the record's known answer.  With
``--trace 1`` traced cycles alternate with untraced ones and the
per-layer metrics replace the end-to-end ones.

Times are reported at a reference machine speed: a fixed pure-Python
loop (``worker.calibrate``) runs throughout the run, and every time is
scaled by how much slower or faster than its nominal 4 ms that loop
ran: on average over the run for in-process times, right around each
CLI repetition or set-up batch for those.  The raw times are printed
too (``raw.`` lines).

Prints one line per metric (name, value, unit), then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when any
output was wrong.  Details, including the metadata of the run and the
spans of a traced run, go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, Corpus, Record, Workload, cli_lines

import worker
from checks import Checker, same_rows

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
CASE_BUDGET_S = 10.0  # wall budget of one record; beyond it the record is a timeout
RUN_LIMIT_S = 150.0  # hard wall limit of the measuring part of one run
CALIBRATE_EVERY_S = 0.1
SETUP_PER_ROUND = 6
CALIBRATE_AROUND = 6  # calibration samples before and after each CLI or set-up stretch
MIN_ROUNDS = 3
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import molstruct\n"
    "molstruct.Catalog.default()\n"
    "print(time.perf_counter() - t0)\n"
)
PER_CALL = {
    "smiles": ("tokenize", "parse", "canonicalize", "canonical_order", "write"),
    "graph": ("perceive_rings",),
    "profile": ("extract_profile", "molecular_formula", "longest_carbon_chain",
                "chiral_centers", "molecular_weight"),
    "catalog": ("functional_group_names", "ring_compound_names"),
    "rationale": ("from_profile", "render", "parse_rationale"),
    "selection": ("select", "matching_ratio"),
    "metrics": ("score_reasoning", "compare_pair", "morgan_fingerprint", "levenshtein"),
}
SELF_TIME_MODULES = ("smiles", "profile", "catalog", "rationale", "selection", "metrics")


def speed_scale(samples_ns: list[int]) -> float:
    """Factor that takes a time measured next to these calibration samples
    to the reference speed (calibration loop at its nominal duration)."""
    return worker.CALIBRATION_NOMINAL_NS / statistics.fmean(samples_ns)


def calibrate_here() -> list[int]:
    return [worker.calibrate() for _ in range(CALIBRATE_AROUND)]


# ---------------------------------------------------------------------------
# In-process closed loop


class Worker:
    """One worker process; a record over budget kills and replaces it.

    A plain subprocess talking over a socket pair: multiprocessing's
    spawn context would also start a resource tracker that outlives the run.
    """

    def __init__(self, workload: str, traced: bool) -> None:
        self._args = [workload, "1" if traced else "0"]
        self._start()

    def _start(self) -> None:
        ours, theirs = socket.socketpair()
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(theirs.fileno()), *self._args],
                pass_fds=(theirs.fileno(),), cwd=ROOT,
            )
        self.conn = Connection(ours.detach())

    def _stop(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.conn.close()

    def ask(self, message: object) -> tuple | int | None:
        """The worker's reply, or None when it overran the budget or died."""
        try:
            self.conn.send(message)
            if self.conn.poll(CASE_BUDGET_S):
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        self._stop()
        self._start()
        return None

    def close(self) -> None:
        try:
            self.conn.send(None)
            self.proc.wait(10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self._stop()


@dataclass
class Outcome:
    record: Record
    status: str  # ok | error | crash | mismatch | timeout
    value: object
    ns: int
    spans: list | None = None
    counts: Counter | None = None


def run_cycle(pool: Worker, records: list[Record], deadline: float) -> tuple[list[Outcome], list[int]]:
    """Send records one at a time (closed loop) until done or past the deadline.

    The worker also runs the calibration loop at the start, every 0.1 s
    and at the end.  Returns the outcomes and the calibration samples.
    """
    outcomes: list[Outcome] = []
    calibration = [pool.ask("calibrate")]
    last = time.monotonic()
    for record in records:
        if time.monotonic() > deadline:
            break
        reply = pool.ask(record.payload)
        if reply is None:
            outcomes.append(Outcome(record, "timeout", None, int(CASE_BUDGET_S * 1e9)))
        else:
            outcomes.append(Outcome(record, *reply))
        if time.monotonic() - last >= CALIBRATE_EVERY_S:
            calibration.append(pool.ask("calibrate"))
            last = time.monotonic()
    calibration.append(pool.ask("calibrate"))
    return outcomes, [ns for ns in calibration if isinstance(ns, int)]


# ---------------------------------------------------------------------------
# CLI and set-up


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@dataclass
class CliRun:
    wall_s: float
    first_output_s: float
    peak_rss_mb: float
    stdout: str
    returncode: int | None  # None: killed at the run's time limit


def _peak_rss_kb(pid: int) -> int:
    """VmHWM of a live process, 0 once it is gone.

    ``wait4``'s ru_maxrss is no use here: it keeps the high-water mark
    across exec, so it would report this process's own size at the fork.
    """
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    """Wait (bounded) until no process of a killed process group is left."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_cli(args: list[str], input_path: Path, timeout: float) -> CliRun:
    """Run the CLI once; time to first stdout byte, wall time and peak RSS
    (polled every 10 ms and after every output chunk)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "molstruct.cli", *args, "--input", str(input_path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=_env(), cwd=ROOT,
        start_new_session=True,  # its --jobs workers share its process group
    )
    chunks: list[bytes] = []
    first = None
    peak_kb = 0
    fd = proc.stdout.fileno()
    deadline = started + timeout
    timed_out = False
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.01))
            peak_kb = max(peak_kb, _peak_rss_kb(proc.pid))
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if first is None:
                first = time.perf_counter() - started
            chunks.append(chunk)
    finally:
        # Past the time limit, or on the way out of an interrupted run,
        # the CLI and its --jobs workers are killed and waited for.
        if timed_out or sys.exc_info()[0] is not None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        wall = time.perf_counter() - started
        if timed_out or sys.exc_info()[0] is not None:
            _wait_group_gone(proc.pid)
    proc.stdout.close()
    return CliRun(
        wall_s=wall,
        first_output_s=first if first is not None else wall,
        peak_rss_mb=peak_kb / 1024.0,
        stdout=b"".join(chunks).decode(),
        returncode=None if timed_out else proc.returncode,
    )


def setup_time(timeout: float) -> float:
    """A fresh interpreter: import molstruct plus the default catalog load,
    timed inside the child."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
        env=_env(), cwd=ROOT, timeout=timeout, check=True,
    )
    return float(done.stdout.strip())


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def by_cycle(workload: Workload, outcomes: list[Outcome], values: list[float]) -> list[list[float]]:
    """Values grouped by cycle, whole cycles only (all cycles if none is whole).

    Every whole cycle holds the same mix of records, so statistics over
    whole cycles do not depend on how many cycles a run completed.
    """
    per_cycle: dict[int, list[float]] = defaultdict(list)
    for outcome, value in zip(outcomes, values):
        per_cycle[outcome.record.rid // workload.cycle_len].append(value)
    whole = [v for v in per_cycle.values() if len(v) == workload.cycle_len]
    return whole or list(per_cycle.values())


def cycle_rate(workload: Workload, outcomes: list[Outcome], ns: list[float]) -> float:
    """Records per second of in-process time, over whole cycles."""
    cycles = by_cycle(workload, outcomes, ns)
    total = sum(sum(v) for v in cycles)
    return sum(len(v) for v in cycles) / (total / 1e9) if total else 0.0


def cycle_percentile(workload: Workload, outcomes: list[Outcome], values: list[float],
                     p: float) -> tuple[float, int]:
    """p-th percentile over whole cycles, and the number of samples above it.

    Pooling whole cycles weighs every record of the mix alike, so the
    percentile falls among the copies of the same records whatever
    number of cycles a run completed.
    """
    pooled = [x for v in by_cycle(workload, outcomes, values) for x in v]
    q = percentile(pooled, p)
    return q, sum(x > q for x in pooled)


def layer_metrics(traced: list[Outcome], scale: float = 1.0
                  ) -> tuple[dict[str, tuple[float, str]], list[float]]:
    """Per-layer metrics from spans and counters; also each record's probe-free ns.

    Durations are multiplied by ``scale``, the run's speed scale.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    self_ns: Counter = Counter()
    counts: Counter = Counter()
    main_ns: list[float] = []
    for outcome in traced:
        if outcome.counts:
            counts.update(outcome.counts)
        spans = outcome.spans or []
        main_ns.append(outcome.ns * scale)
        child_ns = [0] * len(spans)
        for name, start, end, parent, probe in spans:
            if end:
                durations[name].append((end - start) * scale)
                if parent >= 0:
                    child_ns[parent] += end - start
        for i, (name, start, end, parent, probe) in enumerate(spans):
            if not end:
                continue
            if name == "record":
                probes = sum(s[2] - s[1] for s in spans if s[0] == "probes" and s[3] == i and s[2])
                main_ns[-1] = (end - start - probes) * scale
            elif not probe:
                self_ns[name.split(".")[0]] += (end - start - child_ns[i]) * scale
    n = max(len(traced), 1)

    def per_call(name: str) -> float:
        values = durations.get(name)
        return statistics.fmean(values) / 1e3 if values else 0.0

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    out: dict[str, tuple[float, str]] = {}
    for module, functions in PER_CALL.items():
        for fn in functions:
            out[f"{module}.{fn}.us_per_call"] = (per_call(f"{module}.{fn}"), "us")
    for module in SELF_TIME_MODULES:
        out[f"{module}.self_us_per_record"] = (self_ns[module] / 1e3 / n, "us")
    parsed = counts["smiles.parse.calls"] - counts["smiles.parse.diagnostics"]
    out.update({
        "smiles.parse.diagnostic_ratio": (ratio("smiles.parse.diagnostics", "smiles.parse.calls"), "1"),
        "graph.atoms_per_mol": (counts["graph.atoms"] / parsed if parsed else 0.0, "atoms/mol"),
        "graph.rings_per_mol": (counts["graph.rings"] / parsed if parsed else 0.0, "rings/mol"),
        "profile.stereo_useful_ratio": (ratio("profile.stereo_tagged", "profile.chiral_centers.calls"), "1"),
        "catalog.groups_per_mol": (ratio("catalog.groups", "catalog.functional_group_names.calls"), "groups/mol"),
        "selection.candidates_per_record": (ratio("selection.candidates", "selection.records"), "cand/record"),
        "selection.distinct_candidate_ratio": (ratio("selection.distinct", "selection.candidates"), "1"),
        "selection.candidate_parse_fail_ratio": (ratio("selection.parse_failed", "selection.candidates"), "1"),
    })
    return out, main_ns


# ---------------------------------------------------------------------------
# Runner


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Run:
    """One benchmark run: rounds of measurements, checks and the result line."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.checker = Checker(workload)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: Counter = Counter()  # in-process failures by status and error
        self.spans: list[Outcome] = []
        self.byte_identical = True
        self.limit = 0.0
        self.meta = {
            "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit(), "source_sha256": source_digest(),
            "case_budget_s": CASE_BUDGET_S,
        }

    def remaining(self) -> float:
        return max(self.limit - time.monotonic(), 1.0)

    def tally(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.status == "ok":
                problem = self.checker.check(o.record, o.value)
            elif o.status == "mismatch":
                problem = f"probe mismatch: {o.value}"
            else:
                self.failed += 1
                self.failures[f"{o.status}: {str(o.value)[:200]}"] += 1
                continue
            if problem:
                self.failed += 1
                self.wrong.append(f"record {o.record.rid} ({o.record.key}): {problem}")

    def cli_rep(self, records: list[Record], inproc: dict[int, tuple]) -> dict[int, list[CliRun]]:
        """Every CLI subcommand over the records at --jobs 1 (and 2 when
        tracing, for ``cli.jobs2_speedup``), checked.

        The --jobs 1 outputs are checked against the known answers; a
        --jobs 2 output must carry the same rows as its --jobs 1 run.
        """
        runs: dict[int, list[CliRun]] = {1: [], 2: []}
        failed_at_jobs1: dict[str, int] = {}
        for jobs in (1, 2) if self.trace else (1,):
            for subcommand in self.workload.cli:
                path = OUT / f"{self.workload.name}-{subcommand}.jsonl"
                if jobs == 1:
                    path.write_text("\n".join(cli_lines(subcommand, records)) + "\n")
                run = run_cli([subcommand, "--jobs", str(jobs)], path, self.remaining())
                runs[jobs].append(run)
                self.attempted += len(records)
                if run.returncode is None:  # killed at the run's time limit
                    self.failed += len(records)
                elif run.returncode > 1:
                    self.failed += len(records)
                    self.wrong.append(f"{subcommand} --jobs {jobs} exited {run.returncode}")
                elif jobs == 1:
                    failed, wrong = self.checker.check_cli(subcommand, records, run.stdout, inproc)
                    failed_at_jobs1[subcommand] = failed
                    self.failed += failed
                    self.wrong.extend(wrong)
                else:
                    first = runs[1][len(runs[2]) - 1].stdout
                    if same_rows(run.stdout, first):
                        self.failed += failed_at_jobs1.get(subcommand, len(records))
                        self.byte_identical &= run.stdout == first
                    else:
                        self.failed += len(records)
                        self.wrong.append(f"{subcommand}: --jobs 2 output differs from --jobs 1")
        return runs

    def execute(self) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
        """Rounds of in-process cycles, one CLI repetition and set-up samples.

        Interleaving spreads every kind of sample over the whole run, and
        each metric is a median over its samples.  Returns the metrics at
        the reference speed and the raw end-to-end metrics.
        """
        w = self.workload
        OUT.mkdir(exist_ok=True)
        modes = (False, True) if self.trace else (False,)
        pools = [Worker(w.name, traced) for traced in modes]
        outcomes: list[list[Outcome]] = [[] for _ in modes]
        reps: list[dict[int, list[CliRun]]] = []
        setups: list[float] = []
        # Speed scales local to each CLI repetition and each set-up batch:
        # these are seconds-long stretches, short enough for a busy
        # neighbour to slow one and not the run's average.
        rep_scales: list[float] = []
        setup_scales: list[float] = []
        samples: list[int] = []  # calibration, spread over the whole run
        try:
            start = time.monotonic()
            self.limit = start + RUN_LIMIT_S
            for pool in pools:  # warm-up: lazy loads, not timed
                run_cycle(pool, w.cycle(0)[:3], self.limit)
            cycle = 0
            while len(reps) < MIN_ROUNDS or time.monotonic() - start < self.seconds:
                for _ in range(w.cycles_per_round):
                    for pool, out in zip(pools, outcomes):
                        cycle_outcomes, cycle_samples = run_cycle(pool, w.cycle(cycle), self.limit)
                        out.extend(cycle_outcomes)
                        samples.extend(cycle_samples)
                        cycle += 1
                inproc = {o.record.rid: (o.status, o.value) for out in outcomes for o in out}
                # Each repetition takes the next cycles, so the CLI metrics
                # average over as many spellings as the in-process ones.
                first = len(reps) * w.cli_cycles
                records = [r for c in range(first, first + w.cli_cycles) for r in w.cycle(c)]
                before_cli = calibrate_here()
                reps.append(self.cli_rep(records, inproc))
                after_cli = calibrate_here()
                setups.extend(setup_time(self.remaining()) for _ in range(SETUP_PER_ROUND))
                after_setup = calibrate_here()
                rep_scales.append(speed_scale(before_cli + after_cli))
                setup_scales.extend([speed_scale(after_cli + after_setup)] * SETUP_PER_ROUND)
                samples.extend(before_cli + after_cli + after_setup)
                if time.monotonic() - start > 1.5 * self.seconds:
                    break  # a slow program still ends in time
        finally:
            for pool in pools:
                pool.close()
        plain, traced = outcomes[0], outcomes[1] if self.trace else []
        self.tally(plain)
        self.tally(traced)
        self.spans = traced
        done = [o for o in plain if o.status != "timeout"] or plain
        # One scale per run: the cross-run drift it cancels is the run's
        # mean machine speed, and hundreds of samples make it precise.
        scale = speed_scale(samples)
        self.meta.update({
            "records_in_process": len(plain), "records_traced": len(traced),
            "records_cli": len(records), "rounds": len(reps),
            "tail_percentile": w.tail_percentile,
            "setup_samples": len(setups), "cli_outputs_bytes_identical": self.byte_identical,
            "speed_scale": scale, "calibration_samples": len(samples),
            # per CLI repetition: --jobs 1 wall seconds and its local factor
            "cli_repetitions": [[sum(r.wall_s for r in rep[1]), k] for rep, k in zip(reps, rep_scales)],
        })
        raw = self.end_to_end(done, reps, setups, records, 1.0, [1.0] * len(reps), [1.0] * len(setups))
        scaled = self.end_to_end(done, reps, setups, records, scale, rep_scales, setup_scales)
        if not self.trace:
            return scaled, raw
        metrics, main_ns = layer_metrics(traced, scale)
        cli1 = len(records) / scaled["cli_records_per_s"][0]
        cli2 = statistics.median(sum(r.wall_s for r in rep[2]) * k for rep, k in zip(reps, rep_scales))
        # The CLI records are whole cycles, so the in-process time for
        # them is their count over the in-process rate.
        overhead = cli1 - scaled["setup_s"][0] * len(w.cli) - len(records) / scaled["records_per_s"][0]
        traced_rate = cycle_rate(w, traced, main_ns) if traced else 0.0
        metrics.update({
            "cli.overhead_ms_per_record": (1e3 * overhead / len(records), "ms"),
            "cli.jobs2_speedup": (cli1 / cli2, "1"),
            "trace.overhead_ratio": (traced_rate / scaled["records_per_s"][0], "1"),
        })
        return metrics, raw

    def end_to_end(self, done: list[Outcome], reps: list[dict[int, list[CliRun]]],
                   setups: list[float], records: list[Record], scale: float,
                   rep_scales: list[float], setup_scales: list[float]) -> dict[str, tuple[float, str]]:
        """End-to-end metrics: in-process times multiplied by ``scale``,
        each CLI repetition and set-up sample by its own local scale."""
        w = self.workload
        latencies = [o.ns * scale / 1e6 for o in done]
        p50, _ = cycle_percentile(w, done, latencies, 50.0)
        tail, beyond = cycle_percentile(w, done, latencies, w.tail_percentile)
        self.meta["tail_samples_beyond"] = beyond
        cli1 = statistics.median(sum(r.wall_s for r in rep[1]) * k for rep, k in zip(reps, rep_scales))
        return {
            "records_per_s": (cycle_rate(w, done, [o.ns * scale for o in done]), "rec/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_tail_ms": (tail, "ms"),
            "cli_records_per_s": (len(records) / cli1, "rec/s"),
            "cli_first_output_s": (statistics.median(rep[1][0].first_output_s * k
                                                     for rep, k in zip(reps, rep_scales)), "s"),
            "cli_peak_rss_mb": (statistics.median(max(r.peak_rss_mb for r in rep[1]) for rep in reps), "MB"),
            "setup_s": (statistics.median(t * k for t, k in zip(setups, setup_scales)), "s"),
            "success_ratio": ((self.attempted - self.failed) / self.attempted, "1"),
        }

    def write_details(self, metrics: dict[str, tuple[float, str]],
                      raw: dict[str, tuple[float, str]]) -> None:
        stem = f"{self.workload.name}-seed{self.meta['seed']}-trace{int(self.trace)}"
        details = {"meta": self.meta, "metrics": metrics, "raw": raw, "wrong": self.wrong[:50],
                   "failures": dict(self.failures.most_common(20)),
                   "attempted": self.attempted, "failed": self.failed}
        (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
        if self.trace:
            with open(OUT / f"{stem}-spans.jsonl", "w") as out:
                for o in self.spans:
                    for name, start, end, parent, probe in o.spans or []:
                        out.write(json.dumps([o.record.rid, name, start, end, parent, probe]) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so every worker
    # and CLI process it started is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    corpus = Corpus()
    run = Run(WORKLOADS[args.workload](args.seed, corpus), args.seed, args.seconds, bool(args.trace))
    run.wrong.extend(corpus.problems)
    metrics, raw = run.execute()
    run.write_details(metrics, raw)

    for key in ("workload", "seed", "nproc", "python", "commit", "source_sha256",
                "records_in_process", "records_traced", "records_cli", "rounds",
                "tail_percentile", "tail_samples_beyond", "speed_scale"):
        print(f"# {key}: {run.meta[key]}")
    for problem in run.wrong[:20]:
        print(f"# WRONG {problem}")
    for name, (value, unit) in raw.items():
        print(f"raw.{name} {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = not run.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
