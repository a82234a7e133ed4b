"""mokka benchmark: seeded scenario sweeps timed end to end, plus a traced
run that splits the time by layer.

Usage:
    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload is a closed loop in one process and one thread: one seeded
``simnet.run`` after another, each followed by
``simnet.scripted_partition_leadership`` (what ``mokka run`` does). The
sample is a fixed list of run seeds derived from ``--seed`` (see
``workloads.seeds``); it never overlaps the seeds the test suite uses.

``--trace 0`` (timed run, tracing off):
  * the sample is swept once, every run's outputs are checked, and the
    traces are hashed into the workload's behaviour fingerprint; set-up
    is timed in fresh interpreters (``setup_probe.py``) spread over it;
  * the sample is swept again until ``--seconds`` have passed; every
    repeat must reproduce its first trace byte for byte;
  * the end-to-end metrics below are printed by name, with units.

``--trace 1`` (traced run): each of the workload's first ``traced`` seeds
runs with tracing off and then again with every public function of
curve, crypto, proofs, core, simnet and scenario wrapped (``tracer.py``).
It prints calls and self time per function and the layer counts, all
summed over the traced runs plus one set-up, and the tracer's overhead.

End-to-end metrics, one value per workload:
  setup_s              s          median CPU time, fresh interpreter to first
                                  run ready
  run_ms_p50           ms         median over seeds of one run's CPU time
  events_per_s         events/s   trace events per CPU second, whole sample
  first_leader_ms_p50  virtual_ms median virtual time to the first leader
  leader_availability  fraction   share of virtual time with exactly one
                                  honest leader, mean over runs
  elections_per_run    count      mean elections started per run
  clean_run_rate       fraction   share of runs with no invariant
                                  violation, failed check or exception
                                  (1 - violation rate; never 0)

Runs are timed on the process's CPU clock, not the wall clock. A run is
pure computation in one thread (every wait in the protocol is virtual),
so its CPU time is its wall time less the time the operating system gave
the processor to other processes; on a shared host that share comes and
goes over minutes and would otherwise dominate the spread between runs.

The last four are virtual-time or count metrics: they repeat exactly for
a seed set, so a pure speed-up leaves them alone. Which layer should move
which of these, on which workload, is noted above ``TRACED`` below and in
each workload's "why" in BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full report (environment, seeds, fingerprint).
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:
    import workloads
    from mokka import core, crypto, curve, proofs, scenario, simnet
except ImportError as exc:  # run outside a mokka checkout
    workloads = None
    IMPORT_ERROR: Optional[ImportError] = exc
else:
    IMPORT_ERROR = None

from tracer import Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7

END_TO_END = [
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("events_per_s", "events/s"),
    ("first_leader_ms_p50", "virtual_ms"),
    ("leader_availability", "fraction"),
    ("elections_per_run", "count"),
    ("clean_run_rate", "fraction"),
]

# Traced functions, as module.attribute or module.Class.method. core.step
# is reported per event kind as core.step.<Kind>. Which end-to-end metric
# each layer should move, and on which workload:
#   curve          run_ms_p50, events_per_s on partition-n5, fake-leader-n3
#                  (lift_x only on lossy-n9-sss); the fixed-base table
#                  built at import moves setup_s everywhere
#   crypto Schnorr run_ms_p50 on partition-n5 (partials) and fake-leader-n3
#                  (schnorr_verify); idle on lossy-n9-sss
#   crypto setup   keygen, build_keyring: setup_s and run_ms_p50 on
#                  lossy-n9-sss (simnet rebuilds the keyring every run)
#   crypto Shamir  run_ms_p50 on lossy-n9-sss only
#   proofs grant   make_vote_payloads, grant_vote, build_proof: run_ms_p50
#                  on partition-n5
#   proofs verify  ProofValidator.validate, validate_proof: run_ms_p50 on
#                  fake-leader-n3 (all misses); lossy-n9-sss nearly all hits
#   proofs codec   encode_proof, proof_hash: events_per_s on lossy-n9-sss
#   core           events_per_s on lossy-n9-sss; elections_per_run and
#                  first_leader_ms_p50 everywhere
#   simnet         run (self), check_invariants: events_per_s on
#                  lossy-n9-sss; check_invariants also on partition-n5
#   scenario       parse_scenario: setup_s
TRACED = [
    "curve.scalar_mult", "curve.scalar_mult_base", "curve.point_add",
    "curve.lift_x",
    "crypto.hash_to_scalar", "crypto.schnorr_partial_sign",
    "crypto.schnorr_partial_verify", "crypto.schnorr_aggregate",
    "crypto.schnorr_verify",
    "crypto.keygen", "crypto.build_keyring",
    "crypto.sss_split", "crypto.sss_restore", "crypto.sign_recoverable",
    "crypto.recover_pubkey",
    "proofs.make_vote_payloads", "proofs.grant_vote", "proofs.build_proof",
    "proofs.ProofValidator.validate", "proofs.validate_proof",
    "proofs.encode_proof", "proofs.proof_hash",
    "core.step",
    "simnet.run", "simnet.check_invariants",
    "simnet.scripted_partition_leadership",
    "scenario.parse_scenario",
]
STEP_KINDS = [
    "VoteRequest", "VoteResponse", "Heartbeat", "ElectionTimeout",
    "HeartbeatTick",
]
DIAG_CODES = [
    "malformed", "stale-term", "already-voted", "clock-skew",
    "late-response", "duplicate-grant", "bad-grant", "proof-mismatch",
    "proof-expired", "expired", "bad_signature", "bad_secret",
    "unknown_voter", "future_timestamp", "other",
]
SPAN_NAMES = [
    name for f in TRACED
    for name in (
        [f"core.step.{k}" for k in STEP_KINDS] if f == "core.step" else [f]
    )
]
COUNTS = (
    [
        ("crypto.build_keyring.combos", "count"),
        ("proofs.grant.partials_mean", "count"),
        ("proofs.validator.miss_ratio", "fraction"),
        ("proofs.validator.entries", "count"),
        ("proofs.proof_bytes", "bytes"),
        ("core.elections_started", "count"),
        ("core.elections_won", "count"),
    ]
    + [(f"core.diag.{code}", "count") for code in DIAG_CODES]
    + [
        ("simnet.trace_events", "count"),
        ("simnet.packets_sent", "count"),
        ("simnet.packets_dropped", "count"),
    ]
)
PER_LAYER = (
    [
        (f"{name}.{field}", unit)
        for name in SPAN_NAMES
        for field, unit in (("calls", "count"), ("self_ms", "ms"))
    ]
    + COUNTS
    + [("trace.overhead", "fraction")]
)


# --- environment -------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD's commit, read from .git without running git; "unknown" when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(workloads.ROOT),
    }


# --- one run and its checks --------------------------------------------------


def run_once(sc, seed: int):
    """One run and its CPU time in seconds."""
    start = time.process_time()
    trace, report = simnet.run(sc.with_seed(seed))
    simnet.scripted_partition_leadership(trace, report)
    return trace, report, time.process_time() - start


def check_run(trace, report, keyring, policy) -> List[str]:
    """Output checks; an empty list means the run is clean."""
    problems = list(report.violations)
    leaders = 0
    for ev in trace:
        if ev.kind != "role_change" or not ev.detail.startswith("leader "):
            continue
        leaders += 1
        blob = bytes.fromhex(ev.detail.rsplit("proof=", 1)[1])
        proof = proofs.decode_proof(blob)
        if proofs.encode_proof(proof) != blob:
            problems.append(f"proof does not round-trip at {ev.time_ms}")
        verdict = proofs.validate_proof(proof, keyring, policy, proof.timestamp_ms)
        if verdict is not proofs.ValidationResult.OK:
            problems.append(f"leader proof at {ev.time_ms}: {verdict.value}")
    if not leaders:
        problems.append("no leader elected")
    fake = {n for n, b in report.adversaries.items() if b == "fake_leader"}
    for node in report.honest_nodes:
        if report.final_known_leader.get(node) in fake:
            problems.append(f"node {node} follows fake leader")
    return problems


def summarise(trace, report) -> dict:
    """Virtual-time figures of one run."""
    honest = set(report.honest_nodes)
    leaders = set()
    first_leader = None
    single_ms = 0
    last = 0
    for ev in trace:
        if ev.kind != "role_change" or ev.node not in honest:
            continue
        if len(leaders) == 1:
            single_ms += ev.time_ms - last
        last = ev.time_ms
        if ev.detail.startswith("leader "):
            leaders.add(ev.node)
            if first_leader is None:
                first_leader = ev.time_ms
        else:
            leaders.discard(ev.node)
    if len(leaders) == 1:
        single_ms += report.duration_ms - last
    return {
        "events": len(trace),
        "elections": report.elections_started,
        "first_leader_ms": first_leader,
        "availability": single_ms / report.duration_ms,
    }


def setup_seconds(name: str) -> float:
    """Set-up time of one fresh interpreter (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# --- timed run ---------------------------------------------------------------


def timed(
    name: str,
    seed: int,
    seconds: float,
    sample: Optional[int] = None,
    duration_ms: Optional[int] = None,
    probes: int = SETUP_PROBES,
) -> dict:
    """Sweep the workload's sample once, checked and fingerprinted, then
    repeat it until ``seconds`` have passed. The set-up probes are spread
    over the first sweep, so that their median sees the machine in the
    same states as the runs do. ``sample``, ``duration_ms`` and ``probes``
    shrink the workload for the smoke test."""
    wl = workloads.WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    sc, keyring = workloads.setup(wl, duration_ms)
    policy = sc.node_config.proof_policy
    run_seeds = workloads.seeds(seed, sample or wl.sample)
    probe_before = {len(run_seeds) * i // probes for i in range(probes)}
    setups: List[float] = []

    times: Dict[int, List[float]] = {s: [] for s in run_seeds}
    first_digest: Dict[int, bytes] = {}
    per_seed: Dict[int, dict] = {}
    fingerprint = hashlib.sha256()
    attempted = failed = 0
    problems: List[str] = []
    first_pass = True
    while first_pass or time.perf_counter() < deadline:
        for i, s in enumerate(run_seeds):
            if first_pass and i in probe_before:
                setups.append(setup_seconds(name))
            if not first_pass and time.perf_counter() >= deadline:
                break
            attempted += 1
            try:
                trace, report, cpu = run_once(sc, s)
                times[s].append(cpu)
                lines = simnet.trace_lines(trace).encode()
                digest = hashlib.sha256(lines).digest()
                if first_pass:
                    fingerprint.update(lines)
                    first_digest[s] = digest
                    per_seed[s] = summarise(trace, report)
                    issues = check_run(trace, report, keyring, policy)
                elif digest != first_digest.get(s):
                    issues = ["trace differs from the first pass"]
                else:
                    issues = []
            except Exception as exc:  # a crashed run counts as failed
                issues = [f"{type(exc).__name__}: {exc}"]
            if issues:
                failed += 1
                problems.append(f"seed {s}: {'; '.join(issues)}")
        first_pass = False

    cpus = {s: statistics.median(t) for s, t in times.items() if t}
    runs = list(per_seed.values())
    leader_times = [r["first_leader_ms"] for r in runs if r["first_leader_ms"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_ms_p50": 1000 * statistics.median(cpus.values()),
        "events_per_s": (
            sum(per_seed[s]["events"] for s in per_seed)
            / sum(cpus[s] for s in per_seed)
        ),
        "first_leader_ms_p50": statistics.median(leader_times),
        "leader_availability": statistics.fmean(r["availability"] for r in runs),
        "elections_per_run": statistics.fmean(r["elections"] for r in runs),
        "clean_run_rate": (attempted - failed) / attempted,
    }
    return {
        "workload": name,
        "mode": "timed",
        "seeds": run_seeds,
        "runs": attempted,
        "failed": failed,
        "problems": problems[:20],
        "fingerprint": fingerprint.hexdigest(),
        "setup_samples_s": setups,
        "violation_rate": failed / attempted,
        "metrics": metrics,
    }


# --- traced run --------------------------------------------------------------


class LayerCounts:
    """Counts taken at the layer boundaries, fed by tracer hooks."""

    def __init__(self):
        self.totals: Counter = Counter()
        self.combos: List[int] = []
        self.partials: List[int] = []
        self.proof_bytes: List[int] = []
        self.lookups = 0
        self.cache_entries: List[int] = []
        self._validators: Dict[int, proofs.ProofValidator] = {}

    def install(self, tracer: Tracer) -> None:
        hooks = {
            "crypto.build_keyring": self.on_keyring,
            "proofs.grant_vote": self.on_grant,
            "proofs.encode_proof": self.on_encode,
            "proofs.ProofValidator.validate": self.on_validate,
            "core.step": self.on_step,
            "simnet.run": self.on_run,
        }
        for name in TRACED:
            owner, attr = resolve(name)
            tracer.wrap(
                owner, attr, name,
                label=step_label if name == "core.step" else None,
                hook=hooks.get(name),
            )

    def on_keyring(self, keyring, *args) -> None:
        self.combos.append(len(keyring.combos))

    def on_grant(self, grant, *args) -> None:
        self.partials.append(len(grant.partials))

    def on_encode(self, blob, *args) -> None:
        self.proof_bytes.append(len(blob))

    def on_validate(self, result, validator, *args) -> None:
        self._validators[id(validator)] = validator
        # Time checks answer before the cache is consulted.
        if result not in (
            proofs.ValidationResult.EXPIRED,
            proofs.ValidationResult.FUTURE_TIMESTAMP,
        ):
            self.lookups += 1

    def on_step(self, result, *args) -> None:
        for out in result[1]:
            if isinstance(out, core.Diagnostic):
                code = out.code if out.code in DIAG_CODES else "other"
                self.totals[f"core.diag.{code}"] += 1
            elif isinstance(out, core.RoleChanged):
                if out.role == "candidate":
                    self.totals["core.elections_started"] += 1
                elif out.role == "leader":
                    self.totals["core.elections_won"] += 1

    def on_run(self, result, *args) -> None:
        trace, _ = result
        self.totals["simnet.trace_events"] += len(trace)
        kinds = Counter(ev.kind for ev in trace)
        self.totals["simnet.packets_sent"] += kinds["send"]
        self.totals["simnet.packets_dropped"] += kinds["drop"]
        # Every cache miss stores exactly one entry, and validators are
        # created afresh for each run.
        self.cache_entries.append(
            sum(len(v._cache) for v in self._validators.values())
        )
        self._validators.clear()

    def metrics(self) -> Dict[str, float]:
        out = {name: float(self.totals[name]) for name, _ in COUNTS}
        misses = sum(self.cache_entries)
        out.update({
            "crypto.build_keyring.combos": _mean(self.combos),
            "proofs.grant.partials_mean": _mean(self.partials),
            "proofs.validator.miss_ratio": misses / self.lookups if self.lookups else 0.0,
            "proofs.validator.entries": _mean(self.cache_entries),
            "proofs.proof_bytes": _mean(self.proof_bytes),
        })
        return out


def resolve(name: str) -> Tuple[object, str]:
    """The object holding a TRACED name, and the attribute to replace."""
    module, *path, attr = name.split(".")
    owner = {
        "curve": curve, "crypto": crypto, "proofs": proofs, "core": core,
        "simnet": simnet, "scenario": scenario,
    }[module]
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def step_label(state, event, now_ms) -> str:
    if isinstance(event, core.PacketArrived):
        return "core.step." + type(event.packet.body).__name__
    return "core.step." + type(event).__name__


def traced(
    name: str, seed: int, runs: Optional[int] = None,
    duration_ms: Optional[int] = None,
) -> dict:
    """Set-up once under the tracer, then each of the first ``runs`` seeds
    of the sample twice in a row: tracing off, then on. Pairing the runs
    in time keeps drift in machine speed out of the overhead figure. Each
    traced run must reproduce its untraced trace exactly."""
    wl = workloads.WORKLOADS[name]
    run_seeds = workloads.seeds(seed, runs or wl.traced)
    sc, keyring = workloads.setup(wl, duration_ms)
    tracer = Tracer()
    counts = LayerCounts()
    with tracer:
        counts.install(tracer)
        workloads.setup(wl, duration_ms)

    plain_cpu = traced_cpu = 0.0
    fingerprint = hashlib.sha256()
    failed = 0
    problems: List[str] = []
    for s in run_seeds:
        plain_trace, _, cpu = run_once(sc, s)
        plain_cpu += cpu
        with tracer:
            counts.install(tracer)
            trace, report, cpu = run_once(sc, s)
        traced_cpu += cpu
        lines = simnet.trace_lines(trace).encode()
        fingerprint.update(lines)
        issues = check_run(trace, report, keyring, sc.node_config.proof_policy)
        if lines != simnet.trace_lines(plain_trace).encode():
            issues.append("traced and untraced traces differ")
        if issues:
            failed += 1
            problems.append(f"seed {s}: {'; '.join(issues)}")

    metrics: Dict[str, float] = {}
    for span in SPAN_NAMES:
        stats = tracer.spans.get(span)
        metrics[f"{span}.calls"] = float(stats.calls if stats else 0)
        metrics[f"{span}.self_ms"] = 1000 * stats.self_s if stats else 0.0
    metrics.update(counts.metrics())
    metrics["trace.overhead"] = traced_cpu / plain_cpu - 1
    return {
        "workload": name,
        "mode": "traced",
        "seeds": run_seeds,
        "runs": 2 * len(run_seeds),
        "failed": failed,
        "problems": problems[:20],
        "fingerprint": fingerprint.hexdigest(),
        "untraced_s": plain_cpu,
        "traced_s": traced_cpu,
        "metrics": metrics,
    }


# --- command line ------------------------------------------------------------


def render(result: dict, units: Dict[str, str]) -> List[str]:
    seeds = result["seeds"]
    lines = [
        f"workload {result['workload']} ({result['mode']}): seeds"
        f" {seeds[0]}..{seeds[-1]} ({len(seeds)}), runs {result['runs']},"
        f" failed {result['failed']}",
    ]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    lines.append(f"  fingerprint sha256:{result['fingerprint']}")
    lines.extend(f"  FAILED {p}" for p in result["problems"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = list(workloads.WORKLOADS) if workloads else []
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the run-seed sample (>= 0)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    if IMPORT_ERROR is not None:
        print(f"error: cannot import mokka: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    chosen = names if args.workload == "all" else [args.workload]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    results = []
    for name in chosen:
        if args.trace:
            result = traced(name, args.seed)
        else:
            result = timed(name, args.seed, args.seconds)
        results.append(result)
        print("\n".join(render(result, units)), flush=True)

    attempted = sum(r["runs"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"environment": environment(), "results": results}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
