"""Acceptance criteria.

Each test covers one numbered criterion and prints a single
``[criterion NN] PASS|FAIL`` line (straight to the terminal, bypassing
capture) so a full run yields a ten-line scorecard.
"""

import random
import sys
import time
from dataclasses import replace
from itertools import combinations

import pytest

from mokka import crypto, curve, proofs, simnet, wire
from mokka.proofs import ProofPolicy, ValidationResult
from mokka.scenario import load_scenario
from mokka.simnet import trace_lines

from conftest import GOLDEN_DIR, make_cluster, scenario_path

POLICY = ProofPolicy(ttl_ms=15000, max_clock_skew_ms=500)

# One line per criterion; conftest replays these after the test summary so
# they survive pytest's output capture.
SCORECARD: list = []


def scorecard(num: int, name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    line = f"[criterion {num:02d}] {verdict} {name}"
    SCORECARD.append(line)
    print(line, file=sys.stderr, flush=True)
    assert not failures, failures


def run_batch(name: str, seeds: int):
    scenario = load_scenario(scenario_path(name))
    started = time.perf_counter()
    runs = [
        simnet.run(scenario.with_seed(scenario.seed + k)) for k in range(seeds)
    ]
    return scenario, runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def partition_batch():
    return run_batch("partition-3-2", 100)


@pytest.fixture(scope="module")
def fake_leader_batch():
    return run_batch("fake-leader", 100)


@pytest.fixture(scope="module")
def replay_batches():
    within = run_batch("proof-replay-within-ttl", 100)
    after = run_batch("proof-replay-after-ttl", 100)
    return within, after


@pytest.fixture(scope="module")
def double_voter_batch():
    return run_batch("double-voter", 5)


def aggregate_proof(keypairs, keyring, combo, term, timestamp_ms, candidate):
    message = wire.vote_message(wire.SCHEME_SCHNORR, term, timestamp_ms, candidate)
    partials = [
        crypto.schnorr_partial_sign(keypairs[m], keyring, combo, message)
        for m in combo.members()
    ]
    big_r, s = crypto.schnorr_aggregate(partials)
    return proofs.VoteProof(
        wire.SCHEME_SCHNORR, term, timestamp_ms, candidate,
        proofs.SchnorrBody(combo, big_r, s),
    )


def test_criterion_01_schnorr_combo_correctness():
    """Every combo's aggregated partials validate, for random rounds."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(101)
    for n in (3, 5):
        keypairs, keyring = make_cluster(n, seed=f"c1-{n}")
        expected = {3: 3, 5: 10}[n]
        if len(keyring.combos) != expected:
            failures.append(f"n={n}: {len(keyring.combos)} combos")
        for combo in keyring.combos:
            for _ in range(50):
                term = rng.randint(1, 2**32)
                timestamp = rng.randint(0, 2**40)
                candidate = rng.choice(combo.members())
                proof = aggregate_proof(
                    keypairs, keyring, combo, term, timestamp, candidate
                )
                result = proofs.validate_proof(proof, keyring, POLICY, timestamp)
                if result is not ValidationResult.OK:
                    failures.append(
                        f"n={n} combo={combo.mask:#x} term={term}: {result}"
                    )
    elapsed = time.perf_counter() - started
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f}s (budget 5s)")
    scorecard(1, "schnorr combo correctness", failures)


def test_criterion_02_quorum_only_constructability():
    """No sub-quorum voter set can mint a proof, even with forged padding."""
    started = time.perf_counter()
    failures = []
    keypairs, keyring = make_cluster(5, seed="c2")
    rng = random.Random(102)
    now = 50_000

    # Part 1: build_proof refuses every sub-quorum voter subset.
    candidate = 1
    payloads = proofs.make_vote_payloads(
        candidate, 1, now, keyring, wire.SCHEME_SCHNORR, rng
    )
    others = [n for n in range(5) if n != candidate]
    for size in range(keyring.quorum_size - 1):
        for voters in combinations(others, size):
            grants = [
                proofs.grant_vote(keypairs[v], payloads[v], keyring)
                for v in voters
            ]
            try:
                proofs.build_proof(
                    keypairs[candidate], payloads[candidate], grants, keyring
                )
                failures.append(f"build_proof accepted voters={voters}")
            except proofs.ProofError:
                pass

    # Part 2: honest sub-quorum partials padded with junk never validate.
    for combo in keyring.combos:
        cand = combo.members()[0]
        message = wire.vote_message(wire.SCHEME_SCHNORR, 1, now, cand)
        honest = [
            crypto.schnorr_partial_sign(keypairs[m], keyring, combo, message)
            for m in combo.members()
        ]
        for keep in range(keyring.quorum_size):
            forged = honest[:keep] + [
                crypto.PartialSignature(
                    m, combo,
                    curve.scalar_mult_base(rng.randrange(1, curve.N)),
                    rng.randrange(curve.N),
                )
                for m in combo.members()[keep:]
            ]
            big_r, s = crypto.schnorr_aggregate(forged)
            proof = proofs.VoteProof(
                wire.SCHEME_SCHNORR, 1, now, cand,
                proofs.SchnorrBody(combo, big_r, s),
            )
            if proofs.validate_proof(proof, keyring, POLICY, now) is ValidationResult.OK:
                failures.append(f"forged padding passed combo={combo.mask:#x} keep={keep}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f}s (budget 5s)")
    scorecard(2, "quorum-only constructability", failures)


def test_criterion_03_partition_behavior(partition_batch):
    """Split-brain window stays bounded and the cluster reconverges."""
    scenario, runs, elapsed = partition_batch
    failures = []
    part = scenario.partitions[0]
    high = scenario.node_config.election_timeout_range_ms[1]
    ttl = scenario.node_config.proof_policy.ttl_ms
    hb = scenario.node_config.heartbeat_interval_ms
    span = 10 * high
    minority_leader = scenario.preferred_first_candidate
    majority = next(g for g in part.groups if minority_leader not in g)

    for k, (trace, report) in enumerate(runs):
        tag = f"seed+{k}"
        if report.violations:
            failures.append(f"{tag}: violations {report.violations}")
        # (a) the majority side elects within 10 timeout spans of the split.
        majority_elects = [
            ev.time_ms for ev in trace
            if ev.kind == "role_change" and ev.detail.startswith("leader")
            and ev.node in majority and ev.time_ms >= part.start_ms
        ]
        if not majority_elects or majority_elects[0] > part.start_ms + span:
            failures.append(f"{tag}: majority side slow to elect")
        # (b) the old leader steps down by proof_ts + ttl + one heartbeat.
        intervals = simnet._leader_intervals(trace, report)
        lead = [iv for iv in intervals.get(minority_leader, [])
                if iv[0] < part.end_ms]
        if not lead:
            failures.append(f"{tag}: node {minority_leader} never led")
        else:
            start, end, _ = lead[0]
            proof_ts = next(
                int(ev.detail.split("proof_ts=")[1].split()[0])
                for ev in trace
                if ev.kind == "role_change" and ev.node == minority_leader
                and ev.detail.startswith("leader")
            )
            if end > proof_ts + ttl + hb:
                failures.append(f"{tag}: stale leader held until {end}")
        # (c) dual leadership never exceeds ttl + heartbeat interval.
        summary = simnet.scripted_partition_leadership(trace, report)
        if summary.exceeded_ttl:
            failures.append(f"{tag}: dual leadership {summary.max_dual_ms}ms")
        # (d) after the heal, exactly one leader and everyone follows it.
        leaders = [n for n, r in report.final_roles.items() if r == "leader"]
        if len(leaders) != 1:
            failures.append(f"{tag}: final leaders {leaders}")
        elif any(
            report.final_known_leader[n] != leaders[0] for n in report.honest_nodes
        ):
            failures.append(f"{tag}: known_leader disagrees after heal")
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s (budget 60s)")
    scorecard(3, "partition: bounded split-brain, reconvergence (100 seeds)", failures)


def test_criterion_04_fake_leader_resistance(fake_leader_batch):
    """Forged heartbeats never move honest timers or win recognition."""
    scenario, runs, elapsed = fake_leader_batch
    failures = []
    fake = scenario.adversaries[0].node
    for k, (trace, report) in enumerate(runs):
        tag = f"seed+{k}"
        if report.violations:  # includes proof-soundness
            failures.append(f"{tag}: violations {report.violations}")
        for ev in trace:
            if ev.kind == "timer" and ev.node != fake \
                    and f"leader={fake} " in ev.detail:
                failures.append(f"{tag}: timer reset by fake leader at {ev.time_ms}")
        if any(
            report.final_known_leader[n] == fake for n in report.honest_nodes
        ):
            failures.append(f"{tag}: fake leader acknowledged")
        elected = {n for ns in report.leaders_per_term.values() for n in ns}
        if not elected or fake in elected:
            failures.append(f"{tag}: elected={sorted(elected)}")
    if elapsed >= 30:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    scorecard(4, "fake-leader resistance (100 seeds)", failures)


def test_criterion_05_replay_rejection(replay_batches):
    """Post-ttl replays read as expired everywhere; in-ttl ones stay bounded."""
    (sc_within, runs_within, t1), (sc_after, runs_after, t2) = replay_batches
    failures = []

    for k, (trace, report) in enumerate(runs_after):
        tag = f"after-ttl seed+{k}"
        if report.violations:
            failures.append(f"{tag}: violations {report.violations}")
        captured = [
            ev for ev in trace
            if ev.kind == "diagnostic" and ev.detail.startswith("proof-captured")
        ]
        if not captured:
            failures.append(f"{tag}: adversary never captured a proof")
            continue
        replay_from = captured[0].time_ms + sc_after.adversaries[0].replay_after_ms
        classified = {
            ev.node for ev in trace
            if ev.kind == "diagnostic" and ev.detail.startswith("expired")
            and ev.time_ms >= replay_from
        }
        missing = set(report.honest_nodes) - classified
        if missing:
            failures.append(f"{tag}: nodes {sorted(missing)} never saw 'expired'")

    limit = sc_within.node_config.proof_policy.ttl_ms \
        + sc_within.node_config.heartbeat_interval_ms
    for k, (trace, report) in enumerate(runs_within):
        tag = f"within-ttl seed+{k}"
        if report.violations:  # includes expired-proof-reset
            failures.append(f"{tag}: violations {report.violations}")
        # No honest timer reset by any proof past its ttl.
        for ev in trace:
            if ev.kind == "timer" and "proof_ts=" in ev.detail:
                proof_ts = int(ev.detail.split("proof_ts=")[1].split()[0])
                if ev.time_ms > proof_ts + limit:
                    failures.append(
                        f"{tag}: reset at {ev.time_ms} for proof_ts={proof_ts}"
                    )
    elapsed = t1 + t2
    if elapsed >= 30:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    scorecard(5, "replay rejection at the ttl boundary (100 seeds each)", failures)


def test_criterion_06_double_vote_impossibility(
    partition_batch, fake_leader_batch, replay_batches, double_voter_batch
):
    """One vote per honest node per term, in every trace we produced."""
    failures = []
    batches = [
        partition_batch, fake_leader_batch,
        replay_batches[0], replay_batches[1], double_voter_batch,
    ]
    scanned = 0
    for scenario, runs, _ in batches:
        for k, (trace, report) in enumerate(runs):
            scanned += 1
            honest = set(report.honest_nodes)
            seen = {}
            for ev in trace:
                if ev.kind == "send" and ev.detail.startswith("vote-response") \
                        and ev.node in honest:
                    term = int(ev.detail.split("term=")[1].split()[0])
                    key = (ev.node, term)
                    seen[key] = seen.get(key, 0) + 1
                    if seen[key] == 2:
                        failures.append(
                            f"{scenario.name} seed+{k}: node {ev.node}"
                            f" voted twice in term {term}"
                        )
            if report.violations:
                failures.append(
                    f"{scenario.name} seed+{k}: {report.violations}"
                )
    # The double voter's second copy must never be counted twice: if it were,
    # a candidate could reach quorum with one real voter short, which would
    # surface as an election-safety violation above. Also require the dupe to
    # be visibly absorbed.
    dv_scenario, dv_runs, _ = double_voter_batch
    dv = dv_scenario.adversaries[0].node
    for k, (trace, report) in enumerate(dv_runs):
        absorbed = any(
            ev.kind == "diagnostic" and f"voter={dv}" in ev.detail
            and (ev.detail.startswith("duplicate-grant")
                 or ev.detail.startswith("late-response"))
            for ev in trace
        )
        doubled = any(
            ev.kind == "send" and ev.node == dv
            and ev.detail.startswith("vote-response")
            for ev in trace
        )
        if doubled and not absorbed:
            failures.append(f"double-voter seed+{k}: duplicate not absorbed")
    assert scanned >= 400
    scorecard(6, f"double-vote impossibility ({scanned} traces scanned)", failures)


def test_criterion_07_sss_threshold_and_proof():
    """q-of-n share restore plus full SSS proof round trip."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(107)
    secret = rng.randrange(curve.N)
    shares = crypto.sss_split(secret, 5, 3, rng)
    for subset in combinations(shares, 3):
        if crypto.sss_restore(list(subset), 3) != secret:
            failures.append(f"restore failed for {[s.index for s in subset]}")
    for subset in combinations(shares, 2):
        if crypto.sss_restore(list(subset), 2) == secret:
            failures.append(f"sub-quorum {[s.index for s in subset]} restored")

    keypairs, keyring = make_cluster(5, seed="c7")
    now = 80_000
    payloads = proofs.make_vote_payloads(
        1, 1, now, keyring, wire.SCHEME_SSS, rng
    )
    grants = [
        proofs.grant_vote(keypairs[v], payloads[v], keyring) for v in (0, 3)
    ]
    proof = proofs.build_proof(keypairs[1], payloads[1], grants, keyring)
    if proofs.validate_proof(proof, keyring, POLICY, now) is not ValidationResult.OK:
        failures.append("clean SSS proof did not validate")
    if proofs.decode_proof(proofs.encode_proof(proof)) != proof:
        failures.append("SSS codec round trip broke the proof")
    for i, (share, sig) in enumerate(proof.body.entries):
        bad_share = replace(share, value=(share.value + 1) % curve.N)
        voter = keyring.node_for_ordinal(share.index)
        resigned = crypto.sign_recoverable(
            keypairs[voter],
            proofs.share_sign_message(bad_share, 1, now, 1),
        )
        entries = list(proof.body.entries)
        entries[i] = (bad_share, resigned)
        tampered = replace(proof, body=replace(proof.body, entries=tuple(entries)))
        if proofs.validate_proof(tampered, keyring, POLICY, now) is ValidationResult.OK:
            failures.append(f"corrupted share {i} accepted")
        entries = list(proof.body.entries)
        entries[i] = (share, replace(sig, s=(sig.s + 1) % curve.N))
        tampered = replace(proof, body=replace(proof.body, entries=tuple(entries)))
        if proofs.validate_proof(tampered, keyring, POLICY, now) is ValidationResult.OK:
            failures.append(f"corrupted signature {i} accepted")
    elapsed = time.perf_counter() - started
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f}s (budget 5s)")
    scorecard(7, "SSS threshold property and proof round trip", failures)


def test_criterion_08_fixed_proof_size_and_codec():
    """92-byte Schnorr proofs regardless of n; codec is an identity."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(108)
    for n in (3, 5, 7):
        keypairs, keyring = make_cluster(n, seed=f"c8-{n}")
        combo = sorted(keyring.combos)[0]
        proof = aggregate_proof(keypairs, keyring, combo, 1, 1000, combo.members()[0])
        size = len(proofs.encode_proof(proof))
        if size != 92:
            failures.append(f"n={n}: {size} bytes")
    for i in range(10_000):
        members = rng.sample(range(64), rng.randint(2, 8))
        mask = 0
        for m in members:
            mask |= 1 << m
        proof = proofs.VoteProof(
            wire.SCHEME_SCHNORR,
            rng.randint(1, 2**63 - 1),
            rng.randint(0, 2**63 - 1),
            rng.choice(members),
            proofs.SchnorrBody(
                crypto.ComboId(mask),
                curve.scalar_mult_base(rng.randrange(1, curve.N)),
                rng.randrange(curve.N),
            ),
        )
        blob = proofs.encode_proof(proof)
        if len(blob) != 92 or proofs.decode_proof(blob) != proof:
            failures.append(f"round trip {i} failed")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f}s (budget 5s)")
    scorecard(8, "fixed 92-byte proofs, 10,000 codec round trips", failures)


def test_criterion_09_determinism_and_golden_traces():
    """Identical traces run to run; pinned traces still reproduce."""
    import pathlib

    failures = []
    scenario_dir = pathlib.Path(scenario_path("x")).parent
    for path in sorted(scenario_dir.glob("*.yaml")):
        scenario = load_scenario(str(path))
        t1, _ = simnet.run(scenario)
        t2, _ = simnet.run(scenario)
        if trace_lines(t1) != trace_lines(t2):
            failures.append(f"{path.name}: consecutive runs differ")
    for name in ("happy-path-n3", "partition-3-2"):
        scenario = load_scenario(scenario_path(name))
        trace, _ = simnet.run(scenario)
        golden = (GOLDEN_DIR / f"{name}.trace").read_text()
        if trace_lines(trace) != golden:
            failures.append(f"{name}: trace diverged from pinned golden file")
    scorecard(9, "determinism and pinned golden traces", failures)


def test_criterion_10_election_safety(
    partition_batch, fake_leader_batch, replay_batches, double_voter_batch
):
    """At most one leader per term, everywhere, including lossy runs."""
    started = time.perf_counter()
    failures = []
    total = 0

    def check(tag, report):
        nonlocal total
        total += 1
        for term, leaders in report.leaders_per_term.items():
            if len(leaders) > 1:
                failures.append(f"{tag}: term {term} leaders {sorted(leaders)}")

    for scenario, runs, _ in (
        partition_batch, fake_leader_batch,
        replay_batches[0], replay_batches[1], double_voter_batch,
    ):
        for k, (_, report) in enumerate(runs):
            check(f"{scenario.name} seed+{k}", report)

    clean = load_scenario(scenario_path("happy-path-n5"))
    lossy = replace(clean, drop_probability=0.10)
    for k in range(250):
        _, report = simnet.run(clean.with_seed(90_000 + k))
        check(f"fault-free seed {90_000 + k}", report)
        if report.violations:
            failures.append(f"fault-free seed {90_000 + k}: {report.violations}")
    for k in range(250):
        _, report = simnet.run(lossy.with_seed(91_000 + k))
        check(f"lossy seed {91_000 + k}", report)
        if report.violations:
            failures.append(f"lossy seed {91_000 + k}: {report.violations}")

    elapsed = time.perf_counter() - started
    if total < 900:
        failures.append(f"only {total} runs checked")
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s (budget 120s)")
    scorecard(10, f"election safety across {total} runs", failures)
