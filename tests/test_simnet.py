"""End-to-end simulator runs and the trace-level invariant checker."""

import hashlib
from dataclasses import replace

import pytest

from mokka import adversary, cli, core, crypto, curve, proofs, simnet, wire
from mokka.core import (
    ArmElectionTimer, Heartbeat, RoleChanged, VoteRequest, VoteResponse,
)
from mokka.scenario import AdversarySpec, Partition, load_scenario
from mokka.simnet import RunReport, TraceEvent, check_invariants, trace_lines

from conftest import SCENARIO_DIR, scenario_path


@pytest.fixture(scope="module")
def happy3():
    return simnet.run(load_scenario(scenario_path("happy-path-n3")))


@pytest.fixture(scope="module")
def partition_run():
    return simnet.run(load_scenario(scenario_path("partition-3-2")))


class TestHappyPath:
    def test_exactly_one_leader_no_violations(self, happy3):
        trace, report = happy3
        assert report.violations == []
        assert len(report.leaders_per_term) >= 1
        for leaders in report.leaders_per_term.values():
            assert len(leaders) == 1
        assert list(report.final_roles.values()).count("leader") == 1

    def test_everyone_agrees_on_leader(self, happy3):
        _, report = happy3
        (leader,) = [n for n, r in report.final_roles.items() if r == "leader"]
        assert all(report.final_known_leader[n] == leader for n in range(3))

    def test_leader_keeps_heartbeating(self, happy3):
        trace, report = happy3
        (leader,) = [n for n, r in report.final_roles.items() if r == "leader"]
        beats = [
            ev for ev in trace
            if ev.kind == "send" and ev.node == leader
            and ev.detail.startswith("heartbeat")
        ]
        assert len(beats) >= 2 * (
            report.duration_ms // report.heartbeat_interval_ms // 2
        )

    def test_trace_line_format(self, happy3):
        trace, _ = happy3
        known = {
            "send", "deliver", "drop", "timer", "role_change",
            "diagnostic", "violation",
        }
        for ev in trace:
            parts = ev.line().split("\t")
            assert len(parts) == 5
            assert int(parts[0]) == ev.time_ms
            assert parts[2] in known
        assert trace_lines(trace).count("\n") == len(trace)

    def test_times_nondecreasing_and_seq_unique(self, happy3):
        trace, _ = happy3
        assert all(a.time_ms <= b.time_ms for a, b in zip(trace, trace[1:]))
        seqs = [ev.seq for ev in trace]
        assert len(set(seqs)) == len(seqs)


class TestDeterminism:
    def test_same_scenario_same_trace(self):
        sc = load_scenario(scenario_path("happy-path-n3"))
        t1, _ = simnet.run(sc)
        t2, _ = simnet.run(sc)
        assert trace_lines(t1) == trace_lines(t2)

    def test_different_seed_different_trace(self):
        sc = load_scenario(scenario_path("happy-path-n3"))
        t1, _ = simnet.run(sc)
        t2, _ = simnet.run(sc.with_seed(sc.seed + 1))
        assert trace_lines(t1) != trace_lines(t2)


class TestPartition:
    def test_no_violations(self, partition_run):
        _, report = partition_run
        assert report.violations == []

    def test_majority_side_elects_during_partition(self, partition_run):
        trace, report = partition_run
        part = report.partitions[0]
        majority = next(g for g in part.groups if len(g) >= report.quorum_size)
        new_leaders = [
            ev for ev in trace
            if ev.kind == "role_change" and ev.detail.startswith("leader")
            and part.start_ms <= ev.time_ms < part.end_ms
            and ev.node in majority
        ]
        assert new_leaders, "majority partition never elected a leader"

    def test_leadership_summary_bounded_by_ttl(self, partition_run):
        trace, report = partition_run
        summary = simnet.scripted_partition_leadership(trace, report)
        assert not summary.exceeded_ttl
        limit = report.proof_ttl_ms + report.heartbeat_interval_ms
        assert summary.max_dual_ms <= limit

    def test_cluster_reconverges_after_heal(self, partition_run):
        _, report = partition_run
        (leader,) = [n for n, r in report.final_roles.items() if r == "leader"]
        assert all(
            report.final_known_leader[n] == leader for n in range(5)
        )


class ForgingLeader(adversary.FakeLeader):
    """FakeLeader with the algebraic forgery of ROADMAP item 1: the
    challenge does not bind R, so R = s*G - e*A, A its combo's aggregate
    key, completes a signature from public keys alone. Nodes outside the
    combo accept it."""

    def tick(self, now_ms):
        keyring, combo = self.state.keyring, self.combo
        message = wire.vote_message(wire.SCHEME_SCHNORR, self.term, now_ms, self.state.id)
        s = 1 + self.rng.randrange(curve.N - 1)
        e = crypto.schnorr_challenge(keyring, combo, message)
        [big_r] = curve.fixed_sums(
            [[(s, curve.BASE), (curve.N - e, keyring.combos.table(combo))]]
        )
        body = proofs.SchnorrBody(combo, big_r, s)
        proof = proofs.VoteProof(
            wire.SCHEME_SCHNORR, self.term, now_ms, self.state.id, body
        )
        return [core._heartbeat_burst(self.state, proof, self.state.id)]


class TestAdversaries:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_followed_forgery_is_a_proof_soundness_violation(self, seed, monkeypatch):
        monkeypatch.setitem(adversary.BEHAVIORS, "forging_leader", ForgingLeader)
        sc = load_scenario(scenario_path("happy-path-n5"))
        sc = replace(sc, adversaries=(AdversarySpec(4, "forging_leader", term=99),))
        trace, report = simnet.run(sc.with_seed(seed))
        forged = {
            ev.about.proof.body.combo for ev in trace
            if ev.kind == "send" and ev.node == 4 and isinstance(ev.about, Heartbeat)
        }
        assert forged == {crypto.ComboId.of((0, 1, 4))}
        # Nodes 2 and 3, outside the forged combo, follow node 4.
        assert [report.final_known_leader[n] for n in (2, 3)] == [4, 4]
        unsound = [v for v in report.violations if v.startswith("proof-soundness")]
        assert unsound and len(unsound) == len(report.violations)
        assert {v.split()[1] for v in unsound} == {"node=2", "node=3"}

    def test_fake_leader_never_acknowledged(self):
        trace, report = simnet.run(load_scenario(scenario_path("fake-leader")))
        assert report.violations == []
        fake = next(n for n, b in report.adversaries.items() if b == "fake_leader")
        assert fake not in report.final_known_leader.values()
        rejected = [
            ev for ev in trace
            if ev.kind == "diagnostic" and ev.detail.startswith("bad_signature")
        ]
        assert rejected, "forged heartbeats were never classified bad_signature"
        assert fake not in {
            n for leaders in report.leaders_per_term.values() for n in leaders
        }

    def test_forgeries_are_fresh_bytes_without_curve_work(self, monkeypatch):
        # Each forgery must miss the validators' caches, and none may pay
        # for a multiple of the generator.
        mults = []
        mult = curve.scalar_mult_base
        monkeypatch.setattr(
            curve, "scalar_mult_base", lambda k: mults.append(k) or mult(k)
        )
        forged = []
        tick = adversary.FakeLeader.tick

        def spy(node, now_ms):
            before = len(mults)
            outputs = tick(node, now_ms)
            assert len(mults) == before
            (burst,) = outputs
            forged.append(burst.packets[0].body.proof.encoded)
            return outputs

        monkeypatch.setattr(adversary.FakeLeader, "tick", spy)
        simnet.run(load_scenario(scenario_path("fake-leader")))
        assert len(forged) > 10
        assert len(set(forged)) == len(forged)

    def test_fake_leader_in_a_shamir_cluster_costs_no_schnorr_check(
        self, monkeypatch
    ):
        # Its Schnorr forgeries are refused as another scheme's proofs,
        # also by the nodes outside the forged combo.
        calls = []
        verify = crypto.schnorr_verify
        monkeypatch.setattr(
            crypto, "schnorr_verify", lambda *args: calls.append(args) or verify(*args)
        )
        base, adversaries, _, _ = PINNED_MIXES["fake-leader-n5-sss"]
        sc = replace(load_scenario(scenario_path(base)), adversaries=adversaries)
        trace, report = simnet.run(sc)
        assert report.violations == []
        assert calls == []
        assert any(
            ev.kind == "diagnostic" and ev.detail.startswith("bad_signature")
            for ev in trace
        )

    def test_double_voter_flagged_but_harmless(self):
        trace, report = simnet.run(load_scenario(scenario_path("double-voter")))
        assert report.violations == []
        dv = next(n for n, b in report.adversaries.items() if b == "double_voter")
        # Every vote the double voter casts goes out twice...
        per_term = {}
        for ev in trace:
            if ev.kind == "send" and ev.node == dv \
                    and ev.detail.startswith("vote-response"):
                term = ev.detail.split("term=")[1].split()[0]
                per_term[term] = per_term.get(term, 0) + 1
        assert per_term and all(count == 2 for count in per_term.values())
        # ...and the second copy is shrugged off, not double counted.
        absorbed = [
            ev for ev in trace
            if ev.kind == "diagnostic"
            and (ev.detail.startswith("duplicate-grant")
                 or ev.detail.startswith("late-response"))
            and f"voter={dv}" in ev.detail
        ]
        assert absorbed

    def test_replay_within_ttl_is_absorbed(self):
        trace, report = simnet.run(
            load_scenario(scenario_path("proof-replay-within-ttl"))
        )
        assert report.violations == []
        assert any(
            ev.kind == "diagnostic" and ev.detail.startswith("proof-captured")
            for ev in trace
        )

    def test_replay_to_its_own_leader_does_not_unseat_it(self):
        # The replayer also sends the proof to its own leader, which must
        # keep leading until the proof expires.
        trace, report = simnet.run(
            load_scenario(scenario_path("proof-replay-within-ttl"))
        )
        led_since = {}
        for ev in trace:
            if ev.kind != "role_change":
                continue
            if ev.detail.startswith("leader"):
                led_since[ev.node] = int(ev.detail.split("proof_ts=")[1].split()[0])
            elif ev.node in led_since:
                proof_ts = led_since.pop(ev.node)
                assert ev.time_ms > proof_ts + report.proof_ttl_ms, ev.line()
        assert any(
            ev.kind == "diagnostic" and ev.detail.startswith("self-leader")
            for ev in trace
        )

    def test_replay_after_ttl_rejected_as_expired(self):
        trace, report = simnet.run(
            load_scenario(scenario_path("proof-replay-after-ttl"))
        )
        assert report.violations == []
        expired = [
            ev for ev in trace
            if ev.kind == "diagnostic" and ev.detail.startswith("expired")
        ]
        assert expired, "post-ttl replays were never classified expired"

    def test_silent_node_tolerated(self):
        sc = load_scenario(scenario_path("happy-path-n5"))
        sc = replace(sc, adversaries=(AdversarySpec(node=4, behavior="silent"),))
        _, report = simnet.run(sc)
        assert report.violations == []
        assert "leader" in report.final_roles.values()


class TestClusterMemo:
    def test_run_seeds_share_one_cluster(self, monkeypatch):
        seeds = []
        keygens = crypto.keygens
        monkeypatch.setattr(
            crypto, "keygens", lambda batch: seeds.extend(batch) or keygens(batch)
        )
        sc = replace(
            load_scenario(scenario_path("happy-path-n3")), key_seed="memo-runs"
        )
        first, _ = simnet.run(sc)
        again, _ = simnet.run(sc.with_seed(sc.seed + 1))
        assert seeds == [f"memo-runs-node-{i}".encode() for i in range(sc.n)]
        assert trace_lines(first) != trace_lines(again)

    def test_key_seed_and_size_select_the_cluster(self):
        keypairs, keyring = crypto.cluster("memo", 3)
        assert crypto.cluster("memo", 3)[1] is keyring
        assert crypto.cluster("memo-2", 3)[1] != keyring
        assert crypto.cluster("memo", 5)[1] != keyring
        assert keyring.public_key(0) == crypto.keygen(b"memo-node-0").public

    def test_cluster_is_immutable(self):
        keypairs, keyring = crypto.cluster("memo", 3)
        assert isinstance(keypairs, tuple)
        with pytest.raises(TypeError):
            keyring.combos[crypto.ComboId(0b11)] = keyring.public_key(0)

    # The next two run in file order: the first leaves a forged cluster
    # in the memo, and the autouse fixture must clear it before the second.
    def test_patched_build_reaches_the_memo(self, monkeypatch):
        monkeypatch.setattr(crypto, "build_keyring", lambda keys: "patched")
        assert crypto.cluster("memo-patched", 3)[1] == "patched"

    def test_patched_build_does_not_outlive_its_test(self):
        _, keyring = crypto.cluster("memo-patched", 3)
        assert isinstance(keyring, crypto.ClusterKeyring)


def _send(time_ms, seq, node, body, to):
    detail = f"{simnet._body_detail(body)} to={to}"
    return TraceEvent(time_ms, seq, "send", node, detail, body)


def _vote_response(voter, term):
    return VoteResponse(proofs.VoteGrant(voter, term))


def _vote_request(candidate, term):
    return VoteRequest(proofs.VotePayload(wire.SCHEME_SCHNORR, term, 0, candidate))


def _proof(leader, term, proof_ts):
    # The checker reads no signature, so the proof carries no body.
    return proofs.VoteProof(wire.SCHEME_SCHNORR, term, proof_ts, leader, None)


def _timer(time_ms, seq, node, cause, proof=None):
    timer = ArmElectionTimer(200, cause, proof)
    detail = f"arm-election dur=200 cause={cause}"
    if proof is not None:
        detail += f" leader={proof.candidate} proof_ts={proof.timestamp_ms}"
    return TraceEvent(time_ms, seq, "timer", node, detail, timer)


def _role(time_ms, seq, node, role, term, proof=None):
    change = RoleChanged(role, term, proof)
    return TraceEvent(
        time_ms, seq, "role_change", node, f"{role} term={term}", change
    )


def _report(**kw):
    base = dict(
        leaders_per_term={}, elections_started=0, violations=[],
        final_roles={}, final_known_leader={}, honest_nodes=(0, 1, 2),
        adversaries={}, quorum_size=2, proof_ttl_ms=1000,
        heartbeat_interval_ms=50, partitions=(), duration_ms=5000,
    )
    base.update(kw)
    return RunReport(**base)


def _every_violation_kind():
    """A hand-made trace and report that break every invariant, and the
    violations check_invariants must list for them, in order."""
    # Node 4 is an adversary; nodes 3 and 4 form the minority side of a
    # partition whose leaderless window is [1050, 5000).
    trace = [
        # Node 0 is elected in term 1 with the proof node 3 accepts below.
        _role(5, 21, 0, "leader", 1, _proof(0, 1, 100)),
        _send(10, 0, 1, _vote_response(1, 2), to=0),
        _send(11, 1, 1, _vote_response(1, 2), to=2),
        _send(12, 2, 4, _vote_response(4, 2), to=0),
        _send(13, 3, 4, _vote_response(4, 2), to=1),
        # A lower term from the same node, after a role change.
        _role(20, 4, 2, "candidate", 5),
        _send(21, 5, 2, _vote_request(2, 4), to=0),
        # A heartbeat's term is a term observation too.
        _send(22, 6, 2, Heartbeat(_proof(2, 5, 3)), to=1),
        _role(23, 7, 0, "follower", 3),
        _send(24, 8, 0, _vote_request(0, 1), to=1),
        # Adversaries are not held to monotonic terms.
        _send(25, 9, 4, _vote_request(4, 1), to=0),
        # A proof no node was elected with, expired too.
        _timer(3000, 10, 1, "heartbeat", _proof(4, 1, 5)),
        _timer(3001, 11, 2, "heartbeat", _proof(4, 1, 2900)),
        # No proof: not a heartbeat reset.
        _timer(3002, 12, 0, "init"),
        # An issued proof, equal to node 0's though not the same object.
        _timer(3003, 13, 3, "heartbeat", _proof(0, 1, 100)),
        _timer(3004, 14, 4, "heartbeat", _proof(4, 1, 0)),
        # Leadership spans on the minority side: one before the window,
        # and two that reach into it, one of them an adversary's.
        _role(100, 15, 3, "leader", 6),
        _role(200, 16, 3, "follower", 6),
        _role(2000, 17, 3, "leader", 7),
        _role(2500, 18, 4, "leader", 8, _proof(4, 8, 2500)),
        # An adversary elected with real votes issues a real proof.
        _timer(2550, 22, 1, "heartbeat", _proof(4, 8, 2500)),
        _role(2600, 19, 4, "follower", 8),
        _role(2700, 20, 0, "leader", 7),
    ]
    report = _report(
        leaders_per_term={7: [3, 0], 3: [1], 2: [2, 0, 1], 1: [0], 8: [4]},
        final_known_leader={0: 4, 1: 1, 2: None, 3: 4, 4: 4},
        honest_nodes=(3, 0, 1, 2), adversaries={4: "fake_leader"},
        quorum_size=3,
        partitions=(Partition(0, 5000, ((0, 1, 2), (3, 4))),),
    )
    expected = [
        "election-safety term=2 leaders=[0, 1, 2]",
        "election-safety term=7 leaders=[0, 3]",
        "vote-uniqueness node=1 term=2",
        "term-monotonicity node=2 term=4 after=5 at=21",
        "term-monotonicity node=0 term=1 after=3 at=24",
        "proof-soundness node=1 leader=4 term=1 at=3000",
        "expired-proof-reset node=1 proof_ts=5 at=3000",
        "proof-soundness node=2 leader=4 term=1 at=3001",
        "expired-proof-reset node=3 proof_ts=100 at=3003",
        "minority-leader node=3 term=7 window=[1050,5000)",
        "minority-leader node=4 term=8 window=[1050,5000)",
    ]
    return trace, report, expected


class TestInvariantChecker:
    def test_detects_dual_leaders_in_one_term(self):
        report = _report(leaders_per_term={3: [0, 2]})
        violations = check_invariants([], report)
        assert any(v.startswith("election-safety term=3") for v in violations)

    def test_detects_double_vote(self):
        trace = [
            _send(10, 0, 1, _vote_response(1, 2), to=0),
            _send(11, 1, 1, _vote_response(1, 2), to=2),
        ]
        violations = check_invariants(trace, _report())
        assert any(v.startswith("vote-uniqueness node=1 term=2") for v in violations)

    def test_detects_term_regression(self):
        trace = [
            _role(10, 0, 1, "candidate", 5),
            _role(20, 1, 1, "candidate", 4),
        ]
        violations = check_invariants(trace, _report())
        assert any(v.startswith("term-monotonicity node=1") for v in violations)

    def test_detects_fake_leader_reset(self):
        # A proof no node was elected with, whoever sent it.
        trace = [_timer(10, 0, 1, "heartbeat", _proof(2, 1, 5))]
        violations = check_invariants(trace, _report())
        assert violations == ["proof-soundness node=1 leader=2 term=1 at=10"]

    def test_issued_proof_reset_is_clean(self):
        proof = _proof(2, 1, 5)
        trace = [
            _role(5, 0, 2, "leader", 1, proof),
            _timer(10, 1, 1, "heartbeat", proof),
        ]
        assert check_invariants(trace, _report()) == []
        # Elected in another term, another node elected, or the leader's
        # term and name on another proof: not issued.
        for elected in (_proof(2, 2, 5), _proof(0, 1, 5), _proof(2, 1, 6)):
            trace[0] = _role(5, 0, elected.candidate, "leader", elected.term, elected)
            assert check_invariants(trace, _report()) == [
                "proof-soundness node=1 leader=2 term=1 at=10"
            ]

    def test_verdicts_do_not_read_adversary_names(self):
        trace, report, expected = _every_violation_kind()
        for adversaries in ({}, {4: "silent"}, {4: "anything"}):
            renamed = replace(report, adversaries=adversaries)
            assert check_invariants(trace, renamed) == expected

    def test_detects_expired_proof_reset(self):
        trace = [_timer(5000, 0, 1, "heartbeat", _proof(0, 1, 100))]
        violations = check_invariants(trace, _report(proof_ttl_ms=1000))
        assert any(v.startswith("expired-proof-reset node=1") for v in violations)

    def test_detects_minority_leader(self):
        trace = [_role(0, 0, 4, "leader", 1)]
        report = _report(
            honest_nodes=(0, 1, 2, 3, 4), quorum_size=3,
            partitions=(Partition(0, 5000, ((0, 1, 2), (3, 4))),),
        )
        violations = check_invariants(trace, report)
        assert any(v.startswith("minority-leader node=4") for v in violations)

    def test_every_violation_kind_in_order(self):
        trace, report, expected = _every_violation_kind()
        assert check_invariants(trace, report) == expected

    def test_verdicts_do_not_read_the_trace_text(self):
        handmade, report, expected = _every_violation_kind()
        fake_trace, fake_report = simnet.run(
            load_scenario(scenario_path("fake-leader"))
        )
        for trace, run_report in ((handmade, report), (fake_trace, fake_report)):
            blank = [ev._replace(detail="") for ev in trace]
            assert check_invariants(blank, run_report) == (
                check_invariants(trace, run_report)
            )
            assert simnet._leader_intervals(blank, run_report) == (
                simnet._leader_intervals(trace, run_report)
            )
        assert check_invariants(handmade, report) == expected
        assert simnet._leader_intervals(fake_trace, fake_report)

    def test_clean_trace_passes(self, happy3):
        trace, report = happy3
        assert check_invariants(trace, report) == []


# sha256 of (trace file, `mokka run --machine` stdout) for every bundled
# scenario at its own seed. These go beyond the golden files: they pin the
# adversary and partition-summary paths byte for byte.
PINNED_OUTPUTS = {
    "double-voter": (
        "23fd8505dd5aafa3b0c32841f77a03fb3e65011eb1b0f247925f8accd4a37ac7",
        "11260d2813c3634690352964903d3a319968fc5ddee05c6d7ea37e4debe2086b",
    ),
    "fake-leader": (
        "7d663f7f0d7451ca58a74dd6194143a6d15c70b77884ab1bf13c0e81d631168a",
        "07eb9bbb475053db8cb21c18ac153f47a04e680f7032efb6ea47fd671f19e974",
    ),
    "happy-path-n3": (
        "46a879ece1d770e8d6df10fcb6fdc1ce8d4e0b12ce673162618230cef3050801",
        "53a75d3afc12823bb4245e9e50134d8b9b50757266577fde7eda94a28492e35e",
    ),
    "happy-path-n5-sss": (
        "f131ddaa83d6a548565e7b20db4e71333d9f4ef8b33caebdbe44b53e63ac41dd",
        "8301496720b325c83dbedf3f02e415812ec952c5d209c45a7510f8f919b39f6c",
    ),
    "happy-path-n5": (
        "4956f1241362c3faa078e6d4b94b549f5981bd0b1f9fa36a4e727457db24301d",
        "89ee73a446ddc5491ad0d53854d9302efb0b2066a5ed70a63162abc2f3f93417",
    ),
    "partition-3-2": (
        "b0634af08be10076e5a053ef162a82b95440522e86fb6ee787ee068800aa09d4",
        "26903d8b4a26c6d2ab8f6dae1f0afa236cb9ffde9df83f3961bf1cb0460595e5",
    ),
    "proof-replay-after-ttl": (
        "971b7098cacbde4ce7cb70d3e47f247cad11c496495bfe1cdea019a0b0c3c60e",
        "565986b9e606392979bfa83ccb9ded0b785b5987917262fa9b93a561ce15c1ea",
    ),
    "proof-replay-within-ttl": (
        "e604b4e6e02dd8350767c1744e41e386b716e8c63c0aa12afa862b1ef2d15493",
        "75f119689bf5a91905ec4bdadb887b8e7e33e0bbeef2b5280b2334745150fcf2",
    ),
    "silent-node": (
        "7f5028af92c9bb24e880989928233885f9a01145d6dda2320c78410f35dfd1b4",
        "0ecccd5b4a75673bc4f55464f44a5bd80e8da48537abe2e94272fde158b1476a",
    ),
}

# Adversary mixes no bundled file holds: (base scenario, adversaries, and
# the sha256 of the trace and of the machine report at the base's seed).
PINNED_MIXES = {
    # Two fake leaders listed out of id order, beside a replayer and a
    # double voter: the fake leaders' nonce points come from one shared
    # stream in the order the scenario lists them.
    "four-adversaries-n5": (
        "happy-path-n5",
        (AdversarySpec(4, "fake_leader", term=99),
         AdversarySpec(2, "fake_leader", term=7),
         AdversarySpec(1, "proof_replay", replay_after_ms=300),
         AdversarySpec(3, "double_voter")),
        "b6a89fa20f908ebcbb15345f5d41a331d4058dbc27060231fe337dcae9f2858d",
        "9f85129012d53f463f0373c90d71396d44a1d22a6837ad274967e437bf007bb1",
    ),
    "partition-with-adversaries": (
        "partition-3-2",
        (AdversarySpec(4, "fake_leader", term=99),
         AdversarySpec(1, "proof_replay", replay_after_ms=300)),
        "908bf866615ae3d2349140f8b844c96e5fbcf737e97f04543f47ac23b4845768",
        "4e75cd3cbfdf8dd551b1ce6a246f66acefa3fb2f37d62cc24f6db2179dff6482",
    ),
    # A fake leader in a Shamir cluster: it forges Schnorr proofs, which
    # every node refuses as bad_signature.
    "fake-leader-n5-sss": (
        "happy-path-n5-sss",
        (AdversarySpec(4, "fake_leader", term=99),),
        "acaf3b8a197ee62e1b5d93a55000dd801f1732bf66bae0637de664533d179860",
        "8301496720b325c83dbedf3f02e415812ec952c5d209c45a7510f8f919b39f6c",
    ),
}

# partition-3-2's (dual_max_ms, exceeded_ttl) at seeds 45..64.
PINNED_PARTITION_DUALS = [
    (944, False), (990, False), (974, False), (1003, False), (913, False),
    (969, False), (703, False), (974, False), (937, False), (997, False),
    (957, False), (746, False), (970, False), (1000, False), (884, False),
    (795, False), (1001, False), (995, False), (708, False), (975, False),
]


class TestPinnedOutputs:
    def test_every_bundled_scenario_is_pinned(self):
        names = sorted(path.stem for path in SCENARIO_DIR.glob("*.yaml"))
        assert names == sorted(PINNED_OUTPUTS)

    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_trace_and_report_bytes(self, name, tmp_path, capsys):
        trace_path = tmp_path / "trace"
        code = cli.main(
            ["run", scenario_path(name), "--machine", "--trace", str(trace_path)]
        )
        assert code == 0
        digests = (
            hashlib.sha256(trace_path.read_bytes()).hexdigest(),
            hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
        )
        assert digests == PINNED_OUTPUTS[name]

    def test_partition_summary_over_seeds(self):
        sc = load_scenario(scenario_path("partition-3-2"))
        assert sc.seed == 45
        duals = []
        for seed in range(sc.seed, sc.seed + len(PINNED_PARTITION_DUALS)):
            trace, report = simnet.run(sc.with_seed(seed))
            summary = simnet.scripted_partition_leadership(trace, report)
            duals.append((summary.max_dual_ms, summary.exceeded_ttl))
        assert duals == PINNED_PARTITION_DUALS

    @pytest.mark.parametrize("name", sorted(PINNED_MIXES))
    def test_adversary_mix_bytes(self, name):
        base, adversaries, trace_digest, report_digest = PINNED_MIXES[name]
        sc = replace(load_scenario(scenario_path(base)), adversaries=adversaries)
        trace, report = simnet.run(sc)
        summary = simnet.scripted_partition_leadership(trace, report)
        rows = cli._run_rows(sc.name, sc.seed, report, summary)
        assert report.violations == []
        assert (
            hashlib.sha256(trace_lines(trace).encode()).hexdigest(),
            hashlib.sha256(cli._render(rows, machine=True).encode()).hexdigest(),
        ) == (trace_digest, report_digest)
