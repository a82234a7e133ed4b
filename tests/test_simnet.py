"""End-to-end simulator runs and the trace-level invariant checker."""

import hashlib
from dataclasses import replace

import pytest

from mokka import cli, crypto, curve, simnet
from mokka.scenario import load_scenario
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


class TestAdversaries:
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
        fake_proof = simnet._Sim._fake_proof

        def spy(sim, spec, time_ms):
            before = len(mults)
            proof = fake_proof(sim, spec, time_ms)
            assert len(mults) == before
            forged.append(proof.encoded)
            return proof

        monkeypatch.setattr(simnet._Sim, "_fake_proof", spy)
        simnet.run(load_scenario(scenario_path("fake-leader")))
        assert len(forged) > 10
        assert len(set(forged)) == len(forged)

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
        from mokka.scenario import AdversarySpec
        from dataclasses import replace

        sc = replace(sc, adversaries=(AdversarySpec(node=4, behavior="silent"),))
        _, report = simnet.run(sc)
        assert report.violations == []
        assert "leader" in report.final_roles.values()


class TestClusterMemo:
    def test_run_seeds_share_one_cluster(self, monkeypatch):
        seeds = []
        keygen = crypto.keygen
        monkeypatch.setattr(
            crypto, "keygen", lambda seed: seeds.append(seed) or keygen(seed)
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


class TestInvariantChecker:
    def _report(self, **kw):
        base = dict(
            leaders_per_term={}, elections_started=0, violations=[],
            final_roles={}, final_known_leader={}, honest_nodes=(0, 1, 2),
            adversaries={}, quorum_size=2, proof_ttl_ms=1000,
            heartbeat_interval_ms=50, partitions=(), duration_ms=5000,
        )
        base.update(kw)
        return RunReport(**base)

    def test_detects_dual_leaders_in_one_term(self):
        report = self._report(leaders_per_term={3: [0, 2]})
        violations = check_invariants([], report)
        assert any(v.startswith("election-safety term=3") for v in violations)

    def test_detects_double_vote(self):
        trace = [
            TraceEvent(10, 0, "send", 1, "vote-response term=2 voter=1 to=0"),
            TraceEvent(11, 1, "send", 1, "vote-response term=2 voter=1 to=2"),
        ]
        violations = check_invariants(trace, self._report())
        assert any(v.startswith("vote-uniqueness node=1 term=2") for v in violations)

    def test_detects_term_regression(self):
        trace = [
            TraceEvent(10, 0, "role_change", 1, "candidate term=5"),
            TraceEvent(20, 1, "role_change", 1, "candidate term=4"),
        ]
        violations = check_invariants(trace, self._report())
        assert any(v.startswith("term-monotonicity node=1") for v in violations)

    def test_detects_fake_leader_reset(self):
        trace = [
            TraceEvent(
                10, 0, "timer", 1,
                "arm-election dur=200 cause=heartbeat leader=2 proof_ts=5",
            ),
        ]
        report = self._report(adversaries={2: "fake_leader"}, honest_nodes=(0, 1))
        violations = check_invariants(trace, report)
        assert any(v.startswith("fake-leader-reset node=1") for v in violations)

    def test_detects_expired_proof_reset(self):
        trace = [
            TraceEvent(
                5000, 0, "timer", 1,
                "arm-election dur=200 cause=heartbeat leader=0 proof_ts=100",
            ),
        ]
        violations = check_invariants(trace, self._report(proof_ttl_ms=1000))
        assert any(v.startswith("expired-proof-reset node=1") for v in violations)

    def test_detects_minority_leader(self):
        from mokka.scenario import Partition

        trace = [TraceEvent(0, 0, "role_change", 4, "leader term=1 proof_ts=0")]
        report = self._report(
            honest_nodes=(0, 1, 2, 3, 4), quorum_size=3,
            partitions=(Partition(0, 5000, ((0, 1, 2), (3, 4))),),
        )
        violations = check_invariants(trace, report)
        assert any(v.startswith("minority-leader node=4") for v in violations)

    def test_every_violation_kind_in_order(self):
        from mokka.scenario import Partition

        # Node 4 is a fake leader; nodes 3 and 4 form the minority side of
        # a partition whose leaderless window is [1050, 5000).
        trace = [
            TraceEvent(10, 0, "send", 1, "vote-response term=2 voter=1 to=0"),
            TraceEvent(11, 1, "send", 1, "vote-response term=2 voter=1 to=2"),
            TraceEvent(12, 2, "send", 4, "vote-response term=2 voter=4 to=0"),
            TraceEvent(13, 3, "send", 4, "vote-response term=2 voter=4 to=1"),
            # term= as the last token, then a lower term from the same node.
            TraceEvent(20, 4, "role_change", 2, "candidate term=5"),
            TraceEvent(21, 5, "send", 2, "vote-request term=4 candidate=2 to=0"),
            # term= absent: no term observation.
            TraceEvent(22, 6, "send", 2, "heartbeat leader=2 proof_ts=3 to=1"),
            # A key ending in "term" is not term.
            TraceEvent(23, 7, "role_change", 0, "follower term=3 oldterm=9"),
            TraceEvent(24, 8, "send", 0, "vote-request term=1 candidate=0 to=1"),
            # Adversaries are not held to monotonic terms.
            TraceEvent(25, 9, "send", 4, "vote-request term=1 candidate=4 to=0"),
            # leader= follows cause=heartbeat, with an expired proof_ts too.
            TraceEvent(
                3000, 10, "timer", 1,
                "arm-election dur=200 cause=heartbeat leader=4 proof_ts=5",
            ),
            # leader= as the last token.
            TraceEvent(
                3001, 11, "timer", 2,
                "arm-election dur=200 cause=heartbeat proof_ts=2900 leader=4",
            ),
            # leader= absent: not a heartbeat reset.
            TraceEvent(3002, 12, "timer", 0, "arm-election dur=150 cause=init"),
            TraceEvent(
                3003, 13, "timer", 3,
                "arm-election dur=200 cause=heartbeat leader=0 proof_ts=100",
            ),
            TraceEvent(3004, 14, "timer", 4, "arm-election dur=200 cause=heartbeat"
                       " leader=4 proof_ts=0"),
            # Leadership spans on the minority side: one before the window,
            # one open to the end, one without a term.
            TraceEvent(100, 15, "role_change", 3, "leader term=6 proof_ts=100"),
            TraceEvent(200, 16, "role_change", 3, "follower term=6"),
            TraceEvent(2000, 17, "role_change", 3, "leader term=7 proof_ts=2000"),
            TraceEvent(2500, 18, "role_change", 4, "leader proof_ts=2500"),
            TraceEvent(2600, 19, "role_change", 4, "follower term=8"),
            TraceEvent(2700, 20, "role_change", 0, "leader term=7 proof_ts=2700"),
        ]
        report = self._report(
            leaders_per_term={7: [3, 0], 3: [1], 2: [2, 0, 1]},
            final_known_leader={0: 4, 1: 1, 2: None, 3: 4, 4: 4},
            honest_nodes=(3, 0, 1, 2), adversaries={4: "fake_leader"},
            quorum_size=3,
            partitions=(Partition(0, 5000, ((0, 1, 2), (3, 4))),),
        )
        assert check_invariants(trace, report) == [
            "election-safety term=2 leaders=[0, 1, 2]",
            "election-safety term=7 leaders=[0, 3]",
            "vote-uniqueness node=1 term=2",
            "term-monotonicity node=2 term=4 after=5 at=21",
            "term-monotonicity node=0 term=1 after=3 at=24",
            "fake-leader-reset node=1 leader=4 at=3000",
            "expired-proof-reset node=1 proof_ts=5 at=3000",
            "fake-leader-reset node=2 leader=4 at=3001",
            "expired-proof-reset node=3 proof_ts=100 at=3003",
            "fake-leader-acknowledged node=0 leader=4",
            "fake-leader-acknowledged node=3 leader=4",
            "minority-leader node=3 term=7 window=[1050,5000)",
            "minority-leader node=4 term=-1 window=[1050,5000)",
        ]

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
