"""State-machine rules, exercised node by node without a network."""

import random
from dataclasses import replace

import pytest

from mokka import core, crypto, curve, proofs, wire
from mokka.core import (
    ArmElectionTimer,
    ArmHeartbeatTimer,
    Candidate,
    Diagnostic,
    ElectionTimeout,
    Follower,
    Heartbeat,
    HeartbeatTick,
    Leader,
    NodeConfig,
    Packet,
    PacketArrived,
    RoleChanged,
    Send,
    VoteRequest,
    VoteResponse,
)
from mokka.proofs import ProofPolicy

from conftest import cancelling_cluster


def only(outputs, kind):
    picked = [o for o in outputs if isinstance(o, kind)]
    assert len(picked) == 1, outputs
    return picked[0]


def make_node(node_id, cluster, scheme=wire.SCHEME_SCHNORR, seed="core", **config_kw):
    keypairs, keyring = cluster
    config = NodeConfig(scheme=scheme, **config_kw)
    rng = random.Random(f"{seed}:{node_id}")
    return core.init(node_id, keypairs[node_id], keyring, config, rng)


def deliver(state, packet, now_ms):
    return core.step(state, PacketArrived(packet), now_ms)


def elect_leader(cluster, candidate=0, now_ms=1000, scheme=wire.SCHEME_SCHNORR):
    """Drive a full election by hand; returns (states, candidate outputs)."""
    keypairs, keyring = cluster
    n = len(keyring.sorted_ids)
    states = {}
    for node in range(n):
        state, _ = make_node(node, cluster, scheme=scheme)
        states[node] = state
    _, outs = core.step(states[candidate], ElectionTimeout(), now_ms)
    requests = only(outs, Send).packets
    final_outs = []
    for req in requests:
        if isinstance(states[candidate].role, Leader):
            break
        _, vouts = deliver(states[req.dst], req, now_ms)
        for out in vouts:
            if isinstance(out, Send):
                for pkt in out.packets:
                    _, outs = deliver(states[candidate], pkt, now_ms)
                    if any(isinstance(o, RoleChanged) for o in outs):
                        final_outs = outs
    return states, final_outs


# The crypto functions that sign or check in batches, by their own name or
# by that of the one-item form that calls them: the batched form, and the
# position of its argument that lists the items signed or checked.
_BATCHED = {
    "schnorr_partial_sign": ("schnorr_sign_partials", 2),
    "schnorr_partial_verify": ("schnorr_verify_partials", 1),
    "verify_recoverables": ("verify_recoverables", 1),
}


def _count_calls(monkeypatch, name):
    """Record each signature crypto.<name> makes or checks from here on:
    each call's arguments or, for a function with a batched form, each item
    of every batch, which counts the single calls too."""
    name, batch = _BATCHED.get(name, (name, None))
    calls = []
    original = getattr(proofs.crypto, name)

    def counting(*args):
        calls.extend([args] if batch is None else args[batch])
        return original(*args)

    monkeypatch.setattr(proofs.crypto, name, counting)
    return calls


FORGED_COMBO = proofs.crypto.ComboId.of([0, 2])


def _forged_schnorr_heartbeat(keyring, rng, now, algebraic=False):
    """Node 2's heartbeat at term 99 over combo {0, 2}, signed by nobody.

    Random (R, s) fails the crypto. The algebraic forgery R = s*G - e*A
    passes it: the challenge e does not depend on R (ROADMAP item 1).
    """
    curve = proofs.curve
    s = rng.randrange(1, curve.N)
    if algebraic:
        message = wire.vote_message(wire.SCHEME_SCHNORR, 99, now, 2)
        e = proofs.crypto.schnorr_challenge(keyring, FORGED_COMBO, message)
        big_r = curve.point_add(
            curve.scalar_mult_base(s),
            curve.point_neg(curve.scalar_mult(e, keyring.combos[FORGED_COMBO])),
        )
    else:
        big_r = curve.scalar_mult_base(rng.randrange(1, curve.N))
    proof = proofs.VoteProof(
        wire.SCHEME_SCHNORR, 99, now, 2, proofs.SchnorrBody(FORGED_COMBO, big_r, s)
    )
    return Heartbeat(proof)


class TestInit:
    def test_starts_as_follower_term_zero(self, cluster3):
        state, outs = make_node(0, cluster3)
        assert isinstance(state.role, Follower)
        assert state.current_term == 0
        assert state.voted_for is None
        assert state.known_leader is None
        timer = only(outs, ArmElectionTimer)
        low, high = state.config.election_timeout_range_ms
        assert low <= timer.duration_ms <= high
        assert timer.cause == "init"

    def test_timer_draw_comes_from_supplied_rng(self, cluster3):
        keypairs, keyring = cluster3
        config = NodeConfig()
        _, outs_a = core.init(0, keypairs[0], keyring, config, random.Random(7))
        _, outs_b = core.init(0, keypairs[0], keyring, config, random.Random(7))
        assert only(outs_a, ArmElectionTimer) == only(outs_b, ArmElectionTimer)
        expected = random.Random(7).randint(*config.election_timeout_range_ms)
        assert only(outs_a, ArmElectionTimer).duration_ms == expected

    def test_unknown_node_rejected(self, cluster3):
        keypairs, keyring = cluster3
        with pytest.raises(core.CoreError, match="not in keyring"):
            core.init(9, keypairs[0], keyring, NodeConfig(), random.Random(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(election_timeout_range_ms=(300, 150))
        with pytest.raises(ValueError):
            NodeConfig(heartbeat_interval_ms=200)
        with pytest.raises(ValueError):
            NodeConfig(proof_policy=ProofPolicy(ttl_ms=40))
        with pytest.raises(ValueError, match="unknown scheme 9"):
            NodeConfig(scheme=9)

    @pytest.mark.parametrize("interval", [0, -50])
    def test_heartbeat_interval_must_be_positive(self, interval):
        # A leader would otherwise re-arm its heartbeat timer at the same
        # virtual instant forever.
        with pytest.raises(ValueError, match="heartbeat interval must be positive"):
            NodeConfig(heartbeat_interval_ms=interval)


class TestElectionStart:
    def test_timeout_starts_campaign(self, cluster3):
        state, _ = make_node(0, cluster3)
        _, outs = core.step(state, ElectionTimeout(), 1000)
        assert state.current_term == 1
        assert isinstance(state.role, Candidate)
        assert state.voted_for == (1, 0)
        assert only(outs, RoleChanged).role == "candidate"
        requests = only(outs, Send).packets
        assert [p.dst for p in requests] == [1, 2]
        assert all(isinstance(p.body, VoteRequest) for p in requests)
        assert only(outs, ArmElectionTimer).cause == "election-round"

    def test_repeated_timeouts_bump_term(self, cluster3):
        state, _ = make_node(0, cluster3)
        core.step(state, ElectionTimeout(), 1000)
        core.step(state, ElectionTimeout(), 2000)
        assert state.current_term == 2
        assert state.voted_for == (2, 0)

    def test_leader_ignores_stale_election_timer(self, cluster3):
        states, _ = elect_leader(cluster3)
        leader = states[0]
        assert isinstance(leader.role, Leader)
        _, outs = core.step(leader, ElectionTimeout(), 2000)
        assert outs == []
        assert isinstance(leader.role, Leader)

    def test_no_election_past_the_largest_wire_term(self, cluster3):
        # Node 1 grants a vote at the largest term the wire holds; its next
        # timeout must not send a request that no peer can encode a vote for.
        _, keyring = cluster3
        states = {i: make_node(i, cluster3)[0] for i in range(3)}
        payloads = proofs.make_vote_payloads(
            2, wire.MAX_TERM, 1000, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        _, outs = deliver(states[1], Packet(2, 1, VoteRequest(payloads[1])), 1000)
        assert only(outs, Send).packets[0].dst == 2
        _, outs = core.step(states[1], ElectionTimeout(), 1300)
        for out in outs:
            for packet in getattr(out, "packets", ()):
                deliver(states[packet.dst], packet, 1300)
        assert outs == [Diagnostic("term-exhausted", f"term={wire.MAX_TERM}")]
        assert states[1].current_term == wire.MAX_TERM
        assert states[1].voted_for == (wire.MAX_TERM, 2)
        assert isinstance(states[1].role, Follower)


class TestVoteRequest:
    def _request(
        self, cluster, term=1, now=1000, candidate=0, voter=1,
        scheme=wire.SCHEME_SCHNORR,
    ):
        keypairs, keyring = cluster
        payloads = proofs.make_vote_payloads(
            candidate, term, now, keyring, scheme, random.Random(0)
        )
        return Packet(candidate, voter, VoteRequest(payloads[voter]))

    def test_grant_and_rearm(self, cluster3):
        state, _ = make_node(1, cluster3)
        _, outs = deliver(state, self._request(cluster3), 1000)
        response = only(outs, Send).packets[0]
        assert response.dst == 0
        assert isinstance(response.body, VoteResponse)
        assert state.voted_for == (1, 0)
        assert only(outs, ArmElectionTimer).cause == "vote-granted"

    def test_stale_term_refused(self, cluster3):
        state, _ = make_node(1, cluster3)
        state.current_term = 5
        _, outs = deliver(state, self._request(cluster3, term=1), 1000)
        assert only(outs, Diagnostic).code == "stale-term"
        assert not any(isinstance(o, Send) for o in outs)

    def test_one_vote_per_term(self, cluster5):
        state, _ = make_node(1, cluster5)
        keypairs, keyring = cluster5
        _, outs = deliver(state, self._request(cluster5, candidate=0), 1000)
        assert any(isinstance(o, Send) for o in outs)
        payloads = proofs.make_vote_payloads(
            2, 1, 1000, keyring, wire.SCHEME_SCHNORR, random.Random(1)
        )
        _, outs = deliver(state, Packet(2, 1, VoteRequest(payloads[1])), 1000)
        diag = only(outs, Diagnostic)
        assert diag.code == "already-voted"
        assert "for=0" in diag.detail
        assert not any(isinstance(o, Send) for o in outs)

    def test_higher_term_demotes_candidate(self, cluster3):
        state, _ = make_node(1, cluster3)
        core.step(state, ElectionTimeout(), 900)
        assert isinstance(state.role, Candidate)
        _, outs = deliver(state, self._request(cluster3, term=5), 1000)
        assert state.current_term == 5
        assert isinstance(state.role, Follower)
        assert only(outs, RoleChanged).role == "follower"
        # New term, no vote cast yet in it: the request is granted.
        assert any(isinstance(o, Send) for o in outs)

    def test_excessive_clock_skew_refused(self, cluster3):
        state, _ = make_node(1, cluster3)
        skew = state.config.proof_policy.max_clock_skew_ms
        pkt = self._request(cluster3, now=1000)
        _, outs = deliver(state, pkt, 1000 + skew + 1)
        assert only(outs, Diagnostic).code == "clock-skew"
        assert state.voted_for is None
        _, outs = deliver(state, pkt, 1000 + skew)
        assert any(isinstance(o, Send) for o in outs)

    @pytest.mark.parametrize("scheme, sent, signer", [
        # A Schnorr grant at n = 9 would sign C(7, 3) = 35 partials.
        (wire.SCHEME_SSS, wire.SCHEME_SCHNORR, "schnorr_partial_sign"),
        (wire.SCHEME_SCHNORR, wire.SCHEME_SSS, "sign_recoverable"),
    ])
    def test_request_in_another_scheme_signs_nothing(
        self, cluster9, monkeypatch, scheme, sent, signer
    ):
        state, _ = make_node(1, cluster9, scheme=scheme)
        calls = _count_calls(monkeypatch, signer)
        _, outs = deliver(state, self._request(cluster9, scheme=sent), 1000)
        assert outs == [Diagnostic("malformed", f"vote-request: scheme {sent}")]
        assert calls == [] and state.voted_for is None

    @pytest.mark.parametrize("scheme, signer", [
        # A Schnorr grant at n = 9 signs 35 partials, or 70 for itself.
        (wire.SCHEME_SCHNORR, "schnorr_partial_sign"),
        (wire.SCHEME_SSS, "sign_recoverable"),
    ])
    @pytest.mark.parametrize("candidate", [1, 99], ids=["receiver", "outsider"])
    def test_request_for_a_candidate_that_is_no_peer_signs_nothing(
        self, cluster9, monkeypatch, scheme, signer, candidate
    ):
        state, _ = make_node(1, cluster9, scheme=scheme)
        real = self._request(cluster9, scheme=scheme)
        payload = replace(real.body.payload, candidate=candidate)
        calls = _count_calls(monkeypatch, signer)
        _, outs = deliver(state, replace(real, body=VoteRequest(payload)), 1000)
        assert outs == [Diagnostic("malformed", f"vote-request: candidate {candidate}")]
        assert calls == [] and state.voted_for is None
        # The vote is not burnt: the real candidate's request is granted.
        _, outs = deliver(state, real, 1000)
        assert only(outs, Send).packets[0].dst == 0
        assert state.voted_for == (1, 0)

    @pytest.mark.parametrize("change, refusal", [
        ({"candidate": 99}, Diagnostic("malformed", "vote-request: candidate 99")),
        (
            {"scheme": wire.SCHEME_SSS},
            Diagnostic("malformed", f"vote-request: scheme {wire.SCHEME_SSS}"),
        ),
        ({"timestamp_ms": 1551}, Diagnostic("clock-skew", "term=5 skew=501")),
    ], ids=["candidate", "scheme", "clock-skew"])
    def test_refused_request_leaves_the_leader_as_it_was(self, cluster3, change, refusal):
        # Every refusal is decided before the request's higher term is
        # adopted: the leader keeps its term, role and vote record.
        states, _ = elect_leader(cluster3)
        leader = states[0]
        before = (leader.current_term, leader.role, leader.known_leader, leader.voted_for)
        assert isinstance(leader.role, Leader) and before[0] == 1
        real = self._request(cluster3, term=5, now=1050, candidate=1, voter=0)
        payload = replace(real.body.payload, **change)
        _, outs = deliver(leader, replace(real, body=VoteRequest(payload)), 1050)
        assert outs == [refusal]
        after = (leader.current_term, leader.role, leader.known_leader, leader.voted_for)
        assert after == before and leader.role is before[1]


class TestVoteResponse:
    def test_quorum_promotes_to_leader(self, cluster3):
        states, outs = elect_leader(cluster3)
        leader = states[0]
        assert isinstance(leader.role, Leader)
        change = only(outs, RoleChanged)
        assert change.role == "leader" and change.proof is not None
        burst = only(outs, Send).packets
        assert [p.dst for p in burst] == [1, 2]
        assert all(isinstance(p.body, Heartbeat) for p in burst)
        only(outs, ArmHeartbeatTimer)
        assert leader.known_leader == 0
        policy = leader.config.proof_policy
        assert proofs.validate_proof(
            leader.role.proof, leader.keyring, policy, 1000
        ) is proofs.ValidationResult.OK

    def test_five_node_cluster_needs_three_grants(self, cluster5):
        keypairs, keyring = cluster5
        states = {i: make_node(i, cluster5)[0] for i in range(5)}
        _, outs = core.step(states[0], ElectionTimeout(), 1000)
        requests = only(outs, Send).packets
        grants = []
        for req in requests:
            _, vouts = deliver(states[req.dst], req, 1000)
            grants.append(only(vouts, Send).packets[0])
        _, outs = deliver(states[0], grants[0], 1000)
        assert outs == []
        assert isinstance(states[0].role, Candidate)
        _, outs = deliver(states[0], grants[1], 1000)
        assert isinstance(states[0].role, Leader)
        assert only(outs, RoleChanged).role == "leader"

    def test_duplicate_grant_counted_once(self, cluster5):
        states = {i: make_node(i, cluster5)[0] for i in range(5)}
        _, outs = core.step(states[0], ElectionTimeout(), 1000)
        req = only(outs, Send).packets[0]
        _, vouts = deliver(states[req.dst], req, 1000)
        grant = only(vouts, Send).packets[0]
        deliver(states[0], grant, 1000)
        _, outs = deliver(states[0], grant, 1000)
        assert only(outs, Diagnostic).code == "duplicate-grant"
        assert isinstance(states[0].role, Candidate)

    def test_forged_grant_rejected(self, cluster3):
        states = {i: make_node(i, cluster3)[0] for i in range(3)}
        _, outs = core.step(states[0], ElectionTimeout(), 1000)
        req = only(outs, Send).packets[0]
        _, vouts = deliver(states[req.dst], req, 1000)
        grant_pkt = only(vouts, Send).packets[0]
        grant = grant_pkt.body.grant
        forged = replace(
            grant,
            partials=tuple(
                replace(p, s_value=(p.s_value + 1) % proofs.curve.N)
                for p in grant.partials
            ),
        )
        _, outs = deliver(states[0], Packet(1, 0, VoteResponse(forged)), 1000)
        assert only(outs, Diagnostic).code == "bad-grant"
        assert isinstance(states[0].role, Candidate)

    @staticmethod
    def _campaign(cluster, scheme=wire.SCHEME_SCHNORR):
        """Node 0 campaigns; returns the states and each voter's grant, in
        request order, not yet delivered."""
        n = len(cluster[1].sorted_ids)
        states = {i: make_node(i, cluster, scheme=scheme)[0] for i in range(n)}
        _, outs = core.step(states[0], ElectionTimeout(), 1000)
        grants = []
        for req in only(outs, Send).packets:
            _, vouts = deliver(states[req.dst], req, 1000)
            grants.append(only(vouts, Send).packets[0].body.grant)
        return states, grants

    @staticmethod
    def _respond(state, grant):
        return deliver(state, Packet(grant.voter, state.id, VoteResponse(grant)), 1000)[1]

    @staticmethod
    def _bump_s(grant, hit=lambda p: True):
        return replace(
            grant,
            partials=tuple(
                replace(p, s_value=(p.s_value + 1) % proofs.curve.N) if hit(p) else p
                for p in grant.partials
            ),
        )

    def test_forged_grant_dropped_when_quorum_forms(self, cluster5):
        # Signatures are checked once the quorum forms, not on arrival.
        states, grants = self._campaign(cluster5)
        candidate = states[0]
        assert self._respond(candidate, self._bump_s(grants[0])) == []
        outs = self._respond(candidate, grants[1])
        diag = only(outs, Diagnostic)
        assert (diag.code, diag.detail) == ("bad-grant", "term=1 voter=1")
        assert isinstance(candidate.role, Candidate)
        assert list(candidate.role.pending_grants) == [0, 2]
        outs = self._respond(candidate, grants[2])
        assert only(outs, RoleChanged).role == "leader"
        proof = candidate.role.proof
        assert set(proof.body.combo.members()) == {0, 2, 3}
        assert proofs.validate_proof(
            proof, candidate.keyring, candidate.config.proof_policy, 1000
        ) is proofs.ValidationResult.OK

    @staticmethod
    def _forge(grant):
        if grant.share_sig is None:
            return TestVoteResponse._bump_s(grant)
        share, sig = grant.share_sig
        return replace(grant, share_sig=(share, replace(sig, s=sig.s + 1)))

    @pytest.mark.parametrize("scheme", [wire.SCHEME_SCHNORR, wire.SCHEME_SSS])
    def test_forgery_does_not_shut_out_the_real_grant(self, cluster5, scheme):
        # n = 5 with node 4 silent: an impersonator's grant for voter 1
        # arrives first. Voter 1's real grant must still take its slot, or
        # nodes 2 and 3 alone cannot make a quorum.
        states, grants = self._campaign(cluster5, scheme)
        candidate = states[0]
        forged = self._forge(grants[0])
        assert self._respond(candidate, forged) == []
        assert self._respond(candidate, self._forge(forged)) == [
            Diagnostic("bad-grant", "term=1 voter=1")
        ]
        outs = self._respond(candidate, grants[0])
        assert outs == [Diagnostic("bad-grant", "term=1 voter=1")]
        assert candidate.role.pending_grants[1] is grants[0]
        # Once the real grant holds the slot, a later forgery is a duplicate.
        outs = self._respond(candidate, forged)
        assert outs == [Diagnostic("duplicate-grant", "term=1 voter=1")]
        outs = self._respond(candidate, grants[1])
        assert only(outs, RoleChanged).role == "leader"
        proof = candidate.role.proof
        assert proofs.validate_proof(
            proof, candidate.keyring, candidate.config.proof_policy, 1000
        ) is proofs.ValidationResult.OK
        if scheme == wire.SCHEME_SCHNORR:
            assert set(proof.body.combo.members()) == {0, 1, 2}
        else:
            assert grants[0].share_sig in proof.body.entries

    @pytest.mark.parametrize("scheme, checker, checks", [
        # The held Schnorr grant's C(7, 3) partials, checked once, not
        # once per challenger.
        (wire.SCHEME_SCHNORR, "schnorr_partial_verify", 35),
        (wire.SCHEME_SSS, "verify_recoverables", 1),
    ])
    def test_held_grant_is_checked_once_per_voter(
        self, cluster9, monkeypatch, scheme, checker, checks
    ):
        states, grants = self._campaign(cluster9, scheme)
        candidate = states[0]
        assert self._respond(candidate, grants[0]) == []
        calls = _count_calls(monkeypatch, checker)
        forged = grants[0]
        for _ in range(3):
            forged = self._forge(forged)
            outs = self._respond(candidate, forged)
            assert outs == [Diagnostic("duplicate-grant", "term=1 voter=1")]
        assert len(calls) == checks
        assert candidate.role.pending_grants[1] is grants[0]

    def test_repeated_real_grant_is_a_duplicate(self, cluster5, monkeypatch):
        # A resent copy of the pending grant costs no signature check.
        states, grants = self._campaign(cluster5)
        candidate = states[0]
        assert self._respond(candidate, grants[0]) == []
        monkeypatch.setattr(proofs, "grant_verifies", None)
        outs = self._respond(candidate, replace(grants[0]))
        assert outs == [Diagnostic("duplicate-grant", "term=1 voter=1")]

    def test_two_bad_grants_in_one_quorum_both_dropped(self, cluster5):
        states, grants = self._campaign(cluster5)
        candidate = states[0]
        chosen = proofs.crypto.ComboId(0b111)  # candidate 0, voters 1 and 2
        tampered = self._bump_s(grants[0], lambda p: p.combo == chosen)
        # Well formed, but without a partial for the combo it lands in.
        missing = replace(
            grants[1],
            partials=tuple(p for p in grants[1].partials if p.combo != chosen),
        )
        assert self._respond(candidate, tampered) == []
        outs = self._respond(candidate, missing)
        assert [(o.code, o.detail) for o in outs] == [
            ("bad-grant", "term=1 voter=1"),
            ("bad-grant", "term=1 voter=2"),
        ]
        assert list(candidate.role.pending_grants) == [0]
        assert self._respond(candidate, grants[2]) == []
        outs = self._respond(candidate, grants[3])
        assert only(outs, RoleChanged).role == "leader"
        assert set(candidate.role.proof.body.combo.members()) == {0, 3, 4}

    def test_unattributable_failure_keeps_step_total(self, cluster5):
        # Voter 2's partial verifies alone but zeroes the aggregate's s, so
        # no voter can be named. Making it takes the candidate's nonce; the
        # test plays that attacker with the test keys.
        keypairs, keyring = cluster5
        states, grants = self._campaign(cluster5)
        candidate = states[0]
        combo = proofs.crypto.ComboId(0b111)
        message = wire.vote_message(wire.SCHEME_SCHNORR, 1, 1000, 0)
        own = proofs.crypto.schnorr_partial_sign(keypairs[0], keyring, combo, message)
        mine = next(p for p in grants[0].partials if p.combo == combo)
        s = -(own.s_value + mine.s_value) % proofs.curve.N
        e = proofs.crypto.schnorr_challenge(keyring, combo, message)
        curve = proofs.curve
        zeroing = proofs.crypto.PartialSignature(
            2, combo,
            curve.point_add(
                curve.scalar_mult_base(s),
                curve.point_neg(curve.scalar_mult(e, keypairs[2].public)),
            ),
            s,
        )
        assert proofs.crypto.schnorr_partial_verify(keyring, zeroing, message)
        forged = replace(
            grants[1],
            partials=tuple(
                zeroing if p.combo == combo else p for p in grants[1].partials
            ),
        )
        assert self._respond(candidate, grants[0]) == []
        for grant in (forged, grants[2]):
            outs = self._respond(candidate, grant)
            assert only(outs, Diagnostic).detail == "aggregate signature does not verify"
            assert isinstance(candidate.role, Candidate)

    def test_unattributable_failure_is_not_rebuilt(self, cluster5, monkeypatch):
        # A failure that names no voter recurs while the same grants lead
        # the queue: later grants are stored without a rebuild, until a
        # forged pending grant gives way to its voter's real one.
        builds = []

        def failing_build(*args, **kwargs):
            builds.append(args)
            raise proofs.ProofError("aggregate signature does not verify")

        monkeypatch.setattr(proofs, "build_proof", failing_build)
        states, grants = self._campaign(cluster5)
        candidate = states[0]
        failure = Diagnostic("bad-grant", "aggregate signature does not verify")
        assert self._respond(candidate, self._forge(grants[0])) == []
        for grant in grants[1:]:
            assert self._respond(candidate, grant) == [failure]
        assert len(builds) == 1
        assert list(candidate.role.pending_grants) == [0, 1, 2, 3, 4]
        outs = self._respond(candidate, grants[0])
        assert outs == [Diagnostic("bad-grant", "term=1 voter=1"), failure]
        assert len(builds) == 2

    def test_forged_grant_over_cancelling_keys_leaves_the_election_open(self):
        # Node 1 grants nothing to candidate 0: their one combo, {0, 1},
        # has no aggregate key. A grant forged in node 1's name is dropped,
        # so node 2's real grant then elects the candidate.
        cluster = cancelling_cluster()
        states = [make_node(i, cluster)[0] for i in range(3)]
        _, outs = core.step(states[0], ElectionTimeout(), 100)
        requests = {packet.dst: packet for packet in only(outs, Send).packets}
        _, outs = deliver(states[1], requests[1], 100)
        assert only(outs, Diagnostic).code == "malformed"
        psig = crypto.PartialSignature(1, crypto.ComboId.of((0, 1)), curve.G, 5)
        forged = proofs.VoteGrant(1, 1, partials=(psig,))
        _, outs = deliver(states[0], Packet(1, 0, VoteResponse(forged)), 100)
        assert outs == [Diagnostic("bad-grant", "term=1 voter=1")]
        _, outs = deliver(states[2], requests[2], 100)
        _, outs = deliver(states[0], only(outs, Send).packets[0], 100)
        assert only(outs, RoleChanged).role == "leader"
        assert proofs.validate_proof(
            states[0].role.proof, cluster[1], states[0].config.proof_policy, 100
        ) is proofs.ValidationResult.OK

    @staticmethod
    def _count_schnorr_calls(monkeypatch, signer_key):
        calls = {"sign": 0, "verify": 0}
        sign = proofs.crypto.schnorr_sign_partials
        verify = proofs.crypto.schnorr_verify_partials

        def counting_sign(kp, ring, combos, message):
            calls["sign"] += len(combos) if kp.public == signer_key else 0
            return sign(kp, ring, combos, message)

        def counting_verify(ring, psigs, message):
            calls["verify"] += len(psigs)
            return verify(ring, psigs, message)

        monkeypatch.setattr(proofs.crypto, "schnorr_sign_partials", counting_sign)
        monkeypatch.setattr(proofs.crypto, "schnorr_verify_partials", counting_verify)
        return calls

    def test_election_without_quorum_signs_and_verifies_nothing(
        self, cluster5, monkeypatch
    ):
        keypairs, _ = cluster5
        calls = self._count_schnorr_calls(monkeypatch, keypairs[0].public)
        states, grants = self._campaign(cluster5)
        assert self._respond(states[0], grants[0]) == []
        core.step(states[0], ElectionTimeout(), 1300)  # the round lapses
        assert isinstance(states[0].role, Candidate)
        assert calls == {"sign": 0, "verify": 0}

    def test_won_election_signs_one_own_partial(self, cluster5, monkeypatch):
        keypairs, keyring = cluster5
        calls = self._count_schnorr_calls(monkeypatch, keypairs[0].public)
        states, grants = self._campaign(cluster5)
        candidate = states[0]
        self._respond(candidate, grants[0])
        self._respond(candidate, grants[1])
        assert isinstance(candidate.role, Leader)
        assert calls == {"sign": 1, "verify": 0}
        # The proof assembled by hand from the candidate's grant_vote grant,
        # which signs every combo.
        payload = proofs.make_vote_payloads(
            0, 1, 1000, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )[0]
        chosen = [proofs.grant_vote(keypairs[0], payload, keyring), *grants[:2]]
        combo = proofs.ComboId.of(g.voter for g in chosen)
        big_r, s = proofs.crypto.schnorr_aggregate([
            next(p for p in g.partials if p.combo == combo) for g in chosen
        ])
        eager = proofs.VoteProof(
            wire.SCHEME_SCHNORR, 1, 1000, 0, proofs.SchnorrBody(combo, big_r, s)
        )
        assert proofs.encode_proof(candidate.role.proof) == proofs.encode_proof(eager)

    def test_response_outside_campaign_is_late(self, cluster3):
        states = {i: make_node(i, cluster3)[0] for i in range(3)}
        _, outs = core.step(states[0], ElectionTimeout(), 1000)
        req = only(outs, Send).packets[0]
        _, vouts = deliver(states[req.dst], req, 1000)
        grant = only(vouts, Send).packets[0]
        _, outs = deliver(states[2], grant, 1000)  # never campaigned
        assert only(outs, Diagnostic).code == "late-response"


class TestHeartbeat:
    def _leader_and_heartbeat(self, cluster, now=1000):
        states, outs = elect_leader(cluster, now_ms=now)
        hb = only(outs, Send).packets[0].body
        return states, hb

    def test_valid_heartbeat_resets_follower(self, cluster3):
        states, hb = self._leader_and_heartbeat(cluster3)
        follower = states[2]
        _, outs = core.step(follower, PacketArrived(Packet(0, 2, hb)), 1050)
        timer = only(outs, ArmElectionTimer)
        assert (timer.cause, timer.proof) == ("heartbeat", hb.proof)
        assert (timer.proof.candidate, timer.proof.timestamp_ms) == (0, 1000)
        assert follower.known_leader == 0
        assert follower.current_term == 1

    def test_bad_proof_never_resets(self, cluster3):
        states, hb = self._leader_and_heartbeat(cluster3)
        forged = replace(
            hb, proof=replace(
                hb.proof,
                body=replace(
                    hb.proof.body,
                    s_value=(hb.proof.body.s_value + 1) % proofs.curve.N,
                ),
            ),
        )
        follower = states[2]
        _, outs = core.step(follower, PacketArrived(Packet(0, 2, forged)), 1050)
        assert only(outs, Diagnostic).code == "bad_signature"
        assert not any(isinstance(o, ArmElectionTimer) for o in outs)
        assert follower.known_leader is None

    def test_expired_proof_classified_even_when_term_is_stale(self, cluster3):
        states, hb = self._leader_and_heartbeat(cluster3)
        follower = states[2]
        follower.current_term = 10  # replay arrives after local term moved on
        ttl = follower.config.proof_policy.ttl_ms
        _, outs = core.step(
            follower, PacketArrived(Packet(0, 2, hb)), 1000 + ttl + 1
        )
        assert only(outs, Diagnostic).code == "expired"
        assert not any(isinstance(o, ArmElectionTimer) for o in outs)

    def test_stale_term_heartbeat_with_valid_proof(self, cluster3):
        states, hb = self._leader_and_heartbeat(cluster3)
        follower = states[2]
        follower.current_term = 10
        _, outs = core.step(follower, PacketArrived(Packet(0, 2, hb)), 1050)
        assert only(outs, Diagnostic).code == "stale-term"

    def test_heartbeat_demotes_rival_candidate(self, cluster3):
        states, hb = self._leader_and_heartbeat(cluster3)
        rival = states[2]
        core.step(rival, ElectionTimeout(), 1040)
        assert isinstance(rival.role, Candidate)
        assert rival.current_term == hb.proof.term
        # An equal-term heartbeat with a valid proof wins over a rival campaign.
        _, outs = core.step(rival, PacketArrived(Packet(0, 2, hb)), 1050)
        assert only(outs, RoleChanged).role == "follower"
        assert isinstance(rival.role, Follower)
        assert rival.known_leader == 0

    def test_heartbeat_with_higher_term_demotes(self, cluster3):
        states, hb = self._leader_and_heartbeat(cluster3, now=1000)
        follower = states[2]
        assert follower.current_term == 0
        _, outs = core.step(follower, PacketArrived(Packet(0, 2, hb)), 1020)
        assert follower.current_term == hb.proof.term
        assert isinstance(follower.role, Follower)


    def test_stale_forged_heartbeat_costs_no_crypto(self, cluster3, monkeypatch):
        follower, _ = make_node(1, cluster3)
        follower.current_term = 100
        calls = _count_calls(monkeypatch, "schnorr_verify")
        hb = _forged_schnorr_heartbeat(cluster3[1], random.Random(5), now=1000)
        _, outs = core.step(follower, PacketArrived(Packet(2, 1, hb)), 1000)
        assert outs == [Diagnostic("stale-term", "heartbeat term=99")]
        ttl = follower.config.proof_policy.ttl_ms
        _, outs = core.step(follower, PacketArrived(Packet(2, 1, hb)), 1000 + ttl + 1)
        assert only(outs, Diagnostic).code == "expired"
        assert calls == [] and not follower.validator._cache

    def test_cached_proof_still_expires(self, cluster3):
        states, hb = self._leader_and_heartbeat(cluster3)
        follower = states[2]
        core.step(follower, PacketArrived(Packet(0, 2, hb)), 1050)
        assert follower.validator._cache
        ttl = follower.config.proof_policy.ttl_ms
        _, outs = core.step(follower, PacketArrived(Packet(0, 2, hb)), 1000 + ttl + 1)
        assert only(outs, Diagnostic).code == "expired"

    def test_own_proof_replayed_to_leader_changes_nothing(self, cluster3):
        states, hb = self._leader_and_heartbeat(cluster3)
        leader = states[0]
        known = leader.known_leader
        _, outs = core.step(leader, PacketArrived(Packet(0, 0, hb)), 1300)
        assert outs == [Diagnostic("self-leader", "term=1")]
        assert isinstance(leader.role, Leader) and leader.known_leader == known
        assert leader.current_term == 1
        # The time checks come first: a replay past the ttl reads expired.
        ttl = leader.config.proof_policy.ttl_ms
        _, outs = core.step(leader, PacketArrived(Packet(0, 0, hb)), 1000 + ttl + 1)
        assert only(outs, Diagnostic).code == "expired"
        assert isinstance(leader.role, Leader)

    @pytest.mark.parametrize("scheme", [wire.SCHEME_SCHNORR, wire.SCHEME_SSS])
    def test_proof_in_another_scheme_is_refused_without_crypto(
        self, cluster3, cluster5, monkeypatch, scheme
    ):
        # A Shamir leader's valid proof reaches a Schnorr node; a Schnorr
        # forgery reaches a Shamir node outside its combo, which has no
        # vote record to refute it from.
        if scheme == wire.SCHEME_SCHNORR:
            cluster, receiver, checker = cluster5, 4, "verify_recoverables"
            _, outs = elect_leader(cluster5, scheme=wire.SCHEME_SSS)
            hb = only(outs, Send).packets[0].body
        else:
            cluster, receiver, checker = cluster3, 1, "schnorr_verify"
            hb = _forged_schnorr_heartbeat(cluster3[1], random.Random(7), now=1000)
        node, _ = make_node(receiver, cluster, scheme=scheme)
        calls = _count_calls(monkeypatch, checker)
        term, leader = hb.proof.term, hb.proof.candidate
        _, outs = core.step(node, PacketArrived(Packet(leader, receiver, hb)), 1000)
        assert outs == [Diagnostic("bad_signature", f"term={term} leader={leader}")]
        assert calls == [] and not node.validator._cache
        assert node.known_leader is None


class TestOwnVoteRefutation:
    """A proof that claims this node's signature for a vote the node never
    cast is refuted from its vote record, before any curve work."""

    def test_combo_member_refutes_without_crypto(self, cluster3, monkeypatch):
        calls = _count_calls(monkeypatch, "schnorr_verify")
        hb = _forged_schnorr_heartbeat(cluster3[1], random.Random(1), now=1000)
        member, _ = make_node(0, cluster3)
        _, outs = core.step(member, PacketArrived(Packet(2, 0, hb)), 1000)
        assert outs == [Diagnostic("bad_signature", "term=99 leader=2")]
        assert calls == []
        assert member.known_leader is None and member.current_term == 0
        # Having voted for another candidate in that term refutes it too.
        member.voted_for = (99, 0)
        _, outs = core.step(member, PacketArrived(Packet(2, 0, hb)), 1000)
        assert only(outs, Diagnostic).code == "bad_signature"
        assert calls == []
        outsider, _ = make_node(1, cluster3)
        _, outs = core.step(outsider, PacketArrived(Packet(2, 1, hb)), 1000)
        assert outs == [Diagnostic("bad_signature", "term=99 leader=2")]
        assert len(calls) == 1

    def test_combo_outside_the_keyring_reads_unknown_voter(self, cluster3):
        hb = _forged_schnorr_heartbeat(cluster3[1], random.Random(6), now=1000)
        body = replace(hb.proof.body, combo=proofs.crypto.ComboId(0b111))
        hb = replace(hb, proof=replace(hb.proof, body=body))
        member, _ = make_node(0, cluster3)
        _, outs = core.step(member, PacketArrived(Packet(2, 0, hb)), 1000)
        assert outs == [Diagnostic("unknown_voter", "term=99 leader=2")]

    def test_refutations_are_not_cached(self, cluster3):
        hb = _forged_schnorr_heartbeat(cluster3[1], random.Random(2), now=1000)
        member, _ = make_node(0, cluster3)
        for now in (1000, 1050):
            _, outs = core.step(member, PacketArrived(Packet(2, 0, hb)), now)
            assert only(outs, Diagnostic).code == "bad_signature"
        assert not member.validator._cache

    def test_voter_still_accepts_the_proof_it_signed(self, cluster3, monkeypatch):
        states, outs = elect_leader(cluster3)
        hb = only(outs, Send).packets[0].body
        voter = states[1]
        assert voter.voted_for == (1, 0) and 1 in hb.proof.body.combo
        calls = _count_calls(monkeypatch, "schnorr_verify")
        _, outs = core.step(voter, PacketArrived(Packet(0, 1, hb)), 1050)
        timer = only(outs, ArmElectionTimer)
        assert (timer.cause, timer.proof) == ("heartbeat", hb.proof)
        assert voter.known_leader == 0
        assert len(calls) == 1

    def test_member_refutes_the_algebraic_forgery(self, cluster3):
        _, keyring = cluster3
        hb = _forged_schnorr_heartbeat(keyring, random.Random(3), 1000, algebraic=True)
        policy = ProofPolicy()
        assert proofs.validate_proof(
            hb.proof, keyring, policy, 1000
        ) is proofs.ValidationResult.OK
        member, _ = make_node(0, cluster3)
        _, outs = core.step(member, PacketArrived(Packet(2, 0, hb)), 1000)
        assert outs == [Diagnostic("bad_signature", "term=99 leader=2")]
        assert member.known_leader is None
        # A node outside the combo has no record to refute it from.
        outsider, _ = make_node(1, cluster3)
        core.step(outsider, PacketArrived(Packet(2, 1, hb)), 1000)
        assert outsider.known_leader == 2

    @staticmethod
    def _sss_heartbeat(indices, rng):
        entries = tuple(
            (
                proofs.crypto.SssShare(index, rng.randrange(proofs.curve.N)),
                proofs.crypto.RecoverableSignature(
                    rng.randrange(1, proofs.curve.N),
                    rng.randrange(1, proofs.curve.N),
                    0,
                ),
            )
            for index in indices
        )
        proof = proofs.VoteProof(
            wire.SCHEME_SSS, 99, 1000, 2, proofs.SssBody(rng.randbytes(32), entries)
        )
        return Heartbeat(proof)

    @pytest.mark.parametrize("indices, code, checks", [
        ((3, 1), "bad_signature", 0),   # names node 0, the receiver
        ((3, 2), "bad_signature", 2),   # receiver not named: both checked
        ((1,), "bad_secret", 0),        # fewer than q entries
        ((7, 1), "unknown_voter", 0),   # an index no node holds
    ])
    def test_sss_shares_naming_the_receiver(
        self, cluster3, monkeypatch, indices, code, checks
    ):
        calls = _count_calls(monkeypatch, "verify_recoverables")
        hb = self._sss_heartbeat(indices, random.Random(4))
        node, _ = make_node(0, cluster3, scheme=wire.SCHEME_SSS)
        _, outs = core.step(node, PacketArrived(Packet(2, 0, hb)), 1000)
        assert outs == [Diagnostic(code, "term=99 leader=2")]
        assert len(calls) == checks


class TestLeaderTick:
    def test_tick_rebroadcasts_and_rearms(self, cluster3):
        states, _ = elect_leader(cluster3)
        leader = states[0]
        _, outs = core.step(leader, HeartbeatTick(), 1050)
        burst = only(outs, Send).packets
        assert [p.dst for p in burst] == [1, 2]
        only(outs, ArmHeartbeatTimer)
        assert isinstance(leader.role, Leader)

    def test_every_tick_sends_the_burst_built_at_election(self, cluster3):
        states, outs = elect_leader(cluster3)
        leader = states[0]
        elected = only(outs, Send)
        assert elected is leader.role.burst
        assert [(p.dst, p.body) for p in elected.packets] == [
            (1, Heartbeat(leader.role.proof)), (2, Heartbeat(leader.role.proof)),
        ]
        for now_ms in (1050, 1100):
            _, outs = core.step(leader, HeartbeatTick(), now_ms)
            assert only(outs, Send) is elected

    def test_leader_steps_down_after_ttl(self, cluster3):
        states, _ = elect_leader(cluster3)
        leader = states[0]
        ttl = leader.config.proof_policy.ttl_ms
        _, outs = core.step(leader, HeartbeatTick(), 1000 + ttl)
        assert isinstance(leader.role, Leader)  # boundary is inclusive
        _, outs = core.step(leader, HeartbeatTick(), 1000 + ttl + 1)
        assert isinstance(leader.role, Follower)
        assert leader.known_leader is None
        assert only(outs, Diagnostic).code == "proof-expired"
        assert only(outs, ArmElectionTimer).cause == "stepdown"
        assert not any(isinstance(o, Send) for o in outs)

    def test_follower_ignores_stale_heartbeat_timer(self, cluster3):
        state, _ = make_node(0, cluster3)
        _, outs = core.step(state, HeartbeatTick(), 1000)
        assert outs == []


class TestSssScheme:
    def test_full_election_under_sss(self, cluster5):
        states, outs = elect_leader(cluster5, scheme=wire.SCHEME_SSS)
        leader = states[0]
        assert isinstance(leader.role, Leader)
        assert leader.role.proof.scheme == wire.SCHEME_SSS
        hb = only(outs, Send).packets[0].body
        follower = states[4]
        _, fouts = core.step(follower, PacketArrived(Packet(0, 4, hb)), 1050)
        timer = only(fouts, ArmElectionTimer)
        assert (timer.cause, timer.proof.candidate) == ("heartbeat", 0)

    def test_sss_wrong_share_rejected(self, cluster3):
        keypairs, keyring = cluster3
        states = {
            i: make_node(i, cluster3, scheme=wire.SCHEME_SSS)[0] for i in range(3)
        }
        _, outs = core.step(states[0], ElectionTimeout(), 1000)
        req = only(outs, Send).packets[0]
        _, vouts = deliver(states[req.dst], req, 1000)
        grant = only(vouts, Send).packets[0].body.grant
        share, sig = grant.share_sig
        altered = replace(share, value=(share.value + 1) % proofs.curve.N)
        message = proofs.share_sign_message(altered, grant.term, 1000, 0)
        resigned = proofs.crypto.sign_recoverable(keypairs[grant.voter], message)
        forged = replace(grant, share_sig=(altered, resigned))
        _, fouts = deliver(states[0], Packet(1, 0, VoteResponse(forged)), 1000)
        assert only(fouts, Diagnostic).code == "bad-grant"

    def test_sss_bad_signature_named_when_quorum_forms(self, cluster5):
        states, grants = TestVoteResponse._campaign(cluster5, wire.SCHEME_SSS)
        candidate = states[0]
        share, sig = grants[0].share_sig
        forged = replace(grants[0], share_sig=(share, replace(sig, s=sig.s + 1)))
        respond = TestVoteResponse._respond
        assert respond(candidate, forged) == []
        outs = respond(candidate, grants[1])
        diag = only(outs, Diagnostic)
        assert (diag.code, diag.detail) == ("bad-grant", "term=1 voter=1")
        assert list(candidate.role.pending_grants) == [0, 2]
        outs = respond(candidate, grants[2])
        assert only(outs, RoleChanged).role == "leader"
        assert proofs.validate_proof(
            candidate.role.proof, candidate.keyring,
            candidate.config.proof_policy, 1000,
        ) is proofs.ValidationResult.OK


class TestTotality:
    """Input no honest node sends, which signing or checking cannot encode
    or sum, is refused: term, vote record, role and known leader stay."""

    @staticmethod
    def _unchanged(state, event, now_ms, code):
        def vitals():
            return state.current_term, state.voted_for, state.role.name, state.known_leader

        before = vitals()
        _, outs = core.step(state, event, now_ms)
        assert [out.code for out in outs] == [code]
        assert vitals() == before
        return outs[0].detail

    def test_request_whose_combo_keys_cancel(self):
        # Node 1's key is minus node 0's: it cannot sign for combo {0, 1}.
        state, _ = make_node(1, cancelling_cluster())
        payload = proofs.VotePayload(wire.SCHEME_SCHNORR, 1, 100, 0)
        event = PacketArrived(Packet(0, 1, VoteRequest(payload)))
        detail = self._unchanged(state, event, 100, "malformed")
        assert detail == "vote-request: keys of nodes [0, 1] sum to infinity"

    def test_heartbeat_whose_combo_keys_cancel(self):
        state, _ = make_node(2, cancelling_cluster())
        body = proofs.SchnorrBody(crypto.ComboId.of((0, 1)), curve.G, 5)
        proof = proofs.VoteProof(wire.SCHEME_SCHNORR, 1, 100, 0, body)
        event = PacketArrived(Packet(0, 2, Heartbeat(proof)))
        detail = self._unchanged(state, event, 100, "malformed")
        assert detail == "heartbeat: keys of nodes [0, 1] sum to infinity"

    def test_grant_whose_combo_keys_cancel(self):
        # A grant claiming node 1 makes candidate 0 sign for combo {0, 1}.
        cluster = cancelling_cluster()
        state, _ = make_node(0, cluster)
        core.step(state, ElectionTimeout(), 100)
        psig = crypto.PartialSignature(1, crypto.ComboId.of((0, 1)), curve.G, 5)
        grant = proofs.VoteGrant(1, 1, partials=(psig,))
        event = PacketArrived(Packet(1, 0, VoteResponse(grant)))
        detail = self._unchanged(state, event, 100, "bad-grant")
        assert detail == "term=1 voter=1"

    def test_heartbeat_naming_a_negative_candidate(self, cluster3):
        states, _ = elect_leader(cluster3)
        proof = replace(states[0].role.proof, candidate=-1)
        event = PacketArrived(Packet(0, 1, Heartbeat(proof)))
        detail = self._unchanged(states[1], event, 1000, "malformed")
        assert detail == "heartbeat: -1 does not fit in 2 bytes"

    def test_request_stamped_before_the_epoch(self, cluster3):
        state, _ = make_node(1, cluster3)
        payload = proofs.VotePayload(wire.SCHEME_SCHNORR, 1, -5, 0)
        event = PacketArrived(Packet(0, 1, VoteRequest(payload)))
        detail = self._unchanged(state, event, 100, "malformed")
        assert detail == "vote-request: -5 does not fit in 8 bytes"
