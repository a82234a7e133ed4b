"""``core.step`` over drawn events (ROADMAP item 17): it never raises, a
refusal changes nothing, terms never fall, a vote is recorded only with
the vote it sends or the node's own election, and a node that is not a
follower has voted for itself in its current term."""

import functools
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from mokka import core, crypto, proofs, wire
from mokka.core import (
    Candidate,
    Diagnostic,
    ElectionTimeout,
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

from conftest import cancelling_cluster, make_cluster

NOW = 10_000
SKEW = proofs.ProofPolicy().max_clock_skew_ms
TTL = proofs.ProofPolicy().ttl_ms
# Offsets from the receiver's clock at the edges of the skew window and
# the ttl, where a timestamp's verdict changes. Hypothesis favours the
# early entries of a list, so each list below starts with what gets
# furthest into step.
EDGES = [
    0, -SKEW, -SKEW - 1, SKEW, SKEW + 1, -TTL, -TTL - 1,
    -SKEW + 1, SKEW - 1, -TTL + 1, TTL,
]


def _copy(state):
    """A copy step may mutate without touching state. Keys, config and
    the validator's verdict cache are shared."""
    role = state.role
    if isinstance(role, Candidate):
        role = replace(
            role, pending_grants=dict(role.pending_grants), checked=set(role.checked)
        )
    rng = random.Random()
    rng.setstate(state.rng.getstate())
    return replace(state, role=role, rng=rng)


def _election(cluster, scheme):
    """Node 0's election at NOW, run by hand. Returns the start states
    (a fresh follower, a candidate one grant short of a quorum, the
    leader, a follower of the leader), the messages of the election, and
    a rival's messages at a higher term."""
    keypairs, keyring = cluster
    n = len(keyring.sorted_ids)
    config = NodeConfig(scheme=scheme)
    nodes = [
        core.init(i, keypairs[i], keyring, config, random.Random(f"prop:{i}"))[0]
        for i in range(n)
    ]
    starts = [_copy(nodes[1])]
    _, outs = core.step(nodes[0], ElectionTimeout(), NOW)
    requests = next(o for o in outs if isinstance(o, Send)).packets
    grants = []
    for request in requests:
        _, outs = core.step(nodes[request.dst], PacketArrived(request), NOW)
        grants += [p for o in outs if isinstance(o, Send) for p in o.packets]
    candidate = nodes[0]
    payloads = candidate.role.payloads
    for packet in grants:
        if len(candidate.role.pending_grants) == keyring.quorum_size - 2:
            starts.append(_copy(candidate))
        core.step(candidate, PacketArrived(packet), NOW)
        if isinstance(candidate.role, Leader):
            break
    assert len(starts) == 2, "no start state one grant short of a quorum"
    proof = candidate.role.proof
    follower = nodes[n - 1]
    core.step(follower, PacketArrived(Packet(0, n - 1, Heartbeat(proof))), NOW + 10)
    assert follower.known_leader == 0
    starts += [candidate, follower]
    rival = _rival(cluster, scheme)
    return starts, payloads, [p.body.grant for p in grants], proof, rival


def _rival(cluster, scheme):
    """Node 1's election at term 2, above every start state's term: its
    payloads and its valid proof. Its voters are the nodes above 1, so
    that leader 0 checks the proof instead of refuting it from its own
    vote record."""
    keypairs, keyring = cluster
    rng = random.Random("prop:rival")
    payloads = proofs.make_vote_payloads(1, 2, NOW, keyring, scheme, rng)
    voters = [v for v in keyring.sorted_ids if v > 1][:keyring.quorum_size - 1]
    grants = [proofs.grant_vote(keypairs[v], payloads[v], keyring) for v in voters]
    return payloads, proofs.build_proof(keypairs[1], payloads[1], grants, keyring)


@functools.lru_cache(maxsize=None)
def _starts():
    """(start state, n, payloads, grants, proof, rival) for both schemes
    at n = 3 and 5, and for the Schnorr cluster whose keys cancel."""
    clusters = [
        (make_cluster(n, seed="property"), scheme)
        for n in (3, 5) for scheme in proofs.SCHEMES
    ]
    clusters.append((cancelling_cluster(), wire.SCHEME_SCHNORR))
    starts = []
    for cluster, scheme in clusters:
        states, *messages = _election(cluster, scheme)
        n = len(cluster[1].sorted_ids)
        starts += [(state, n, *messages) for state in states]
    return starts


def _nudged(draw, value):
    return draw(st.sampled_from([value + 1, value - 1, 0, -1, 1 << 256]))


def _mutated_header(draw, vote, ids, terms, stamps):
    """vote with each of its term, timestamp, candidate and scheme either
    kept or drawn afresh."""
    fields = {
        "term": terms, "timestamp_ms": stamps, "candidate": ids,
        "scheme": st.integers(0, 3),
    }
    return replace(vote, **{
        name: draw(values) for name, values in fields.items() if draw(st.booleans())
    })


def _mutated_payload(draw, payload, n, ids, terms, stamps):
    payload = _mutated_header(draw, payload, ids, terms, stamps)
    if payload.share is not None and draw(st.booleans()):
        share = payload.share
        share = draw(st.sampled_from([
            None,
            replace(share, value=_nudged(draw, share.value)),
            replace(share, index=draw(st.integers(-1, n + 1))),
        ]))
        payload = replace(payload, share=share)
    return payload


def _mutated_grant(draw, grant, ids, terms):
    how = draw(st.sampled_from(["signature", "relabel", "voter", "term", "none"]))
    if how == "voter":
        return replace(grant, voter=draw(ids))
    if how == "term":
        return replace(grant, term=draw(terms))
    if how == "relabel":
        # A grant from a wrong voter: every signature claims it too.
        voter = draw(ids)
        partials = tuple(replace(p, signer=voter) for p in grant.partials)
        return replace(grant, voter=voter, partials=partials)
    if how == "signature":
        if grant.partials:
            i = draw(st.integers(0, len(grant.partials) - 1))
            psig = grant.partials[i]
            psig = draw(st.sampled_from([
                replace(psig, s_value=_nudged(draw, psig.s_value)),
                replace(psig, combo=crypto.ComboId(draw(st.integers(0, 2**6)))),
            ]))
            return replace(grant, partials=grant.partials[:i] + (psig,) + grant.partials[i + 1:])
        share, sig = grant.share_sig
        return replace(grant, share_sig=draw(st.sampled_from([
            (replace(share, value=share.value + 1), sig),
            (share, replace(sig, r=_nudged(draw, sig.r))),
            (share, replace(sig, recovery_hint=draw(st.integers(0, 4)))),
        ])))
    return grant


def _mutated_proof(draw, proof, n, ids, terms, stamps):
    how = draw(st.sampled_from(["body", "header", "none"]))
    if how == "header":
        return _mutated_header(draw, proof, ids, terms, stamps)
    if how == "body" and isinstance(proof.body, proofs.SchnorrBody):
        body = proof.body
        x, odd = body.nonce
        body = draw(st.sampled_from([
            replace(body, combo=crypto.ComboId(draw(st.one_of(
                st.integers(0, 2**n - 1), st.sampled_from([-1, 2**64]),
            )))),
            replace(body, s_value=_nudged(draw, body.s_value)),
            replace(body, nonce=(_nudged(draw, x), odd)),
        ]))
        return replace(proof, body=body)
    if how == "body":
        entries = list(proof.body.entries)
        i = draw(st.integers(0, len(entries) - 1))
        share, sig = entries[i]
        entries[i] = draw(st.sampled_from([
            (replace(share, index=draw(st.integers(-1, n + 1))), sig),
            (replace(share, value=_nudged(draw, share.value)), sig),
            (share, replace(sig, s=_nudged(draw, sig.s))),
            (share, replace(sig, recovery_hint=draw(st.integers(0, 300)))),
            entries[0],
        ]))
        if draw(st.booleans()):
            del entries[draw(st.integers(0, len(entries) - 1))]
        return replace(proof, body=replace(proof.body, entries=tuple(entries)))
    return proof


@st.composite
def _events(draw, n, payloads, grants, proof, rival, dst):
    """(event, now_ms): a timer, a packet to dst drawn over the wire's
    ranges from the election's own messages, or the rival's request or
    heartbeat to dst as sent."""
    now = draw(st.one_of(
        st.sampled_from([NOW + 10, NOW, NOW + TTL + 1, 100]),
        st.integers(0, 2 * NOW + TTL),
    ))
    ids = st.sampled_from([-1, *range(n + 1), 99])
    terms = st.one_of(
        st.integers(0, 3), st.integers(0, wire.MAX_TERM),
        st.sampled_from([wire.MAX_TERM - 1, wire.MAX_TERM]),
    )
    stamps = st.one_of(
        st.sampled_from(EDGES).map(lambda offset: now + offset),
        st.integers(now - 2 * TTL, now + 2 * TTL),
        st.integers(-5, 5),
    )
    kind = draw(st.sampled_from(
        ["heartbeat", "request", "response"] * 2
        + ["tick", "timeout", "rival-heartbeat", "rival-request"]
    ))
    if kind.startswith("rival"):
        rival_payloads, rival_proof = rival
        if kind == "rival-heartbeat":
            body = Heartbeat(rival_proof)
        else:
            body = VoteRequest(rival_payloads[dst])
        return PacketArrived(Packet(1, dst, body)), NOW + 10
    if kind == "timeout":
        return ElectionTimeout(), now
    if kind == "tick":
        return HeartbeatTick(), now
    if kind == "request":
        body = VoteRequest(_mutated_payload(draw, payloads[dst], n, ids, terms, stamps))
    elif kind == "response":
        grant = draw(st.sampled_from(grants))
        body = VoteResponse(_mutated_grant(draw, grant, ids, terms))
    else:
        body = Heartbeat(_mutated_proof(draw, proof, n, ids, terms, stamps))
    return PacketArrived(Packet(draw(ids), dst, body)), now


def _vitals(state):
    return state.current_term, state.voted_for, state.role.name, state.known_leader


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_refusals_change_nothing_and_step_is_total(data):
    start, n, payloads, grants, proof, rival = data.draw(st.sampled_from(_starts()))
    state = _copy(start)
    events = _events(n, payloads, grants, proof, rival, state.id)
    for event, now in data.draw(st.lists(events, min_size=1, max_size=3)):
        before = _vitals(state)
        _, outputs = core.step(state, event, now)
        after = _vitals(state)
        if all(isinstance(out, Diagnostic) for out in outputs):
            assert after == before, (event, outputs)
        assert after[0] >= before[0]
        if after[1] != before[1]:
            voted = any(
                isinstance(out, Send)
                and any(isinstance(p.body, VoteResponse) for p in out.packets)
                for out in outputs
            )
            campaigned = RoleChanged("candidate", state.current_term) in outputs
            assert voted or (campaigned and after[1] == (after[0], state.id))
        # A higher term makes a candidate or leader follow (core._adopt).
        if after[2] != "follower":
            assert after[1] == (after[0], state.id), (event, outputs)
