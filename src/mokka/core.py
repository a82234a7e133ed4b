"""The log-less leader-election state machine.

A node is a pure event processor: packets and timer events go in,
packets, timer commands, and role changes come out. No I/O and no real
clock live here; the current time is an argument to every step, and all
randomness comes from the seeded generator handed to ``init``. That makes
every simulator trace replayable bit for bit.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from . import crypto, proofs, wire
from .crypto import ClusterKeyring, KeyPair, NodeId
from .proofs import (
    ProofPolicy,
    ProofValidator,
    ValidationResult,
    VoteGrant,
    VotePayload,
    VoteProof,
)


# --- Roles -------------------------------------------------------------------


@dataclass
class Follower:
    name = "follower"


@dataclass
class Candidate:
    payloads: Dict[NodeId, VotePayload]
    # Follower grants in arrival order. The candidate counts itself
    # towards the quorum and signs for the combo it assembles then.
    pending_grants: Dict[NodeId, VoteGrant]
    # Why building the proof failed with no voter to blame. The same
    # grants lead the queue until one is replaced, so the build is not
    # retried before then.
    build_failure: Optional[str] = None
    # The voters whose pending grant has passed its signature check, so
    # that a challenger to that grant costs no further check.
    checked: Set[NodeId] = field(default_factory=set)
    name = "candidate"


@dataclass
class Leader:
    proof: VoteProof
    # The heartbeat of proof to every peer, built once and sent each tick.
    burst: "Send"
    name = "leader"


Role = Union[Follower, Candidate, Leader]


@dataclass(frozen=True)
class NodeConfig:
    election_timeout_range_ms: Tuple[int, int] = (150, 300)
    heartbeat_interval_ms: int = 50
    proof_policy: ProofPolicy = field(default_factory=ProofPolicy)
    scheme: int = wire.SCHEME_SCHNORR

    def __post_init__(self):
        low, high = self.election_timeout_range_ms
        if not low < high:
            raise ValueError("election timeout range must satisfy low < high")
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat interval must be positive")
        if not self.heartbeat_interval_ms < low:
            raise ValueError("heartbeat interval must be below election timeout")
        if not self.heartbeat_interval_ms < self.proof_policy.ttl_ms:
            raise ValueError("heartbeat interval must be below proof ttl")
        if self.scheme not in proofs.SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme}")


# --- Packets and events ------------------------------------------------------


@dataclass(frozen=True)
class VoteRequest:
    payload: VotePayload


@dataclass(frozen=True)
class VoteResponse:
    grant: VoteGrant


@dataclass(frozen=True)
class Heartbeat:
    proof: VoteProof


Body = Union[VoteRequest, VoteResponse, Heartbeat]


@dataclass(frozen=True)
class Packet:
    src: NodeId
    dst: NodeId
    body: Body


@dataclass(frozen=True)
class PacketArrived:
    packet: Packet


@dataclass(frozen=True)
class ElectionTimeout:
    pass


@dataclass(frozen=True)
class HeartbeatTick:
    pass


Event = Union[PacketArrived, ElectionTimeout, HeartbeatTick]


@dataclass(frozen=True)
class Send:
    packets: Tuple[Packet, ...]


@dataclass(frozen=True)
class ArmElectionTimer:
    """proof is the leader's proof when cause is "heartbeat", else None."""

    duration_ms: int
    cause: str
    proof: Optional[VoteProof] = None


@dataclass(frozen=True)
class ArmHeartbeatTimer:
    duration_ms: int


@dataclass(frozen=True)
class RoleChanged:
    role: str
    term: int
    proof: Optional[VoteProof] = None


@dataclass(frozen=True)
class Diagnostic:
    code: str
    detail: str


Output = Union[Send, ArmElectionTimer, ArmHeartbeatTimer, RoleChanged, Diagnostic]


@dataclass
class NodeState:
    id: NodeId
    current_term: int
    voted_for: Optional[Tuple[int, NodeId]]
    role: Role
    known_leader: Optional[NodeId]
    keyring: ClusterKeyring
    keypair: KeyPair
    config: NodeConfig
    rng: random.Random
    validator: ProofValidator


class CoreError(ValueError):
    pass


def init(
    id: NodeId,
    keypair: KeyPair,
    keyring: ClusterKeyring,
    config: NodeConfig,
    rng: random.Random,
) -> Tuple[NodeState, List[Output]]:
    if id not in keyring.sorted_ids:
        raise CoreError(f"node {id} not in keyring")
    state = NodeState(
        id=id,
        current_term=0,
        voted_for=None,
        role=Follower(),
        known_leader=None,
        keyring=keyring,
        keypair=keypair,
        config=config,
        rng=rng,
        validator=ProofValidator(keyring, id),
    )
    return state, [_arm_election(state, "init")]


def step(state: NodeState, event: Event, now_ms: int) -> Tuple[NodeState, List[Output]]:
    """Advance the node; mutates and returns the state plus outputs.

    Total: every (state, event) pair yields a defined result, and bad
    packets produce diagnostics rather than exceptions. A refusal leaves
    the term, vote record, role and known leader as they were.
    """
    if isinstance(event, PacketArrived):
        body = event.packet.body
        if isinstance(body, VoteRequest):
            return state, _on_vote_request(state, body.payload, now_ms)
        if isinstance(body, VoteResponse):
            return state, _on_vote_response(state, body.grant, now_ms)
        if isinstance(body, Heartbeat):
            return state, _on_heartbeat(state, body, now_ms)
        return state, [Diagnostic("malformed", f"unknown packet body {body!r}")]
    if isinstance(event, ElectionTimeout):
        if isinstance(state.role, Leader):
            return state, []  # stale timer from before promotion
        return state, _start_election(state, now_ms)
    if isinstance(event, HeartbeatTick):
        if not isinstance(state.role, Leader):
            return state, []  # stale timer from before stepping down
        return state, _on_heartbeat_tick(state, now_ms)
    return state, [Diagnostic("malformed", f"unknown event {event!r}")]


# What signing or checking a vote raises on input no honest node sends:
# besides ProofError, a field that does not fit the wire (MalformedError)
# or a combo whose keys sum to infinity (CryptoError). Each is caught where
# it is raised, before any state change, at no cost to the honest path.
_UNSIGNABLE = (proofs.ProofError, crypto.CryptoError, wire.MalformedError)


def _arm_election(
    state: NodeState, cause: str, proof: Optional[VoteProof] = None
) -> ArmElectionTimer:
    low, high = state.config.election_timeout_range_ms
    return ArmElectionTimer(state.rng.randint(low, high), cause, proof)


def _peers(state: NodeState) -> List[NodeId]:
    return [n for n in state.keyring.sorted_ids if n != state.id]


def _is_peer(state: NodeState, node: NodeId) -> bool:
    """Whether node is another member of this node's cluster: the only
    nodes it votes for, and the only voters it counts."""
    return node != state.id and node in state.keyring.sorted_ids


def _heartbeat_burst(state: NodeState, proof: VoteProof, src: NodeId) -> Send:
    """A heartbeat of proof to every peer, each envelope naming src."""
    body = Heartbeat(proof)
    return Send(tuple(Packet(src, peer, body) for peer in _peers(state)))


def _adopt(state: NodeState, term: int) -> List[Output]:
    """Raft's term rule: take term if it is higher, and follow. Called only
    once the event's checks have passed."""
    state.current_term = max(state.current_term, term)
    if isinstance(state.role, Follower):
        return []
    state.role = Follower()
    return [RoleChanged("follower", state.current_term)]


def _start_election(state: NodeState, now_ms: int) -> List[Output]:
    if state.current_term == wire.MAX_TERM:
        # No later term fits on the wire: the node stops campaigning.
        return [Diagnostic("term-exhausted", f"term={state.current_term}")]
    state.current_term += 1
    term = state.current_term
    payloads = proofs.make_vote_payloads(
        state.id, term, now_ms, state.keyring, state.config.scheme, state.rng
    )
    state.voted_for = (term, state.id)
    state.role = Candidate(payloads=payloads, pending_grants={})
    requests = tuple(
        Packet(state.id, peer, VoteRequest(payloads[peer])) for peer in _peers(state)
    )
    return [
        RoleChanged("candidate", term),
        Send(requests),
        _arm_election(state, "election-round"),
    ]


def _on_vote_request(state: NodeState, payload: VotePayload, now_ms: int) -> List[Output]:
    # Every check that can refuse the request runs before the node adopts
    # its term, so a refused request changes nothing.
    if payload.term < state.current_term:
        return [Diagnostic("stale-term", f"vote-request term={payload.term}")]
    if state.voted_for is not None and state.voted_for[0] == payload.term:
        voted = state.voted_for[1]
        return [Diagnostic("already-voted", f"term={payload.term} for={voted}")]
    skew = abs(payload.timestamp_ms - now_ms)
    if skew > state.config.proof_policy.max_clock_skew_ms:
        return [Diagnostic("clock-skew", f"term={payload.term} skew={skew}")]
    if payload.scheme != state.config.scheme:
        # No node of this cluster asks for a vote in another scheme.
        return [Diagnostic("malformed", f"vote-request: scheme {payload.scheme}")]
    if not _is_peer(state, payload.candidate):
        return [Diagnostic("malformed", f"vote-request: candidate {payload.candidate}")]
    try:
        grant = proofs.grant_vote(state.keypair, payload, state.keyring)
    except _UNSIGNABLE as exc:
        return [Diagnostic("malformed", f"vote-request: {exc}")]
    # A candidate or leader voted for itself in its current term, which
    # already-voted refuses, so here it sees a higher term and steps down.
    outputs = _adopt(state, payload.term)
    state.voted_for = (payload.term, payload.candidate)
    reply = Packet(state.id, payload.candidate, VoteResponse(grant))
    return outputs + [Send((reply,)), _arm_election(state, "vote-granted")]


def _on_vote_response(state: NodeState, grant: VoteGrant, now_ms: int) -> List[Output]:
    """The one place a grant's fate is decided. Signatures are checked by
    ``proofs.build_proof`` for the grants that enter the proof, and here
    for a held grant, once, when a different grant from its voter arrives."""
    role, voter = state.role, grant.voter
    detail = f"term={grant.term} voter={voter}"
    if not isinstance(role, Candidate) or grant.term != state.current_term:
        return [Diagnostic("late-response", detail)]
    scheme, payload = proofs.SCHEMES[state.config.scheme], role.payloads.get(voter)
    if not _is_peer(state, voter) or not scheme.well_formed(grant, payload, state.keyring):
        return [Diagnostic("bad-grant", detail)]
    outputs: List[Output] = []
    held = role.pending_grants.get(voter)
    if held is not None:
        # Pending grants are unchecked, so a forgery that arrives first
        # would otherwise shut out the voter's real grant.
        if held == grant or voter in role.checked:
            return [Diagnostic("duplicate-grant", detail)]
        if scheme.verifies(held, payload, state.keyring):
            role.checked.add(voter)
            return [Diagnostic("duplicate-grant", detail)]
        del role.pending_grants[voter]
        role.build_failure = None
        outputs.append(Diagnostic("bad-grant", detail))
    role.pending_grants[voter] = grant
    if len(role.pending_grants) + 1 < state.keyring.quorum_size:
        return outputs
    if role.build_failure is not None:
        return outputs + [Diagnostic("bad-grant", role.build_failure)]
    try:
        proof = proofs.build_proof(
            state.keypair, role.payloads[state.id],
            list(role.pending_grants.values()), state.keyring,
        )
    except proofs.BadGrants as exc:
        # Drop the voters at fault and wait for further grants.
        dropped = [v for v in exc.voters if v in role.pending_grants]
        for bad in dropped:
            del role.pending_grants[bad]
            role.checked.discard(bad)
        return outputs + [
            Diagnostic("bad-grant", f"term={state.current_term} voter={bad}")
            for bad in dropped
        ]
    except _UNSIGNABLE as exc:
        role.build_failure = str(exc)
        return outputs + [Diagnostic("bad-grant", role.build_failure)]
    state.role = Leader(proof, _heartbeat_burst(state, proof, state.id))
    state.known_leader = state.id
    return outputs + [
        RoleChanged("leader", state.current_term, proof),
        state.role.burst,
        ArmHeartbeatTimer(state.config.heartbeat_interval_ms),
    ]


def _on_heartbeat(state: NodeState, hb: Heartbeat, now_ms: int) -> List[Output]:
    """Checks run cheapest first; only a fresh proof from another node,
    in this node's scheme, reaches the validator, whose own-vote
    refutation needs a term no lower than this node's."""
    proof = hb.proof
    term, leader = proof.term, proof.candidate
    result = proofs.time_verdict(proof, state.config.proof_policy, now_ms)
    if result is None:
        if leader == state.id:
            # Its own proof replayed back to it: nothing to follow.
            return [Diagnostic("self-leader", f"term={term}")]
        if term < state.current_term:
            return [Diagnostic("stale-term", f"heartbeat term={term}")]
        # No node of this cluster signs a proof in another scheme.
        result = ValidationResult.BAD_SIGNATURE
        if proof.scheme == state.config.scheme:
            try:
                result = state.validator.validate(proof, state.voted_for)
            except _UNSIGNABLE as exc:
                return [Diagnostic("malformed", f"heartbeat: {exc}")]
    if result is not ValidationResult.OK:
        return [Diagnostic(result.value, f"term={term} leader={leader}")]
    outputs = _adopt(state, term)
    state.known_leader = leader
    return outputs + [_arm_election(state, "heartbeat", proof)]


def _on_heartbeat_tick(state: NodeState, now_ms: int) -> List[Output]:
    role = state.role
    assert isinstance(role, Leader)
    verdict = proofs.time_verdict(role.proof, state.config.proof_policy, now_ms)
    if verdict is ValidationResult.EXPIRED:
        state.role = Follower()
        state.known_leader = None
        return [
            RoleChanged("follower", state.current_term),
            Diagnostic("proof-expired", f"term={role.proof.term} self-stepdown"),
            _arm_election(state, "stepdown"),
        ]
    return [
        role.burst,
        ArmHeartbeatTimer(state.config.heartbeat_interval_ms),
    ]
