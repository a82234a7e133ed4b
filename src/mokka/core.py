"""The log-less leader-election state machine.

A node is a pure event processor: packets and timer events go in,
packets, timer commands, and role changes come out. No I/O and no real
clock live here; the current time is an argument to every step, and all
randomness comes from the seeded generator handed to ``init``. That makes
every simulator trace replayable bit for bit.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

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
    started_ms: int
    round_timestamp_ms: int
    payloads: Dict[NodeId, VotePayload]
    own_grant: VoteGrant
    pending_grants: Dict[NodeId, VoteGrant]
    name = "candidate"


@dataclass
class Leader:
    proof: VoteProof
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
        if not self.heartbeat_interval_ms < low:
            raise ValueError("heartbeat interval must be below election timeout")
        if not self.heartbeat_interval_ms < self.proof_policy.ttl_ms:
            raise ValueError("heartbeat interval must be below proof ttl")


# --- Packets and events ------------------------------------------------------


@dataclass(frozen=True)
class VoteRequest:
    payload: VotePayload


@dataclass(frozen=True)
class VoteResponse:
    grant: VoteGrant


@dataclass(frozen=True)
class Heartbeat:
    term: int
    leader: NodeId
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
    duration_ms: int
    cause: str


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
    known_leader: Optional[Tuple[NodeId, str]]
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
    if id not in keyring.node_ids():
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
        validator=ProofValidator(keyring, config.proof_policy),
    )
    return state, [_arm_election(state, "init")]


def step(state: NodeState, event: Event, now_ms: int) -> Tuple[NodeState, List[Output]]:
    """Advance the node; mutates and returns the state plus outputs.

    Total: every (state, event) pair yields a defined result, and bad
    packets produce diagnostics rather than exceptions.
    """
    if isinstance(event, PacketArrived):
        body = event.packet.body
        if isinstance(body, VoteRequest):
            return state, _on_vote_request(state, event.packet.src, body.payload, now_ms)
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


def _arm_election(state: NodeState, cause: str) -> ArmElectionTimer:
    low, high = state.config.election_timeout_range_ms
    return ArmElectionTimer(state.rng.randint(low, high), cause)


def _peers(state: NodeState) -> List[NodeId]:
    return [n for n in sorted(state.keyring.node_ids()) if n != state.id]


def _heartbeat_burst(state: NodeState, proof: VoteProof) -> Send:
    return Send(
        tuple(
            Packet(state.id, peer, Heartbeat(proof.term, state.id, proof))
            for peer in _peers(state)
        )
    )


def _start_election(state: NodeState, now_ms: int) -> List[Output]:
    state.current_term += 1
    term = state.current_term
    payloads = proofs.make_vote_payloads(
        state.id, term, now_ms, state.keyring, state.config.scheme, state.rng
    )
    own_grant = proofs.grant_vote(state.keypair, payloads[state.id], state.keyring)
    state.voted_for = (term, state.id)
    state.role = Candidate(
        started_ms=now_ms,
        round_timestamp_ms=now_ms,
        payloads=payloads,
        own_grant=own_grant,
        pending_grants={state.id: own_grant},
    )
    requests = tuple(
        Packet(state.id, peer, VoteRequest(payloads[peer])) for peer in _peers(state)
    )
    return [
        RoleChanged("candidate", term),
        Send(requests),
        _arm_election(state, "election-round"),
    ]


def _on_vote_request(
    state: NodeState, src: NodeId, payload: VotePayload, now_ms: int
) -> List[Output]:
    if payload.term < state.current_term:
        return [Diagnostic("stale-term", f"vote-request term={payload.term}")]
    outputs: List[Output] = []
    if payload.term > state.current_term:
        state.current_term = payload.term
        if not isinstance(state.role, Follower):
            state.role = Follower()
            outputs.append(RoleChanged("follower", payload.term))
    if state.voted_for is not None and state.voted_for[0] == payload.term:
        outputs.append(
            Diagnostic("already-voted", f"term={payload.term} for={state.voted_for[1]}")
        )
        return outputs
    skew = abs(payload.timestamp_ms - now_ms)
    if skew > state.config.proof_policy.max_clock_skew_ms:
        outputs.append(Diagnostic("clock-skew", f"term={payload.term} skew={skew}"))
        return outputs
    try:
        grant = proofs.grant_vote(state.keypair, payload, state.keyring)
    except proofs.ProofError as exc:
        outputs.append(Diagnostic("malformed", f"vote-request: {exc}"))
        return outputs
    state.voted_for = (payload.term, payload.candidate)
    outputs.append(
        Send((Packet(state.id, payload.candidate, VoteResponse(grant)),))
    )
    outputs.append(_arm_election(state, "vote-granted"))
    return outputs


def _grant_is_valid(state: NodeState, role: Candidate, grant: VoteGrant) -> bool:
    if grant.voter not in state.keyring.node_ids() or grant.voter == state.id:
        return False
    scheme = state.config.scheme
    if scheme == wire.SCHEME_SCHNORR:
        if not grant.partials:
            return False
        message = wire.vote_message(
            scheme, grant.term, role.round_timestamp_ms, state.id
        )
        return all(
            psig.signer == grant.voter
            and crypto.schnorr_partial_verify(state.keyring, psig, message)
            for psig in grant.partials
        )
    if grant.share_sig is None:
        return False
    share, sig = grant.share_sig
    sent = role.payloads[grant.voter].share
    if share != sent:
        return False
    message = proofs.share_sign_message(
        share, grant.term, role.round_timestamp_ms, state.id
    )
    return crypto.verify_recoverable(
        state.keyring.public_key(grant.voter), message, sig
    )


def _on_vote_response(state: NodeState, grant: VoteGrant, now_ms: int) -> List[Output]:
    role = state.role
    if not isinstance(role, Candidate) or grant.term != state.current_term:
        return [Diagnostic("late-response", f"term={grant.term} voter={grant.voter}")]
    if grant.voter in role.pending_grants:
        return [Diagnostic("duplicate-grant", f"term={grant.term} voter={grant.voter}")]
    if not _grant_is_valid(state, role, grant):
        return [Diagnostic("bad-grant", f"term={grant.term} voter={grant.voter}")]
    role.pending_grants[grant.voter] = grant
    if len(role.pending_grants) < state.keyring.quorum_size:
        return []
    follower_grants = [
        g for voter, g in role.pending_grants.items() if voter != state.id
    ]
    salt = role.payloads[state.id].salt
    try:
        proof = proofs.build_proof(
            state.keypair,
            role.own_grant,
            follower_grants,
            state.keyring,
            state.current_term,
            role.round_timestamp_ms,
            state.config.scheme,
            salt=salt,
        )
    except proofs.ProofError as exc:
        return [Diagnostic("bad-grant", str(exc))]
    state.role = Leader(proof)
    state.known_leader = (state.id, proofs.proof_hash(proof))
    return [
        RoleChanged("leader", state.current_term, proof),
        _heartbeat_burst(state, proof),
        ArmHeartbeatTimer(state.config.heartbeat_interval_ms),
    ]


def _on_heartbeat(state: NodeState, hb: Heartbeat, now_ms: int) -> List[Output]:
    if hb.proof.term != hb.term or hb.proof.candidate != hb.leader:
        return [Diagnostic("proof-mismatch", f"term={hb.term} leader={hb.leader}")]
    result = state.validator.validate(hb.proof, now_ms)
    if result is not ValidationResult.OK:
        return [
            Diagnostic(result.value, f"term={hb.term} leader={hb.leader}")
        ]
    if hb.term < state.current_term:
        return [Diagnostic("stale-term", f"heartbeat term={hb.term}")]
    outputs: List[Output] = []
    if hb.term > state.current_term:
        state.current_term = hb.term
    if not isinstance(state.role, Follower):
        state.role = Follower()
        outputs.append(RoleChanged("follower", state.current_term))
    state.known_leader = (hb.leader, proofs.proof_hash(hb.proof))
    outputs.append(
        ArmElectionTimer(
            state.rng.randint(*state.config.election_timeout_range_ms),
            f"heartbeat leader={hb.leader} proof_ts={hb.proof.timestamp_ms}",
        )
    )
    return outputs


def _on_heartbeat_tick(state: NodeState, now_ms: int) -> List[Output]:
    role = state.role
    assert isinstance(role, Leader)
    ttl = state.config.proof_policy.ttl_ms
    if now_ms > role.proof.timestamp_ms + ttl:
        state.role = Follower()
        state.known_leader = None
        return [
            RoleChanged("follower", state.current_term),
            Diagnostic("proof-expired", f"term={role.proof.term} self-stepdown"),
            _arm_election(state, "stepdown"),
        ]
    return [
        _heartbeat_burst(state, role.proof),
        ArmHeartbeatTimer(state.config.heartbeat_interval_ms),
    ]
