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

from . import proofs, wire
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
    # Grants in arrival order. The candidate's own slot comes first and
    # stays None: it signs for the combo it assembles when the quorum forms.
    pending_grants: Dict[NodeId, Optional[VoteGrant]]
    # Why building the proof failed with no voter to blame. The same
    # grants lead the queue until one is replaced, so the build is not
    # retried before then.
    build_failure: Optional[str] = None
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
        validator=ProofValidator(keyring, id),
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


def _arm_election(
    state: NodeState, cause: str, proof: Optional[VoteProof] = None
) -> ArmElectionTimer:
    low, high = state.config.election_timeout_range_ms
    return ArmElectionTimer(state.rng.randint(low, high), cause, proof)


def _peers(state: NodeState) -> List[NodeId]:
    return [n for n in state.keyring.sorted_ids if n != state.id]


def _heartbeat_burst(state: NodeState, proof: VoteProof) -> Send:
    body = Heartbeat(proof)
    return Send(tuple(Packet(state.id, peer, body) for peer in _peers(state)))


def _start_election(state: NodeState, now_ms: int) -> List[Output]:
    state.current_term += 1
    term = state.current_term
    payloads = proofs.make_vote_payloads(
        state.id, term, now_ms, state.keyring, state.config.scheme, state.rng
    )
    state.voted_for = (term, state.id)
    state.role = Candidate(payloads=payloads, pending_grants={state.id: None})
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


def _grant_is_well_formed(state: NodeState, role: Candidate, grant: VoteGrant) -> bool:
    """The checks that cost no signature work. Signatures are checked by
    ``proofs.build_proof`` for the grants that enter the proof, and by
    ``_held_grant_is_forged`` when a voter's grant arrives twice."""
    if grant.voter not in state.keyring.sorted_ids or grant.voter == state.id:
        return False
    return proofs.grant_is_well_formed(grant, role.payloads[grant.voter])


def _held_grant_is_forged(state: NodeState, role: Candidate, grant: VoteGrant) -> bool:
    """Whether grant should take the slot of its voter's pending grant.

    Pending grants are unchecked, so a forgery that arrives first would
    otherwise shut out the voter's real grant. The held grant is checked
    only when a different, well-formed grant from the same voter arrives.
    """
    held = role.pending_grants[grant.voter]
    return (
        held is not None
        and held != grant
        and _grant_is_well_formed(state, role, grant)
        and not proofs.grant_verifies(held, role.payloads[grant.voter], state.keyring)
    )


def _on_vote_response(state: NodeState, grant: VoteGrant, now_ms: int) -> List[Output]:
    role = state.role
    if not isinstance(role, Candidate) or grant.term != state.current_term:
        return [Diagnostic("late-response", f"term={grant.term} voter={grant.voter}")]
    detail = f"term={grant.term} voter={grant.voter}"
    outputs: List[Output] = []
    if grant.voter in role.pending_grants:
        if not _held_grant_is_forged(state, role, grant):
            return [Diagnostic("duplicate-grant", detail)]
        del role.pending_grants[grant.voter]
        role.build_failure = None
        outputs.append(Diagnostic("bad-grant", detail))
    elif not _grant_is_well_formed(state, role, grant):
        return [Diagnostic("bad-grant", detail)]
    role.pending_grants[grant.voter] = grant
    if len(role.pending_grants) < state.keyring.quorum_size:
        return outputs
    if role.build_failure is not None:
        return outputs + [Diagnostic("bad-grant", role.build_failure)]
    follower_grants = [
        g for voter, g in role.pending_grants.items() if voter != state.id
    ]
    try:
        proof = proofs.build_proof(
            state.keypair, role.payloads[state.id], follower_grants, state.keyring
        )
    except proofs.BadGrants as exc:
        # Drop the voters at fault and wait for further grants.
        dropped = [v for v in exc.voters if v != state.id]
        for voter in dropped:
            del role.pending_grants[voter]
        return outputs + [
            Diagnostic("bad-grant", f"term={state.current_term} voter={voter}")
            for voter in dropped
        ]
    except proofs.ProofError as exc:
        role.build_failure = str(exc)
        return outputs + [Diagnostic("bad-grant", role.build_failure)]
    state.role = Leader(proof)
    state.known_leader = state.id
    return outputs + [
        RoleChanged("leader", state.current_term, proof),
        _heartbeat_burst(state, proof),
        ArmHeartbeatTimer(state.config.heartbeat_interval_ms),
    ]


def _on_heartbeat(state: NodeState, hb: Heartbeat, now_ms: int) -> List[Output]:
    """Checks run cheapest first; only a fresh proof from another node
    reaches the validator, whose own-vote refutation needs a term no
    lower than this node's."""
    proof = hb.proof
    term, leader = proof.term, proof.candidate
    result = proofs.time_verdict(proof, state.config.proof_policy, now_ms)
    if result is None:
        if leader == state.id:
            # Its own proof replayed back to it: nothing to follow.
            return [Diagnostic("self-leader", f"term={term}")]
        if term < state.current_term:
            return [Diagnostic("stale-term", f"heartbeat term={term}")]
        result = state.validator.validate(proof, state.voted_for)
    if result is not ValidationResult.OK:
        return [Diagnostic(result.value, f"term={term} leader={leader}")]
    outputs: List[Output] = []
    if term > state.current_term:
        state.current_term = term
    if not isinstance(state.role, Follower):
        state.role = Follower()
        outputs.append(RoleChanged("follower", state.current_term))
    state.known_leader = leader
    outputs.append(_arm_election(state, "heartbeat", proof))
    return outputs


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
        _heartbeat_burst(state, role.proof),
        ArmHeartbeatTimer(state.config.heartbeat_interval_ms),
    ]
