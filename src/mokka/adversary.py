"""Simulated nodes. Each answers ``step(event, now_ms)`` with its outputs,
and ``copies(body)`` with how many copies of a packet it sends; a node that
acts on its own also answers ``tick(now_ms)``, on the heartbeat cadence.
``BEHAVIORS`` names the adversaries, and a class's ``KEYS`` are the
scenario keys it reads, each with the range of its value."""

from . import core, curve, proofs, wire
from .core import ArmElectionTimer, Diagnostic, PacketArrived, VoteRequest, VoteResponse


class Honest:
    KEYS = {}

    def __init__(self, state: core.NodeState, spec=None, rng=None):
        self.state = state

    def step(self, event: core.Event, now_ms: int) -> list:
        # Through the module attribute, so that a patched core.step sees it.
        return core.step(self.state, event, now_ms)[1]

    def copies(self, body: core.Body) -> int:
        return 1


class Silent(Honest):
    """Runs the protocol and sends nothing."""

    def copies(self, body):
        return 0


class DoubleVoter(Honest):
    """Sends each vote grant twice to the candidate that asked for it."""

    def copies(self, body):
        return 2 if isinstance(body, VoteResponse) else 1


class FakeLeader(Honest):
    """Answers vote requests but never campaigns or follows. Each tick it
    sends a heartbeat under its term whose proof is forged over its first
    combo (itself and its lowest-id peers): one nonce point, a fresh s.
    The proof is Schnorr whatever the cluster's scheme, so a Shamir cluster
    refuses it without crypto (forgers in its scheme: ROADMAP items 1, 4)."""

    KEYS = {"term": range(1, wire.MAX_TERM + 1)}

    def __init__(self, state, spec, rng):
        super().__init__(state)
        self.term, self.rng = spec.term, rng
        self.combo = next(state.keyring.combos_containing({state.id}))
        self.nonce = curve.scalar_mult_base(1 + rng.randrange(curve.N - 1))

    def step(self, event, now_ms):
        asked = isinstance(event, PacketArrived) and isinstance(event.packet.body, VoteRequest)
        return super().step(event, now_ms) if asked else []

    def tick(self, now_ms):
        body = proofs.SchnorrBody(self.combo, self.nonce, self.rng.randrange(curve.N))
        proof = proofs.VoteProof(
            wire.SCHEME_SCHNORR, self.term, now_ms, self.state.id, body
        )
        return [core._heartbeat_burst(self.state, proof)]


class ProofReplay(Honest):
    """Follows but never campaigns. It keeps the first proof it follows,
    and from replay_after_ms on sends it each tick to every peer, in an
    envelope forged as from the proof's candidate."""

    KEYS = {"replay_after_ms": range(0, 1 << 64)}

    def __init__(self, state, spec, rng):
        super().__init__(state)
        self.after_ms, self.captured = spec.replay_after_ms, None

    def step(self, event, now_ms):
        if isinstance(event, core.ElectionTimeout):
            return []
        outputs = super().step(event, now_ms)
        proof = next(
            (out.proof for out in outputs if isinstance(out, ArmElectionTimer)), None
        )
        if proof is None or self.captured is not None:
            return outputs
        self.captured = (proof, now_ms)
        detail = f"term={proof.term} proof_ts={proof.timestamp_ms}"
        return [Diagnostic("proof-captured", detail), *outputs]

    def tick(self, now_ms):
        if self.captured is None or now_ms < self.captured[1] + self.after_ms:
            return []
        body, src = core.Heartbeat(self.captured[0]), self.captured[0].candidate
        peers = core._peers(self.state)
        return [core.Send(tuple(core.Packet(src, peer, body) for peer in peers))]


BEHAVIORS = {
    "fake_leader": FakeLeader,
    "proof_replay": ProofReplay,
    "double_voter": DoubleVoter,
    "silent": Silent,
}
