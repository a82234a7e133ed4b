"""Deterministic discrete-event network simulator.

Virtual integer-millisecond clock, a single priority queue of (time,
sequence) ordered events, uniform per-message latency, probabilistic
drops, partition windows that silently eat boundary-crossing packets,
and scripted adversaries. All randomness is derived from the scenario
seed, so a scenario maps to exactly one trace.
"""

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import core, crypto, curve, proofs, wire
from .core import (
    ArmElectionTimer,
    ArmHeartbeatTimer,
    Diagnostic,
    ElectionTimeout,
    Heartbeat,
    HeartbeatTick,
    Packet,
    PacketArrived,
    RoleChanged,
    Send,
    VoteRequest,
    VoteResponse,
)
from .scenario import AdversarySpec, Partition, Scenario


class TraceEvent(NamedTuple):
    time_ms: int
    seq: int
    kind: str  # send | deliver | drop | timer | role_change | diagnostic | violation
    node: int
    detail: str
    # The object the line renders, for readers that need its fields: the
    # packet body (send, deliver, drop), the ArmElectionTimer (timer) or
    # the RoleChanged (role_change); None for the other kinds.
    about: object = None

    def line(self) -> str:
        return f"{self.time_ms}\t{self.seq}\t{self.kind}\t{self.node}\t{self.detail}"


@dataclass
class RunReport:
    leaders_per_term: Dict[int, List[int]]
    elections_started: int
    violations: List[str]
    final_roles: Dict[int, str]
    final_known_leader: Dict[int, Optional[int]]
    honest_nodes: Tuple[int, ...]
    adversaries: Dict[int, str]
    quorum_size: int
    proof_ttl_ms: int
    heartbeat_interval_ms: int
    partitions: Tuple[Partition, ...]
    duration_ms: int


def trace_lines(trace: List[TraceEvent]) -> str:
    return "".join(ev.line() + "\n" for ev in trace)


def _body_detail(body: core.Body) -> str:
    """A packet body's trace text, shared by its send, drop and deliver lines."""
    if isinstance(body, VoteRequest):
        p = body.payload
        return f"vote-request term={p.term} candidate={p.candidate}"
    if isinstance(body, VoteResponse):
        g = body.grant
        return f"vote-response term={g.term} voter={g.voter}"
    assert isinstance(body, Heartbeat)
    proof = body.proof
    return (
        f"heartbeat term={proof.term} leader={proof.candidate}"
        f" proof_ts={proof.timestamp_ms}"
    )


class _Sim:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.net_rng = random.Random(f"{scenario.seed}:net")
        self.adv_rng = random.Random(f"{scenario.seed}:adv")
        self.heap: List[tuple] = []
        self.seq = 0
        self.trace: List[TraceEvent] = []
        self.leaders_per_term: Dict[int, List[int]] = {}
        self.elections_started = 0
        self.adversaries = {a.node: a for a in scenario.adversaries}

        keypairs, self.keyring = crypto.cluster(scenario.key_seed, scenario.n)
        # A fake leader forges with its first combo (itself and its lowest-id
        # peers) and one nonce point, and a fresh s.
        self.forgery = {
            a.node: (next(self.keyring.combos_containing({a.node})),
                     curve.scalar_mult_base(1 + self.adv_rng.randrange(curve.N - 1)))
            for a in scenario.adversaries if a.behavior == "fake_leader"
        }
        self.nodes: Dict[int, core.NodeState] = {}
        self.egen = [0] * scenario.n
        self.hgen = [0] * scenario.n
        for i in range(scenario.n):
            state, outputs = core.init(
                i, keypairs[i], self.keyring, scenario.node_config,
                random.Random(f"{scenario.seed}:node:{i}"),
            )
            self.nodes[i] = state
            if scenario.preferred_first_candidate is not None:
                outputs = self._bias_first_timer(i, outputs)
            self._apply_outputs(i, outputs, 0)
        # Adversaries emit on the heartbeat cadence.
        interval = scenario.node_config.heartbeat_interval_ms
        for node, spec in self.adversaries.items():
            if spec.behavior in ("fake_leader", "proof_replay"):
                t = interval
                while t <= scenario.duration_ms:
                    self._push(t, ("adv", node))
                    t += interval
        self.replay_captured: Dict[int, tuple] = {}  # node -> (proof, capture_ms)

    # -- plumbing -------------------------------------------------------------

    def _push(self, time_ms: int, item: tuple) -> None:
        heapq.heappush(self.heap, (time_ms, self.seq, item))
        self.seq += 1

    def _record(
        self, time_ms: int, kind: str, node: int, detail: str, about: object = None
    ) -> None:
        self.trace.append(TraceEvent(time_ms, self.seq, kind, node, detail, about))
        self.seq += 1

    def _bias_first_timer(self, node: int, outputs: list) -> list:
        """Force a chosen node to win the opening election."""
        low, high = self.sc.node_config.election_timeout_range_ms
        duration = low if node == self.sc.preferred_first_candidate else (
            high + 100 + 10 * node
        )
        return [
            ArmElectionTimer(duration, out.cause)
            if isinstance(out, ArmElectionTimer) else out
            for out in outputs
        ]

    def _partition_blocks(self, src: int, dst: int, time_ms: int) -> bool:
        for part in self.sc.partitions:
            if part.start_ms <= time_ms < part.end_ms:
                for group in part.groups:
                    if src in group:
                        return dst not in group
        return False

    def _dispatch(
        self, packets: Sequence[Packet], time_ms: int, emitter: Optional[int] = None
    ) -> None:
        # emitter is who physically sends; it differs from packet.src only
        # when an adversary forges the envelope. The packets of a burst
        # share one body, whose trace text is rendered once.
        body = None
        for packet in packets:
            if packet.body is not body:
                body = packet.body
                detail = _body_detail(body)
            sender = packet.src if emitter is None else emitter
            spec = self.adversaries.get(sender)
            if spec is not None and spec.behavior == "silent":
                self._record(time_ms, "drop", sender, "silent " + detail, body)
                continue
            double = spec is not None and spec.behavior == "double_voter"
            copies = 2 if double and isinstance(body, VoteResponse) else 1
            sent = f"{detail} to={packet.dst}"
            for _ in range(copies):
                self._record(time_ms, "send", sender, sent, body)
                if self._partition_blocks(sender, packet.dst, time_ms):
                    self._record(time_ms, "drop", sender, "partition " + sent, body)
                    continue
                if (
                    self.sc.drop_probability > 0
                    and self.net_rng.random() < self.sc.drop_probability
                ):
                    self._record(time_ms, "drop", sender, "loss " + sent, body)
                    continue
                delay = self.net_rng.randint(*self.sc.latency_ms)
                self._push(time_ms + delay, ("deliver", packet, detail))

    def _apply_outputs(self, node: int, outputs: list, time_ms: int) -> None:
        for out in outputs:
            if isinstance(out, Send):
                self._dispatch(out.packets, time_ms)
            elif isinstance(out, ArmElectionTimer):
                self.egen[node] += 1
                proof = out.proof
                detail = f"arm-election dur={out.duration_ms} cause={out.cause}"
                if proof is not None:
                    detail += f" leader={proof.candidate} proof_ts={proof.timestamp_ms}"
                self._record(time_ms, "timer", node, detail, out)
                self._push(
                    time_ms + out.duration_ms, ("etimer", node, self.egen[node])
                )
            elif isinstance(out, ArmHeartbeatTimer):
                self.hgen[node] += 1
                self._push(
                    time_ms + out.duration_ms, ("htimer", node, self.hgen[node])
                )
            elif isinstance(out, RoleChanged):
                detail = f"{out.role} term={out.term}"
                if out.role == "leader":
                    self.leaders_per_term.setdefault(out.term, [])
                    if node not in self.leaders_per_term[out.term]:
                        self.leaders_per_term[out.term].append(node)
                    detail += (
                        f" proof_ts={out.proof.timestamp_ms}"
                        f" proof={proofs.encode_proof(out.proof).hex()}"
                    )
                elif out.role == "candidate":
                    self.elections_started += 1
                self._record(time_ms, "role_change", node, detail, out)
            elif isinstance(out, Diagnostic):
                self._record(
                    time_ms, "diagnostic", node, f"{out.code} {out.detail}"
                )

    # -- adversary emissions --------------------------------------------------

    def _fake_proof(self, spec: AdversarySpec, time_ms: int) -> proofs.VoteProof:
        combo, big_r = self.forgery[spec.node]
        return proofs.VoteProof(
            wire.SCHEME_SCHNORR, spec.term, time_ms, spec.node,
            proofs.SchnorrBody(combo, big_r, self.adv_rng.randrange(curve.N)),
        )

    def _adversary_emit(self, node: int, time_ms: int) -> None:
        spec = self.adversaries[node]
        peers = [peer for peer in range(self.sc.n) if peer != node]
        if spec.behavior == "fake_leader":
            body = Heartbeat(self._fake_proof(spec, time_ms))
            self._dispatch([Packet(node, peer, body) for peer in peers], time_ms)
        elif spec.behavior == "proof_replay":
            captured = self.replay_captured.get(node)
            if captured is None:
                return
            proof, capture_ms = captured
            if time_ms < capture_ms + spec.replay_after_ms:
                return
            # Forged envelope: the replayer impersonates the proof's candidate.
            body = Heartbeat(proof)
            self._dispatch(
                [Packet(proof.candidate, peer, body) for peer in peers],
                time_ms, emitter=node,
            )

    def _maybe_capture(self, node: int, outputs: list, time_ms: int) -> None:
        """A replayer keeps the first proof that its own node follows."""
        proof = next(
            (out.proof for out in outputs if isinstance(out, ArmElectionTimer)), None
        )
        if proof is not None and node not in self.replay_captured:
            self.replay_captured[node] = (proof, time_ms)
            self._record(
                time_ms, "diagnostic", node,
                f"proof-captured term={proof.term} proof_ts={proof.timestamp_ms}",
            )

    # -- main loop ------------------------------------------------------------

    def run(self) -> Tuple[List[TraceEvent], RunReport]:
        while self.heap:
            time_ms, _, item = heapq.heappop(self.heap)
            if time_ms > self.sc.duration_ms:
                break
            kind = item[0]
            if kind == "deliver":
                _, packet, detail = item
                node = packet.dst
                body = packet.body
                self._record(
                    time_ms, "deliver", node, f"{detail} from={packet.src}", body
                )
                behavior = getattr(self.adversaries.get(node), "behavior", None)
                # Fake leaders answer votes but never campaign or follow.
                if behavior == "fake_leader" and not isinstance(body, VoteRequest):
                    continue
                _, outputs = core.step(
                    self.nodes[node], PacketArrived(packet), time_ms
                )
                if behavior == "proof_replay":
                    self._maybe_capture(node, outputs, time_ms)
                self._apply_outputs(node, outputs, time_ms)
            elif kind == "etimer":
                node, gen = item[1], item[2]
                if gen != self.egen[node]:
                    continue
                spec = self.adversaries.get(node)
                if spec is not None and spec.behavior in (
                    "fake_leader", "proof_replay"
                ):
                    continue  # lurking adversaries never start elections
                _, outputs = core.step(self.nodes[node], ElectionTimeout(), time_ms)
                self._apply_outputs(node, outputs, time_ms)
            elif kind == "htimer":
                node, gen = item[1], item[2]
                if gen != self.hgen[node]:
                    continue
                _, outputs = core.step(self.nodes[node], HeartbeatTick(), time_ms)
                self._apply_outputs(node, outputs, time_ms)
            elif kind == "adv":
                self._adversary_emit(item[1], time_ms)

        report = RunReport(
            leaders_per_term=self.leaders_per_term,
            elections_started=self.elections_started,
            violations=[],
            final_roles={i: self.nodes[i].role.name for i in range(self.sc.n)},
            final_known_leader={
                i: self.nodes[i].known_leader for i in range(self.sc.n)
            },
            honest_nodes=tuple(
                i for i in range(self.sc.n) if i not in self.adversaries
            ),
            adversaries={n: s.behavior for n, s in self.adversaries.items()},
            quorum_size=self.keyring.quorum_size,
            proof_ttl_ms=self.sc.node_config.proof_policy.ttl_ms,
            heartbeat_interval_ms=self.sc.node_config.heartbeat_interval_ms,
            partitions=self.sc.partitions,
            duration_ms=self.sc.duration_ms,
        )
        report.violations = check_invariants(self.trace, report)
        for violation in report.violations:
            self._record(self.sc.duration_ms, "violation", -1, violation)
        return self.trace, report


def run(scenario: Scenario) -> Tuple[List[TraceEvent], RunReport]:
    return _Sim(scenario).run()


# --- invariant checking ------------------------------------------------------


def _term(about: Union[core.Body, RoleChanged]) -> int:
    """The term of a packet body or a RoleChanged."""
    if isinstance(about, VoteRequest):
        return about.payload.term
    if isinstance(about, VoteResponse):
        return about.grant.term
    return about.proof.term if isinstance(about, Heartbeat) else about.term


def _leader_intervals(
    trace: List[TraceEvent], report: RunReport
) -> Dict[int, List[Tuple[int, int, int]]]:
    """Per node: (start_ms, end_ms, term) intervals spent as leader."""
    intervals: Dict[int, List[Tuple[int, int, int]]] = {}
    open_at: Dict[int, Tuple[int, int]] = {}
    for ev in trace:
        if ev.kind != "role_change":
            continue
        if ev.about.role == "leader":
            open_at[ev.node] = (ev.time_ms, ev.about.term)
        elif ev.node in open_at:
            start, lead_term = open_at.pop(ev.node)
            intervals.setdefault(ev.node, []).append((start, ev.time_ms, lead_term))
    for node, (start, lead_term) in open_at.items():
        intervals.setdefault(node, []).append(
            (start, report.duration_ms, lead_term)
        )
    return intervals


def check_invariants(trace: List[TraceEvent], report: RunReport) -> List[str]:
    """The run's violations, from one pass over the trace's typed events
    (``TraceEvent.about``; the text is never read): election safety,
    vote uniqueness, term monotonicity, timer resets, fake leaders
    acknowledged and minority leaders, each kind in trace order."""
    honest = set(report.honest_nodes)
    fake_leaders = {n for n, b in report.adversaries.items() if b == "fake_leader"}

    # Election safety: at most one leader per term.
    violations = [
        f"election-safety term={term} leaders={sorted(leaders)}"
        for term, leaders in sorted(report.leaders_per_term.items())
        if len(leaders) > 1
    ]
    double_votes: List[str] = []
    regressions: List[str] = []
    resets: List[str] = []
    role_changes: List[TraceEvent] = []
    seen_votes: Dict[Tuple[int, int], int] = {}
    last_term: Dict[int, int] = {}
    for ev in trace:
        kind, node, about = ev.kind, ev.node, ev.about
        if kind == "role_change":
            role_changes.append(ev)
        elif kind != "send" and kind != "timer":
            continue
        if node not in honest:
            continue
        if kind == "timer":
            if about.proof is None:
                continue
            leader, proof_ts = about.proof.candidate, about.proof.timestamp_ms
            # A heartbeat without a valid proof never resets a timer.
            if leader in fake_leaders:
                resets.append(
                    f"fake-leader-reset node={node} leader={leader} at={ev.time_ms}"
                )
            # An expired proof never resets a timer (covers post-ttl replay).
            if ev.time_ms > proof_ts + report.proof_ttl_ms:
                resets.append(
                    f"expired-proof-reset node={node} proof_ts={proof_ts}"
                    f" at={ev.time_ms}"
                )
            continue
        term = _term(about)
        # Vote uniqueness: one VoteResponse per (honest node, term).
        if isinstance(about, VoteResponse):
            votes = seen_votes[node, term] = seen_votes.get((node, term), 0) + 1
            if votes == 2:
                double_votes.append(f"vote-uniqueness node={node} term={term}")
        # Term monotonicity over every term observation per node.
        last = last_term.get(node, 0)
        if term < last:
            regressions.append(
                f"term-monotonicity node={node} term={term}"
                f" after={last} at={ev.time_ms}"
            )
        else:
            last_term[node] = term
    violations += double_votes + regressions + resets

    for node in honest:
        if report.final_known_leader.get(node) in fake_leaders:
            violations.append(
                f"fake-leader-acknowledged node={node}"
                f" leader={report.final_known_leader[node]}"
            )

    # During a partition, a sub-quorum side holds no leader once the old
    # proof has had time to expire (ttl plus one heartbeat of stepdown lag).
    intervals = _leader_intervals(role_changes, report)
    grace = report.proof_ttl_ms + report.heartbeat_interval_ms
    for part in report.partitions:
        for group in part.groups:
            if len(group) >= report.quorum_size:
                continue
            window_start = part.start_ms + grace
            if window_start >= part.end_ms:
                continue
            for node in group:
                for start, end, term in intervals.get(node, []):
                    overlap = min(end, part.end_ms) - max(start, window_start)
                    if overlap > 0:
                        violations.append(
                            f"minority-leader node={node} term={term}"
                            f" window=[{window_start},{part.end_ms})"
                        )
    return violations


@dataclass(frozen=True)
class PartitionLeadershipSummary:
    max_dual_ms: int
    exceeded_ttl: bool


def scripted_partition_leadership(
    trace: List[TraceEvent], report: RunReport
) -> PartitionLeadershipSummary:
    """The longest time two nodes simultaneously believed themselves
    leader, and whether it outlasted a proof's ttl plus one heartbeat."""
    flat = [
        (node, start, end)
        for node, spans in _leader_intervals(trace, report).items()
        for start, end, _ in spans
    ]
    max_dual = 0
    for i, (a_node, a_start, a_end) in enumerate(flat):
        for b_node, b_start, b_end in flat[i + 1:]:
            if a_node != b_node:
                overlap = min(a_end, b_end) - max(a_start, b_start)
                max_dual = max(max_dual, overlap)
    limit = report.proof_ttl_ms + report.heartbeat_interval_ms
    return PartitionLeadershipSummary(max_dual, max_dual > limit)
