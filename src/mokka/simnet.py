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

from . import adversary, core, crypto, proofs
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
from .scenario import Partition, Scenario


class TraceEvent(NamedTuple):
    time_ms: int
    seq: int
    kind: str  # send | deliver | drop | timer | role_change | diagnostic | violation
    node: int
    # What happened: the Packet (send, deliver, drop), the ArmElectionTimer
    # (timer), the RoleChanged (role_change), the Diagnostic (diagnostic)
    # or the violation text (violation).
    about: object
    cause: str = ""  # a drop's reason: silent | partition | loss

    @property
    def detail(self) -> str:
        """The line's text, rendered from ``about``: the trace format's one home."""
        kind, about = self.kind, self.about
        if kind == "violation":
            return about
        if kind == "diagnostic":
            return f"{about.code} {about.detail}"
        if kind == "role_change":
            text = f"{about.role} term={about.term}"
            if about.role == "leader":
                text += f" proof_ts={about.proof.timestamp_ms}"
                text += f" proof={proofs.encode_proof(about.proof).hex()}"
            return text
        if kind == "timer":
            text = f"arm-election dur={about.duration_ms} cause={about.cause}"
            proof = about.proof
            if proof is not None:
                text += f" leader={proof.candidate} proof_ts={proof.timestamp_ms}"
            return text
        body = about.body
        if isinstance(body, VoteRequest):
            p = body.payload
            text = f"vote-request term={p.term} candidate={p.candidate}"
        elif isinstance(body, VoteResponse):
            text = f"vote-response term={body.grant.term} voter={body.grant.voter}"
        else:
            proof = body.proof
            text = f"heartbeat term={proof.term} leader={proof.candidate}"
            text += f" proof_ts={proof.timestamp_ms}"
        if kind == "deliver":
            return f"{text} from={about.src}"
        if self.cause != "silent":
            text += f" to={about.dst}"
        return f"{self.cause} {text}" if self.cause else text

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


class _Sim:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.net_rng = random.Random(f"{scenario.seed}:net")
        adv_rng = random.Random(f"{scenario.seed}:adv")
        self.heap: List[tuple] = []
        self.seq = 0
        self.trace: List[TraceEvent] = []
        self.leaders_per_term: Dict[int, List[int]] = {}
        self.elections_started = 0

        keypairs, self.keyring = crypto.cluster(scenario.key_seed, scenario.n)
        inits = [
            core.init(
                i, keypairs[i], self.keyring, scenario.node_config,
                random.Random(f"{scenario.seed}:node:{i}"),
            )
            for i in range(scenario.n)
        ]
        self.nodes = [adversary.Honest(state) for state, _ in inits]
        # In scenario order: fake leaders draw their nonces from adv_rng.
        for spec in scenario.adversaries:
            behavior = adversary.BEHAVIORS[spec.behavior]
            self.nodes[spec.node] = behavior(inits[spec.node][0], spec, adv_rng)
        # (node, timer event type) -> seq of the push that armed it last;
        # a popped timer whose seq is not the one recorded here is stale.
        self.armed: Dict[Tuple[int, type], int] = {}
        for i, (_, outputs) in enumerate(inits):
            if scenario.preferred_first_candidate is not None:
                outputs = self._bias_first_timer(i, outputs)
            self._apply_outputs(i, outputs, 0)
        # Nodes that act on their own do so on the heartbeat cadence.
        interval = scenario.node_config.heartbeat_interval_ms
        for spec in scenario.adversaries:
            if hasattr(self.nodes[spec.node], "tick"):
                for t in range(interval, scenario.duration_ms + 1, interval):
                    self._push(t, ("tick", spec.node))

    # -- plumbing -------------------------------------------------------------

    def _push(self, time_ms: int, item: tuple) -> None:
        heapq.heappush(self.heap, (time_ms, self.seq, item))
        self.seq += 1

    def _arm(self, node: int, event: type, time_ms: int) -> None:
        """Arm node's timer for event at time_ms, replacing its last one."""
        self.armed[node, event] = self.seq
        self._push(time_ms, ("timer", node, event))

    def _record(
        self, time_ms: int, kind: str, node: int, about: object, cause: str = ""
    ) -> None:
        self.trace.append(TraceEvent(time_ms, self.seq, kind, node, about, cause))
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

    def _dispatch(self, packets: Sequence[Packet], time_ms: int, sender: int) -> None:
        # sender is who physically sends; it differs from packet.src only
        # when an adversary forges the envelope.
        copies_of, loss = self.nodes[sender].copies, self.sc.drop_probability
        for packet in packets:
            copies = copies_of(packet.body)
            if not copies:
                self._record(time_ms, "drop", sender, packet, "silent")
                continue
            for _ in range(copies):
                self._record(time_ms, "send", sender, packet)
                if self._partition_blocks(sender, packet.dst, time_ms):
                    self._record(time_ms, "drop", sender, packet, "partition")
                    continue
                if loss > 0 and self.net_rng.random() < loss:
                    self._record(time_ms, "drop", sender, packet, "loss")
                    continue
                delay = self.net_rng.randint(*self.sc.latency_ms)
                self._push(time_ms + delay, ("deliver", packet.dst, packet))

    def _apply_outputs(self, node: int, outputs: list, time_ms: int) -> None:
        for out in outputs:
            if isinstance(out, Send):
                self._dispatch(out.packets, time_ms, node)
            elif isinstance(out, ArmElectionTimer):
                self._record(time_ms, "timer", node, out)
                self._arm(node, ElectionTimeout, time_ms + out.duration_ms)
            elif isinstance(out, ArmHeartbeatTimer):
                self._arm(node, HeartbeatTick, time_ms + out.duration_ms)
            elif isinstance(out, RoleChanged):
                if out.role == "leader":
                    leaders = self.leaders_per_term.setdefault(out.term, [])
                    if node not in leaders:
                        leaders.append(node)
                elif out.role == "candidate":
                    self.elections_started += 1
                self._record(time_ms, "role_change", node, out)
            elif isinstance(out, Diagnostic):
                self._record(time_ms, "diagnostic", node, out)

    # -- main loop ------------------------------------------------------------

    def run(self) -> Tuple[List[TraceEvent], RunReport]:
        while self.heap:
            time_ms, seq, item = heapq.heappop(self.heap)
            if time_ms > self.sc.duration_ms:
                break
            kind, node = item[0], item[1]
            target = self.nodes[node]
            if kind == "deliver":
                self._record(time_ms, "deliver", node, item[2])
                outputs = target.step(PacketArrived(item[2]), time_ms)
            elif kind == "tick":
                outputs = target.tick(time_ms)
            elif self.armed.get((node, item[2])) == seq:
                outputs = target.step(item[2](), time_ms)
            else:
                continue  # stale: the timer was armed again since
            self._apply_outputs(node, outputs, time_ms)

        states = [node.state for node in self.nodes]
        adversaries = {spec.node: spec.behavior for spec in self.sc.adversaries}
        report = RunReport(
            leaders_per_term=self.leaders_per_term,
            elections_started=self.elections_started,
            violations=[],
            final_roles={state.id: state.role.name for state in states},
            final_known_leader={state.id: state.known_leader for state in states},
            honest_nodes=tuple(
                i for i in range(self.sc.n) if i not in adversaries
            ),
            adversaries=adversaries,
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
    (``TraceEvent.about``; no text, and no adversary by name): election
    safety, vote uniqueness, term monotonicity, timer resets (proof
    soundness, expired proofs) and minority leaders, each in trace order."""
    honest = set(report.honest_nodes)

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
    # The proof each (term, node) was elected with, by any node: a
    # Byzantine node that wins real votes issues a real proof.
    issued: Dict[Tuple[int, int], Optional[proofs.VoteProof]] = {}
    for ev in trace:
        kind, node, about = ev.kind, ev.node, ev.about
        if kind == "role_change":
            role_changes.append(ev)
            if about.role == "leader":
                issued[about.term, node] = about.proof
        elif kind == "send":
            about = about.body
        elif kind != "timer":
            continue
        if node not in honest:
            continue
        if kind == "timer":
            proof = about.proof
            if proof is None:
                continue
            leader, proof_ts = proof.candidate, proof.timestamp_ms
            # Proof soundness: an honest node resets its timer only with a
            # proof some node of this run was elected with.
            elected = issued.get((proof.term, leader))
            if elected is not proof and elected != proof:
                resets.append(
                    f"proof-soundness node={node} leader={leader}"
                    f" term={proof.term} at={ev.time_ms}"
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
