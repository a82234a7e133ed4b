"""Scenario files: a strict YAML schema describing one simulation run.

Unknown keys are rejected outright so a typo in a scenario never
silently becomes a default. See the bundled files under ``scenarios/``
for the full vocabulary.
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import yaml

from . import wire
from .adversary import BEHAVIORS
from .core import NodeConfig
from .crypto import CryptoError, check_cluster_size
from .proofs import ProofPolicy


class ScenarioError(ValueError):
    pass


# PyYAML's libyaml parser where the platform built it, else the pure-Python
# one. Both read a file to the same objects.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(text: str):
    """The YAML document in text, read with YAML_LOADER; yaml.YAMLError
    when text is not YAML."""
    return yaml.load(text, Loader=YAML_LOADER)


@dataclass(frozen=True)
class Partition:
    start_ms: int
    end_ms: int
    groups: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class AdversarySpec:
    node: int
    behavior: str  # a name in adversary.BEHAVIORS
    term: Optional[int] = None
    replay_after_ms: Optional[int] = None


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int
    node_config: NodeConfig
    seed: int
    duration_ms: int
    latency_ms: Tuple[int, int]
    drop_probability: float
    partitions: Tuple[Partition, ...] = ()
    adversaries: Tuple[AdversarySpec, ...] = ()
    preferred_first_candidate: Optional[int] = None
    key_seed: str = ""

    def with_seed(self, seed: int) -> "Scenario":
        """Same scenario under a different run seed; keys stay fixed."""
        return replace(self, seed=seed)


_SCHEMES = {"schnorr": wire.SCHEME_SCHNORR, "sss": wire.SCHEME_SSS}

_TOP_KEYS = {
    "name", "nodes", "scheme", "seed", "duration_ms", "election_timeout_ms",
    "heartbeat_interval_ms", "proof_ttl_ms", "max_clock_skew_ms", "latency_ms",
    "drop_probability", "partitions", "adversaries",
    "preferred_first_candidate", "key_seed",
}
_PARTITION_KEYS = {"start_ms", "end_ms", "groups"}


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _typed(value, types, what: str):
    """value if YAML read it as one of types, not as a bool; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"not {what}: {value!r}")
    return value


def _integer(value) -> int:
    return _typed(value, int, "an integer")


def _text(value) -> str:
    return str(_typed(value, (str, int), "a string or an integer"))


def _pair(value, where: str) -> Tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where} must be a [low, high] pair")
    return _integer(value[0]), _integer(value[1])


def parse_scenario(text: str) -> Scenario:
    try:
        data = load_yaml(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a mapping")
    # A KeyError, TypeError, ValueError or OverflowError (a huge integer as
    # drop_probability) below means a malformed value; it is reported
    # against the section being read when it was raised.
    where = "scenario"
    try:
        _check_keys(data, _TOP_KEYS, where)
        for key in ("nodes", "seed", "duration_ms"):
            if key not in data:
                raise ScenarioError(f"missing required key {key!r}")

        name = _text(data.get("name", "unnamed"))
        n = _integer(data["nodes"])
        try:
            check_cluster_size(n)
        except CryptoError as exc:
            raise ScenarioError(str(exc)) from None
        scheme_name = data.get("scheme", "schnorr")
        if scheme_name not in _SCHEMES:
            raise ScenarioError(f"unknown scheme {scheme_name!r}")
        node_config = NodeConfig(
            election_timeout_range_ms=_pair(
                data.get("election_timeout_ms", NodeConfig.election_timeout_range_ms),
                "election_timeout_ms",
            ),
            heartbeat_interval_ms=_integer(
                data.get("heartbeat_interval_ms", NodeConfig.heartbeat_interval_ms)
            ),
            proof_policy=ProofPolicy(
                ttl_ms=_integer(data.get("proof_ttl_ms", ProofPolicy.ttl_ms)),
                max_clock_skew_ms=_integer(
                    data.get("max_clock_skew_ms", ProofPolicy.max_clock_skew_ms)
                ),
            ),
            scheme=_SCHEMES[scheme_name],
        )
        seed = _integer(data["seed"])
        key_seed = _text(data.get("key_seed", seed))
        duration_ms = _integer(data["duration_ms"])
        if duration_ms <= 0:
            raise ScenarioError("duration_ms must be positive")
        preferred = data.get("preferred_first_candidate")
        if preferred is not None:
            preferred = _integer(preferred)
            if not 0 <= preferred < n:
                raise ScenarioError("preferred_first_candidate out of range")
        latency = _pair(data.get("latency_ms", [5, 25]), "latency_ms")
        if not 0 <= latency[0] <= latency[1]:
            raise ScenarioError("latency_ms must satisfy 0 <= min <= max")
        drop = data.get("drop_probability", 0.0)
        drop = float(_typed(drop, (int, float), "a number"))
        if not 0.0 <= drop < 1.0:
            raise ScenarioError("drop_probability must be in [0, 1)")

        partitions = []
        where = "partitions"
        for i, raw in enumerate(data.get("partitions") or []):
            where = f"partitions[{i}]"
            if not isinstance(raw, dict):
                raise ScenarioError("partition entries must be mappings")
            _check_keys(raw, _PARTITION_KEYS, where)
            groups = tuple(
                tuple(_integer(m) for m in group) for group in raw.get("groups", [])
            )
            part = Partition(_integer(raw["start_ms"]), _integer(raw["end_ms"]), groups)
            if part.start_ms >= part.end_ms:
                raise ScenarioError(f"{where}: start_ms must precede end_ms")
            members = [m for g in groups for m in g]
            if sorted(members) != list(range(n)):
                raise ScenarioError(
                    f"{where}: groups must be disjoint and cover all nodes"
                )
            # simnet enforces one window at a time; windows may only touch.
            for j, other in enumerate(partitions):
                if part.start_ms < other.end_ms and other.start_ms < part.end_ms:
                    raise ScenarioError(f"{where}: overlaps partitions[{j}]")
            partitions.append(part)

        adversaries = []
        where = "adversaries"
        for i, raw in enumerate(data.get("adversaries") or []):
            where = f"adversaries[{i}]"
            if not isinstance(raw, dict):
                raise ScenarioError("adversary entries must be mappings")
            behavior = raw.get("behavior")
            if not isinstance(behavior, str) or behavior not in BEHAVIORS:
                raise ScenarioError(f"unknown adversary behavior {behavior!r}")
            keys = BEHAVIORS[behavior].KEYS
            _check_keys(raw, {"node", "behavior", *keys}, where)
            node = _integer(raw["node"])
            if not 0 <= node < n:
                raise ScenarioError(f"{where}: node out of range")
            for key, allowed in keys.items():  # each stop is a power of two
                if key not in raw or _integer(raw[key]) not in allowed:
                    raise ScenarioError(
                        f"{where}: {behavior} needs a {key} in [{allowed.start},"
                        f" 2**{allowed.stop.bit_length() - 1})"
                    )
            adversaries.append(AdversarySpec(node, behavior, **{k: raw[k] for k in keys}))
        if len({a.node for a in adversaries}) != len(adversaries):
            raise ScenarioError("one adversary behavior per node")
    except ScenarioError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None

    return Scenario(
        name=name,
        n=n,
        node_config=node_config,
        seed=seed,
        duration_ms=duration_ms,
        latency_ms=latency,
        drop_probability=drop,
        partitions=tuple(partitions),
        adversaries=tuple(adversaries),
        preferred_first_candidate=preferred,
        key_seed=key_seed,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_scenario(fh.read())
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"not UTF-8: {exc}") from None
