"""Scenario file parsing: defaults, strictness, and validation."""

import pytest

from mokka import wire
from mokka.scenario import ScenarioError, load_scenario, parse_scenario

from conftest import SCENARIO_DIR

MINIMAL = """
name: minimal
nodes: 3
seed: 1
duration_ms: 2000
"""


def test_minimal_scenario_gets_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.name == "minimal"
    assert sc.n == 3
    assert sc.node_config.scheme == wire.SCHEME_SCHNORR
    assert sc.node_config.election_timeout_range_ms == (150, 300)
    assert sc.node_config.heartbeat_interval_ms == 50
    assert sc.node_config.proof_policy.ttl_ms == 15000
    assert sc.node_config.proof_policy.max_clock_skew_ms == 500
    assert sc.latency_ms == (5, 25)
    assert sc.drop_probability == 0.0
    assert sc.partitions == () and sc.adversaries == ()
    assert sc.key_seed == "1"


def test_key_seed_defaults_to_seed_and_survives_reseeding():
    sc = parse_scenario(MINIMAL)
    resown = sc.with_seed(999)
    assert resown.seed == 999
    assert resown.key_seed == sc.key_seed == "1"
    assert resown.name == sc.name


def test_explicit_key_seed():
    sc = parse_scenario(MINIMAL + "key_seed: fixture\n")
    assert sc.key_seed == "fixture"


@pytest.mark.parametrize("missing", ["nodes", "seed", "duration_ms"])
def test_missing_required_key(missing):
    text = "\n".join(
        line for line in MINIMAL.splitlines() if not line.startswith(missing)
    )
    with pytest.raises(ScenarioError, match=f"missing required key '{missing}'"):
        parse_scenario(text)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key.*drop_probablity"):
        parse_scenario(MINIMAL + "drop_probablity: 0.1\n")


def test_unknown_scheme_rejected():
    with pytest.raises(ScenarioError, match="unknown scheme"):
        parse_scenario(MINIMAL + "scheme: bls\n")


def test_sss_scheme_parsed():
    sc = parse_scenario(MINIMAL + "scheme: sss\n")
    assert sc.node_config.scheme == wire.SCHEME_SSS


def test_not_a_mapping_rejected():
    with pytest.raises(ScenarioError, match="must be a mapping"):
        parse_scenario("- just\n- a\n- list\n")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        parse_scenario("nodes: [unclosed\n")


def test_cluster_too_small():
    with pytest.raises(ScenarioError, match="too small"):
        parse_scenario(MINIMAL.replace("nodes: 3", "nodes: 2"))


def test_cluster_too_large():
    assert parse_scenario(MINIMAL.replace("nodes: 3", "nodes: 17")).n == 17
    with pytest.raises(ScenarioError, match="too large.*at most 17"):
        parse_scenario(MINIMAL.replace("nodes: 3", "nodes: 18"))
    with pytest.raises(ScenarioError, match="too large: at most 64"):
        parse_scenario(MINIMAL.replace("nodes: 3", "nodes: 65"))


def test_bad_timer_config_surfaces_as_scenario_error():
    with pytest.raises(ScenarioError, match="heartbeat interval"):
        parse_scenario(MINIMAL + "heartbeat_interval_ms: 400\n")


@pytest.mark.parametrize("interval", [0, -50])
def test_nonpositive_heartbeat_interval_rejected(interval):
    with pytest.raises(ScenarioError, match="heartbeat interval must be positive"):
        parse_scenario(MINIMAL + f"heartbeat_interval_ms: {interval}\n")


@pytest.mark.parametrize("duration", [0, -5])
def test_nonpositive_duration_rejected(duration):
    text = MINIMAL.replace("duration_ms: 2000", f"duration_ms: {duration}")
    with pytest.raises(ScenarioError, match="duration_ms must be positive"):
        parse_scenario(text)


def test_latency_and_drop_validation():
    with pytest.raises(ScenarioError, match="latency_ms"):
        parse_scenario(MINIMAL + "latency_ms: [30, 10]\n")
    with pytest.raises(ScenarioError, match="pair"):
        parse_scenario(MINIMAL + "latency_ms: [10]\n")
    with pytest.raises(ScenarioError, match="drop_probability"):
        parse_scenario(MINIMAL + "drop_probability: 1.0\n")


@pytest.mark.parametrize("text, named", [
    (MINIMAL + "partitions: [{groups: [[0, 1], [2]]}]\n",
     r"partitions\[0\]: missing key 'start_ms'"),
    (MINIMAL.replace("nodes: 3", "nodes: three"), "three"),
    (MINIMAL + "adversaries: [{behavior: silent}]\n",
     r"adversaries\[0\]: missing key 'node'"),
    (MINIMAL + "partitions: [{start_ms: 0, end_ms: 9, groups: 5}]\n",
     r"partitions\[0\]"),
    (MINIMAL + "latency_ms: [a, 3]\n", "'a'"),
    (MINIMAL + "partitions: 7\n", "partitions: "),
])
def test_malformed_value_is_scenario_error(text, named):
    with pytest.raises(ScenarioError, match=named):
        parse_scenario(text)


class TestPartitions:
    GOOD = MINIMAL + """
partitions:
  - start_ms: 100
    end_ms: 500
    groups: [[0, 1], [2]]
"""

    def test_parsed(self):
        sc = parse_scenario(self.GOOD)
        part = sc.partitions[0]
        assert (part.start_ms, part.end_ms) == (100, 500)
        assert part.groups == ((0, 1), (2,))

    def test_unknown_partition_key(self):
        with pytest.raises(ScenarioError, match=r"partitions\[0\].*stop_ms"):
            parse_scenario(self.GOOD.replace("end_ms", "stop_ms"))

    def test_groups_must_cover_all_nodes(self):
        with pytest.raises(ScenarioError, match="cover all nodes"):
            parse_scenario(self.GOOD.replace("[[0, 1], [2]]", "[[0, 1]]"))
        with pytest.raises(ScenarioError, match="cover all nodes"):
            parse_scenario(self.GOOD.replace("[[0, 1], [2]]", "[[0, 1], [1, 2]]"))

    def test_window_must_be_ordered(self):
        with pytest.raises(ScenarioError, match="precede"):
            parse_scenario(self.GOOD.replace("end_ms: 500", "end_ms: 100"))


class TestAdversaries:
    def test_fake_leader_needs_term(self):
        text = MINIMAL + "adversaries:\n  - node: 1\n    behavior: fake_leader\n"
        with pytest.raises(ScenarioError, match="needs a term"):
            parse_scenario(text)
        sc = parse_scenario(text + "    term: 99\n")
        assert sc.adversaries[0].term == 99
        for term in (0, 2**64):
            with pytest.raises(ScenarioError, match="needs a term"):
                parse_scenario(text + f"    term: {term}\n")
        sc = parse_scenario(text + f"    term: {2**64 - 1}\n")
        assert sc.adversaries[0].term == 2**64 - 1

    def test_proof_replay_needs_delay(self):
        text = MINIMAL + "adversaries:\n  - node: 1\n    behavior: proof_replay\n"
        with pytest.raises(ScenarioError, match="replay_after_ms"):
            parse_scenario(text)
        sc = parse_scenario(text + "    replay_after_ms: 300\n")
        assert sc.adversaries[0].replay_after_ms == 300

    def test_unknown_behavior(self):
        with pytest.raises(ScenarioError, match="unknown adversary behavior"):
            parse_scenario(
                MINIMAL + "adversaries:\n  - node: 1\n    behavior: byzantine\n"
            )

    def test_node_out_of_range(self):
        with pytest.raises(ScenarioError, match="out of range"):
            parse_scenario(
                MINIMAL + "adversaries:\n  - node: 7\n    behavior: silent\n"
            )

    def test_one_behavior_per_node(self):
        text = MINIMAL + (
            "adversaries:\n"
            "  - node: 1\n    behavior: silent\n"
            "  - node: 1\n    behavior: double_voter\n"
        )
        with pytest.raises(ScenarioError, match="one adversary behavior per node"):
            parse_scenario(text)

    def test_unknown_adversary_key(self):
        with pytest.raises(ScenarioError, match=r"adversaries\[0\].*delay"):
            parse_scenario(
                MINIMAL + "adversaries:\n  - node: 1\n    behavior: silent\n    delay: 5\n"
            )


def test_preferred_candidate_range():
    assert parse_scenario(MINIMAL + "preferred_first_candidate: 2\n").preferred_first_candidate == 2
    with pytest.raises(ScenarioError, match="preferred_first_candidate"):
        parse_scenario(MINIMAL + "preferred_first_candidate: 3\n")


def test_all_bundled_scenarios_parse():
    paths = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(paths) >= 8
    for path in paths:
        sc = load_scenario(str(path))
        assert sc.n >= 3 and sc.duration_ms > 0
