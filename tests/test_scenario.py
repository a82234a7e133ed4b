"""Scenario file parsing: defaults, strictness, and validation."""

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from mokka import cli, scenario, wire
from mokka.adversary import BEHAVIORS
from mokka.scenario import Scenario, ScenarioError, load_scenario, parse_scenario

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
    # An integer past float's range: float() raises OverflowError.
    with pytest.raises(ScenarioError, match="^scenario: int too large"):
        parse_scenario(MINIMAL + f"drop_probability: {2**1100}\n")


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


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan", "3.7", "true", "'3'"])
@pytest.mark.parametrize("template, good, where", [
    (MINIMAL.replace("nodes: 3", "nodes: @"), 3, "scenario"),
    (MINIMAL.replace("seed: 1", "seed: @"), 1, "scenario"),
    (MINIMAL.replace("duration_ms: 2000", "duration_ms: @"), 2000, "scenario"),
    (MINIMAL + "heartbeat_interval_ms: @\n", 60, "scenario"),
    (MINIMAL + "proof_ttl_ms: @\n", 1000, "scenario"),
    (MINIMAL + "max_clock_skew_ms: @\n", 100, "scenario"),
    (MINIMAL + "preferred_first_candidate: @\n", 2, "scenario"),
    (MINIMAL + "latency_ms: [5, @]\n", 7, "scenario"),
    (MINIMAL + "election_timeout_ms: [@, 300]\n", 150, "scenario"),
    (MINIMAL + "partitions: [{start_ms: @, end_ms: 500, groups: [[0, 1], [2]]}]\n",
     100, r"partitions\[0\]"),
    (MINIMAL + "partitions: [{start_ms: 100, end_ms: @, groups: [[0, 1], [2]]}]\n",
     500, r"partitions\[0\]"),
    (MINIMAL + "partitions: [{start_ms: 100, end_ms: 500, groups: [[0, @], [2]]}]\n",
     1, r"partitions\[0\]"),
    (MINIMAL + "adversaries: [{node: @, behavior: fake_leader, term: 9}]\n",
     1, r"adversaries\[0\]"),
    (MINIMAL + "adversaries: [{node: 1, behavior: fake_leader, term: @}]\n",
     9, r"adversaries\[0\]"),
    (MINIMAL + "adversaries: [{node: 1, behavior: proof_replay, replay_after_ms: @}]\n",
     300, r"adversaries\[0\]"),
], ids=[
    "nodes", "seed", "duration_ms", "heartbeat_interval_ms", "proof_ttl_ms",
    "max_clock_skew_ms", "preferred_first_candidate", "latency_ms",
    "election_timeout_ms", "start_ms", "end_ms", "groups", "node", "term",
    "replay_after_ms",
])
def test_integer_field_takes_only_a_yaml_integer(template, good, where, value):
    # "@" stands for the field. A float such as .inf (which int() cannot
    # convert) or 3.7 (which it truncates), a bool and a string are each
    # refused where they stand.
    assert isinstance(parse_scenario(template.replace("@", str(good))), Scenario)
    with pytest.raises(ScenarioError, match=f"^{where}: not an integer: "):
        parse_scenario(template.replace("@", value))


@pytest.mark.parametrize("value", ["false", "true", "'0.5'", "null", "[0.5]"])
def test_drop_probability_takes_only_a_yaml_number(value):
    for good, drop in (("0", 0.0), ("0.25", 0.25)):
        sc = parse_scenario(MINIMAL + f"drop_probability: {good}\n")
        assert sc.drop_probability == drop
    with pytest.raises(ScenarioError, match="^scenario: not a number: "):
        parse_scenario(MINIMAL + f"drop_probability: {value}\n")


@pytest.mark.parametrize("value", ["[1, 2]", "{a: 1}", "true", "1.5", "null"])
@pytest.mark.parametrize("key", ["name", "key_seed"])
def test_text_field_takes_only_a_string_or_an_integer(key, value):
    nameless = MINIMAL.replace("name: minimal\n", "")
    for good, text in (("fixture", "fixture"), ("7", "7"), ("'0xff'", "0xff")):
        assert getattr(parse_scenario(nameless + f"{key}: {good}\n"), key) == text
    with pytest.raises(ScenarioError, match="^scenario: not a string or an integer: "):
        parse_scenario(nameless + f"{key}: {value}\n")


BASE = {
    "name": "any", "nodes": 3, "seed": 1, "duration_ms": 2000,
    "partitions": [{"start_ms": 100, "end_ms": 500, "groups": [[0, 1], [2]]}],
    "adversaries": [{"node": 2, "behavior": "fake_leader", "term": 9}],
}
SCALARS = st.one_of(
    # The values most likely to slip past int() and float(), drawn often.
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 3.7, 2**64, 2**1100]),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text("ab1.:-", max_size=4),
    st.lists(st.integers(-2, 3) | st.none(), max_size=3),
)
# Every key an adversary entry may hold, under one behaviour or another.
ADVERSARY_KEYS = {"node", "behavior"}.union(*(b.KEYS for b in BEHAVIORS.values()))
PLACES = st.one_of(
    st.tuples(st.none(), st.sampled_from(sorted(scenario._TOP_KEYS))),
    st.tuples(st.just("partitions"), st.sampled_from(sorted(scenario._PARTITION_KEYS))),
    st.tuples(st.just("adversaries"), st.sampled_from(sorted(ADVERSARY_KEYS))),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(PLACES, SCALARS)
def test_any_scalar_anywhere_parses_or_is_a_scenario_error(place, value):
    # One key of a valid scenario (top level, its partition or its
    # adversary) takes any YAML scalar: the parse yields a Scenario or
    # refuses the file with a ScenarioError, never another exception.
    section, key = place
    doc = {**BASE, "partitions": [dict(BASE["partitions"][0])],
           "adversaries": [dict(BASE["adversaries"][0])]}
    (doc if section is None else doc[section][0])[key] = value
    try:
        parsed = parse_scenario(yaml.safe_dump(doc))
    except ScenarioError:
        return
    assert isinstance(parsed, Scenario)


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

    @staticmethod
    def _two_windows(first, second):
        return MINIMAL + f"""
partitions:
  - start_ms: {first[0]}
    end_ms: {first[1]}
    groups: [[0, 1, 2]]
  - start_ms: {second[0]}
    end_ms: {second[1]}
    groups: [[0, 1], [2]]
"""

    @pytest.mark.parametrize(
        "second", [(100, 200), (0, 1000), (499, 600), (50, 101)],
        ids=["inside", "around", "tail", "head"],
    )
    def test_overlapping_windows_rejected(self, second, tmp_path, capsys):
        # Only one window is enforced at a time, so the checker would judge
        # a split that was never made.
        text = self._two_windows((100, 500), second)
        message = r"^partitions\[1\]: overlaps partitions\[0\]$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(text)
        path = tmp_path / "overlap.yaml"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 2
        assert "partitions[1]: overlaps partitions[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("second", [(500, 900), (0, 100)], ids=["after", "before"])
    def test_touching_windows_allowed(self, second):
        sc = parse_scenario(self._two_windows((100, 500), second))
        assert [(p.start_ms, p.end_ms) for p in sc.partitions] == [(100, 500), second]


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

    @pytest.mark.parametrize("behavior, key, value", [
        ("silent", "term", 5),
        ("double_voter", "replay_after_ms", 7),
        ("fake_leader", "replay_after_ms", 7),
        ("proof_replay", "term", 5),
    ])
    def test_key_the_behavior_never_reads(self, behavior, key, value):
        text = MINIMAL + f"adversaries:\n  - node: 1\n    behavior: {behavior}\n"
        for own in BEHAVIORS[behavior].KEYS:
            text += f"    {own}: 300\n"
        parse_scenario(text)
        with pytest.raises(
            ScenarioError, match=rf"^unknown key\(s\) in adversaries\[0\]: {key}$"
        ):
            parse_scenario(text + f"    {key}: {value}\n")

    @pytest.mark.parametrize("delay", [-500, -1, True, 2**64])
    def test_replay_delay_out_of_range(self, delay):
        text = MINIMAL + "adversaries:\n  - node: 1\n    behavior: proof_replay\n"
        assert parse_scenario(text + "    replay_after_ms: 0\n").adversaries[0].replay_after_ms == 0
        with pytest.raises(ScenarioError, match=r"^adversaries\[0\]: "):
            parse_scenario(text + f"    replay_after_ms: {str(delay).lower()}\n")


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


def test_every_behavior_has_a_bundled_scenario():
    used = {
        spec.behavior
        for path in SCENARIO_DIR.glob("*.yaml")
        for spec in load_scenario(str(path)).adversaries
    }
    assert used == set(BEHAVIORS)


def test_bundled_scenarios_load_alike_under_both_loaders(monkeypatch):
    # YAML_LOADER is libyaml's CSafeLoader where PyYAML has it; the
    # pure-Python SafeLoader must read every bundled file to equal objects.
    paths = sorted(SCENARIO_DIR.glob("*.yaml"))
    loaded = [load_scenario(str(path)) for path in paths]
    monkeypatch.setattr(scenario, "YAML_LOADER", yaml.SafeLoader)
    assert [load_scenario(str(path)) for path in paths] == loaded
