"""CLI surface: exit codes, machine output, and golden pinning."""

import filecmp
import pathlib
import random
import time

import pytest
import yaml

from mokka import cli, crypto, curve, proofs, scenario, wire
from mokka.cli import load_keyset, main

from conftest import GOLDEN_DIR, scenario_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, stdout, stderr):
    """Exit 2, nothing on stdout, and one error on stderr: its first line
    is the only one that starts with "error: ". A YAML parser's message
    may run on over further lines of its own."""
    assert (code, stdout) == (2, "")
    lines = stderr.splitlines()
    assert stderr.endswith("\n") and lines[0].startswith("error: ")
    assert not any(line.startswith(("error:", "Traceback")) for line in lines[1:])


class TestKeys:
    def test_generates_loadable_keyset(self, tmp_path, capsys):
        out = tmp_path / "keys.yaml"
        code, stdout, _ = run_cli(
            capsys, "keys", "--nodes", "3", "--seed", "demo", "--out", str(out)
        )
        assert code == 0
        assert "wrote keyset" in stdout
        keyring = load_keyset(str(out))
        assert keyring.quorum_size == 2
        assert len(keyring.combos) == 3

    def test_keyset_loads_alike_under_both_loaders(self, tmp_path, capsys, monkeypatch):
        # YAML_LOADER is libyaml's CSafeLoader where PyYAML has it; the
        # pure-Python SafeLoader must read a keyset to an equal keyring.
        out = tmp_path / "keys.yaml"
        run_cli(capsys, "keys", "--nodes", "5", "--seed", "demo", "--out", str(out))
        keyring = load_keyset(str(out))
        monkeypatch.setattr(scenario, "YAML_LOADER", yaml.SafeLoader)
        assert load_keyset(str(out)) == keyring

    def test_byte_identical_for_same_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        run_cli(capsys, "keys", "--nodes", "5", "--seed", "x", "--out", str(a))
        run_cli(capsys, "keys", "--nodes", "5", "--seed", "x", "--out", str(b))
        assert filecmp.cmp(a, b, shallow=False)

    def test_too_few_nodes_is_usage_error(self, tmp_path, capsys):
        code, stdout, stderr = run_cli(
            capsys, "keys", "--nodes", "2", "--seed", "x",
            "--out", str(tmp_path / "k.yaml"),
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "at least 3" in stderr

    def test_too_many_nodes_is_usage_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "k.yaml"
        keygens = []
        monkeypatch.setattr(cli.crypto, "keygens", lambda seeds: keygens.extend(seeds))
        code, stdout, stderr = run_cli(
            capsys, "keys", "--nodes", "65", "--seed", "x", "--out", str(out)
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "at most 64" in stderr
        assert keygens == [] and not out.exists()

    def test_more_nodes_than_a_keyring_holds_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "k.yaml"
        keygens = []
        monkeypatch.setattr(cli.crypto, "keygens", lambda seeds: keygens.extend(seeds))
        code, stdout, stderr = run_cli(
            capsys, "keys", "--nodes", "18", "--seed", "x", "--out", str(out)
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stderr.startswith("error:") and "at most 17" in stderr
        assert keygens == [] and not out.exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "k.yaml"
        code, stdout, stderr = run_cli(
            capsys, "keys", "--nodes", "3", "--seed", "x", "--out", str(out)
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stderr.startswith("error:") and str(out) in stderr

    def test_largest_keyset_writes_and_loads_within_budget(self, tmp_path, capsys):
        # A keyset holds each node's keys and nothing derived from them, so
        # the largest one is written and read back in well under 2 s of CPU.
        out = tmp_path / "keys.yaml"
        started = time.process_time()
        code, _, _ = run_cli(
            capsys, "keys", "--nodes", "17", "--seed", "big", "--out", str(out)
        )
        keyring = load_keyset(str(out))
        elapsed = time.process_time() - started
        assert code == 0
        assert keyring == crypto.cluster("big", 17)[1]
        doc = yaml.safe_load(out.read_text())
        assert list(doc) == ["nodes", "seed", "quorum", "keys"]
        assert elapsed < 2.0, f"took {elapsed:.2f} s of CPU (budget 2 s)"

    def test_tampered_keyset_rejected(self, tmp_path, capsys):
        out = tmp_path / "keys.yaml"
        run_cli(capsys, "keys", "--nodes", "3", "--seed", "demo", "--out", str(out))
        genuine = out.read_text()
        doc = yaml.safe_load(genuine)
        keypairs, _ = crypto.cluster("demo", 3)
        keyring = load_keyset(str(out))
        payloads = proofs.make_vote_payloads(
            0, 1, 0, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        grant = proofs.grant_vote(keypairs[1], payloads[1], keyring)
        proof = proofs.build_proof(keypairs[0], payloads[0], [grant], keyring)
        assert proof.body.combo == crypto.ComboId(0b011)
        verify = (
            "verify", "--proof", proofs.encode_proof(proof).hex(),
            "--keys", str(out), "--now", "0",
        )
        assert run_cli(capsys, *verify)[:2] == (0, "ok\n")
        real = doc["keys"][0]["public"]
        # Node 0's key replaced by another node's key; by an x that is not
        # on the curve (x = 5); by the right x behind an uncompressed-point
        # prefix. Each keyset is refused, or its keyring refutes the genuine
        # proof, which node 0 signed.
        for tampered in (
            doc["keys"][1]["public"],
            real[:2] + (5).to_bytes(32, "big").hex(),
            "04" + real[2:],
        ):
            doc["keys"][0]["public"] = tampered
            out.write_text(yaml.safe_dump(doc, sort_keys=False))
            code, stdout, stderr = run_cli(capsys, *verify)
            assert (code, stdout) in ((2, ""), (1, "bad_signature\n"))
            if code == 2:
                assert_usage_error(code, stdout, stderr)
                assert "bad keyset" in stderr
        # A keyset written with the stored aggregates of earlier versions
        # loads to the same keyring, whatever that section holds.
        doc = yaml.safe_load(genuine)
        aggregates = [wire.encode_point(agg).hex() for agg in keyring.combos.values()]
        for stored in (aggregates, aggregates[1:] + aggregates[:1]):
            doc["combos"] = [
                {"mask": combo.mask, "members": list(combo.members()), "aggregate": agg}
                for combo, agg in zip(keyring.combos, stored)
            ]
            out.write_text(yaml.safe_dump(doc, sort_keys=False))
            assert load_keyset(str(out)) == keyring


class TestRun:
    def test_clean_scenario_exits_zero(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "run", scenario_path("happy-path-n3"), "--machine"
        )
        assert code == 0
        assert "violations\t0" in stdout

    def test_machine_report_matches_golden(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "run", scenario_path("happy-path-n3"), "--machine"
        )
        assert code == 0
        assert stdout == (GOLDEN_DIR / "happy-path-n3.report").read_text()

    def test_partition_report_matches_golden(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "run", scenario_path("partition-3-2"), "--machine"
        )
        assert code == 0
        assert stdout == (GOLDEN_DIR / "partition-3-2.report").read_text()

    def test_trace_dump_matches_golden(self, tmp_path, capsys):
        trace = tmp_path / "out.trace"
        code, _, _ = run_cli(
            capsys, "run", scenario_path("happy-path-n3"),
            "--machine", "--trace", str(trace),
        )
        assert code == 0
        assert trace.read_text() == (GOLDEN_DIR / "happy-path-n3.trace").read_text()

    def test_unwritable_trace_is_usage_error(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "out.trace"
        code, stdout, stderr = run_cli(
            capsys, "run", scenario_path("happy-path-n3"), "--trace", str(trace)
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stderr.startswith("error:") and str(trace) in stderr

    @pytest.mark.parametrize("loader", ["platform", "SafeLoader"])
    def test_scenario_that_is_not_yaml_is_usage_error(
        self, tmp_path, capsys, monkeypatch, loader
    ):
        if loader == "SafeLoader":
            monkeypatch.setattr(scenario, "YAML_LOADER", yaml.SafeLoader)
        bad = tmp_path / "bad.yaml"
        bad.write_text("nodes: [3\nseed: 1\n")
        code, stdout, stderr = run_cli(capsys, "run", str(bad))
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "not valid YAML" in stderr

    @pytest.mark.parametrize("argv", [["run"], ["check", "--seeds", "1"]])
    def test_scenario_that_is_not_utf8_is_usage_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"name: \xff\nnodes: 3\nseed: 1\nduration_ms: 100\n")
        code, stdout, stderr = run_cli(capsys, *argv, str(bad))
        assert_usage_error(code, stdout, stderr)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: not UTF-8: ")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("line, message", [
        ("drop_probability: false", "not a number: False"),
        ("drop_probability: '0.5'", "not a number: '0.5'"),
        ("name: [1, 2]", "not a string or an integer: [1, 2]"),
    ])
    def test_scalar_of_the_wrong_type_is_usage_error(
        self, tmp_path, capsys, line, message
    ):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"nodes: 3\nseed: 1\nduration_ms: 100\n{line}\n")
        code, stdout, stderr = run_cli(capsys, "run", str(bad))
        assert_usage_error(code, stdout, stderr)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: scenario: {message}\n"

    def test_missing_scenario_is_usage_error(self, capsys):
        code, stdout, stderr = run_cli(capsys, "run", "/nonexistent.yaml")
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "error" in stderr

    def test_bad_scenario_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nodes: 3\nseed: 1\nduration_ms: 100\nbogus_key: 1\n")
        code, stdout, stderr = run_cli(capsys, "run", str(bad))
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "unknown key" in stderr

    def test_key_the_behavior_never_reads_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "nodes: 3\nseed: 1\nduration_ms: 100\n"
            "adversaries:\n  - node: 2\n    behavior: silent\n    term: 5\n"
        )
        code, stdout, stderr = run_cli(capsys, "run", str(bad))
        assert_usage_error(code, stdout, stderr)
        assert (code, stdout) == (2, "")
        assert stderr == "error: unknown key(s) in adversaries[0]: term\n"

    @pytest.mark.parametrize("argv", [["run"], ["check", "--seeds", "1"]])
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nodes: 3\nseed: 1\nduration_ms: 100\npartitions: 7\n")
        code, stdout, stderr = run_cli(capsys, *argv, str(bad))
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stderr.startswith("error:")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("argv", [["run"], ["check", "--seeds", "1"]])
    def test_infinite_duration_is_usage_error(self, tmp_path, capsys, argv):
        # int(.inf) raises OverflowError, which no ValueError handler sees.
        bad = tmp_path / "bad.yaml"
        bad.write_text("nodes: 3\nseed: 1\nduration_ms: .inf\n")
        code, stdout, stderr = run_cli(capsys, *argv, str(bad))
        assert_usage_error(code, stdout, stderr)
        assert (code, stdout) == (2, "")
        assert stderr == "error: scenario: not an integer: inf\n"

    @pytest.mark.parametrize("argv", [["run"], ["check", "--seeds", "1"]])
    @pytest.mark.parametrize("duration", ["0", "-5"])
    def test_nonpositive_duration_is_usage_error(
        self, tmp_path, capsys, argv, duration
    ):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"nodes: 3\nseed: 1\nduration_ms: {duration}\n")
        code, stdout, stderr = run_cli(capsys, *argv, str(bad))
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and "duration_ms" in stderr

    def test_oversized_cluster_is_usage_error(self, tmp_path, capsys, monkeypatch):
        big = tmp_path / "big.yaml"
        big.write_text("nodes: 65\nseed: 1\nduration_ms: 100\n")
        keygens = []
        monkeypatch.setattr(cli.crypto, "keygens", lambda seeds: keygens.extend(seeds))
        code, stdout, stderr = run_cli(capsys, "run", str(big))
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "too large" in stderr
        assert keygens == []

    def test_more_nodes_than_a_keyring_holds_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        big = tmp_path / "big.yaml"
        big.write_text("nodes: 18\nseed: 1\nduration_ms: 100\n")
        keygens = []
        monkeypatch.setattr(cli.crypto, "keygens", lambda seeds: keygens.extend(seeds))
        code, stdout, stderr = run_cli(capsys, "run", str(big))
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and "at most 17" in stderr
        assert keygens == []

    def test_injected_violation_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.simnet, "check_invariants",
            lambda trace, report: ["election-safety term=1 leaders=[0, 1]"],
        )
        code, stdout, _ = run_cli(
            capsys, "run", scenario_path("happy-path-n3"), "--machine"
        )
        assert code == 1
        assert "election-safety" in stdout

    @pytest.mark.parametrize("argv", [
        ["run", scenario_path("partition-3-2")],
        ["check", scenario_path("happy-path-n3"), scenario_path("fake-leader"),
         "--seeds", "2"],
    ], ids=["run", "check"])
    def test_human_report_shows_the_machine_rows(self, capsys, argv):
        code, machine, _ = run_cli(capsys, *argv, "--machine")
        assert code == 0
        assert run_cli(capsys, *argv) == (0, machine.replace("\t", ": "), "")

    def test_human_output(self, capsys):
        code, stdout, _ = run_cli(capsys, "run", scenario_path("happy-path-n3"))
        assert code == 0
        assert "violations: 0\n" in stdout.splitlines(keepends=True)


class TestCheck:
    def test_multi_seed_sweep(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "check", scenario_path("happy-path-n3"),
            "--seeds", "3", "--machine",
        )
        assert code == 0
        fields = {}
        for line in stdout.splitlines():
            key, _, value = line.partition("\t")
            fields[key] = value
        assert fields["seeds"] == "3"
        assert fields["violations"] == "0"
        assert fields["failed_seeds"] == ""

    def test_zero_seeds_is_usage_error(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "check", scenario_path("happy-path-n3"), "--seeds", "0"
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "--seeds" in stderr

    def test_several_scenarios_print_one_block_each(self, capsys):
        names = ("happy-path-n3", "fake-leader")
        blocks = []
        for name in names:
            code, stdout, _ = run_cli(
                capsys, "check", scenario_path(name), "--seeds", "2", "--machine"
            )
            assert code == 0
            blocks.append(stdout)
        code, stdout, _ = run_cli(
            capsys, "check", *map(scenario_path, names), "--seeds", "2", "--machine"
        )
        assert code == 0
        assert stdout == "".join(blocks)

    def test_bad_scenario_among_several_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nodes: 3\nseed: 1\nduration_ms: 100\nbogus_key: 1\n")
        code, stdout, stderr = run_cli(
            capsys, "check", scenario_path("happy-path-n3"), str(bad), "--seeds", "1"
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "unknown key" in stderr

    def test_drop_overrides_every_scenario(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "check", scenario_path("happy-path-n3"),
            scenario_path("happy-path-n5"), "--seeds", "1", "--drop", "0.99",
            "--machine",
        )
        assert code == 0
        assert stdout.count("leader_changes\t0\n") == 2

    @pytest.mark.parametrize("drop", ["-0.1", "1.5", "nan", "1.0"])
    def test_drop_out_of_range_is_usage_error(self, capsys, drop):
        code, stdout, stderr = run_cli(
            capsys, "check", scenario_path("happy-path-n3"), "--seeds", "1",
            "--drop", drop,
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "--drop" in stderr


class TestVerify:
    @pytest.fixture()
    def keyset(self, tmp_path, capsys):
        out = tmp_path / "keys.yaml"
        run_cli(capsys, "keys", "--nodes", "3", "--seed", "verify", "--out", str(out))
        return str(out)

    def _proof_hex(self, keyset, now=50_000):
        import random

        from mokka import crypto

        keypairs = [
            crypto.keygen(f"verify-node-{i}".encode()) for i in range(3)
        ]
        keyring = load_keyset(keyset)
        payloads = proofs.make_vote_payloads(
            1, 1, now, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        grant = proofs.grant_vote(keypairs[0], payloads[0], keyring)
        proof = proofs.build_proof(keypairs[1], payloads[1], [grant], keyring)
        return proofs.encode_proof(proof).hex()

    def test_ok_exits_zero(self, keyset, capsys):
        hexblob = self._proof_hex(keyset)
        code, stdout, _ = run_cli(
            capsys, "verify", "--proof", hexblob, "--keys", keyset,
            "--now", "50000",
        )
        assert code == 0
        assert stdout.strip() == "ok"

    def test_expired_exits_one(self, keyset, capsys):
        hexblob = self._proof_hex(keyset)
        code, stdout, _ = run_cli(
            capsys, "verify", "--proof", hexblob, "--keys", keyset,
            "--now", "70000",
        )
        assert code == 1
        assert stdout.strip() == "expired"

    def test_custom_ttl_respected(self, keyset, capsys):
        hexblob = self._proof_hex(keyset)
        code, stdout, _ = run_cli(
            capsys, "verify", "--proof", hexblob, "--keys", keyset,
            "--now", "70000", "--ttl", "30000",
        )
        assert code == 0
        assert stdout.strip() == "ok"

    def test_tampered_proof_is_bad_signature(self, keyset, capsys):
        hexblob = self._proof_hex(keyset)
        last = f"{(int(hexblob[-1], 16) ^ 1):x}"
        code, stdout, _ = run_cli(
            capsys, "verify", "--proof", hexblob[:-1] + last, "--keys", keyset,
            "--now", "50000",
        )
        assert code == 1
        assert stdout.strip() == "bad_signature"

    def test_bad_hex_is_usage_error(self, keyset, capsys):
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", "zz", "--keys", keyset, "--now", "0"
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "hex" in stderr

    def test_truncated_blob_is_usage_error(self, keyset, capsys):
        hexblob = self._proof_hex(keyset)
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", hexblob[:-2], "--keys", keyset,
            "--now", "50000",
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "malformed" in stderr
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", "03" + hexblob[2:], "--keys", keyset,
            "--now", "50000",
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert "malformed" in stderr

    @pytest.mark.parametrize("flag, value", [("--ttl", "0"), ("--skew", "-1")])
    def test_bad_policy_is_usage_error(self, keyset, capsys, flag, value):
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", self._proof_hex(keyset), "--keys", keyset,
            "--now", "50000", flag, value,
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr and flag in stderr

    @pytest.mark.parametrize("text", [
        "- 1", "keys: 5", "keys: [1]", "keys: [{node: 0, public: 5}]", "keys: [",
    ], ids=["list", "keys-int", "keys-of-ints", "public-int", "not-yaml"])
    def test_malformed_keyset_is_usage_error(self, tmp_path, capsys, text):
        keys = tmp_path / "keys.yaml"
        keys.write_text(text + "\n")
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", "00", "--keys", str(keys), "--now", "0"
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "error: bad keyset:" in stderr

    def test_keyset_with_a_bool_node_id_is_usage_error(self, keyset, tmp_path, capsys):
        # bool is an int subclass: node 1 written as true would make the
        # keyring's ids (0, True, 2).
        doc = yaml.safe_load(pathlib.Path(keyset).read_text())
        doc["keys"][1]["node"] = True
        keys = tmp_path / "bool.yaml"
        keys.write_text(yaml.safe_dump(doc))
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", self._proof_hex(keyset), "--keys", str(keys),
            "--now", "50000",
        )
        assert_usage_error(code, stdout, stderr)
        assert (code, stdout) == (2, "")
        assert stderr == "error: bad keyset: node must be of type int: True\n"

    @pytest.mark.parametrize("loader", ["platform", "SafeLoader"])
    def test_keyset_that_is_not_yaml_is_usage_error(
        self, tmp_path, capsys, monkeypatch, loader
    ):
        if loader == "SafeLoader":
            monkeypatch.setattr(scenario, "YAML_LOADER", yaml.SafeLoader)
        keys = tmp_path / "keys.yaml"
        keys.write_text("keys: [{node: 0\n")
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", "00", "--keys", str(keys), "--now", "0"
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "error: bad keyset: not YAML" in stderr

    def test_keyset_past_keyring_bound_is_usage_error(self, tmp_path, capsys):
        keys = tmp_path / "keys.yaml"
        keys.write_text(yaml.safe_dump({"keys": [
            {"node": i, "public": wire.encode_point(
                crypto.keygen(f"big-{i}".encode()).public
            ).hex()}
            for i in range(18)
        ]}))
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", "00", "--keys", str(keys), "--now", "0"
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "error: bad keyset:" in stderr and "at most 17" in stderr

    def test_keyset_whose_keys_cancel_is_usage_error(self, tmp_path, capsys):
        # Keys X, -X and Y: combo {0, 1} has no aggregate key.
        x = crypto.keygen(b"cancel-x").public
        y = crypto.keygen(b"cancel-y").public
        keys = tmp_path / "keys.yaml"
        keys.write_text(yaml.safe_dump({"keys": [
            {"node": i, "public": wire.encode_point(point).hex()}
            for i, point in enumerate((x, curve.point_neg(x), y))
        ]}))
        proof = proofs.VoteProof(
            wire.SCHEME_SCHNORR, 1, 0, 0,
            proofs.SchnorrBody(crypto.ComboId(0b011), curve.G, 1),
        )
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", proofs.encode_proof(proof).hex(),
            "--keys", str(keys), "--now", "0",
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "bad keyset" in stderr and "infinity" in stderr

    def test_keyset_with_a_shared_key_is_usage_error(self, tmp_path, capsys):
        # Keys X, X and Y: one key holder would count as two signers.
        x = crypto.keygen(b"shared-x").public
        y = crypto.keygen(b"shared-y").public
        keys = tmp_path / "keys.yaml"
        keys.write_text(yaml.safe_dump({"keys": [
            {"node": i, "public": wire.encode_point(point).hex()}
            for i, point in enumerate((x, x, y))
        ]}))
        proof = proofs.VoteProof(
            wire.SCHEME_SCHNORR, 1, 0, 0,
            proofs.SchnorrBody(crypto.ComboId(0b011), curve.G, 1),
        )
        code, stdout, stderr = run_cli(
            capsys, "verify", "--proof", proofs.encode_proof(proof).hex(),
            "--keys", str(keys), "--now", "0",
        )
        assert_usage_error(code, stdout, stderr)
        assert code == 2
        assert stdout == ""
        assert "error: bad keyset: duplicate key" in stderr

    def test_proof_from_trace_verifies(self, tmp_path, capsys):
        """The proof hex a leader logs in its role_change line is checkable."""
        out = tmp_path / "keys.yaml"
        run_cli(capsys, "keys", "--nodes", "3", "--seed", "42", "--out", str(out))
        trace = (GOLDEN_DIR / "happy-path-n3.trace").read_text()
        line = next(
            l for l in trace.splitlines()
            if "role_change" in l and "leader" in l and "proof=" in l
        )
        time_ms = int(line.split("\t")[0])
        hexblob = line.split("proof=")[1].split()[0]
        code, stdout, _ = run_cli(
            capsys, "verify", "--proof", hexblob, "--keys", str(out),
            "--now", str(time_ms),
        )
        assert code == 0
        assert stdout.strip() == "ok"
