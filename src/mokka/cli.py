"""Command-line front end.

Subcommands:
  keys    generate a deterministic cluster keyset (each node's secret and
          public key)
  run     execute one scenario file, print a report, optionally dump the trace
  check   execute scenarios under many seeds and aggregate the results,
          one block per scenario file
  verify  validate a hex-encoded proof blob against a keyset at a given
          virtual time

Exit codes: 0 success / proof ok, 1 invariant or validation failure,
2 usage, parse or file error.
"""

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

import yaml

from . import crypto, proofs, simnet, wire
from .scenario import ScenarioError, load_scenario, load_yaml


class UsageError(Exception):
    """Bad input that the CLI refuses with its message and exit code 2."""


def _field(entry: dict, name: str, kind: type):
    value = entry[name]
    # bool is an int subclass in Python, but a YAML true is no node id.
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be of type {kind.__name__}: {value!r}")
    return value


def load_keyset(path: str) -> crypto.ClusterKeyring:
    """The keyring of a keyset file; ValueError or KeyError when the file
    is not a mapping holding a ``keys`` list, or any entry is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = load_yaml(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"not YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("keyset must be a mapping")
    entries = doc["keys"]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("keys must be a list of mappings")
    return crypto.build_keyring([
        (
            _field(entry, "node", int),
            wire.decode_point(bytes.fromhex(_field(entry, "public", str))),
        )
        for entry in entries
    ])


Rows = List[Tuple[str, object]]


def _render(rows: Rows, machine: bool) -> str:
    """One line per row, its key and value joined by a tab for machines
    and by ": " for people."""
    sep = "\t" if machine else ": "
    return "".join(f"{key}{sep}{value}\n" for key, value in rows)


def _run_rows(scenario_name, seed, report, summary) -> Rows:
    rows: Rows = [
        ("scenario", scenario_name),
        ("seed", seed),
        ("violations", len(report.violations)),
        ("elections", report.elections_started),
        ("leaders_per_term", ",".join(
            f"{term}:{'|'.join(str(n) for n in nodes)}"
            for term, nodes in sorted(report.leaders_per_term.items())
        )),
        ("final_roles", ",".join(
            f"{node}:{role}" for node, role in sorted(report.final_roles.items())
        )),
    ]
    if report.partitions:
        rows.append(("dual_max_ms", summary.max_dual_ms))
        rows.append(("dual_exceeded_ttl", int(summary.exceeded_ttl)))
    return rows + [("violation", violation) for violation in report.violations]


def _check_rows(scenario, seeds: int) -> Rows:
    """Run one scenario under `seeds` consecutive seeds and total the runs."""
    violations = elections = leader_changes = 0
    failed_seeds = []
    for seed in range(scenario.seed, scenario.seed + seeds):
        _, report = simnet.run(scenario.with_seed(seed))
        violations += len(report.violations)
        elections += report.elections_started
        leader_changes += sum(len(nodes) for nodes in report.leaders_per_term.values())
        if report.violations:
            failed_seeds.append(seed)
    return [
        ("scenario", scenario.name),
        ("seeds", seeds),
        ("violations", violations),
        ("elections", elections),
        ("leader_changes", leader_changes),
        ("failed_seeds", ",".join(str(s) for s in failed_seeds)),
    ]


def _cmd_keys(args) -> int:
    try:
        keypairs, keyring = crypto.cluster(args.seed, args.nodes)
    except crypto.CryptoError as exc:
        raise UsageError(str(exc)) from None
    doc = {
        "nodes": args.nodes,
        "seed": args.seed,
        "quorum": keyring.quorum_size,
        "keys": [
            {"node": i, "secret": wire.encode_scalar(kp.secret).hex(),
             "public": wire.encode_point(kp.public).hex()}
            for i, kp in enumerate(keypairs)
        ],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    print(f"wrote keyset for {args.nodes} nodes to {args.out}")
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    trace, report = simnet.run(scenario)
    summary = simnet.scripted_partition_leadership(trace, report)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(simnet.trace_lines(trace))
    rows = _run_rows(scenario.name, scenario.seed, report, summary)
    print(_render(rows, args.machine), end="")
    return 1 if report.violations else 0


def _cmd_check(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    if args.drop is not None and not 0.0 <= args.drop < 1.0:
        raise UsageError("--drop must be in [0, 1)")
    scenarios = [load_scenario(path) for path in args.scenarios]
    if args.drop is not None:
        scenarios = [replace(sc, drop_probability=args.drop) for sc in scenarios]
    violations = 0
    for scenario in scenarios:
        rows = _check_rows(scenario, args.seeds)
        print(_render(rows, args.machine), end="")
        violations += dict(rows)["violations"]
    return 1 if violations else 0


def _cmd_verify(args) -> int:
    try:
        policy = proofs.ProofPolicy(ttl_ms=args.ttl, max_clock_skew_ms=args.skew)
    except ValueError:
        raise UsageError("--ttl must be > 0 and --skew >= 0") from None
    try:
        blob = bytes.fromhex(args.proof)
    except ValueError:
        raise UsageError("proof is not valid hex") from None
    try:
        keyring = load_keyset(args.keys)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"bad keyset: {exc}") from None
    try:
        proof = proofs.decode_proof(blob)
        result = proofs.validate_proof(proof, keyring, policy, args.now)
    except wire.MalformedError as exc:
        raise UsageError(str(exc)) from None
    except crypto.CryptoError as exc:  # keys that cancel in the proof's combo
        raise UsageError(f"bad keyset: {exc}") from None
    print(result.value)
    return 0 if result is proofs.ValidationResult.OK else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mokka", description="log-less BFT leader election toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_keys = sub.add_parser("keys", help="generate a deterministic cluster keyset")
    p_keys.add_argument("--nodes", type=int, required=True)
    p_keys.add_argument("--seed", type=str, required=True)
    p_keys.add_argument("--out", type=str, required=True)
    p_keys.set_defaults(func=_cmd_keys)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--machine", action="store_true")
    p_run.add_argument("--trace", type=str, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run scenarios under many seeds")
    p_check.add_argument("scenarios", nargs="+", metavar="scenario")
    p_check.add_argument("--seeds", type=int, required=True)
    p_check.add_argument(
        "--drop", type=float, default=None,
        help="override every scenario's drop probability",
    )
    p_check.add_argument("--machine", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="validate a hex proof blob")
    p_verify.add_argument("--proof", type=str, required=True)
    p_verify.add_argument("--keys", type=str, required=True)
    p_verify.add_argument("--now", type=int, required=True)
    p_verify.add_argument("--ttl", type=int, default=proofs.ProofPolicy.ttl_ms)
    p_verify.add_argument(
        "--skew", type=int, default=proofs.ProofPolicy.max_clock_skew_ms
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ScenarioError, OSError) as exc:
        # OSError: a file that cannot be read or written.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
