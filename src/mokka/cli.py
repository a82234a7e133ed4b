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
from typing import List, Optional

import yaml

from . import crypto, proofs, simnet, wire
from .scenario import ScenarioError, load_scenario, load_yaml


def _write_keyset(n: int, seed: str, out_path: str) -> None:
    keypairs, keyring = crypto.cluster(seed, n)
    doc = {
        "nodes": n,
        "seed": seed,
        "quorum": keyring.quorum_size,
        "keys": [
            {
                "node": i,
                "secret": wire.encode_scalar(kp.secret).hex(),
                "public": wire.encode_point(kp.public).hex(),
            }
            for i, kp in enumerate(keypairs)
        ],
    }
    text = yaml.safe_dump(doc, sort_keys=False)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


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


def _report_lines(scenario_name, seed, report, summary) -> List[str]:
    lines = [
        f"scenario\t{scenario_name}",
        f"seed\t{seed}",
        f"violations\t{len(report.violations)}",
        f"elections\t{report.elections_started}",
        "leaders_per_term\t" + ",".join(
            f"{term}:{'|'.join(str(n) for n in nodes)}"
            for term, nodes in sorted(report.leaders_per_term.items())
        ),
        "final_roles\t" + ",".join(
            f"{node}:{role}" for node, role in sorted(report.final_roles.items())
        ),
    ]
    if report.partitions:
        lines.append(f"dual_max_ms\t{summary.max_dual_ms}")
        lines.append(f"dual_exceeded_ttl\t{int(summary.exceeded_ttl)}")
    for violation in report.violations:
        lines.append(f"violation\t{violation}")
    return lines


def _print_report(scenario_name, seed, report, summary, machine: bool) -> None:
    if machine:
        for line in _report_lines(scenario_name, seed, report, summary):
            print(line)
        return
    print(f"scenario {scenario_name} (seed {seed})")
    print(f"  elections started: {report.elections_started}")
    for term, nodes in sorted(report.leaders_per_term.items()):
        print(f"  term {term}: leader(s) {nodes}")
    print(f"  final roles: {report.final_roles}")
    if report.partitions:
        print(
            f"  longest dual-leadership interval: {summary.max_dual_ms} ms"
            f" (over limit: {summary.exceeded_ttl})"
        )
    if report.violations:
        print(f"  VIOLATIONS ({len(report.violations)}):")
        for violation in report.violations:
            print(f"    {violation}")
    else:
        print("  no violations")


def _cmd_keys(args) -> int:
    try:
        crypto.check_cluster_size(args.nodes)
    except crypto.CryptoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_keyset(args.nodes, args.seed, args.out)
    print(f"wrote keyset for {args.nodes} nodes to {args.out}")
    return 0


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace, report = simnet.run(scenario)
    summary = simnet.scripted_partition_leadership(trace, report)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(simnet.trace_lines(trace))
    _print_report(scenario.name, scenario.seed, report, summary, args.machine)
    return 1 if report.violations else 0


def _cmd_check(args) -> int:
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    if args.drop is not None and not 0.0 <= args.drop < 1.0:
        print("error: --drop must be in [0, 1)", file=sys.stderr)
        return 2
    try:
        scenarios = [load_scenario(path) for path in args.scenarios]
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.drop is not None:
        scenarios = [replace(sc, drop_probability=args.drop) for sc in scenarios]
    violations = sum(
        _check_scenario(scenario, args.seeds, args.machine) for scenario in scenarios
    )
    return 1 if violations else 0


def _check_scenario(scenario, seeds: int, machine: bool) -> int:
    """Run one scenario under `seeds` consecutive seeds, print its block,
    and return the number of violations."""
    total_violations = 0
    total_elections = 0
    leader_changes = 0
    failed_seeds = []
    for offset in range(seeds):
        seed = scenario.seed + offset
        _, report = simnet.run(scenario.with_seed(seed))
        total_violations += len(report.violations)
        total_elections += report.elections_started
        leader_changes += sum(
            len(nodes) for nodes in report.leaders_per_term.values()
        )
        if report.violations:
            failed_seeds.append(seed)
    if machine:
        print(f"scenario\t{scenario.name}")
        print(f"seeds\t{seeds}")
        print(f"violations\t{total_violations}")
        print(f"elections\t{total_elections}")
        print(f"leader_changes\t{leader_changes}")
        print("failed_seeds\t" + ",".join(str(s) for s in failed_seeds))
    else:
        print(f"scenario {scenario.name}: {seeds} seeds")
        print(f"  total elections: {total_elections}")
        print(f"  total leader changes: {leader_changes}")
        print(f"  violations: {total_violations} (seeds: {failed_seeds or 'none'})")
    return total_violations


def _cmd_verify(args) -> int:
    try:
        policy = proofs.ProofPolicy(ttl_ms=args.ttl, max_clock_skew_ms=args.skew)
    except ValueError:
        print("error: --ttl must be > 0 and --skew >= 0", file=sys.stderr)
        return 2
    try:
        blob = bytes.fromhex(args.proof)
    except ValueError:
        print("error: proof is not valid hex", file=sys.stderr)
        return 2
    try:
        keyring = load_keyset(args.keys)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: bad keyset: {exc}", file=sys.stderr)
        return 2
    try:
        proof = proofs.decode_proof(blob)
        result = proofs.validate_proof(proof, keyring, policy, args.now)
    except wire.MalformedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except crypto.CryptoError as exc:  # keys that cancel in the proof's combo
        print(f"error: bad keyset: {exc}", file=sys.stderr)
        return 2
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
