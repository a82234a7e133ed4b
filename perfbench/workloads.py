"""The benchmark's workloads and their set-up.

Each workload is one scenario swept over a fixed set of run seeds. The
scenario's own ``seed`` fixes the cluster keys; the run seed varies the
network, timers and adversary randomness (``Scenario.with_seed``).

Importing this module imports mokka from the checkout's ``src/``: the
benchmark always measures the source tree it sits in, never an
installed copy.
"""

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "mokka").is_dir():
    raise ImportError(f"no mokka source tree under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

# simnet is unused here but imported all the same: importing everything a
# run needs is part of the set-up that setup_probe.py times.
from mokka import crypto, scenario, simnet  # noqa: E402,F401

# Run seeds are SEED_BASE + SEED_STRIDE * seed + i. The acceptance tests
# use each scenario's seed + 0..99 (seeds 42..148) and 90_000+ and
# 91_000+, so every benchmark seed is held out from the test suite.
SEED_BASE = 1_000_000
SEED_STRIDE = 1_000


@dataclass(frozen=True)
class Workload:
    name: str
    path: str       # scenario file, relative to the checkout root
    sample: int     # distinct run seeds per benchmark run
    traced: int     # leading seeds of the sample replayed under the tracer


WORKLOADS = {
    w.name: w
    for w in (
        # Election-heavy (about 30 elections per run): grant signing and
        # verification, proof building and the partition invariant checks.
        Workload("partition-n5", "scenarios/partition-3-2.yaml", 28, 4),
        # One election, then a forged heartbeat every 50 ms, each a
        # validator cache miss and a full Schnorr verify; elections idle.
        Workload("fake-leader-n3", "scenarios/fake-leader.yaml", 48, 8),
        # Shamir scheme at n=9 with 5% loss: recoverable signatures, the
        # 126-combo keyring, 698-byte proofs hashed on every heartbeat and
        # cache-hit validation; the Schnorr path is idle.
        Workload("lossy-n9-sss", "perfbench/scenarios/lossy-n9-sss.yaml", 44, 4),
    )
}


def seeds(seed: int, count: int) -> List[int]:
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if count > SEED_STRIDE:
        raise ValueError(f"at most {SEED_STRIDE} run seeds per workload")
    base = SEED_BASE + SEED_STRIDE * seed
    return list(range(base, base + count))


def setup(
    workload: Workload, duration_ms: Optional[int] = None
) -> Tuple[scenario.Scenario, crypto.ClusterKeyring]:
    """What a first run needs: the parsed scenario and its keyring.

    ``duration_ms`` shortens the scenario for the smoke test.
    """
    text = (ROOT / workload.path).read_text(encoding="utf-8")
    sc = scenario.parse_scenario(text)
    if duration_ms is not None:
        sc = replace(sc, duration_ms=duration_ms)
    keypairs = [
        crypto.keygen(f"{sc.key_seed}-node-{i}".encode()) for i in range(sc.n)
    ]
    keyring = crypto.build_keyring(
        [(i, kp.public) for i, kp in enumerate(keypairs)]
    )
    return sc, keyring
