import pathlib

import pytest

from mokka import crypto, curve

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def make_cluster(n, seed="test"):
    return crypto.cluster(seed, n)


def cancelling_cluster():
    """n = 3 with keys X, -X and Y: combo {0, 1} has no aggregate key."""
    x, y = crypto.keygens([b"cancel-x", b"cancel-y"])
    neg_x = crypto.KeyPair(curve.N - x.secret, curve.point_neg(x.public))
    keypairs = (x, neg_x, y)
    return keypairs, crypto.build_keyring(
        [(i, kp.public) for i, kp in enumerate(keypairs)]
    )


@pytest.fixture(autouse=True)
def fresh_cluster_memo():
    """Forget every memoized cluster after each test, so that a cluster
    built under a patched keygen or build_keyring never reaches another
    test. A cluster's keyring holds its own key and summed tables, so they
    go with it, and the additions a test counts on a cluster it makes do
    not depend on which tests ran before it."""
    yield
    crypto.cluster.cache_clear()


@pytest.fixture(scope="session")
def cluster3():
    return make_cluster(3)


@pytest.fixture(scope="session")
def cluster5():
    return make_cluster(5)


@pytest.fixture(scope="session")
def cluster9():
    return make_cluster(9)


def scenario_path(name: str) -> str:
    return str(SCENARIO_DIR / f"{name}.yaml")


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance scorecard where capture can't eat it."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.SCORECARD:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.SCORECARD:
            terminalreporter.write_line(line)
