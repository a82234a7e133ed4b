"""Keygen, the domain-separated hash, and keyring construction."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mokka import crypto, curve

from conftest import make_cluster
from test_curve import naive_mult


class TestKeygen:
    def test_deterministic(self):
        assert crypto.keygen(b"node-0") == crypto.keygen(b"node-0")

    def test_distinct_seeds_distinct_keys(self):
        assert crypto.keygen(b"node-0").public != crypto.keygen(b"node-1").public

    def test_public_matches_independent_scalar_mult(self):
        kp = crypto.keygen(b"node-0")
        assert kp.public == naive_mult(kp.secret, curve.G)

    def test_empty_seed_rejected(self):
        with pytest.raises(crypto.CryptoError):
            crypto.keygen(b"")


class TestHashToScalar:
    def test_deterministic(self):
        a = crypto.hash_to_scalar("challenge", [b"x", b"y"])
        assert a == crypto.hash_to_scalar("challenge", [b"x", b"y"])

    def test_domain_separation(self):
        parts = [b"same", b"parts"]
        assert crypto.hash_to_scalar("challenge", parts) != crypto.hash_to_scalar(
            "nonce", parts
        )

    def test_part_boundaries_matter(self):
        assert crypto.hash_to_scalar("t", [b"ab", b"c"]) != crypto.hash_to_scalar(
            "t", [b"a", b"bc"]
        )

    def test_always_below_group_order(self):
        rng = random.Random(123)
        for _ in range(10_000):
            value = crypto.hash_to_scalar("sample", [rng.randbytes(8)])
            assert 0 <= value < curve.N


class TestBuildKeyring:
    def test_three_nodes_three_pair_combos(self, cluster3):
        _, keyring = cluster3
        assert keyring.quorum_size == 2
        masks = {c.mask for c in keyring.combos}
        assert masks == {0b011, 0b110, 0b101}

    def test_five_nodes_ten_combos(self, cluster5):
        _, keyring = cluster5
        assert keyring.quorum_size == 3
        assert len(keyring.combos) == 10

    def test_aggregate_is_sum_of_member_keys(self, cluster5):
        _, keyring = cluster5
        for combo, aggregate in keyring.combos.items():
            total = None
            for member in combo.members():
                total = curve.point_add(total, keyring.public_key(member))
            assert total == aggregate

    def test_aggregate_minus_one_member_is_rest(self, cluster3):
        _, keyring = cluster3
        for combo, aggregate in keyring.combos.items():
            members = combo.members()
            rest = curve.point_add(
                aggregate, curve.point_neg(keyring.public_key(members[0]))
            )
            expected = None
            for member in members[1:]:
                expected = curve.point_add(expected, keyring.public_key(member))
            assert rest == expected

    def test_combo_enumeration_is_lexicographic(self, cluster5):
        _, keyring = cluster5
        member_lists = [c.members() for c in keyring.combos]
        assert member_lists == sorted(member_lists)

    def test_lookups_follow_node_keys(self):
        # Ids out of sorted order: ordinals follow sorted id order, not
        # the order of node_keys.
        kps = {i: crypto.keygen(f"lookup-{i}".encode()) for i in (7, 2, 40)}
        keys = [(i, kp.public) for i, kp in kps.items()]
        keyring = crypto.build_keyring(keys)
        assert keyring.sorted_ids == (2, 7, 40)
        assert keyring.node_ids() == (7, 2, 40)
        for i, kp in kps.items():
            assert keyring.public_key(i) == kp.public
            assert keyring.node_for_key(kp.public) == i
        assert [keyring.ordinal(i) for i in (2, 7, 40)] == [1, 2, 3]
        assert [keyring.node_for_ordinal(o) for o in (1, 2, 3)] == [2, 7, 40]
        assert keyring.node_for_key(crypto.keygen(b"outsider").public) is None
        for bad in (lambda: keyring.public_key(3), lambda: keyring.ordinal(3),
                    lambda: keyring.node_for_ordinal(4)):
            with pytest.raises(crypto.CryptoError):
                bad()
        # Equality and repr see node_keys, quorum_size and combos only.
        again = crypto.build_keyring(keys)
        assert again == keyring and repr(again) == repr(keyring)
        assert crypto.build_keyring(keys[::-1]) != keyring

    @pytest.mark.parametrize(
        "ids", [tuple(range(n)) for n in range(3, 10)] + [(7, 2, 40)]
    )
    def test_aggregates_equal_the_point_add_fold(self, ids):
        keys = [(i, crypto.keygen(f"fold-{i}".encode()).public) for i in ids]
        by_id = dict(keys)
        quorum = len(ids) // 2 + 1
        expected = {}
        for subset in combinations(sorted(ids), quorum):
            mask, total = 0, None
            for node in subset:
                mask |= 1 << node
                total = curve.point_add(total, by_id[node])
            expected[crypto.ComboId(mask)] = total
        keyring = crypto.build_keyring(keys)
        assert list(keyring.combos.items()) == list(expected.items())

    def test_cancelling_keys_rejected(self):
        x = crypto.keygen(b"cancel-x").public
        y = crypto.keygen(b"cancel-y").public
        with pytest.raises(crypto.CryptoError, match="infinity"):
            crypto.build_keyring([(0, x), (1, curve.point_neg(x)), (2, y)])

    def test_duplicate_node_rejected(self):
        kp = crypto.keygen(b"x")
        with pytest.raises(crypto.CryptoError, match="duplicate node"):
            crypto.build_keyring([(0, kp.public), (0, kp.public), (1, kp.public)])

    def test_too_small_cluster_rejected(self):
        kp = crypto.keygen(b"x")
        with pytest.raises(crypto.CryptoError, match="too small"):
            crypto.build_keyring([(0, kp.public), (1, kp.public)])

    def test_too_large_cluster_rejected_before_enumerating(self, monkeypatch):
        kp = crypto.keygen(b"x")
        monkeypatch.setattr(crypto, "combinations", None)  # enumerating raises
        with pytest.raises(crypto.CryptoError, match="at most 17"):
            crypto.build_keyring([(i, kp.public) for i in range(18)])

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=3, max_value=7))
    def test_quorum_is_majority(self, n):
        _, keyring = make_cluster(n, seed=f"q{n}")
        assert keyring.quorum_size == n // 2 + 1
        import math

        assert len(keyring.combos) == math.comb(n, keyring.quorum_size)
