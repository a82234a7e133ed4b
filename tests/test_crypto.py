"""Keygen, the domain-separated hash, and keyring construction."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mokka import crypto, curve, proofs, wire

from conftest import make_cluster
from test_curve import naive_mult
from oracle import point_neg

MSG = b"keyring test message"
POLICY = proofs.ProofPolicy()


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
                aggregate, point_neg(keyring.public_key(members[0]))
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
        # Equality and repr see node_keys and quorum_size only.
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
        # n = 3 with keys X, -X and Y, and n = 5 with keys X, Y, -(X + Y), Z
        # and W: the keys of nodes 0 .. q-1 cancel. Their combo is found on
        # first use: it has no aggregate key, never signs, and no proof
        # naming it reads OK. Every other combo signs and verifies.
        for n in (3, 5):
            q = n // 2 + 1
            kps = [crypto.keygen(f"cancel-{i}".encode()) for i in range(n)]
            secret = -sum(kp.secret for kp in kps[:q - 1]) % curve.N
            kps[q - 1] = crypto.KeyPair(secret, curve.scalar_mult_base(secret))
            keyring = crypto.build_keyring([(i, kp.public) for i, kp in enumerate(kps)])
            cancelling = crypto.ComboId.of(range(q))
            with pytest.raises(crypto.CryptoError, match="infinity"):
                keyring.combos[cancelling]
            for member in range(q):
                with pytest.raises(crypto.CryptoError, match="infinity"):
                    crypto.schnorr_partial_sign(kps[member], keyring, cancelling, MSG)
            # s*G = R: what a check against an aggregate at infinity accepts.
            rng = random.Random(n)
            for big_r, s in [(curve.G, 1)] + [
                (curve.scalar_mult_base(k), k)
                for k in (rng.randrange(1, curve.N) for _ in range(3))
            ]:
                proof = proofs.VoteProof(
                    wire.SCHEME_SCHNORR, 1, 0, 0,
                    proofs.SchnorrBody(cancelling, big_r, s),
                )
                with pytest.raises(crypto.CryptoError, match="infinity"):
                    proofs.validate_proof(proof, keyring, POLICY, 0)
            others = [combo for combo in keyring.combos if combo != cancelling]
            assert len(others) == math.comb(n, q) - 1
            for combo in others:
                message = wire.vote_message(
                    wire.SCHEME_SCHNORR, 1, 0, combo.members()[0]
                )
                partials = [
                    crypto.schnorr_partial_sign(kps[m], keyring, combo, message)
                    for m in combo.members()
                ]
                big_r, s = crypto.schnorr_aggregate(partials)
                proof = proofs.VoteProof(
                    wire.SCHEME_SCHNORR, 1, 0, combo.members()[0],
                    proofs.SchnorrBody(combo, big_r, s),
                )
                assert proofs.validate_proof(
                    proof, keyring, POLICY, 0
                ) is proofs.ValidationResult.OK

    def test_duplicate_node_rejected(self):
        kp = crypto.keygen(b"x")
        with pytest.raises(crypto.CryptoError, match="duplicate node"):
            crypto.build_keyring([(0, kp.public), (0, kp.public), (1, kp.public)])

    def test_duplicate_key_rejected(self):
        # Keys X, X and Y: the holder of x alone could sign for combo {0, 1}.
        x, y = crypto.keygen(b"x").public, crypto.keygen(b"y").public
        with pytest.raises(crypto.CryptoError, match="duplicate key"):
            crypto.build_keyring([(0, x), (1, x), (2, y)])
        with pytest.raises(crypto.CryptoError, match="duplicate key"):
            crypto.build_keyring([(5, y), (0, x), (9, y)])

    def test_too_small_cluster_rejected(self):
        kp = crypto.keygen(b"x")
        with pytest.raises(crypto.CryptoError, match="too small"):
            crypto.build_keyring([(0, kp.public), (1, kp.public)])

    def test_too_large_cluster_rejected_before_enumerating(self, monkeypatch):
        kp = crypto.keygen(b"x")
        monkeypatch.setattr(crypto, "combinations", None)  # enumerating raises
        with pytest.raises(crypto.CryptoError, match="at most 17"):
            crypto.build_keyring([(i, kp.public) for i in range(18)])

    @pytest.mark.parametrize("ids", [tuple(range(5)), (7, 2, 40)])
    def test_combos_are_a_rule_on_the_mask(self, ids):
        # A mask is a combo exactly when it is one of the enumerated
        # quorum-size subsets, and a proof naming any other mask reads
        # UNKNOWN_VOTER: checked for each combo, each combo with one bit
        # flipped or one member moved to another bit, and random 64-bit
        # masks.
        keyring = crypto.build_keyring(
            [(i, crypto.keygen(f"rule-{i}".encode()).public) for i in ids]
        )
        enumerated = {
            crypto.ComboId.of(subset).mask
            for subset in combinations(sorted(ids), keyring.quorum_size)
        }
        assert len(enumerated) == len(keyring.combos)
        rng = random.Random(47)
        masks = set(enumerated) | {rng.getrandbits(64) for _ in range(2000)}
        masks |= {mask ^ 1 << bit for mask in enumerated for bit in range(64)}
        masks |= {
            mask ^ 1 << member ^ 1 << bit
            for mask in enumerated for member in ids if mask >> member & 1
            for bit in range(64) if not mask >> bit & 1
        }
        for mask in sorted(masks):
            combo = crypto.ComboId(mask)
            assert (combo in keyring.combos) == (mask in enumerated)
            if mask in enumerated:
                continue
            proof = proofs.VoteProof(
                wire.SCHEME_SCHNORR, 1, 0, min(ids),
                proofs.SchnorrBody(combo, curve.G, 1),
            )
            assert proofs.SCHEMES[wire.SCHEME_SCHNORR].claim(proof, keyring) is \
                proofs.ValidationResult.UNKNOWN_VOTER

    @pytest.mark.parametrize(
        "ids", [tuple(range(5)), (7, 2, 40), tuple(range(9)), (5, 1, 9, 3, 12, 60, 0)]
    )
    def test_combos_containing_follow_the_enumeration(self, ids):
        keyring = crypto.build_keyring(
            [(i, crypto.keygen(f"containing-{i}".encode()).public) for i in ids]
        )
        wanted = [set(pair) for pair in combinations(ids, 2)] + [{i} for i in ids]
        subsets = list(combinations(sorted(ids), keyring.quorum_size))
        for nodes in wanted + [set(), {99}, set(ids)]:
            assert list(keyring.combos_containing(nodes)) == [
                crypto.ComboId.of(subset) for subset in subsets if nodes <= set(subset)
            ]

    def test_building_does_no_curve_work(self, monkeypatch):
        keys = [(i, crypto.keygen(f"big-{i}".encode()).public) for i in range(17)]

        def no_additions(*args):
            raise AssertionError("curve addition while building a keyring")

        monkeypatch.setattr(curve, "_add_affine", no_additions)
        monkeypatch.setattr(curve, "_jac_add_mixed", no_additions)
        keyring = crypto.build_keyring(keys)
        assert len(keyring.combos) == 24310

    def test_keyrings_over_the_same_keys_share_no_table(self, cluster3):
        _, keyring = cluster3
        other = crypto.build_keyring(keyring.node_keys)
        assert other == keyring
        for node in keyring.sorted_ids:
            assert keyring.table(node) is keyring.table(node)
            assert other.table(node) is not keyring.table(node)
            assert other.table(node).rows == keyring.table(node).rows
        combo = crypto.ComboId.of([0, 2])
        assert keyring.combos.table(combo) is keyring.combos.table(combo)
        assert other.combos.table(combo) is not keyring.combos.table(combo)

    def test_only_node_keys_get_tables(self, cluster3):
        _, keyring = cluster3
        with pytest.raises(crypto.CryptoError, match="unknown node"):
            keyring.table(3)
        with pytest.raises(crypto.CryptoError, match="unknown node"):
            keyring.combos.table(crypto.ComboId.of([0, 3]))
        assert 3 not in keyring._tables

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=3, max_value=7))
    def test_quorum_is_majority(self, n):
        _, keyring = make_cluster(n, seed=f"q{n}")
        assert keyring.quorum_size == n // 2 + 1
        import math

        assert len(keyring.combos) == math.comb(n, keyring.quorum_size)
