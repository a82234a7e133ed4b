"""Proof-of-voting construction, validation, and codecs."""

import hashlib
import random
from dataclasses import replace
from itertools import combinations

import pytest

from mokka import crypto, curve, proofs, wire
from mokka.proofs import ProofPolicy, ValidationResult

from conftest import make_cluster

POLICY = ProofPolicy(ttl_ms=15000, max_clock_skew_ms=500)
NOW = 100_000


def build(keypairs, keyring, candidate, voters, scheme, term=1, now=NOW):
    rng = random.Random(11)
    payloads = proofs.make_vote_payloads(candidate, term, now, keyring, scheme, rng)
    grants = [
        proofs.grant_vote(keypairs[v], payloads[v], keyring) for v in voters
    ]
    proof = proofs.build_proof(keypairs[candidate], payloads[candidate], grants, keyring)
    return payloads, proof


class TestPayloads:
    def test_schnorr_payloads_identical(self, cluster5):
        _, keyring = cluster5
        payloads = proofs.make_vote_payloads(
            2, 1, NOW, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        outgoing = [p for node, p in payloads.items() if node != 2]
        assert len(outgoing) == 4
        assert all(p == outgoing[0] for p in outgoing)

    def test_sss_shares_restore_recomputed_secret(self, cluster5):
        _, keyring = cluster5
        payloads = proofs.make_vote_payloads(
            2, 1, NOW, keyring, wire.SCHEME_SSS, random.Random(0)
        )
        shares = [p.share for p in payloads.values()]
        assert len({s.index for s in shares}) == 5
        secret = proofs.sss_secret(NOW, payloads[2].salt, 1)
        for subset in combinations(shares, 3):
            assert crypto.sss_restore(list(subset), 3) == secret

    def test_term_zero_rejected(self, cluster3):
        _, keyring = cluster3
        with pytest.raises(proofs.ProofError):
            proofs.make_vote_payloads(
                0, 0, NOW, keyring, wire.SCHEME_SCHNORR, random.Random(0)
            )


class TestGrants:
    def test_three_node_voter_produces_one_partial(self, cluster3):
        keypairs, keyring = cluster3
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        grant = proofs.grant_vote(keypairs[0], payloads[0], keyring)
        assert len(grant.partials) == 1
        assert grant.partials[0].combo.members() == (0, 1)

    def test_five_node_voter_produces_three_partials(self, cluster5):
        keypairs, keyring = cluster5
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        grant = proofs.grant_vote(keypairs[0], payloads[0], keyring)
        # combos holding voter and candidate: C(3, 1) = 3
        assert len(grant.partials) == 3

    def test_grant_partials_all_verify(self, cluster5):
        keypairs, keyring = cluster5
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        grant = proofs.grant_vote(keypairs[3], payloads[3], keyring)
        message = wire.vote_message(wire.SCHEME_SCHNORR, 1, NOW, 1)
        assert all(
            crypto.schnorr_partial_verify(keyring, p, message)
            for p in grant.partials
        )

    def test_outsider_cannot_grant(self, cluster3):
        _, keyring = cluster3
        outsider = crypto.keygen(b"outsider")
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        with pytest.raises(proofs.ProofError, match="not in keyring"):
            proofs.grant_vote(outsider, payloads[0], keyring)

    def test_grant_verifies_checks_every_signature(self, cluster5):
        keypairs, keyring = cluster5
        for scheme in (wire.SCHEME_SCHNORR, wire.SCHEME_SSS):
            payloads = proofs.make_vote_payloads(
                1, 1, NOW, keyring, scheme, random.Random(0)
            )
            grant = proofs.grant_vote(keypairs[0], payloads[0], keyring)
            assert proofs.grant_verifies(grant, payloads[0], keyring)
            if scheme == wire.SCHEME_SCHNORR:
                # One bad partial of three, for a combo the proof may not use.
                last = grant.partials[-1]
                forged = replace(
                    grant,
                    partials=grant.partials[:-1]
                    + (replace(last, s_value=(last.s_value + 1) % curve.N),),
                )
                empty = replace(grant, partials=())
                assert not proofs.grant_verifies(empty, payloads[0], keyring)
            else:
                share, sig = grant.share_sig
                forged = replace(grant, share_sig=(share, replace(sig, s=sig.s + 1)))
            assert not proofs.grant_verifies(forged, payloads[0], keyring)
            # Voter 2's genuine grant does not pass as voter 0's.
            other = proofs.grant_vote(keypairs[2], payloads[2], keyring)
            assert not proofs.grant_verifies(
                replace(other, voter=0), payloads[0], keyring
            )


class TestBuildProof:
    def test_three_node_proof_round_trip(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        assert proof.body.combo.members() == (0, 1)
        assert proofs.validate_proof(proof, keyring, POLICY, NOW) is ValidationResult.OK

    def test_no_quorum_rejected(self, cluster5):
        keypairs, keyring = cluster5
        with pytest.raises(proofs.ProofError, match="no quorum"):
            build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)

    def test_every_subquorum_subset_rejected(self, cluster5):
        keypairs, keyring = cluster5
        others = [0, 2, 3, 4]
        for size in range(keyring.quorum_size - 1):
            for voters in combinations(others, size):
                with pytest.raises(proofs.ProofError, match="no quorum"):
                    build(keypairs, keyring, 1, list(voters), wire.SCHEME_SCHNORR)

    def test_sss_proof_has_quorum_entries(self, cluster5):
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [0, 3, 4], wire.SCHEME_SSS)
        assert len(proof.body.entries) == 3
        assert proofs.validate_proof(proof, keyring, POLICY, NOW) is ValidationResult.OK

    def test_combo_is_candidate_plus_earliest_voters(self, cluster5):
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [4, 0, 3], wire.SCHEME_SCHNORR)
        assert set(proof.body.combo.members()) == {1, 4, 0}

    def test_tampered_grant_named(self, cluster3):
        keypairs, keyring = cluster3
        rng = random.Random(11)
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SCHNORR, rng
        )
        grant = proofs.grant_vote(keypairs[0], payloads[0], keyring)
        bad = replace(
            grant,
            partials=tuple(
                replace(p, s_value=(p.s_value + 1) % curve.N) for p in grant.partials
            ),
        )
        with pytest.raises(proofs.ProofError, match="bad grant from 0"):
            proofs.build_proof(keypairs[1], payloads[1], [bad], keyring)

    def _grants_1_0_2(self, cluster5):
        keypairs, keyring = cluster5
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SCHNORR, random.Random(11)
        )
        grants = [proofs.grant_vote(keypairs[v], payloads[v], keyring) for v in (0, 2)]
        return keypairs, keyring, payloads[1], grants

    @staticmethod
    def _tamper(grant, hit):
        return replace(
            grant,
            partials=tuple(
                replace(p, s_value=(p.s_value + 1) % curve.N) if hit(p) else p
                for p in grant.partials
            ),
        )

    def test_tampered_chosen_partial_named(self, cluster5):
        # Candidate 1 with voters 0 and 2 picks combo {0, 1, 2}; only voter
        # 0's partial for that combo is bad, its other two are intact.
        keypairs, keyring, own, (grant0, grant2) = self._grants_1_0_2(cluster5)
        chosen = crypto.ComboId(0b111)
        bad = self._tamper(grant0, lambda p: p.combo == chosen)
        assert sum(p != q for p, q in zip(bad.partials, grant0.partials)) == 1
        with pytest.raises(proofs.ProofError, match="bad grant from 0"):
            proofs.build_proof(keypairs[1], own, [bad, grant2], keyring)

    def test_partials_outside_chosen_combo_not_rechecked(self, cluster5):
        # build_proof checks only the aggregate that enters the proof;
        # partials for other combos never enter one, so nothing checks them.
        keypairs, keyring, own, (grant0, grant2) = self._grants_1_0_2(cluster5)
        chosen = crypto.ComboId(0b111)
        bad = self._tamper(grant0, lambda p: p.combo != chosen)
        proof = proofs.build_proof(keypairs[1], own, [bad, grant2], keyring)
        assert proof.body.combo == chosen
        assert proofs.validate_proof(proof, keyring, POLICY, NOW) is ValidationResult.OK

    def test_every_bad_chosen_grant_named(self, cluster5):
        keypairs, keyring, own, (grant0, grant2) = self._grants_1_0_2(cluster5)
        bad0 = self._tamper(grant0, lambda p: True)
        bad2 = self._tamper(grant2, lambda p: True)
        with pytest.raises(proofs.BadGrants, match="bad grant from 0, 2") as err:
            proofs.build_proof(keypairs[1], own, [bad0, bad2], keyring)
        assert err.value.voters == (0, 2)

    def test_sss_bad_share_signature_named(self, cluster5):
        keypairs, keyring = cluster5
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SSS, random.Random(11)
        )
        grants = [proofs.grant_vote(keypairs[v], payloads[v], keyring) for v in (0, 3)]
        share, sig = grants[1].share_sig
        assert share == payloads[3].share
        grants[1] = replace(grants[1], share_sig=(share, replace(sig, r=sig.r + 1)))
        with pytest.raises(proofs.BadGrants) as err:
            proofs.build_proof(keypairs[1], payloads[1], grants, keyring)
        assert err.value.voters == (3,)

    @pytest.mark.parametrize("scheme", [wire.SCHEME_SCHNORR, wire.SCHEME_SSS])
    def test_candidate_payload_signs_only_the_chosen_combo(
        self, cluster5, scheme, monkeypatch
    ):
        # Given its payload, the candidate signs one partial, for the combo
        # of itself and the first voters (Sss: its share), and the proof is
        # the one assembled by hand from its grant_vote grant, which signs
        # every combo.
        keypairs, keyring = cluster5
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, scheme, random.Random(11)
        )
        grants = [
            proofs.grant_vote(keypairs[v], payloads[v], keyring) for v in (4, 0, 2)
        ]
        own = proofs.grant_vote(keypairs[1], payloads[1], keyring)
        signed = []
        sign = crypto.schnorr_partial_sign

        def counting_sign(kp, ring, combo, message):
            signed.append(combo)
            return sign(kp, ring, combo, message)

        monkeypatch.setattr(crypto, "schnorr_partial_sign", counting_sign)
        lazy = proofs.build_proof(keypairs[1], payloads[1], grants, keyring)
        chosen = [own, grants[0], grants[1]]  # candidate 1, voters 4 and 0
        if scheme == wire.SCHEME_SCHNORR:
            combo = crypto.ComboId(0b10011)
            assert signed == [combo]
            assert lazy.body.combo == combo
            body = proofs.SchnorrBody(combo, *crypto.schnorr_aggregate([
                next(p for p in g.partials if p.combo == combo) for g in chosen
            ]))
        else:
            assert signed == []
            assert [s.index for s, _ in lazy.body.entries] == [2, 5, 1]
            body = proofs.SssBody(payloads[1].salt, tuple(g.share_sig for g in chosen))
        eager = proofs.VoteProof(scheme, 1, NOW, 1, body)
        assert proofs.encode_proof(lazy) == proofs.encode_proof(eager)
        assert proofs.validate_proof(lazy, keyring, POLICY, NOW) is ValidationResult.OK


class TestValidateProof:
    def test_fresh_proof_ok(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        assert proofs.validate_proof(proof, keyring, POLICY, NOW) is ValidationResult.OK

    def test_expiry_boundary_is_inclusive(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        at_ttl = NOW + POLICY.ttl_ms
        assert proofs.validate_proof(proof, keyring, POLICY, at_ttl) is ValidationResult.OK
        assert proofs.validate_proof(
            proof, keyring, POLICY, at_ttl + 1
        ) is ValidationResult.EXPIRED

    def test_future_timestamp_distinct_from_expired(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        early = NOW - POLICY.max_clock_skew_ms - 1
        assert proofs.validate_proof(
            proof, keyring, POLICY, early
        ) is ValidationResult.FUTURE_TIMESTAMP

    def test_schnorr_tamper_is_bad_signature(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        bad = replace(
            proof, body=replace(proof.body, s_value=(proof.body.s_value + 1) % curve.N)
        )
        assert proofs.validate_proof(
            bad, keyring, POLICY, NOW
        ) is ValidationResult.BAD_SIGNATURE

    def test_sss_corrupted_share_is_bad_secret(self, cluster5):
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [0, 3, 4], wire.SCHEME_SSS)
        share, sig = proof.body.entries[0]
        # Re-sign the corrupted share so the signature still recovers the voter.
        corrupted = replace(share, value=(share.value + 1) % curve.N)
        voter = keyring.node_for_ordinal(corrupted.index)
        message = proofs.share_sign_message(corrupted, proof.term, proof.timestamp_ms, 1)
        new_sig = crypto.sign_recoverable(keypairs[voter], message)
        bad = replace(
            proof,
            body=replace(
                proof.body,
                entries=((corrupted, new_sig),) + proof.body.entries[1:],
            ),
        )
        assert proofs.validate_proof(
            bad, keyring, POLICY, NOW
        ) is ValidationResult.BAD_SECRET

    def test_sss_tampered_signature_rejected(self, cluster5):
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [0, 3, 4], wire.SCHEME_SSS)
        share, sig = proof.body.entries[1]
        bad_sig = replace(sig, s=(sig.s + 1) % curve.N)
        bad = replace(
            proof,
            body=replace(
                proof.body,
                entries=(proof.body.entries[0], (share, bad_sig)) + proof.body.entries[2:],
            ),
        )
        assert proofs.validate_proof(
            bad, keyring, POLICY, NOW
        ) is ValidationResult.BAD_SIGNATURE

    @staticmethod
    def _with_entry(proof, position, entry):
        entries = list(proof.body.entries)
        entries[position] = entry
        return replace(proof, body=replace(proof.body, entries=tuple(entries)))

    @pytest.mark.parametrize("index", [0, 6])
    def test_sss_share_index_outside_cluster_is_unknown_voter(self, cluster5, index):
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [0, 3, 4], wire.SCHEME_SSS)
        share, sig = proof.body.entries[1]
        bad = self._with_entry(proof, 1, (replace(share, index=index), sig))
        assert proofs.validate_proof(
            bad, keyring, POLICY, NOW
        ) is ValidationResult.UNKNOWN_VOTER

    def test_sss_share_signed_by_another_node_is_bad_signature(self, cluster5):
        # A valid signature, but by a node other than the one the index names.
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [0, 3, 4], wire.SCHEME_SSS)
        share, _ = proof.body.entries[1]
        owner = keyring.node_for_ordinal(share.index)
        signer = next(n for n in keyring.node_ids() if n not in (owner, 1))
        message = proofs.share_sign_message(share, proof.term, proof.timestamp_ms, 1)
        sig = crypto.sign_recoverable(keypairs[signer], message)
        assert crypto.recover_pubkey(message, sig) == keyring.public_key(signer)
        bad = self._with_entry(proof, 1, (share, sig))
        assert proofs.validate_proof(
            bad, keyring, POLICY, NOW
        ) is ValidationResult.BAD_SIGNATURE

    def test_sss_duplicate_share_index_is_bad_signature(self, cluster5):
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [0, 3, 4], wire.SCHEME_SSS)
        bad = self._with_entry(proof, 2, proof.body.entries[1])
        assert proofs.validate_proof(
            bad, keyring, POLICY, NOW
        ) is ValidationResult.BAD_SIGNATURE

    def test_scheme_parity_on_time_classification(self, cluster5):
        keypairs, keyring = cluster5
        for scheme in (wire.SCHEME_SCHNORR, wire.SCHEME_SSS):
            _, proof = build(keypairs, keyring, 1, [0, 3], scheme)
            assert proofs.validate_proof(
                proof, keyring, POLICY, NOW
            ) is ValidationResult.OK
            assert proofs.validate_proof(
                proof, keyring, POLICY, NOW + POLICY.ttl_ms + 1
            ) is ValidationResult.EXPIRED

    def test_pure_function(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        first = proofs.validate_proof(proof, keyring, POLICY, NOW)
        assert all(
            proofs.validate_proof(proof, keyring, POLICY, NOW) == first
            for _ in range(3)
        )


# The validators below belong to node 0, which voted for candidate 1 in
# term 1: it signed the honest proofs that build() makes, and the forged
# proofs naming it are refuted without reaching the crypto.
VOTED = (1, 1)


class TestValidatorCache:
    def test_cache_hits_do_not_recompute(self, cluster3, monkeypatch):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        validator = proofs.ProofValidator(keyring, 0)
        assert validator.validate(proof, VOTED) is ValidationResult.OK
        calls = []
        monkeypatch.setattr(
            proofs, "_validate_crypto",
            lambda *a: calls.append(1) or ValidationResult.OK,
        )
        assert validator.validate(proof, VOTED) is ValidationResult.OK
        assert calls == []

    def test_any_byte_change_forces_revalidation(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        validator = proofs.ProofValidator(keyring, 0)
        assert validator.validate(proof, VOTED) is ValidationResult.OK
        bad = replace(
            proof, body=replace(proof.body, s_value=(proof.body.s_value + 1) % curve.N)
        )
        assert validator.validate(bad, VOTED) is ValidationResult.BAD_SIGNATURE

    def test_time_checks_still_fresh_after_caching(self, cluster3):
        # The cache holds signature verdicts only; the caller checks the
        # time window afresh on every heartbeat.
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        validator = proofs.ProofValidator(keyring, 0)
        assert validator.validate(proof, VOTED) is ValidationResult.OK
        assert proofs.time_verdict(proof, POLICY, NOW) is None
        assert proofs.time_verdict(
            proof, POLICY, NOW + POLICY.ttl_ms + 1
        ) is ValidationResult.EXPIRED


def forged_proofs(keyring, count, seed):
    """The fake_leader pattern: random nonce points and scalars, over every
    combo of one keyring."""
    combos = sorted(keyring.combos)
    rng = random.Random(seed)
    for _ in range(count):
        combo = rng.choice(combos)
        yield proofs.VoteProof(
            wire.SCHEME_SCHNORR, 7, NOW, combo.members()[0],
            proofs.SchnorrBody(
                combo,
                curve.scalar_mult_base(rng.randrange(1, curve.N)),
                rng.randrange(curve.N),
            ),
        )


def test_forged_flood_keeps_key_tables_bounded(cluster5):
    # Only the keyring's node keys may get fixed-base tables.
    _, keyring = cluster5
    validator = proofs.ProofValidator(keyring, 0)
    curve.key_table.cache_clear()
    for forged in forged_proofs(keyring, 1000, seed=23):
        assert validator.validate(forged, VOTED) is ValidationResult.BAD_SIGNATURE
    assert 0 < curve.key_table.cache_info().currsize <= len(keyring.node_keys)


def test_forged_flood_keeps_validator_cache_bounded(cluster5, monkeypatch):
    # The honest leader's heartbeats keep arriving among the forgeries, so
    # its proof stays cached, and is checked once, while the forgeries
    # evict each other.
    keypairs, keyring = cluster5
    _, honest = build(keypairs, keyring, 1, [0, 3], wire.SCHEME_SCHNORR)
    validator = proofs.ProofValidator(keyring, 0)
    honest_checks = []
    check = proofs._validate_crypto

    def counting_check(proof, kr):
        if proof == honest:
            honest_checks.append(1)
        return check(proof, kr)

    monkeypatch.setattr(proofs, "_validate_crypto", counting_check)
    for i, forged in enumerate(forged_proofs(keyring, 1000, seed=29)):
        if i % 100 == 0:
            assert validator.validate(honest, VOTED) is ValidationResult.OK
        assert validator.validate(forged, VOTED) is ValidationResult.BAD_SIGNATURE
    assert validator.validate(honest, VOTED) is ValidationResult.OK
    assert honest_checks == [1]
    assert len(validator._cache) == proofs.VALIDATOR_CACHE_SIZE


class TestCodec:
    def test_round_trip_both_schemes(self, cluster5):
        keypairs, keyring = cluster5
        for scheme in proofs.SCHEMES:
            _, proof = build(keypairs, keyring, 1, [0, 3], scheme)
            assert proofs.decode_proof(proofs.encode_proof(proof)) == proof

    def test_replaced_copy_encodes_afresh(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        blob = proofs.encode_proof(proof)
        bumped = replace(proof, term=proof.term + 1)
        assert bumped != proof
        assert proofs.encode_proof(bumped) != blob
        assert proofs.decode_proof(proofs.encode_proof(bumped)) == bumped

    def test_proof_hash_is_sha256_prefix_of_encoding(self, cluster5):
        keypairs, keyring = cluster5
        for scheme in (wire.SCHEME_SCHNORR, wire.SCHEME_SSS):
            _, proof = build(keypairs, keyring, 1, [0, 3], scheme)
            blob = proofs.encode_proof(proof)
            assert proofs.proof_hash(proof) == hashlib.sha256(blob).hexdigest()[:16]
            bumped = replace(proof, term=proof.term + 1)
            assert proofs.proof_hash(bumped) == hashlib.sha256(
                proofs.encode_proof(bumped)
            ).hexdigest()[:16]
            assert proofs.proof_hash(bumped) != proofs.proof_hash(proof)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_fixed_92_byte_layout(self, n):
        keypairs, keyring = make_cluster(n, seed=f"codec{n}")
        voters = [i for i in range(n) if i != 1][: keyring.quorum_size - 1]
        _, proof = build(keypairs, keyring, 1, voters, wire.SCHEME_SCHNORR)
        assert len(proofs.encode_proof(proof)) == 92

    def test_truncated_input_rejected(self, cluster3):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        blob = proofs.encode_proof(proof)
        with pytest.raises(wire.MalformedError, match="malformed proof"):
            proofs.decode_proof(blob[:91])
        with pytest.raises(wire.MalformedError, match="malformed proof"):
            proofs.decode_proof(blob + b"\x00")
        with pytest.raises(wire.MalformedError, match="malformed proof"):
            proofs.decode_proof(b"\x03" + blob[1:])

    def test_schnorr_nonce_is_x_and_parity(self, cluster3):
        # Decoding reads R's x and y parity and checks only x < P; an x off
        # the curve decodes and fails the signature check instead.
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        big_r = curve.scalar_mult_base(5)
        body = proofs.SchnorrBody(proof.body.combo, big_r, proof.body.s_value)
        assert body.nonce == (big_r[0], bool(big_r[1] & 1))
        assert body == replace(body, nonce=body.nonce)
        blob = proofs.encode_proof(proof)
        nonce_at = wire.VOTE_MESSAGE_LEN + 8
        with pytest.raises(wire.MalformedError):  # x = 5 is off the curve
            wire.decode_point(b"\x02" + (5).to_bytes(32, "big"))
        for prefix, x in ((b"\x02", 5), (b"\x03", 5), (b"\x02", curve.P - 1)):
            forged = (
                blob[:nonce_at] + prefix + x.to_bytes(32, "big") + blob[nonce_at + 33:]
            )
            decoded = proofs.decode_proof(forged)
            assert decoded.body.nonce == (x, prefix == b"\x03")
            assert proofs.encode_proof(decoded) == forged
            assert proofs.validate_proof(
                decoded, keyring, POLICY, NOW
            ) is ValidationResult.BAD_SIGNATURE
        flipped = bytearray(blob)
        flipped[nonce_at] ^= 1  # R's parity
        assert proofs.validate_proof(
            proofs.decode_proof(bytes(flipped)), keyring, POLICY, NOW
        ) is ValidationResult.BAD_SIGNATURE
        past_field = curve.P.to_bytes(32, "big")
        with pytest.raises(wire.MalformedError, match="x out of range"):
            proofs.decode_proof(
                blob[:nonce_at + 1] + past_field + blob[nonce_at + 33:]
            )

    def test_sss_length_check(self, cluster5):
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [0, 3], wire.SCHEME_SSS)
        blob = proofs.encode_proof(proof)
        with pytest.raises(wire.MalformedError):
            proofs.decode_proof(blob[:-1])
