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
            verifies = proofs.SCHEMES[scheme].verifies
            assert verifies(grant, payloads[0], keyring)
            if scheme == wire.SCHEME_SCHNORR:
                # One bad partial of three, for a combo the proof may not use.
                last = grant.partials[-1]
                forged = replace(
                    grant,
                    partials=grant.partials[:-1]
                    + (replace(last, s_value=(last.s_value + 1) % curve.N),),
                )
                empty = replace(grant, partials=())
                assert not verifies(empty, payloads[0], keyring)
            else:
                share, sig = grant.share_sig
                forged = replace(grant, share_sig=(share, replace(sig, s=sig.s + 1)))
            assert not verifies(forged, payloads[0], keyring)
            # Voter 2's genuine grant does not pass as voter 0's.
            other = proofs.grant_vote(keypairs[2], payloads[2], keyring)
            assert not verifies(
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

    @pytest.mark.parametrize("bad", [(), (3,)])
    def test_sss_build_checks_the_voters_share_signatures_only(
        self, cluster5, monkeypatch, bad
    ):
        # The candidate's own share signature is made here, not checked:
        # q - 1 checks for a quorum of q.
        keypairs, keyring = cluster5
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SSS, random.Random(11)
        )
        grants = []
        for v in (0, 3):
            grant = proofs.grant_vote(keypairs[v], payloads[v], keyring)
            if v in bad:
                share, sig = grant.share_sig
                grant = replace(grant, share_sig=(share, replace(sig, s=sig.s + 1)))
            grants.append(grant)
        checked = []
        verify = crypto.verify_recoverables
        monkeypatch.setattr(
            crypto, "verify_recoverables",
            lambda ring, checks: checked.extend(voter for voter, _, _ in checks)
            or verify(ring, checks),
        )
        if bad:
            with pytest.raises(proofs.BadGrants) as err:
                proofs.build_proof(keypairs[1], payloads[1], grants, keyring)
            assert err.value.voters == bad
        else:
            proofs.build_proof(keypairs[1], payloads[1], grants, keyring)
        assert checked == [0, 3]

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
        sign = crypto.schnorr_sign_partials

        def counting_sign(kp, ring, combos, message):
            signed.extend(combos)
            return sign(kp, ring, combos, message)

        monkeypatch.setattr(crypto, "schnorr_sign_partials", counting_sign)
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
        signer = next(n for n in keyring.sorted_ids if n not in (owner, 1))
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

    @pytest.mark.parametrize("layout, verdict", [
        ("B U 2", ValidationResult.UNKNOWN_VOTER),    # bad signature, then unknown index
        ("U B 2", ValidationResult.UNKNOWN_VOTER),    # unknown index first
        ("0 1 1 U", ValidationResult.BAD_SIGNATURE),  # duplicate index, then unknown
        ("0 U 1 1", ValidationResult.UNKNOWN_VOTER),  # unknown index, then duplicate
    ])
    def test_sss_first_failing_entry_decides(self, cluster5, layout, verdict):
        # The shape decides first: the first entry whose index names no node
        # or a voter named before decides, whatever the signatures before it.
        # B is entry 0 with a broken signature, U is entry 1 with an index no
        # node holds, and a digit is that entry of the built proof.
        keypairs, keyring = cluster5
        _, proof = build(keypairs, keyring, 1, [0, 3, 4], wire.SCHEME_SSS)
        entries = proof.body.entries
        (share0, sig0), (share1, sig1) = entries[:2]
        made = {
            "B": (share0, replace(sig0, s=(sig0.s + 1) % curve.N)),
            "U": (replace(share1, index=6), sig1),
        }
        body = replace(proof.body, entries=tuple(
            made[key] if key in made else entries[int(key)] for key in layout.split()
        ))
        bad = replace(proof, body=body)
        assert proofs.validate_proof(bad, keyring, POLICY, NOW) is verdict

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
            proofs.SCHEMES[wire.SCHEME_SCHNORR], "check",
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


def shape_faults(keypairs, keyring):
    """For each verdict a proof body's shape decides, a proof that reads it:
    honest proofs for candidate 1 with the one fault named."""
    _, schnorr = build(keypairs, keyring, 1, [0, 3], wire.SCHEME_SCHNORR)
    _, sss = build(keypairs, keyring, 1, [0, 3, 4], wire.SCHEME_SSS)
    entry0, entry1, entry2 = sss.body.entries
    share, sig = entry1

    def schnorr_over(*members):
        return replace(schnorr, body=replace(schnorr.body, combo=crypto.ComboId.of(members)))

    def sss_of(*entries):
        return replace(sss, body=replace(sss.body, entries=entries))

    return {
        "combo outside the keyring": (schnorr_over(0, 1), ValidationResult.UNKNOWN_VOTER),
        "candidate outside the combo": (
            schnorr_over(0, 2, 3), ValidationResult.BAD_SIGNATURE
        ),
        "fewer than q entries": (sss_of(entry0, entry1), ValidationResult.BAD_SECRET),
        "index naming no node": (
            sss_of(entry0, (replace(share, index=6), sig), entry2),
            ValidationResult.UNKNOWN_VOTER,
        ),
        "voter named twice": (sss_of(entry0, entry1, entry1), ValidationResult.BAD_SIGNATURE),
        "candidate absent from the voters": (
            replace(sss, candidate=2), ValidationResult.BAD_SIGNATURE
        ),
    }


@pytest.mark.parametrize("fault", [
    "combo outside the keyring",
    "candidate outside the combo",
    "fewer than q entries",
    "index naming no node",
    "voter named twice",
    "candidate absent from the voters",
])
def test_shape_verdicts_need_no_signature_work(cluster5, monkeypatch, fault):
    # Both entry points reach each shape verdict with every signature check
    # of both schemes made to raise, whatever the owner's vote record.
    keypairs, keyring = cluster5
    proof, verdict = shape_faults(keypairs, keyring)[fault]

    def no_crypto(*args):
        raise AssertionError("signature work for a shape verdict")

    monkeypatch.setattr(crypto, "schnorr_verify", no_crypto)
    monkeypatch.setattr(crypto, "verify_recoverables", no_crypto)
    assert proofs.validate_proof(proof, keyring, POLICY, NOW) is verdict
    for voted_for in (VOTED, (1, 2), None):
        assert proofs.ProofValidator(keyring, 0).validate(proof, voted_for) is verdict


def test_validator_claims_once_per_cache_miss(cluster5, monkeypatch):
    # The refutation and the verdict read one claim; a cache hit reads none.
    keypairs, keyring = cluster5
    _, proof = build(keypairs, keyring, 1, [0, 3], wire.SCHEME_SCHNORR)
    scheme = proofs.SCHEMES[wire.SCHEME_SCHNORR]
    calls = []
    for name in ("claim", "check"):
        def counting(*args, name=name, method=getattr(scheme, name)):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(scheme, name, counting)
    validator = proofs.ProofValidator(keyring, 0)
    # Node 0 voted for candidate 2, so the signature the proof claims from
    # it cannot be real; that verdict is not cached.
    assert validator.validate(proof, (1, 2)) is ValidationResult.BAD_SIGNATURE
    assert calls == ["claim"]
    assert validator.validate(proof, VOTED) is ValidationResult.OK
    assert validator.validate(proof, VOTED) is ValidationResult.OK
    assert calls == ["claim", "claim", "check"]


def forged_proof(combo, rng):
    """The fake_leader pattern: a random nonce point and scalar."""
    return proofs.VoteProof(
        wire.SCHEME_SCHNORR, 7, NOW, combo.members()[0],
        proofs.SchnorrBody(
            combo,
            curve.scalar_mult_base(rng.randrange(1, curve.N)),
            rng.randrange(curve.N),
        ),
    )


def forged_proofs(keyring, count, seed):
    """Forged proofs over random combos of one keyring."""
    combos = sorted(keyring.combos)
    rng = random.Random(seed)
    for _ in range(count):
        yield forged_proof(rng.choice(combos), rng)


def test_forged_flood_keeps_key_tables_bounded(cluster5, monkeypatch):
    # Only the keyring's node keys get fixed-base tables, and only the
    # C(5, 3) combos summed tables.
    keyring = crypto.build_keyring(cluster5[1].node_keys)
    validator = proofs.ProofValidator(keyring, 0)
    built = []
    fixed_base = curve.FixedBase
    monkeypatch.setattr(
        curve, "FixedBase",
        lambda point, window: built.append(point) or fixed_base(point, window),
    )
    for forged in forged_proofs(keyring, 1000, seed=23):
        assert validator.validate(forged, VOTED) is ValidationResult.BAD_SIGNATURE
    assert 0 < len(keyring._tables) <= len(keyring.node_keys)
    assert 0 < len(keyring.combos._tables) <= len(keyring.combos) == 10
    assert len(built) == len(set(built))
    assert set(built) <= {public for _, public in keyring.node_keys}


def test_forged_flood_over_every_combo_keeps_tables_bounded(monkeypatch):
    # At n = 9 a flood over the 126 combos, more than the keyring keeps
    # summed tables for, builds each node's key table exactly once.
    _, keyring = make_cluster(9)
    built = []
    fixed_base = curve.FixedBase
    monkeypatch.setattr(
        curve, "FixedBase",
        lambda point, window: built.append(point) or fixed_base(point, window),
    )
    for forged in forged_proofs(keyring, 1000, seed=37):
        verdict = proofs.validate_proof(forged, keyring, POLICY, NOW)
        assert verdict is ValidationResult.BAD_SIGNATURE
        assert len(keyring.combos._tables) <= crypto.SUM_TABLES
    assert sorted(built) == sorted(public for _, public in keyring.node_keys)
    assert len(keyring.combos._tables) == crypto.SUM_TABLES < len(keyring.combos)


def test_forged_flood_over_every_combo_costs_no_more_than_key_terms(monkeypatch):
    # At n = 9 a sender names the 126 combos in turn, twice, so that every
    # check misses the keyring's summed tables. Each check must still make no
    # more additions (affine pairs plus Jacobian mixed additions) than the
    # same check summed over the signers' own key tables, but for the q - 1
    # affine pairs that sum a combo's aggregate key on its first check.
    # Each aggregate is summed exactly once over both passes.
    _, keyring = make_cluster(9)
    combos = sorted(keyring.combos)
    assert len(combos) == 126 > crypto.SUM_TABLES
    for node in keyring.sorted_ids:
        keyring.table(node)
    additions = []
    add_affine, jac_add_mixed, sums_named = (
        curve._add_affine, curve._jac_add_mixed, curve.sums_named
    )
    monkeypatch.setattr(
        curve, "_add_affine",
        lambda pairs: additions.append(len(pairs)) or add_affine(pairs),
    )
    monkeypatch.setattr(
        curve, "_jac_add_mixed",
        lambda pt, aff: additions.append(1) or jac_add_mixed(pt, aff),
    )
    summed, sum_costs, checks, in_check = [], [], [], []
    affine_sums = curve.affine_sums

    def recording_sums(groups):
        # A check fills its summed-table slots through affine_sums too;
        # only the aggregate keys, summed outside checks, are recorded.
        if in_check:
            return affine_sums(groups)
        groups = [tuple(group) for group in groups]
        summed.extend(groups)
        before = sum(additions)
        result = affine_sums(groups)
        sum_costs.append(sum(additions) - before)
        return result

    def recording_names(claims):
        claims = list(claims)
        checks.extend(claims)
        in_check.append(True)
        named = sums_named(claims)
        in_check.pop()
        return named

    monkeypatch.setattr(curve, "affine_sums", recording_sums)
    monkeypatch.setattr(curve, "sums_named", recording_names)

    def counted(check):
        before = sum(additions)
        result = check()
        return result, sum(additions) - before

    rng = random.Random(31)
    q = keyring.quorum_size
    for i, combo in enumerate(combos * 2):
        forged = forged_proof(combo, rng)
        verdict, cost = counted(
            lambda: proofs.validate_proof(forged, keyring, POLICY, NOW)
        )
        assert verdict is ValidationResult.BAD_SIGNATURE
        x, y_odd, [(s, base), (k, table)] = checks.pop()
        assert table.keys == tuple(keyring.table(i) for i in combo.members())
        per_key = [(s, base)] + [(k, key) for key in table.keys]
        [holds], cost_per_key = counted(lambda: sums_named([(x, y_odd, per_key)]))
        assert not holds
        if i < len(combos):
            assert cost <= cost_per_key + q - 1
        else:
            assert cost <= cost_per_key
    assert summed == [
        tuple(keyring.public_key(i) for i in combo.members()) for combo in combos
    ]
    assert sum_costs == [q - 1] * len(combos)
    assert len(keyring.combos._tables) == crypto.SUM_TABLES
    assert len(keyring._tables) == len(keyring.node_keys)


class TestFieldInversions:
    """The field inversions of one warm protocol step: tables built and
    aggregate keys summed. Every inversion goes through curve.batch_invert,
    and a call given values pays one, in the field (modulo P) or in the
    scalars (modulo N). Unlike timings on a shared host, the counts repeat
    exactly."""

    @staticmethod
    def _inversions(monkeypatch, step, modulus=curve.P):
        sizes = []
        batch_invert = curve.batch_invert

        def counting(values, mod=curve.P):
            if mod == modulus:
                sizes.append(len(values))
            return batch_invert(values, mod)

        monkeypatch.setattr(curve, "batch_invert", counting)
        result = step()
        return result, sum(1 for size in sizes if size)

    def test_grant_sums_its_nonce_points_together(self, monkeypatch):
        # C(3, 1) = 3 nonce points, each summed from two groups of 13
        # entries, one per digit of each half of the split nonce: three
        # levels of affine pairs and one inversion to make all three
        # affine (one at a time, each point cost two).
        keypairs, keyring = make_cluster(5, seed="inversions")
        payloads = proofs.make_vote_payloads(
            1, 1, NOW, keyring, wire.SCHEME_SCHNORR, random.Random(0)
        )
        proofs.grant_vote(keypairs[0], payloads[0], keyring)
        grant, inversions = self._inversions(
            monkeypatch, lambda: proofs.grant_vote(keypairs[0], payloads[0], keyring)
        )
        assert len(grant.partials) == 3
        assert inversions == 4

    def test_shamir_check_sums_its_share_checks_together(self, monkeypatch):
        # q = 5 share checks, each summed from two groups of 13 + 19
        # entries, one per half of the split scalars: five levels of
        # affine pairs and one inversion for the five parities (one at a
        # time, 15).
        keypairs, keyring = make_cluster(9, seed="inversions")
        _, proof = build(keypairs, keyring, 0, [1, 2, 3, 4], wire.SCHEME_SSS)
        assert proofs.validate_proof(proof, keyring, POLICY, NOW) is ValidationResult.OK
        verdict, inversions = self._inversions(
            monkeypatch, lambda: proofs.validate_proof(proof, keyring, POLICY, NOW)
        )
        assert verdict is ValidationResult.OK
        assert inversions == 6

    def test_shamir_check_pays_two_scalar_inversions(self, monkeypatch):
        # One for the q = 5 share signatures' s values and one for the
        # Lagrange denominators of the restore (one per value, 10).
        keypairs, keyring = make_cluster(9, seed="inversions")
        _, proof = build(keypairs, keyring, 0, [1, 2, 3, 4], wire.SCHEME_SSS)
        assert proofs.validate_proof(proof, keyring, POLICY, NOW) is ValidationResult.OK
        verdict, inversions = self._inversions(
            monkeypatch, lambda: proofs.validate_proof(proof, keyring, POLICY, NOW), curve.N
        )
        assert verdict is ValidationResult.OK
        assert inversions == 2

    def test_failing_schnorr_check_pays_no_parity(self, monkeypatch):
        # One sum from two groups of 13 + 19 entries: two levels of affine
        # pairs, and no inversion for a parity, as the sum misses the nonce
        # point's x.
        keypairs, keyring = make_cluster(5, seed="inversions")
        _, proof = build(keypairs, keyring, 1, [0, 3], wire.SCHEME_SCHNORR)
        assert proofs.validate_proof(proof, keyring, POLICY, NOW) is ValidationResult.OK
        bad = replace(proof, body=replace(proof.body, s_value=proof.body.s_value + 1))
        verdict, inversions = self._inversions(
            monkeypatch, lambda: proofs.validate_proof(bad, keyring, POLICY, NOW)
        )
        assert verdict is ValidationResult.BAD_SIGNATURE
        assert inversions == 2


def test_forged_flood_keeps_validator_cache_bounded(cluster5, monkeypatch):
    # The honest leader's heartbeats keep arriving among the forgeries, so
    # its proof stays cached, and is checked once, while the forgeries
    # evict each other.
    keypairs, keyring = cluster5
    _, honest = build(keypairs, keyring, 1, [0, 3], wire.SCHEME_SCHNORR)
    validator = proofs.ProofValidator(keyring, 0)
    honest_checks = []
    scheme = proofs.SCHEMES[wire.SCHEME_SCHNORR]
    check = scheme.check

    def counting_check(proof, kr, combo):
        if proof == honest:
            honest_checks.append(1)
        return check(proof, kr, combo)

    monkeypatch.setattr(scheme, "check", counting_check)
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

    @pytest.mark.parametrize("length", [0, 1, 18, 19])
    def test_vote_message_or_shorter_rejected(self, cluster3, length):
        keypairs, keyring = cluster3
        _, proof = build(keypairs, keyring, 1, [0], wire.SCHEME_SCHNORR)
        with pytest.raises(wire.MalformedError, match="malformed proof"):
            proofs.decode_proof(proofs.encode_proof(proof)[:length])

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
