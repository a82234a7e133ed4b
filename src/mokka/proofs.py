"""Proof-of-voting: construction, validation, and wire codecs.

A proof shows that a majority voted for a specific candidate in a
specific term within a specific time window. Two interchangeable
constructions exist: a fixed-size quorum-Schnorr signature (92 bytes
regardless of cluster size) and a variable-size Shamir scheme in which
voters return recoverable signatures over their secret shares.
"""

import enum
import functools
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import hashlib

from . import crypto, curve, wire
from .crypto import (
    ClusterKeyring,
    ComboId,
    KeyPair,
    NodeId,
    PartialSignature,
    RecoverableSignature,
    SssShare,
)


class ProofError(ValueError):
    pass


class BadGrants(ProofError):
    """The chosen voters whose partial or share signature fails."""

    def __init__(self, voters: Sequence[NodeId]):
        self.voters = tuple(voters)
        super().__init__("bad grant from " + ", ".join(map(str, self.voters)))


@dataclass(frozen=True)
class VotePayload:
    scheme: int
    term: int
    timestamp_ms: int
    candidate: NodeId
    salt: Optional[bytes] = None       # Sss only
    share: Optional[SssShare] = None   # Sss only, per recipient


@dataclass(frozen=True)
class VoteGrant:
    voter: NodeId
    term: int
    partials: Tuple[PartialSignature, ...] = ()
    share_sig: Optional[Tuple[SssShare, RecoverableSignature]] = None


@dataclass(frozen=True)
class SchnorrBody:
    combo: ComboId
    nonce_point: curve.Point
    s_value: int


@dataclass(frozen=True)
class SssBody:
    salt: bytes
    entries: Tuple[Tuple[SssShare, RecoverableSignature], ...]


@dataclass(frozen=True)
class VoteProof:
    scheme: int
    term: int
    timestamp_ms: int
    candidate: NodeId
    body: Union[SchnorrBody, SssBody]

    @functools.cached_property
    def encoded(self) -> bytes:
        """The wire encoding, built on first use and kept on this object.

        Not a field: equality and ``dataclasses.replace`` ignore it, and a
        replaced copy encodes afresh.
        """
        return _encode(self)

    @functools.cached_property
    def digest(self) -> bytes:
        """sha256 of the wire encoding: the validator's cache key, and the
        source of ``proof_hash``. Not a field, like ``encoded``."""
        return hashlib.sha256(self.encoded).digest()


@dataclass(frozen=True)
class ProofPolicy:
    ttl_ms: int = 15000
    max_clock_skew_ms: int = 500

    def __post_init__(self):
        if self.ttl_ms <= 0 or self.max_clock_skew_ms < 0:
            raise ValueError("bad proof policy")


class ValidationResult(enum.Enum):
    OK = "ok"
    EXPIRED = "expired"
    BAD_SIGNATURE = "bad_signature"
    BAD_SECRET = "bad_secret"
    UNKNOWN_VOTER = "unknown_voter"
    FUTURE_TIMESTAMP = "future_timestamp"


SCHNORR_PROOF_LEN = 1 + 8 + 8 + 2 + 8 + 33 + 32  # 92
_SSS_ENTRY_LEN = 32 + 32 + 32 + 32 + 1

# Crypto verdicts a ProofValidator keeps, least recently used evicted first.
# A fake-leader run stores about 60 per validator; forged proofs beyond the
# cap cost a re-verification each, not memory.
VALIDATOR_CACHE_SIZE = 256


def encode_share(share: SssShare) -> bytes:
    return wire.encode_scalar(share.index) + wire.encode_scalar(share.value)


def share_sign_message(share: SssShare, term: int, timestamp_ms: int, candidate: NodeId) -> bytes:
    return encode_share(share) + wire.vote_message(
        wire.SCHEME_SSS, term, timestamp_ms, candidate
    )


def sss_secret(timestamp_ms: int, salt: bytes, term: int) -> int:
    return crypto.hash_to_scalar(
        "sss-secret",
        [timestamp_ms.to_bytes(8, "big"), salt, term.to_bytes(8, "big")],
    )


def make_vote_payloads(
    candidate: NodeId,
    term: int,
    now_ms: int,
    keyring: ClusterKeyring,
    scheme: int,
    rng: random.Random,
) -> Dict[NodeId, VotePayload]:
    """One payload per cluster node (the candidate keeps its own entry)."""
    if term < 1:
        raise ProofError("term must be >= 1")
    nodes = keyring.node_ids()
    if scheme == wire.SCHEME_SCHNORR:
        payload = VotePayload(scheme, term, now_ms, candidate)
        return {node: payload for node in nodes}
    if scheme == wire.SCHEME_SSS:
        salt = rng.randbytes(32)
        secret = sss_secret(now_ms, salt, term)
        shares = crypto.sss_split(secret, len(nodes), keyring.quorum_size, rng)
        return {
            node: VotePayload(
                scheme, term, now_ms, candidate, salt,
                shares[keyring.ordinal(node) - 1],
            )
            for node in nodes
        }
    raise ProofError(f"unknown scheme {scheme}")


def grant_vote(voter_kp: KeyPair, payload: VotePayload, keyring: ClusterKeyring) -> VoteGrant:
    """Sign a vote: partials for every combo holding voter and candidate
    (Schnorr), or a recoverable signature over the received share (Sss)."""
    voter = keyring.node_for_key(voter_kp.public)
    if voter is None:
        raise ProofError("voter not in keyring")
    if payload.scheme == wire.SCHEME_SCHNORR:
        message = wire.vote_message(
            payload.scheme, payload.term, payload.timestamp_ms, payload.candidate
        )
        partials = tuple(
            crypto.schnorr_partial_sign(voter_kp, keyring, combo, message)
            for combo in keyring.combos_containing({voter, payload.candidate})
        )
        return VoteGrant(voter, payload.term, partials=partials)
    if payload.scheme == wire.SCHEME_SSS:
        return VoteGrant(voter, payload.term, share_sig=_sign_share(voter_kp, payload))
    raise ProofError(f"unknown scheme {payload.scheme}")


def _sign_share(
    kp: KeyPair, payload: VotePayload
) -> Tuple[SssShare, RecoverableSignature]:
    if payload.share is None:
        raise ProofError("payload carries no share")
    message = share_sign_message(
        payload.share, payload.term, payload.timestamp_ms, payload.candidate
    )
    return payload.share, crypto.sign_recoverable(kp, message)


def _share_sig_verifies(
    keyring: ClusterKeyring,
    voter: NodeId,
    share_sig: Optional[Tuple[SssShare, RecoverableSignature]],
    term: int,
    timestamp_ms: int,
    candidate: NodeId,
) -> bool:
    if share_sig is None:
        return False
    share, sig = share_sig
    message = share_sign_message(share, term, timestamp_ms, candidate)
    return crypto.verify_recoverable(keyring.public_key(voter), message, sig)


def grant_verifies(
    grant: VoteGrant, payload: VotePayload, keyring: ClusterKeyring
) -> bool:
    """Whether every signature in grant is its voter's, over the vote that
    payload asked for: each partial (Schnorr), or the share signature (Sss)."""
    if payload.scheme == wire.SCHEME_SCHNORR:
        message = wire.vote_message(
            payload.scheme, payload.term, payload.timestamp_ms, payload.candidate
        )
        return bool(grant.partials) and all(
            psig.signer == grant.voter
            and crypto.schnorr_partial_verify(keyring, psig, message)
            for psig in grant.partials
        )
    return _share_sig_verifies(
        keyring, grant.voter, grant.share_sig,
        payload.term, payload.timestamp_ms, payload.candidate,
    )


def _combo_of(members: Sequence[NodeId]) -> ComboId:
    mask = 0
    for voter in members:
        mask |= 1 << voter
    return ComboId(mask)


def build_proof(
    candidate_kp: KeyPair,
    own: Union[VotePayload, VoteGrant],
    grants: Sequence[VoteGrant],
    keyring: ClusterKeyring,
    term: int,
    timestamp_ms: int,
    scheme: int,
    salt: Optional[bytes] = None,
) -> VoteProof:
    """Assemble a proof from the candidate's own vote plus follower grants,
    in arrival order.

    The combo is the candidate and the earliest voters, up to a quorum.
    ``own`` is the candidate's payload, and the candidate then signs here,
    for that combo alone (Sss: its own share), or a grant it signed before
    with ``grant_vote``. This is where a grant's signature is checked, and
    only what enters the proof is checked: for Schnorr, the aggregate over
    the chosen combo with one ``schnorr_verify``; for Sss, each chosen share
    signature against its voter's key. When that fails, ``BadGrants`` names
    every chosen voter whose partial (checked one at a time, on this path
    only) or share signature fails. Partials for other combos are never
    checked.
    """
    candidate = own.candidate if isinstance(own, VotePayload) else own.voter
    q = keyring.quorum_size
    voters = [candidate]
    for grant in grants:
        if grant.voter not in voters:
            voters.append(grant.voter)
    if len(voters) < q:
        raise ProofError("no quorum")
    members = voters[:q]
    by_voter = {}
    for grant in grants:
        by_voter.setdefault(grant.voter, grant)

    if scheme == wire.SCHEME_SCHNORR:
        message = wire.vote_message(scheme, term, timestamp_ms, candidate)
        combo = _combo_of(members)
        if isinstance(own, VotePayload):
            psig = crypto.schnorr_partial_sign(candidate_kp, keyring, combo, message)
            own = VoteGrant(candidate, term, partials=(psig,))
        by_voter[candidate] = own
        chosen = {}
        for voter in members:
            psig = next(
                (
                    p for p in by_voter[voter].partials
                    if p.combo == combo and p.signer == voter
                ),
                None,
            )
            if psig is not None:
                chosen[voter] = psig
        if len(chosen) == q:
            big_r, s = crypto.schnorr_aggregate(list(chosen.values()))
            if crypto.schnorr_verify(keyring, combo, message, big_r, s):
                return VoteProof(
                    scheme, term, timestamp_ms, candidate,
                    SchnorrBody(combo, big_r, s),
                )
        bad = [
            voter for voter in members
            if voter not in chosen
            or not crypto.schnorr_partial_verify(keyring, chosen[voter], message)
        ]
        if bad:
            raise BadGrants(bad)
        raise ProofError("aggregate signature does not verify")

    if scheme == wire.SCHEME_SSS:
        if salt is None:
            raise ProofError("salt required for share-based proofs")
        if isinstance(own, VotePayload):
            own = VoteGrant(candidate, term, share_sig=_sign_share(candidate_kp, own))
        by_voter[candidate] = own
        bad = [
            voter for voter in members
            if not _share_sig_verifies(
                keyring, voter, by_voter[voter].share_sig,
                term, timestamp_ms, candidate,
            )
        ]
        if bad:
            raise BadGrants(bad)
        entries = tuple(by_voter[voter].share_sig for voter in members)
        return VoteProof(
            scheme, term, timestamp_ms, candidate, SssBody(salt, entries)
        )

    raise ProofError(f"unknown scheme {scheme}")


def _validate_crypto(proof: VoteProof, keyring: ClusterKeyring) -> ValidationResult:
    """Time-independent part of validation; cacheable per proof bytes."""
    if proof.scheme == wire.SCHEME_SCHNORR:
        body = proof.body
        if body.combo not in keyring.combos:
            return ValidationResult.UNKNOWN_VOTER
        if proof.candidate not in body.combo:
            return ValidationResult.BAD_SIGNATURE
        message = wire.vote_message(
            proof.scheme, proof.term, proof.timestamp_ms, proof.candidate
        )
        ok = crypto.schnorr_verify(
            keyring, body.combo, message, body.nonce_point, body.s_value
        )
        return ValidationResult.OK if ok else ValidationResult.BAD_SIGNATURE

    body = proof.body
    q = keyring.quorum_size
    if len(body.entries) < q:
        return ValidationResult.BAD_SECRET
    voters = set()
    for share, sig in body.entries:
        # A share's index names its voter, who alone may vouch for it.
        try:
            voter = keyring.node_for_ordinal(share.index)
        except crypto.CryptoError:
            return ValidationResult.UNKNOWN_VOTER
        if voter in voters:
            return ValidationResult.BAD_SIGNATURE
        message = share_sign_message(
            share, proof.term, proof.timestamp_ms, proof.candidate
        )
        if not crypto.verify_recoverable(keyring.public_key(voter), message, sig):
            return ValidationResult.BAD_SIGNATURE
        voters.add(voter)
    if proof.candidate not in voters:
        return ValidationResult.BAD_SIGNATURE
    expected = sss_secret(proof.timestamp_ms, body.salt, proof.term)
    try:
        restored = crypto.sss_restore([s for s, _ in body.entries], q)
    except crypto.CryptoError:
        return ValidationResult.BAD_SECRET
    if restored != expected:
        return ValidationResult.BAD_SECRET
    return ValidationResult.OK


def validate_proof(
    proof: VoteProof,
    keyring: ClusterKeyring,
    policy: ProofPolicy,
    now_ms: int,
) -> ValidationResult:
    if proof.timestamp_ms > now_ms + policy.max_clock_skew_ms:
        return ValidationResult.FUTURE_TIMESTAMP
    if now_ms > proof.timestamp_ms + policy.ttl_ms:
        return ValidationResult.EXPIRED
    return _validate_crypto(proof, keyring)


class ProofValidator:
    """validate_proof with a per-proof-bytes cache of the crypto verdict.

    Time checks run on every call; only the signature/secret work is
    cached, so the first heartbeat pays the cost and later ones do not.
    Any byte change in the proof forces revalidation. At most
    VALIDATOR_CACHE_SIZE verdicts are kept; a hit makes its entry the most
    recent, so a flood of forged proofs evicts the oldest forgeries, not
    the proof of a leader that keeps sending heartbeats.
    """

    def __init__(self, keyring: ClusterKeyring, policy: ProofPolicy):
        self.keyring = keyring
        self.policy = policy
        self._cache: OrderedDict[bytes, ValidationResult] = OrderedDict()

    def validate(self, proof: VoteProof, now_ms: int) -> ValidationResult:
        if proof.timestamp_ms > now_ms + self.policy.max_clock_skew_ms:
            return ValidationResult.FUTURE_TIMESTAMP
        if now_ms > proof.timestamp_ms + self.policy.ttl_ms:
            return ValidationResult.EXPIRED
        key = proof.digest
        result = self._cache.get(key)
        if result is not None:
            self._cache.move_to_end(key)
            return result
        result = _validate_crypto(proof, self.keyring)
        self._cache[key] = result
        if len(self._cache) > VALIDATOR_CACHE_SIZE:
            self._cache.popitem(last=False)
        return result


def proof_hash(proof: VoteProof) -> str:
    return proof.digest.hex()[:16]


def encode_proof(proof: VoteProof) -> bytes:
    """The proof's wire bytes, encoded once per proof object."""
    return proof.encoded


def _encode(proof: VoteProof) -> bytes:
    head = (
        bytes([proof.scheme])
        + proof.term.to_bytes(8, "big")
        + proof.timestamp_ms.to_bytes(8, "big")
        + proof.candidate.to_bytes(2, "big")
    )
    if proof.scheme == wire.SCHEME_SCHNORR:
        body = proof.body
        return (
            head
            + wire.encode_combo_mask(body.combo.mask)
            + wire.encode_point(body.nonce_point)
            + wire.encode_scalar(body.s_value)
        )
    if proof.scheme == wire.SCHEME_SSS:
        body = proof.body
        out = head + body.salt + len(body.entries).to_bytes(2, "big")
        for share, sig in body.entries:
            out += (
                encode_share(share)
                + wire.encode_scalar(sig.r)
                + wire.encode_scalar(sig.s)
                + bytes([sig.recovery_hint])
            )
        return out
    raise ProofError(f"unknown scheme {proof.scheme}")


def decode_proof(data: bytes) -> VoteProof:
    if len(data) < 19:
        raise wire.MalformedError("malformed proof")
    scheme = data[0]
    term = int.from_bytes(data[1:9], "big")
    timestamp_ms = int.from_bytes(data[9:17], "big")
    candidate = int.from_bytes(data[17:19], "big")
    rest = data[19:]
    if scheme == wire.SCHEME_SCHNORR:
        if len(data) != SCHNORR_PROOF_LEN:
            raise wire.MalformedError("malformed proof")
        combo = ComboId(wire.decode_combo_mask(rest[:8]))
        nonce_point = wire.decode_point(rest[8:41])
        s_value = wire.decode_scalar(rest[41:73])
        return VoteProof(
            scheme, term, timestamp_ms, candidate,
            SchnorrBody(combo, nonce_point, s_value),
        )
    if scheme == wire.SCHEME_SSS:
        if len(rest) < 34:
            raise wire.MalformedError("malformed proof")
        salt = rest[:32]
        count = int.from_bytes(rest[32:34], "big")
        rest = rest[34:]
        if len(rest) != count * _SSS_ENTRY_LEN:
            raise wire.MalformedError("malformed proof")
        entries = []
        for i in range(count):
            chunk = rest[i * _SSS_ENTRY_LEN:(i + 1) * _SSS_ENTRY_LEN]
            share = SssShare(
                wire.decode_scalar(chunk[:32]), wire.decode_scalar(chunk[32:64])
            )
            sig = RecoverableSignature(
                wire.decode_scalar(chunk[64:96]),
                wire.decode_scalar(chunk[96:128]),
                chunk[128],
            )
            entries.append((share, sig))
        return VoteProof(
            scheme, term, timestamp_ms, candidate, SssBody(salt, tuple(entries))
        )
    raise wire.MalformedError("malformed proof")
