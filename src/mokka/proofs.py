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
    voter = None
    for node_id, pub in keyring.node_keys:
        if pub == voter_kp.public:
            voter = node_id
            break
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
        if payload.share is None:
            raise ProofError("payload carries no share")
        message = share_sign_message(
            payload.share, payload.term, payload.timestamp_ms, payload.candidate
        )
        sig = crypto.sign_recoverable(voter_kp, message)
        return VoteGrant(voter, payload.term, share_sig=(payload.share, sig))
    raise ProofError(f"unknown scheme {payload.scheme}")


def build_proof(
    candidate_kp: KeyPair,
    own_grant: VoteGrant,
    grants: Sequence[VoteGrant],
    keyring: ClusterKeyring,
    term: int,
    timestamp_ms: int,
    scheme: int,
    salt: Optional[bytes] = None,
) -> VoteProof:
    """Assemble a proof from the candidate's own grant plus follower grants,
    in arrival order.

    The combo is the candidate and the earliest voters, up to a quorum.
    For Schnorr, this checks only what enters the proof: the aggregate
    signature over the chosen combo, with one ``schnorr_verify``. When it
    fails, the chosen partials are checked one at a time to name the voter
    at fault. Partials for other combos are not checked here; the caller
    verifies each grant once, on arrival. For Sss, each chosen share
    signature must verify against its voter's key.
    """
    candidate = own_grant.voter
    q = keyring.quorum_size
    voters = [candidate]
    for grant in grants:
        if grant.voter not in voters:
            voters.append(grant.voter)
    if len(voters) < q:
        raise ProofError("no quorum")

    if scheme == wire.SCHEME_SCHNORR:
        message = wire.vote_message(scheme, term, timestamp_ms, candidate)
        by_voter = {candidate: own_grant}
        for grant in grants:
            by_voter.setdefault(grant.voter, grant)
        members = voters[:q]
        mask = 0
        for voter in members:
            mask |= 1 << voter
        combo = ComboId(mask)
        chosen = []
        for voter in members:
            psig = next(
                (
                    p for p in by_voter[voter].partials
                    if p.combo == combo and p.signer == voter
                ),
                None,
            )
            if psig is None:
                raise ProofError(f"bad grant from {voter}")
            chosen.append(psig)
        big_r, s = crypto.schnorr_aggregate(chosen)
        if not crypto.schnorr_verify(keyring, combo, message, big_r, s):
            for voter, psig in zip(members, chosen):
                if not crypto.schnorr_partial_verify(keyring, psig, message):
                    raise ProofError(f"bad grant from {voter}")
            raise ProofError("aggregate signature does not verify")
        return VoteProof(
            scheme, term, timestamp_ms, candidate, SchnorrBody(combo, big_r, s)
        )

    if scheme == wire.SCHEME_SSS:
        if salt is None:
            raise ProofError("salt required for share-based proofs")
        by_voter = {candidate: own_grant}
        for grant in grants:
            by_voter.setdefault(grant.voter, grant)
        entries = []
        for voter in voters[:q]:
            grant = by_voter[voter]
            if grant.share_sig is None:
                raise ProofError(f"bad grant from {voter}")
            share, sig = grant.share_sig
            message = share_sign_message(share, term, timestamp_ms, candidate)
            if not crypto.verify_recoverable(keyring.public_key(voter), message, sig):
                raise ProofError(f"bad grant from {voter}")
            entries.append((share, sig))
        return VoteProof(
            scheme, term, timestamp_ms, candidate, SssBody(salt, tuple(entries))
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
        key = hashlib.sha256(encode_proof(proof)).digest()
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
    return hashlib.sha256(encode_proof(proof)).hexdigest()[:16]


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
