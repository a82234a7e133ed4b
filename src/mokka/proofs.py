"""Proof-of-voting: construction, validation, and wire codecs.

A proof shows that a majority voted for a specific candidate in a
specific term within a specific time window. Two interchangeable
constructions exist: a fixed-size quorum-Schnorr signature (92 bytes
regardless of cluster size) and a variable-size Shamir scheme in which
voters return recoverable signatures over their secret shares. Each is
one object in ``SCHEMES``; the public functions here look the scheme up
by its wire code and call it.
"""

import enum
import functools
import random
from collections import OrderedDict
from dataclasses import dataclass
from math import comb
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
    """An aggregate Schnorr signature for one combo. The nonce point R is
    kept as (x, y parity), all that its encoding and its check read; the
    constructor also takes R as an affine point."""

    combo: ComboId
    nonce: Tuple[int, bool]
    s_value: int

    def __post_init__(self):
        x, y = self.nonce
        object.__setattr__(self, "nonce", (x, bool(y & 1)))


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
        return _message(self) + _scheme_of(self.scheme).encode_body(self.body)

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


# A Schnorr proof is the 19-byte vote message plus this body: 92 bytes.
_SCHNORR_BODY_LEN = 8 + 33 + 32
_SSS_ENTRY_LEN = 32 + 32 + 32 + 32 + 1

# Crypto verdicts a ProofValidator keeps, least recently used evicted first.
# In a fake-leader run (n = 3, 3 s) the node outside the forged combo stores
# about 60; the combo member refutes the forgeries from its vote record and
# stores at most the real leader's proof. Forged proofs beyond the cap cost
# a re-verification each, not memory.
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


def _message(vote: Union[VotePayload, VoteProof]) -> bytes:
    """The vote message a payload asks to sign, or a proof's signatures
    commit to; it is also the proof's wire header."""
    return wire.vote_message(vote.scheme, vote.term, vote.timestamp_ms, vote.candidate)


def _shares_signed(
    keyring: ClusterKeyring,
    signed: Sequence[Tuple[NodeId, Optional[Tuple[SssShare, RecoverableSignature]]]],
    vote: Union[VotePayload, VoteProof],
) -> List[bool]:
    """For each (voter, share_sig), whether share_sig is voter's signature
    over its share of vote; all are checked in one batch."""
    present = [(voter, share_sig) for voter, share_sig in signed if share_sig is not None]
    checks = [
        (voter, share_sign_message(share, vote.term, vote.timestamp_ms, vote.candidate), sig)
        for voter, (share, sig) in present
    ]
    verified = iter(crypto.verify_recoverables(keyring, checks))
    return [share_sig is not None and next(verified) for _, share_sig in signed]


# --- The schemes ---------------------------------------------------------------
#
# Each scheme object answers:
#   payloads(candidate, term, now_ms, keyring, rng)  one VotePayload per node
#   grant(voter_kp, voter, payload, keyring)          the voter's VoteGrant
#   well_formed(grant, payload, keyring)              the checks without crypto
#   verifies(grant, payload, keyring)                 every signature in grant
#   assemble(candidate_kp, own, members, by_voter, keyring)
#                                                     the proof body, or raise
#   claim(proof, keyring)                             the nodes whose signatures
#                                                     the body claims, or the
#                                                     verdict its shape decides
#                                                     (a ValidationResult);
#                                                     no crypto
#   check(proof, keyring, signers)                    the crypto verdict on a
#                                                     body that claims signers
#   encode_body(body), decode_body(data)              the body's wire codec
#
# crypto is called through the module, so tools that wrap or patch its
# functions see every call.


class _Schnorr:
    """Quorum-combination Schnorr: every voter gets the same payload and
    signs one partial per combo holding itself and the candidate; the
    proof is the aggregate signature of one combo."""

    def payloads(self, candidate, term, now_ms, keyring, rng):
        payload = VotePayload(wire.SCHEME_SCHNORR, term, now_ms, candidate)
        return {node: payload for node in keyring.sorted_ids}

    def grant(self, voter_kp, voter, payload, keyring):
        combos = list(keyring.combos_containing({voter, payload.candidate}))
        message = _message(payload)
        partials = crypto.schnorr_sign_partials(voter_kp, keyring, combos, message)
        return VoteGrant(voter, payload.term, partials=tuple(partials))

    def well_formed(self, grant, payload, keyring):
        # An honest grant holds one partial per combo holding its voter and
        # the candidate, so a longer one is refused before it is read.
        partials = grant.partials
        if not 0 < len(partials) <= comb(len(keyring.sorted_ids) - 2, keyring.quorum_size - 2):
            return False
        pair = ComboId.of({grant.voter, payload.candidate}).mask
        return len({p.combo for p in partials}) == len(partials) and all(
            p.signer == grant.voter and p.combo in keyring.combos and p.combo.mask & pair == pair
            for p in partials
        )

    def verifies(self, grant, payload, keyring):
        return self.well_formed(grant, payload, keyring) and all(
            crypto.schnorr_verify_partials(keyring, grant.partials, _message(payload))
        )

    def assemble(self, candidate_kp, own, members, by_voter, keyring):
        message = _message(own)
        combo = ComboId.of(members)
        try:
            keyring.combos.get(combo)  # None for a combo outside the keyring
        except crypto.CryptoError:
            # An honest voter signs every combo holding itself and the
            # candidate, and grants nothing when one of them cancels, so
            # every chosen voter's grant is forged.
            raise BadGrants(members[1:]) from None
        own_partial = crypto.schnorr_partial_sign(candidate_kp, keyring, combo, message)
        chosen = {}
        for voter in members:
            offered = (
                (own_partial,) if voter == own.candidate else by_voter[voter].partials
            )
            psig = next(
                (p for p in offered if p.combo == combo and p.signer == voter), None
            )
            if psig is not None:
                chosen[voter] = psig
        if len(chosen) == len(members):
            big_r, s = crypto.schnorr_aggregate(list(chosen.values()))
            if crypto.schnorr_verify(keyring, combo, message, big_r, s):
                return SchnorrBody(combo, big_r, s)
        verified = crypto.schnorr_verify_partials(keyring, list(chosen.values()), message)
        held = dict(zip(chosen, verified))
        bad = [voter for voter in members if not held.get(voter, False)]
        if bad:
            raise BadGrants(bad)
        raise ProofError("aggregate signature does not verify")

    def claim(self, proof, keyring):
        combo = proof.body.combo
        if combo not in keyring.combos:
            return ValidationResult.UNKNOWN_VOTER
        if proof.candidate not in combo:
            return ValidationResult.BAD_SIGNATURE
        return combo

    def check(self, proof, keyring, combo):
        body = proof.body
        ok = crypto.schnorr_verify(keyring, combo, _message(proof), body.nonce, body.s_value)
        return ValidationResult.OK if ok else ValidationResult.BAD_SIGNATURE

    def encode_body(self, body):
        return (
            wire.encode_combo_mask(body.combo.mask)
            + wire.encode_point(body.nonce)
            + wire.encode_scalar(body.s_value)
        )

    def decode_body(self, data):
        if len(data) != _SCHNORR_BODY_LEN:
            raise wire.MalformedError("malformed proof")
        return SchnorrBody(
            ComboId(wire.decode_combo_mask(data[:8])),
            wire.decode_x_parity(data[8:41]),
            wire.decode_scalar(data[41:73]),
        )


class _Sss:
    """Shamir: each voter gets its own share of a secret drawn from the
    payload's salt and signs it recoverably; the proof is a quorum of
    signed shares that restore the secret."""

    def payloads(self, candidate, term, now_ms, keyring, rng):
        nodes = keyring.sorted_ids
        salt = rng.randbytes(32)
        secret = sss_secret(now_ms, salt, term)
        shares = crypto.sss_split(secret, len(nodes), keyring.quorum_size, rng)
        return {
            node: VotePayload(
                wire.SCHEME_SSS, term, now_ms, candidate, salt,
                shares[keyring.ordinal(node) - 1],
            )
            for node in nodes
        }

    @staticmethod
    def _sign(kp, payload):
        if payload.share is None:
            raise ProofError("payload carries no share")
        message = share_sign_message(
            payload.share, payload.term, payload.timestamp_ms, payload.candidate
        )
        return payload.share, crypto.sign_recoverable(kp, message)

    def grant(self, voter_kp, voter, payload, keyring):
        return VoteGrant(voter, payload.term, share_sig=self._sign(voter_kp, payload))

    def well_formed(self, grant, payload, keyring):
        return grant.share_sig is not None and grant.share_sig[0] == payload.share

    def verifies(self, grant, payload, keyring):
        return _shares_signed(keyring, [(grant.voter, grant.share_sig)], payload)[0]

    def assemble(self, candidate_kp, own, members, by_voter, keyring):
        own_sig = self._sign(candidate_kp, own)
        # The candidate's own signature, just made, needs no check.
        voters = [(voter, by_voter[voter].share_sig) for voter in members[1:]]
        verified = _shares_signed(keyring, voters, own)
        bad = [voter for (voter, _), ok in zip(voters, verified) if not ok]
        if bad:
            raise BadGrants(bad)
        return SssBody(own.salt, (own_sig, *(share_sig for _, share_sig in voters)))

    def claim(self, proof, keyring):
        entries = proof.body.entries
        if len(entries) < keyring.quorum_size:
            return ValidationResult.BAD_SECRET
        # A share's index names its voter, who alone may vouch for it. The
        # first entry whose index names no node, or a voter named before,
        # decides.
        voters = []
        for share, _ in entries:
            try:
                voter = keyring.node_for_ordinal(share.index)
            except crypto.CryptoError:
                return ValidationResult.UNKNOWN_VOTER
            if voter in voters:
                return ValidationResult.BAD_SIGNATURE
            voters.append(voter)
        if proof.candidate not in voters:
            return ValidationResult.BAD_SIGNATURE
        return voters

    def check(self, proof, keyring, signers):
        body = proof.body
        if not all(_shares_signed(keyring, list(zip(signers, body.entries)), proof)):
            return ValidationResult.BAD_SIGNATURE
        expected = sss_secret(proof.timestamp_ms, body.salt, proof.term)
        try:
            restored = crypto.sss_restore([s for s, _ in body.entries], keyring.quorum_size)
        except crypto.CryptoError:
            return ValidationResult.BAD_SECRET
        return ValidationResult.OK if restored == expected else ValidationResult.BAD_SECRET

    def encode_body(self, body):
        out = body.salt + wire.encode_uint(len(body.entries), 2)
        for share, sig in body.entries:
            out += (
                encode_share(share)
                + wire.encode_scalar(sig.r)
                + wire.encode_scalar(sig.s)
                + wire.encode_uint(sig.recovery_hint, 1)
            )
        return out

    def decode_body(self, data):
        # salt(32) || count(2 BE) || count entries; shorter data fails too.
        count = int.from_bytes(data[32:34], "big")
        if len(data) != 34 + count * _SSS_ENTRY_LEN:
            raise wire.MalformedError("malformed proof")
        entries = []
        for at in range(34, len(data), _SSS_ENTRY_LEN):
            chunk = data[at:at + _SSS_ENTRY_LEN]
            share = SssShare(
                wire.decode_scalar(chunk[:32]), wire.decode_scalar(chunk[32:64])
            )
            sig = RecoverableSignature(
                wire.decode_scalar(chunk[64:96]),
                wire.decode_scalar(chunk[96:128]),
                chunk[128],
            )
            entries.append((share, sig))
        return SssBody(data[:32], tuple(entries))


SCHEMES = {wire.SCHEME_SCHNORR: _Schnorr(), wire.SCHEME_SSS: _Sss()}


def _scheme_of(code: int):
    try:
        return SCHEMES[code]
    except KeyError:
        raise ProofError(f"unknown scheme {code}") from None


# --- Public entry points -------------------------------------------------------


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
    return _scheme_of(scheme).payloads(candidate, term, now_ms, keyring, rng)


def grant_vote(voter_kp: KeyPair, payload: VotePayload, keyring: ClusterKeyring) -> VoteGrant:
    """Sign a vote: partials for every combo holding voter and candidate
    (Schnorr), or a recoverable signature over the received share (Sss)."""
    voter = keyring.node_for_key(voter_kp.public)
    if voter is None:
        raise ProofError("voter not in keyring")
    return _scheme_of(payload.scheme).grant(voter_kp, voter, payload, keyring)


def grant_is_well_formed(
    grant: VoteGrant, payload: VotePayload, keyring: ClusterKeyring
) -> bool:
    """The checks on grant that cost no signature work: its partials are its
    voter's, one per keyring combo holding voter and candidate at most, as
    in an honest grant (Schnorr); or it signs the share payload carried (Sss)."""
    return _scheme_of(payload.scheme).well_formed(grant, payload, keyring)


def grant_verifies(
    grant: VoteGrant, payload: VotePayload, keyring: ClusterKeyring
) -> bool:
    """Whether every signature in grant is its voter's, over the vote that
    payload asked for: each partial (Schnorr), or the share signature (Sss)."""
    return _scheme_of(payload.scheme).verifies(grant, payload, keyring)


def build_proof(
    candidate_kp: KeyPair,
    own: VotePayload,
    grants: Sequence[VoteGrant],
    keyring: ClusterKeyring,
) -> VoteProof:
    """Assemble a proof from the candidate's own payload plus follower
    grants, in arrival order; term, timestamp, scheme and salt are the
    payload's.

    The members are the candidate and the earliest voters, up to a quorum.
    The candidate signs here, for the members' combo alone (Sss: its own
    share). This is where a grant's signature is checked, and only what
    enters the proof is checked: for Schnorr, the aggregate over the
    chosen combo with one ``schnorr_verify``; for Sss, each chosen share
    signature against its voter's key. When that fails, ``BadGrants`` names
    every chosen voter whose partial (checked one at a time, on this path
    only) or share signature fails, or, for a Schnorr combo whose keys
    cancel, every chosen voter. Partials for other combos are never
    checked.
    """
    by_voter: Dict[NodeId, VoteGrant] = {}
    for grant in grants:
        if grant.voter != own.candidate:
            by_voter.setdefault(grant.voter, grant)
    members = [own.candidate, *by_voter][:keyring.quorum_size]
    if len(members) < keyring.quorum_size:
        raise ProofError("no quorum")
    body = _scheme_of(own.scheme).assemble(candidate_kp, own, members, by_voter, keyring)
    return VoteProof(own.scheme, own.term, own.timestamp_ms, own.candidate, body)


def _verdict(proof: VoteProof, keyring: ClusterKeyring, claim) -> ValidationResult:
    """The shape verdict claim holds, else the crypto's; cacheable per proof bytes."""
    if isinstance(claim, ValidationResult):
        return claim
    return _scheme_of(proof.scheme).check(proof, keyring, claim)


def time_verdict(
    proof: VoteProof, policy: ProofPolicy, now_ms: int
) -> Optional[ValidationResult]:
    """FUTURE_TIMESTAMP or EXPIRED when now_ms lies outside the proof's
    window, else None."""
    if proof.timestamp_ms > now_ms + policy.max_clock_skew_ms:
        return ValidationResult.FUTURE_TIMESTAMP
    if now_ms > proof.timestamp_ms + policy.ttl_ms:
        return ValidationResult.EXPIRED
    return None


def validate_proof(
    proof: VoteProof,
    keyring: ClusterKeyring,
    policy: ProofPolicy,
    now_ms: int,
) -> ValidationResult:
    """The verdict on proof at now_ms: the time window, then the body's
    shape, then the signatures; CryptoError if its combo's keys cancel."""
    return time_verdict(proof, policy, now_ms) or _verdict(
        proof, keyring, _scheme_of(proof.scheme).claim(proof, keyring)
    )


class ProofValidator:
    """A node's signature verdicts on the proofs it receives, cheapest
    first: a cache of verdicts per proof bytes, then the body's shape,
    then the node's own vote record, then the crypto.

    The caller answers the time checks (``time_verdict``) beforehand.
    owner is the node whose vote record ``validate`` consults.
    Any byte change in the proof forces revalidation. At most
    VALIDATOR_CACHE_SIZE verdicts are kept; a hit makes its entry the most
    recent, so a flood of forged proofs evicts the oldest forgeries, not
    the proof of a leader that keeps sending heartbeats.
    """

    def __init__(self, keyring: ClusterKeyring, owner: NodeId):
        self.keyring = keyring
        self.owner = owner
        self._cache: OrderedDict[bytes, ValidationResult] = OrderedDict()

    def validate(
        self, proof: VoteProof, voted_for: Optional[Tuple[int, NodeId]]
    ) -> ValidationResult:
        """The signature verdict on proof inside its time window.

        A cache miss reads the scheme's claim once: a shape verdict, or the
        signers. voted_for is the owner's vote record, and proof.term must
        not lie below the owner's current term. The owner signs for (term,
        candidate) only when it votes so, and its record changes only when
        its term rises. So when the signers include the owner and voted_for
        is not (proof.term, proof.candidate), that signature cannot be
        real: the answer is BAD_SIGNATURE without any curve work, and it is
        not cached. Otherwise the verdict is ``validate_proof``'s.

        This holds only while voted_for outlives the process: an owner that
        restarts with no vote record refutes the genuine proof of the
        leader it voted for until the next election.
        """
        key = proof.digest
        result = self._cache.get(key)
        if result is not None:
            self._cache.move_to_end(key)
            return result
        claim = _scheme_of(proof.scheme).claim(proof, self.keyring)
        signers = () if isinstance(claim, ValidationResult) else claim
        if voted_for != (proof.term, proof.candidate) and self.owner in signers:
            return ValidationResult.BAD_SIGNATURE
        result = _verdict(proof, self.keyring, claim)
        self._cache[key] = result
        if len(self._cache) > VALIDATOR_CACHE_SIZE:
            self._cache.popitem(last=False)
        return result


def proof_hash(proof: VoteProof) -> str:
    return proof.digest.hex()[:16]


def encode_proof(proof: VoteProof) -> bytes:
    """The proof's wire bytes, encoded once per proof object."""
    return proof.encoded


def decode_proof(data: bytes) -> VoteProof:
    header, body = data[:wire.VOTE_MESSAGE_LEN], data[wire.VOTE_MESSAGE_LEN:]
    if len(header) < wire.VOTE_MESSAGE_LEN or header[0] not in SCHEMES:
        raise wire.MalformedError("malformed proof")
    return VoteProof(*wire.decode_vote_message(header), SCHEMES[header[0]].decode_body(body))
