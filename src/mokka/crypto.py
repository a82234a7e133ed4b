"""Cryptographic primitives for proof-of-voting.

Three families live here:

* quorum-combination Schnorr multisignatures (single-round: the
  challenge binds the aggregate key and the message but not the nonce
  point, which is what lets followers sign without a nonce-exchange
  round — see README for the security caveat); the keyring's aggregate
  keys are summed with one field inversion for the whole keyring,
* Shamir secret sharing over the curve's scalar field,
* deterministic ECDSA with public-key recovery, used to authenticate
  secret shares; a share signature is verified against the expected
  voter's key by comparing the point it computes with the nonce point's
  x coordinate and parity, without lifting the nonce point, and recovery
  stays as the reference it must agree with.

Everything is a pure function of its inputs; nonces are derived
deterministically so two runs produce bit-identical signatures.
"""

import hashlib
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import curve, wire
from .curve import Point

NodeId = int

# Node ids are bits of a 64-bit combo mask, so a cluster holds at most 64.
MAX_NODES = 64
# A keyring holds every C(n, n//2 + 1) combo: 24,310 at n = 17, built in
# about 0.8 s, and each further two nodes multiply that by about four.
MAX_KEYRING_NODES = 17


class CryptoError(ValueError):
    pass


def check_cluster_size(n: int) -> None:
    """Raise CryptoError unless a keyring can be built for n nodes."""
    if n < 3:
        raise CryptoError("cluster too small: need at least 3 nodes")
    if n > MAX_NODES:
        raise CryptoError(f"cluster too large: at most {MAX_NODES} nodes")
    if n > MAX_KEYRING_NODES:
        raise CryptoError(
            f"cluster too large: a keyring holds at most {MAX_KEYRING_NODES} nodes"
        )


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: Point


@dataclass(frozen=True, order=True)
class ComboId:
    """A quorum-size node subset, as a bitmask (bit i set <=> node i in it)."""

    mask: int

    @classmethod
    def of(cls, nodes: Iterable[NodeId]) -> "ComboId":
        mask = 0
        for node in nodes:
            mask |= 1 << node
        return cls(mask)

    def members(self) -> Tuple[NodeId, ...]:
        return tuple(i for i in range(MAX_NODES) if self.mask >> i & 1)

    def __contains__(self, node: NodeId) -> bool:
        return bool(self.mask >> node & 1)


@dataclass(frozen=True)
class PartialSignature:
    signer: NodeId
    combo: ComboId
    nonce_point: Point
    s_value: int


@dataclass(frozen=True)
class SssShare:
    index: int
    value: int


@dataclass(frozen=True)
class RecoverableSignature:
    r: int
    s: int
    recovery_hint: int


@dataclass(frozen=True)
class ClusterKeyring:
    node_keys: Tuple[Tuple[NodeId, Point], ...]
    quorum_size: int
    combos: Mapping[ComboId, Point]
    # Lookups derived from node_keys in __post_init__; equality ignores them.
    sorted_ids: Tuple[NodeId, ...] = field(init=False, repr=False, compare=False)
    _key_of: Dict[NodeId, Point] = field(init=False, repr=False, compare=False)
    _id_of: Dict[Point, NodeId] = field(init=False, repr=False, compare=False)
    _ordinal_of: Dict[NodeId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sorted_ids = tuple(sorted(node_id for node_id, _ in self.node_keys))
        derived = {
            "sorted_ids": sorted_ids,
            "_key_of": dict(self.node_keys),
            # The first node holding a key names it, as a scan would.
            "_id_of": {pub: node_id for node_id, pub in reversed(self.node_keys)},
            "_ordinal_of": {node_id: i for i, node_id in enumerate(sorted_ids, 1)},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def public_key(self, node: NodeId) -> Point:
        try:
            return self._key_of[node]
        except KeyError:
            raise CryptoError(f"unknown node {node}") from None

    def node_for_key(self, public: Point) -> Optional[NodeId]:
        """The node whose public key this is, or None for an outsider."""
        return self._id_of.get(public)

    def node_ids(self) -> Tuple[NodeId, ...]:
        return tuple(node_id for node_id, _ in self.node_keys)

    def ordinal(self, node: NodeId) -> int:
        """1-based share index for a node (position in sorted id order)."""
        try:
            return self._ordinal_of[node]
        except KeyError:
            raise CryptoError(f"unknown node {node}") from None

    def node_for_ordinal(self, ordinal: int) -> NodeId:
        if not 1 <= ordinal <= len(self.sorted_ids):
            raise CryptoError(f"bad ordinal {ordinal}")
        return self.sorted_ids[ordinal - 1]

    def aggregate_key(self, combo: ComboId) -> Point:
        try:
            return self.combos[combo]
        except KeyError:
            raise CryptoError(f"unknown combo {combo.mask:#x}") from None

    def combos_containing(self, nodes: Iterable[NodeId]) -> List[ComboId]:
        want = ComboId.of(nodes).mask
        return [c for c in self.combos if c.mask & want == want]


def hash_to_scalar(domain_tag: str, parts: Sequence[bytes]) -> int:
    """Domain-separated hash of length-prefixed parts, reduced mod group order."""
    tag = hashlib.sha256(domain_tag.encode()).digest()
    h = hashlib.sha256(tag + tag)
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % curve.N


def keygen(seed: bytes) -> KeyPair:
    """Deterministic keypair from a seed; same seed, same pair."""
    if not seed:
        raise CryptoError("empty keygen seed")
    counter = 0
    while True:
        secret = hash_to_scalar("keygen", [seed, counter.to_bytes(4, "big")])
        if secret != 0:
            return KeyPair(secret, curve.scalar_mult_base(secret))
        counter += 1


def build_keyring(keys: Sequence[Tuple[NodeId, Point]]) -> ClusterKeyring:
    """Precompute one aggregate public key per quorum-size node subset.

    The aggregates are summed in Jacobian coordinates and made affine
    together, with one field inversion. A subset whose keys cancel has no
    aggregate key, so such a keyset is rejected.
    """
    n = len(keys)
    check_cluster_size(n)
    ids = [node_id for node_id, _ in keys]
    if len(set(ids)) != n:
        raise CryptoError("duplicate node")
    if any(not 0 <= i < MAX_NODES for i in ids):
        raise CryptoError(f"node ids must be in [0, {MAX_NODES})")
    quorum = n // 2 + 1
    by_id = dict(keys)
    subsets = list(combinations(sorted(ids), quorum))
    aggregates = curve.affine_sums(
        [by_id[node_id] for node_id in subset] for subset in subsets
    )
    combos: Dict[ComboId, Point] = {}
    for subset, agg in zip(subsets, aggregates):
        if agg is None:
            raise CryptoError(f"keys of nodes {list(subset)} sum to infinity")
        combos[ComboId.of(subset)] = agg
    return ClusterKeyring(tuple(keys), quorum, MappingProxyType(combos))


@lru_cache(maxsize=8)
def cluster(key_seed: str, n: int) -> Tuple[Tuple[KeyPair, ...], ClusterKeyring]:
    """Nodes 0..n-1's keypairs from key_seed and their keyring, derived once per
    process: both are immutable, so every run on these keys shares them."""
    keypairs = tuple(keygen(f"{key_seed}-node-{i}".encode()) for i in range(n))
    return keypairs, build_keyring([(i, kp.public) for i, kp in enumerate(keypairs)])


# --- Schnorr quorum multisignatures -----------------------------------------


def schnorr_challenge(keyring: ClusterKeyring, combo: ComboId, message: bytes) -> int:
    agg = keyring.aggregate_key(combo)
    return hash_to_scalar("challenge", [wire.encode_point(agg), message])


def schnorr_partial_sign(
    kp: KeyPair, keyring: ClusterKeyring, combo: ComboId, message: bytes
) -> PartialSignature:
    signer = keyring.node_for_key(kp.public)
    if signer is None or signer not in combo:
        raise CryptoError("not a member")
    nonce = hash_to_scalar(
        "nonce",
        [wire.encode_scalar(kp.secret), wire.encode_combo_mask(combo.mask), message],
    )
    nonce_point = curve.scalar_mult_base(nonce)
    e = schnorr_challenge(keyring, combo, message)
    s = (nonce + e * kp.secret) % curve.N
    return PartialSignature(signer, combo, nonce_point, s)


def _schnorr_holds(
    keyring: ClusterKeyring, signers: Iterable[NodeId], e: int, big_r, s: int
) -> bool:
    """s*G == R + e*(sum of the signers' keys), checked as
    s*G - e*X_1 - ... - e*X_k == R on fixed-base tables. Tables exist only
    for node keys, at most n of them, whatever combos a message names.
    big_r is R as an affine point or as (x, y parity); None, the point at
    infinity, has no x and never holds."""
    if big_r is None:
        return False
    terms = [(s, curve.BASE)]
    for node in signers:
        terms.append((curve.N - e, curve.key_table(keyring.public_key(node))))
    x, y = big_r
    return curve.sum_names(x, bool(y & 1), terms)


def schnorr_partial_verify(
    keyring: ClusterKeyring, psig: PartialSignature, message: bytes
) -> bool:
    try:
        e = schnorr_challenge(keyring, psig.combo, message)
        return _schnorr_holds(
            keyring, (psig.signer,), e, psig.nonce_point, psig.s_value
        )
    except CryptoError:
        return False


def schnorr_aggregate(partials: Sequence[PartialSignature]) -> Tuple[Point, int]:
    if not partials:
        raise CryptoError("no partials")
    combo = partials[0].combo
    signers = [p.signer for p in partials]
    if len(set(signers)) != len(signers):
        raise CryptoError("duplicate signer")
    if any(p.combo != combo for p in partials):
        raise CryptoError("mixed combos")
    if set(signers) != set(combo.members()):
        raise CryptoError("incomplete combo")
    [big_r] = curve.affine_sums([[p.nonce_point for p in partials]])
    return big_r, sum(p.s_value for p in partials) % curve.N


def schnorr_verify(
    keyring: ClusterKeyring, combo: ComboId, message: bytes, big_r, s: int
) -> bool:
    """Whether (R, s) is combo's signature on message; big_r is R as an
    affine point or as (x, y parity)."""
    if s % curve.N == 0:
        return False
    try:
        e = schnorr_challenge(keyring, combo, message)
        return _schnorr_holds(keyring, combo.members(), e, big_r, s)
    except CryptoError:
        return False


# --- Shamir secret sharing ---------------------------------------------------


def sss_split(secret: int, n: int, q: int, rng: random.Random) -> List[SssShare]:
    """Shares (j, f(j)) of a random degree q-1 polynomial with f(0) = secret."""
    if not 1 <= q <= n:
        raise CryptoError("threshold exceeds share count")
    if n >= curve.N:
        raise CryptoError("too many shares for the field")
    coeffs = [secret % curve.N] + [rng.randrange(curve.N) for _ in range(q - 1)]
    shares = []
    for j in range(1, n + 1):
        value = 0
        for coeff in reversed(coeffs):
            value = (value * j + coeff) % curve.N
        shares.append(SssShare(j, value))
    return shares


def sss_restore(shares: Sequence[SssShare], q: int) -> int:
    """Lagrange interpolation at 0 over the q lowest-indexed shares."""
    if len(shares) < q:
        raise CryptoError("below threshold")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise CryptoError("duplicate share index")
    chosen = sorted(shares, key=lambda s: s.index)[:q]
    secret = 0
    for share in chosen:
        num, den = 1, 1
        for other in chosen:
            if other.index == share.index:
                continue
            num = num * other.index % curve.N
            den = den * (other.index - share.index) % curve.N
        if den == 0:
            raise CryptoError("duplicate share index")
        lam = num * pow(den, -1, curve.N) % curve.N
        secret = (secret + share.value * lam) % curve.N
    return secret


# --- Recoverable ECDSA -------------------------------------------------------


def _message_digest(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % curve.N


def sign_recoverable(kp: KeyPair, message: bytes) -> RecoverableSignature:
    """Deterministic ECDSA signature from which the public key is recoverable."""
    z = _message_digest(message)
    counter = 0
    while True:
        k = hash_to_scalar(
            "ecdsa-nonce",
            [wire.encode_scalar(kp.secret), message, counter.to_bytes(4, "big")],
        )
        counter += 1
        if k == 0:
            continue
        rx, ry = curve.scalar_mult_base(k)
        r = rx % curve.N
        if r == 0:
            continue
        s = pow(k, -1, curve.N) * (z + r * kp.secret) % curve.N
        if s == 0:
            continue
        hint = (ry & 1) | (2 if rx >= curve.N else 0)
        return RecoverableSignature(r, s, hint)


def _nonce_x(sig: RecoverableSignature) -> int:
    """The x coordinate of the signing nonce point R, from (r, recovery
    hint), after the range and hint checks recovery makes."""
    if not 1 <= sig.r < curve.N or not 1 <= sig.s < curve.N:
        raise CryptoError("invalid signature encoding")
    if sig.recovery_hint not in (0, 1, 2, 3):
        raise CryptoError("invalid signature encoding")
    x = sig.r + (curve.N if sig.recovery_hint >= 2 else 0)
    if x >= curve.P:
        raise CryptoError("invalid signature encoding")
    return x


def _nonce_point(sig: RecoverableSignature) -> Point:
    """The signing nonce point R, lifted from (r, recovery hint)."""
    try:
        return curve.lift_x(_nonce_x(sig), bool(sig.recovery_hint & 1))
    except ValueError:
        raise CryptoError("invalid signature encoding") from None


def recover_pubkey(message: bytes, sig: RecoverableSignature) -> Point:
    """The public key that signed message, recovered from the signature."""
    big_r = _nonce_point(sig)
    z = _message_digest(message)
    r_inv = pow(sig.r, -1, curve.N)
    # Q = r^-1 * (s*R - z*G) = (s/r)*R + (-z/r)*G
    q = curve.point_add(
        curve.scalar_mult(sig.s * r_inv, big_r),
        curve.scalar_mult_base(-z * r_inv),
    )
    if q is None:
        raise CryptoError("invalid signature encoding")
    return q


def verify_recoverable(public: Point, message: bytes, sig: RecoverableSignature) -> bool:
    """Whether recover_pubkey(message, sig) == public, without recovering.

    ECDSA verification (SEC 1 v2, 4.1.4) with the recovery hint bound in:
    Q = (z/s)*G + (r/s)*X must be the nonce point that (r, hint) names,
    i.e. x(Q) = r (+ N when hint >= 2) and y(Q) has the hint's parity.
    The nonce point is never lifted, and only a Q with the right x pays a
    field inversion, for its parity. public must be a node key, since it
    gets a cached fixed-base table.
    """
    try:
        x = _nonce_x(sig)
    except CryptoError:
        return False
    s_inv = pow(sig.s, -1, curve.N)
    z = _message_digest(message)
    return curve.sum_names(
        x,
        bool(sig.recovery_hint & 1),
        [(z * s_inv, curve.BASE), (sig.r * s_inv, curve.key_table(public))],
    )
