"""Cryptographic primitives for proof-of-voting.

Three families live here:

* quorum-combination Schnorr multisignatures (single-round: the
  challenge binds the aggregate key and the message but not the nonce
  point, which is what lets followers sign without a nonce-exchange
  round — see README for the security caveat); the keyring holds node
  keys only, and a combo's aggregate key is summed on its first use; it
  also owns the tables of its keys and combos, each built on first use,
* Shamir secret sharing over the curve's scalar field,
* deterministic ECDSA with public-key recovery, used to authenticate
  secret shares; a share signature is verified against the expected
  voter's key by comparing the point it computes with the nonce point's
  x coordinate and parity, without lifting the nonce point, and recovery
  stays as the reference it must agree with.

Keys, partials and signature checks come in batches whose curve sums
share their field inversions (``keygens``, ``schnorr_sign_partials``,
``schnorr_verify_partials``, ``verify_recoverables``); the single forms are
their one-item case. Everything is a pure function of its inputs; nonces
are derived deterministically so two runs produce bit-identical signatures.
"""

import hashlib
import random
from dataclasses import dataclass, field
from collections import OrderedDict
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import curve, wire
from .curve import Point

NodeId = int

# Node ids are bits of a 64-bit combo mask, so a cluster holds at most 64.
MAX_NODES = 64
# A Schnorr grant signs one partial per combo holding its voter and the
# candidate, C(n - 2, n//2 - 1) of them: 6,435 at n = 17, and each further
# two nodes multiply that by about four. With their nonce points summed in
# one batch, a grant took 0.46 ms at n = 5 (3 partials), 4.1 ms at n = 9
# (35) and 61 ms at n = 13 (462): medians of three runs, keys' aggregates
# already summed, on a 2-core x86_64 VM with Python 3.11.
MAX_KEYRING_NODES = 17
# A keyring keeps the summed tables of the SUM_TABLES combos checked last.
# Each is at most the size of a key table (about 0.23 MB), so a keyring
# holds at most n key tables and SUM_TABLES summed ones: about 19 MB at
# n = 17, for each of the keyrings ``cluster`` keeps. A summed slot costs
# the check that fills it no more additions than the keys' own entries
# would, so not even combos that evict each other make a check add more
# than it would over the key tables.
SUM_TABLES = 64


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
            f"cluster too large: grant cost allows at most {MAX_KEYRING_NODES} nodes"
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


class _Combos(Mapping):
    """A keyring's combos and their aggregate keys, as a rule on the mask:
    quorum bits, each naming a node. Each aggregate is summed on its first
    lookup and kept; one whose keys sum to infinity raises CryptoError."""

    def __init__(self, keyring: "ClusterKeyring"):
        self._keyring = keyring
        self._nodes = ComboId.of(keyring.sorted_ids).mask
        # Keyed by mask: an int hashes and compares without a Python call.
        self._sums: Dict[int, Optional[Point]] = {}
        self._tables: OrderedDict[int, curve.SumTable] = OrderedDict()

    def __contains__(self, combo) -> bool:
        mask = combo.mask if isinstance(combo, ComboId) else 0
        return mask.bit_count() == self._keyring.quorum_size and not mask & ~self._nodes

    def __getitem__(self, combo: ComboId) -> Point:
        if combo not in self:
            raise KeyError(combo)
        if combo.mask not in self._sums:
            keys = [self._keyring.public_key(node) for node in combo.members()]
            [self._sums[combo.mask]] = curve.affine_sums([keys])
        if self._sums[combo.mask] is None:
            raise CryptoError(f"keys of nodes {list(combo.members())} sum to infinity")
        return self._sums[combo.mask]

    def __iter__(self) -> Iterator[ComboId]:
        return self._keyring.combos_containing(())

    def __len__(self) -> int:
        return comb(len(self._keyring.sorted_ids), self._keyring.quorum_size)

    def table(self, combo: ComboId) -> curve.SumTable:
        """combo's SumTable over its members' key tables; the last SUM_TABLES kept."""
        table = self._tables.pop(combo.mask, None)
        if table is None:
            table = curve.SumTable(tuple(map(self._keyring.table, combo.members())))
        self._tables[combo.mask] = table
        if len(self._tables) > SUM_TABLES:
            self._tables.popitem(last=False)
        return table


@dataclass(frozen=True)
class ClusterKeyring:
    node_keys: Tuple[Tuple[NodeId, Point], ...]
    quorum_size: int
    # Lookups derived from node_keys in __post_init__; equality ignores them.
    sorted_ids: Tuple[NodeId, ...] = field(init=False, repr=False, compare=False)
    combos: Mapping[ComboId, Point] = field(init=False, repr=False, compare=False)
    _key_of: Dict[NodeId, Point] = field(init=False, repr=False, compare=False)
    _id_of: Dict[Point, NodeId] = field(init=False, repr=False, compare=False)
    _ordinal_of: Dict[NodeId, int] = field(init=False, repr=False, compare=False)
    _tables: Dict[NodeId, curve.FixedBase] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sorted_ids = tuple(sorted(node_id for node_id, _ in self.node_keys))
        derived = {
            "sorted_ids": sorted_ids,
            "_key_of": dict(self.node_keys),
            "_id_of": {pub: node_id for node_id, pub in self.node_keys},
            "_ordinal_of": {node_id: i for i, node_id in enumerate(sorted_ids, 1)},
            "_tables": {},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "combos", _Combos(self))

    def public_key(self, node: NodeId) -> Point:
        try:
            return self._key_of[node]
        except KeyError:
            raise CryptoError(f"unknown node {node}") from None

    def table(self, node: NodeId) -> curve.FixedBase:
        """The fixed-base table of node's key, built on first use and kept."""
        if node not in self._tables:
            self._tables[node] = curve.FixedBase(self.public_key(node), curve.KEY_WINDOW)
        return self._tables[node]

    def node_for_key(self, public: Point) -> Optional[NodeId]:
        """The node whose public key this is, or None for an outsider."""
        return self._id_of.get(public)

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

    def combos_containing(self, nodes: Iterable[NodeId]) -> Iterator[ComboId]:
        """The combos holding every one of nodes, in lexicographic order."""
        want = set(nodes)
        if not want <= self._key_of.keys() or len(want) > self.quorum_size:
            return iter(())
        others = [node for node in self.sorted_ids if node not in want]
        rests = combinations(others, self.quorum_size - len(want))
        return (ComboId.of(want.union(rest)) for rest in rests)


# Per domain tag, a sha256 object fed its prefix sha256(tag) || sha256(tag);
# the tags are this package's few constants.
_DOMAINS = {}


def hash_to_scalar(domain_tag: str, parts: Sequence[bytes]) -> int:
    """Domain-separated hash of length-prefixed parts, reduced mod group order."""
    prefix = _DOMAINS.get(domain_tag)
    if prefix is None:
        tag = hashlib.sha256(domain_tag.encode()).digest()
        prefix = _DOMAINS[domain_tag] = hashlib.sha256(tag + tag)
    h = prefix.copy()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % curve.N


def keygens(seeds: Sequence[bytes]) -> List[KeyPair]:
    """Deterministic keypairs, one per seed; same seed, same pair. The
    public keys are summed in one batch."""
    secrets = []
    for seed in seeds:
        if not seed:
            raise CryptoError("empty keygen seed")
        counter = 0
        while not (secret := hash_to_scalar("keygen", [seed, counter.to_bytes(4, "big")])):
            counter += 1
        secrets.append(secret)
    publics = curve.fixed_sums([[(secret, curve.BASE)] for secret in secrets])
    return [KeyPair(secret, public) for secret, public in zip(secrets, publics)]


def keygen(seed: bytes) -> KeyPair:
    """Deterministic keypair from a seed; same seed, same pair."""
    return keygens([seed])[0]


def build_keyring(keys: Sequence[Tuple[NodeId, Point]]) -> ClusterKeyring:
    """The keyring of these node keys, after checking the cluster's size,
    ids and keys (one holder of a shared key could sign for both nodes); no
    curve work, as each combo's aggregate is summed on first use."""
    n = len(keys)
    check_cluster_size(n)
    ids = [node_id for node_id, _ in keys]
    if len(set(ids)) != n:
        raise CryptoError("duplicate node")
    if len({public for _, public in keys}) != n:
        raise CryptoError("duplicate key")
    if any(not 0 <= i < MAX_NODES for i in ids):
        raise CryptoError(f"node ids must be in [0, {MAX_NODES})")
    return ClusterKeyring(tuple(keys), n // 2 + 1)


@lru_cache(maxsize=8)
def cluster(key_seed: str, n: int) -> Tuple[Tuple[KeyPair, ...], ClusterKeyring]:
    """Nodes 0..n-1's keypairs from key_seed and their keyring, derived once per
    process: both are immutable, so every run on these keys shares them.
    The cluster's size is checked before any key is derived."""
    check_cluster_size(n)
    keypairs = tuple(keygens([f"{key_seed}-node-{i}".encode() for i in range(n)]))
    return keypairs, build_keyring([(i, kp.public) for i, kp in enumerate(keypairs)])


# --- Schnorr quorum multisignatures -----------------------------------------


def schnorr_challenge(keyring: ClusterKeyring, combo: ComboId, message: bytes) -> int:
    if combo not in keyring.combos:
        raise CryptoError(f"unknown combo {combo.mask:#x}")
    agg = keyring.combos[combo]
    return hash_to_scalar("challenge", [wire.encode_point(agg), message])


def schnorr_sign_partials(
    kp: KeyPair, keyring: ClusterKeyring, combos: Sequence[ComboId], message: bytes
) -> List[PartialSignature]:
    """kp's partial signature on message for each combo, the nonce points
    summed in one batch."""
    signer = keyring.node_for_key(kp.public)
    if signer is None or any(signer not in combo for combo in combos):
        raise CryptoError("not a member")
    secret = wire.encode_scalar(kp.secret)
    nonces = [
        hash_to_scalar("nonce", [secret, wire.encode_combo_mask(combo.mask), message])
        for combo in combos
    ]
    nonce_points = curve.fixed_sums([[(nonce, curve.BASE)] for nonce in nonces])
    return [
        PartialSignature(
            signer, combo, nonce_point,
            (nonce + schnorr_challenge(keyring, combo, message) * kp.secret) % curve.N,
        )
        for combo, nonce, nonce_point in zip(combos, nonces, nonce_points)
    ]


def schnorr_partial_sign(
    kp: KeyPair, keyring: ClusterKeyring, combo: ComboId, message: bytes
) -> PartialSignature:
    return schnorr_sign_partials(kp, keyring, [combo], message)[0]


def _schnorr_hold(checks) -> List[bool]:
    """For each (table, e, R, s) check, whether s*G == R + e*X for the key X
    of table, each checked as s*G - e*X == R in one fixed-base sum, all the
    sums in one batch. table is a signer's key table for a partial, or for
    an aggregate X = X_1 + ... + X_q its combo's summed table, whose
    entries are sums of the keys' entries, so e costs one entry per digit,
    not q. R is an affine point or (x, y parity). A check that is None, or
    whose R is None, the point at infinity with no x, never holds."""
    checks = [None if check is None or check[2] is None else check for check in checks]
    held = iter(curve.sums_named([
        (x, bool(y & 1), [(s, curve.BASE), (curve.N - e, table)])
        for table, e, (x, y), s in filter(None, checks)
    ]))
    return [check is not None and next(held) for check in checks]


def schnorr_verify_partials(
    keyring: ClusterKeyring, psigs: Sequence[PartialSignature], message: bytes
) -> List[bool]:
    """Whether each partial is its signer's for its combo on message; all
    are checked in one batch."""
    checks = []
    for psig in psigs:
        try:
            e = schnorr_challenge(keyring, psig.combo, message)
            checks.append((keyring.table(psig.signer), e, psig.nonce_point, psig.s_value))
        except CryptoError:
            checks.append(None)
    return _schnorr_hold(checks)


def schnorr_partial_verify(
    keyring: ClusterKeyring, psig: PartialSignature, message: bytes
) -> bool:
    return schnorr_verify_partials(keyring, [psig], message)[0]


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
    """Whether (R, s) is combo's signature on message, big_r being R as an
    affine point or as (x, y parity); keys that cancel raise CryptoError."""
    if s % curve.N == 0 or combo not in keyring.combos:
        return False
    e = schnorr_challenge(keyring, combo, message)
    return _schnorr_hold([(keyring.combos.table(combo), e, big_r, s)])[0]


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
    nums, dens = [], []
    for share in chosen:
        num, den = 1, 1
        for other in chosen:
            if other.index == share.index:
                continue
            num = num * other.index % curve.N
            den = den * (other.index - share.index) % curve.N
        nums.append(num)
        dens.append(den)
    # Indices equal mod N give a zero denominator, which would leave the
    # whole batch without an inverse.
    if 0 in dens:
        raise CryptoError("duplicate share index")
    secret = 0
    for share, num, den_inv in zip(chosen, nums, curve.batch_invert(dens, curve.N)):
        secret = (secret + share.value * num * den_inv) % curve.N
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


def verify_recoverables(
    keyring: ClusterKeyring, checks: Sequence[Tuple[NodeId, bytes, RecoverableSignature]]
) -> List[bool]:
    """For each (signer, message, sig) check, whether recover_pubkey(message,
    sig) is signer's key, without recovering; False for a signer the
    keyring does not hold. All the checks' sums share their inversions,
    and their s values one inversion modulo N.

    ECDSA verification (SEC 1 v2, 4.1.4) with the recovery hint bound in:
    Q = (z/s)*G + (r/s)*X must be the nonce point that (r, hint) names,
    i.e. x(Q) = r (+ N when hint >= 2) and y(Q) has the hint's parity.
    The nonce point is never lifted, and only a Q with the right x pays
    toward a field inversion, for its parity.
    """
    claims = []  # (x, signer's table, message, sig), None where none can hold
    for signer, message, sig in checks:
        try:
            claims.append((_nonce_x(sig), keyring.table(signer), message, sig))
        except CryptoError:
            claims.append(None)
    kept = list(filter(None, claims))
    s_invs = curve.batch_invert([sig.s for *_, sig in kept], curve.N)
    named = iter(curve.sums_named(
        (x, bool(sig.recovery_hint & 1), [
            (_message_digest(message) * s_inv, curve.BASE), (sig.r * s_inv, table),
        ])
        for (x, table, message, sig), s_inv in zip(kept, s_invs)
    ))
    return [claim is not None and next(named) for claim in claims]


def verify_recoverable(
    keyring: ClusterKeyring, signer: NodeId, message: bytes, sig: RecoverableSignature
) -> bool:
    """Whether recover_pubkey(message, sig) is signer's key (see
    ``verify_recoverables``)."""
    return verify_recoverables(keyring, [(signer, message, sig)])[0]
