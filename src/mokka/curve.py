"""secp256k1 group arithmetic over plain Python integers.

Affine points are (x, y) integer tuples; ``None`` is the point at infinity.
A multiple of a point with a ``FixedBase`` table -- the generator, or a key
whose holder built one -- and any sum of such multiples is a sum of table
entries and needs no doublings. Each scalar k is first split as k1 + k2 *
LAMBDA (mod N) with halves below 2^128 (``split_scalar``, the GLV
endomorphism), so a table only covers 128-bit halves: one entry per signed
window digit of each half. The k2 halves' entries are summed apart and
mapped by phi(x, y) = (BETA * x, y) = LAMBDA * (x, y), one field
multiplication per sum. ``sums_named`` checks such sums against points given
as their x coordinate and y parity. A ``SumTable`` stands for a sum of keys
that share one scalar: each of its entries is the sum of the keys' entries
for the same digit, summed the first time a check needs it and kept, so that
k * (X_1 + ... + X_q) costs one entry per digit instead of q. This module
keeps no table but the generator's: whoever holds a key builds and keeps its
tables. Any other point goes through ``scalar_mult``, which doubles and adds
in 4-bit windows in Jacobian coordinates. Every inversion, in the field or
modulo N, goes through ``batch_invert``, which shares one inversion among
many values (Montgomery's trick), and apart from ``point_add``, the simple
reference, every affine addition goes through one batched kernel,
``_add_affine``. Every batched sum is made of levels of ``_halve``, which
adds adjacent points in many groups at once: ``affine_sums`` halves until
each group holds one point, and ``_jac_sums`` halves the table entries of
many sums together before it finishes each in Jacobian coordinates. So the
several sums of one protocol step -- a grant's nonce points, a proof's share
checks -- share their inversions: ``fixed_sums`` makes all its sums affine
with one, and ``sums_named`` pays one for the parities of the sums whose x
matches; one sum is a list of one, as in ``scalar_mult_base``. A check fills
the table slots it finds unsummed with one ``affine_sums`` call. None of
this is constant-time: the library targets simulation and desk-scale
testing, not hostile production deployments."""

from typing import Iterable, List, Optional, Sequence, Tuple

Point = Tuple[int, int]

# Signed-digit window widths of the fixed-base tables, whose rows cover
# the 128-bit halves of split_scalar. The generator's table (13 rows of
# 512 entries, about 1.2 MB) is built at import; a key's (19 rows of 64,
# about 0.23 MB) on its first use. An 8-bit key window saves about 0.017
# ms per key term but costs about 3.3 ms more per table, so it pays only
# after some 190 uses of a table, more than a one-shot run of any bundled
# scenario makes.
BASE_WINDOW = 10
KEY_WINDOW = 7

# secp256k1 domain parameters (SEC2).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
G: Point = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)

# The GLV endomorphism (Gallant, Lambert, Vanstone, CRYPTO 2001):
# phi(x, y) = (BETA * x, y) is LAMBDA * (x, y) for every point.
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# A lattice basis (A1, -B1), (A2, B2) of the pairs (a, b) with
# a + b * LAMBDA = 0 (mod N), the one libsecp256k1's scalar_split_lambda
# uses; A1 * B2 + A2 * B1 = N.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = 0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1
# The bound on the halves of split_scalar: (k, 0) = x1 * (A1, -B1) +
# x2 * (A2, B2) with x1 = k*B2/N and x2 = k*B1/N, and rounding x1 and x2
# to c1 and c2 leaves (k1, k2) = (k, 0) - c1 * (A1, -B1) - c2 * (A2, B2)
# = e1 * (A1, -B1) + e2 * (A2, B2) with |e1|, |e2| <= 1/2. So
# |k1| <= (A1 + A2)/2 and |k2| <= (B1 + B2)/2, both below 2^HALF_BITS.
# A half's signed w-bit digits fill HALF_BITS // w rows; the bits above
# them, fewer than w, plus the carry of the digit below, come to at most
# 2^(w-1), one digit of one more row.
HALF_BITS = 128


def split_scalar(k: int) -> Tuple[int, int]:
    """(k1, k2) with k1 + k2 * LAMBDA = k (mod N), both below 2^HALF_BITS
    in magnitude: k's coordinates in the basis above, rounded."""
    c1 = (k * _B2 + N // 2) // N
    c2 = (k * _B1 + N // 2) // N
    return k - c1 * _A1 - c2 * _A2, c1 * _B1 - c2 * _B2


def point_add(p1: Optional[Point], p2: Optional[Point]) -> Optional[Point]:
    """Affine addition; slow but simple, used for aggregation and setup."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1) * batch_invert([2 * y1])[0] % P
    else:
        lam = (y2 - y1) * batch_invert([x2 - x1])[0] % P
    x3 = (lam * lam - x1 - x2) % P
    return (x3, (lam * (x1 - x3) - y1) % P)


# Jacobian coordinates: (X, Y, Z) with x = X/Z^2, y = Y/Z^3; Z == 0 is infinity.
_JINF = (1, 1, 0)


def _jac_double(pt):
    X, Y, Z = pt
    if not Z or not Y:
        return _JINF
    YY = Y * Y % P
    S = 4 * X * YY % P
    M = 3 * X * X % P
    X3 = (M * M - 2 * S) % P
    return (X3, (M * (S - X3) - 8 * YY * YY) % P, 2 * Y * Z % P)


def _jac_add_mixed(pt, aff):
    """Add an affine point to a Jacobian point."""
    X, Y, Z = pt
    x2, y2 = aff
    if not Z:
        return (x2, y2, 1)
    ZZ = Z * Z % P
    H = x2 * ZZ % P - X
    R = y2 * ZZ % P * Z % P - Y
    if not H:
        return _jac_double(pt) if not R else _JINF
    HH = H * H % P
    HHH = H * HH % P
    V = X * HH % P
    X3 = (R * R - HHH - 2 * V) % P
    return (X3, (R * (V - X3) - Y * HHH) % P, Z * H % P)


def _jac_to_affine_all(pts) -> List[Optional[Point]]:
    """Each Jacobian point made affine, None for infinity, all sharing one
    field inversion."""
    zinvs = iter(batch_invert([Z for _, _, Z in pts if Z]))
    out = []
    for X, Y, Z in pts:
        if not Z:
            out.append(None)
            continue
        zinv = next(zinvs)
        zinv2 = zinv * zinv % P
        out.append((X * zinv2 % P, Y * zinv2 * zinv % P))
    return out


def batch_invert(values, modulus: int = P) -> List[int]:
    """Inverses of values nonzero modulo modulus, the field's P unless
    given, sharing one modular inversion; none for no values."""
    if not values:
        return []
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % modulus
    inv = pow(acc, -1, modulus)
    out = [None] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % modulus
        inv = inv * values[i] % modulus
    return out


def _add_affine(pairs):
    """The sum of each pair of affine points, or None where the pair
    cancels to infinity; all the pairs share one field inversion."""
    # Equal x: a doubling (2y), or a cancellation whose inverse goes unused.
    dens = [q[0] - p[0] or 2 * p[1] for p, q in pairs]
    out = []
    for ((x1, y1), (x2, y2)), inv in zip(pairs, batch_invert(dens)):
        if x1 != x2:
            lam = (y2 - y1) * inv % P
        elif y1 == y2:
            lam = 3 * x1 * x1 * inv % P
        else:
            out.append(None)
            continue
        x3 = (lam * lam - x1 - x2) % P
        out.append((x3, (lam * (x1 - x3) - y1) % P))
    return out


def _halve(groups: List[Sequence[Point]]) -> List[List[Point]]:
    """Adjacent points of each group added, the pairs of all groups sharing
    one field inversion. A pair that cancels to infinity leaves its group,
    and an odd last point carries over, so each group's sum is unchanged."""
    sums = _add_affine([p for group in groups for p in zip(group[0::2], group[1::2])])
    out = []
    end = 0
    for group in groups:
        start, end = end, end + len(group) // 2
        half = sums[start:end]
        if None in half:
            half = [point for point in half if point is not None]
        if len(group) % 2:
            half.append(group[-1])
        out.append(half)
    return out


def affine_sums(groups: Iterable[Sequence[Point]]) -> List[Optional[Point]]:
    """The sum of each group of affine points, the groups halved together
    until each holds one point; None where a sum is the point at infinity."""
    groups = list(groups)
    while max(map(len, groups), default=0) > 1:
        groups = _halve(groups)
    return [group[0] if group else None for group in groups]


def _multiples(bases, count):
    """For each affine base, [base, 2*base, ..., count*base], affine.

    count is a power of two. Each round doubles every row's length:
    entries m+1 .. 2m are entries 1 .. m plus entry m, and the round's
    additions over all rows share one inversion.
    """
    rows = [[base] for base in bases]
    m = 1
    while m < count:
        sums = _add_affine([(p, row[m - 1]) for row in rows for p in row])
        for i, row in enumerate(rows):
            row.extend(sums[i * m : (i + 1) * m])
        m *= 2
    return rows


def scalar_mult(k: int, point: Optional[Point]) -> Optional[Point]:
    """k * point for an arbitrary affine point, in 4-bit windows."""
    k %= N
    if k == 0 or point is None:
        return None
    multiples = _multiples([point], 16)[0]
    acc = _JINF
    for byte in k.to_bytes(32, "big"):
        for digit in (byte >> 4, byte & 15):
            acc = _jac_double(_jac_double(_jac_double(_jac_double(acc))))
            if digit:
                acc = _jac_add_mixed(acc, multiples[digit - 1])
    return _jac_to_affine_all([acc])[0]


class FixedBase:
    """Precomputed multiples of one point, for multiplication without doublings.

    ``k * point`` is summed from one table entry per signed ``window``-bit
    digit of each half of ``split_scalar(k)``, the k2 half's sum mapped by
    phi. Row i holds ``j * 2^(window*i) * point`` for
    j = 1 .. 2^(window-1); index 0 is unused. Entries are affine.
    """

    __slots__ = ("window", "rows")

    def __init__(self, point: Point, window: int):
        self.window = window
        # Row bases 2^(window*i) * point: one doubling chain in Jacobian,
        # then one shared inversion to make them affine.
        acc = (point[0], point[1], 1)
        bases = [acc]
        for _ in range(HALF_BITS // window):
            for _ in range(window):
                acc = _jac_double(acc)
            bases.append(acc)
        rows = _multiples(_jac_to_affine_all(bases), 1 << (window - 1))
        self.rows = [[None] + row for row in rows]


class SumTable:
    """The entries of a FixedBase-style table for X_1 + ... + X_q, summed
    from the FixedBase tables of the points X_i, all of one window, one
    slot at a time.

    Slot (i, j) is the sum of the keys' slots (i, j), or None until a
    check first needs it.
    """

    __slots__ = ("window", "rows", "keys")

    def __init__(self, keys: Tuple[FixedBase, ...]):
        self.window = keys[0].window
        self.keys = keys
        self.rows = [[None] * len(row) for row in keys[0].rows]


def _entries(sums) -> List[List[Point]]:
    """For each sum of k * base over (k, table) terms, two groups of
    signed-digit table entries: one entry per nonzero window digit of each
    half of k's split, the k1 halves' entries in the first group and the k2
    halves' in the second, whose sum phi maps (see ``_jac_sums``). The
    SumTable slots the digits of all the sums need and nobody has summed
    yet are summed first, all together, each once for all the entries it
    serves."""
    groups = []
    unsummed = {}  # (table, row, slot) -> [(entries, position in them, negated)]
    for terms in sums:
        halves = ([], [])
        for k, table in terms:
            w = table.window
            full = 1 << w
            half = full >> 1
            for m, entries in zip(split_scalar(k % N), halves):
                flip = m < 0
                if flip:
                    m = -m
                for i, row in enumerate(table.rows):
                    if not m:
                        break
                    digit = m & (full - 1)
                    m >>= w
                    if digit > half:  # the signed digit digit - 2^w; carry into m
                        m += 1
                        j, negated = full - digit, not flip
                    elif digit:
                        j, negated = digit, flip
                    else:
                        continue
                    entry = row[j]
                    if entry is None:
                        unsummed.setdefault((table, i, j), []).append(
                            (entries, len(entries), negated)
                        )
                    elif negated:
                        entry = (entry[0], P - entry[1])
                    entries.append(entry)
        groups.extend(halves)
    if unsummed:
        # A slot whose keys sum to infinity stays unsummed and leaves entries.
        filled = affine_sums(
            [key.rows[i][j] for key in table.keys] for table, i, j in unsummed
        )
        for ((table, i, j), uses), entry in zip(unsummed.items(), filled):
            if entry is None:
                continue
            table.rows[i][j] = entry
            for entries, pos, negated in uses:
                entries[pos] = (entry[0], P - entry[1]) if negated else entry
        if None in filled:
            groups = [[entry for entry in group if entry is not None] for group in groups]
    return groups


# A level of pairwise affine additions costs one field inversion, about
# 19 us with plain ints (2-core x86_64 VM, Python 3.11), and saves about
# 1.5 us per pair against Jacobian mixed additions (about 4 us a pair against
# 5.5 us an addition), so it pays only from some ten to a dozen pairs on;
# grants and share checks timed with 6, 14 or 20 pairs ran no faster than
# with ten. The pairs of all the sums in one batch count together.
_MIN_AFFINE_PAIRS = 10


def _jac_sums(groups: List[List[Point]]) -> list:
    """The Jacobian sum of each pair of groups of affine points, the first
    group plus phi of the second: all the groups halved together, one
    level of affine pairs at a time, while the level holds at least
    _MIN_AFFINE_PAIRS pairs, then each pair's points added one at a time
    in Jacobian coordinates, the second group's first, so that phi maps
    their partial sum once: phi(X, Y, Z) = (BETA * X, Y, Z)."""
    while sum(len(group) // 2 for group in groups) >= _MIN_AFFINE_PAIRS:
        groups = _halve(groups)
    sums = []
    for points, lam_points in zip(groups[0::2], groups[1::2]):
        acc = _JINF
        for point in lam_points:
            acc = _jac_add_mixed(acc, point)
        acc = (acc[0] * BETA % P, acc[1], acc[2])
        for point in points:
            acc = _jac_add_mixed(acc, point)
        sums.append(acc)
    return sums


BASE = FixedBase(G, BASE_WINDOW)


def scalar_mult_base(k: int) -> Optional[Point]:
    """k * G via the generator's fixed-base table."""
    return fixed_sums([[(k, BASE)]])[0]


def fixed_sums(sums) -> List[Optional[Point]]:
    """For each list of (k, FixedBase or SumTable) terms, the affine sum of
    k * base over it; all the sums share their inversions."""
    return _jac_to_affine_all(_jac_sums(_entries(sums)))


def sums_named(claims) -> List[bool]:
    """For each (x, y_odd, terms) claim, whether the sum of k * base over
    its (k, FixedBase or SumTable) terms is the point with x coordinate x
    and y parity y_odd.

    x is compared in Jacobian coordinates, X == x * Z^2, so a sum that
    misses it costs no inversion; the sums that match share one for their
    parities, and all the sums share their levels of affine pairs.
    """
    claims = list(claims)
    live = [i for i, (x, _, _) in enumerate(claims) if 0 <= x < P]
    matches = []  # (claim index, Y, Z^3) of each sum whose x matches
    for i, (X, Y, Z) in zip(live, _jac_sums(_entries([claims[i][2] for i in live]))):
        ZZ = Z * Z % P
        if Z and X == claims[i][0] * ZZ % P:
            matches.append((i, Y, ZZ * Z % P))
    named = [False] * len(claims)
    for (i, Y, _), inv in zip(matches, batch_invert([z for _, _, z in matches])):
        named[i] = bool(Y * inv % P & 1) == claims[i][1]
    return named


def lift_x(x: int, y_odd: bool) -> Point:
    """Recover the curve point with the given x and y parity."""
    if not 0 <= x < P:
        raise ValueError("x out of range")
    y_sq = (x * x * x + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)  # a root when one exists, as P = 3 mod 4
    if y * y % P != y_sq:
        raise ValueError("x is not on the curve")
    if bool(y & 1) != y_odd:
        y = P - y
    return (x, y)
