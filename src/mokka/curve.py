"""secp256k1 group arithmetic over plain Python integers.

Affine points are (x, y) integer tuples; ``None`` is the point at infinity.
A multiple of a point with a fixed-base table -- the generator, or a
long-lived key through ``key_table`` -- and any sum of such multiples is a
sum of one table entry per signed window digit and needs no doublings;
``sum_names`` checks such a sum against a point given as its x coordinate
and y parity. Any other point goes through ``scalar_mult``, which doubles
and adds in 4-bit windows in Jacobian coordinates. Apart from ``point_add``,
the simple reference, every affine addition goes through one batched kernel,
``_add_affine``, whose pairs share one field inversion (Montgomery's trick).
None of this is constant-time: the library targets simulation and
desk-scale testing, not hostile production deployments."""

import functools
from typing import Iterable, List, Optional, Tuple

Point = Tuple[int, int]

# Signed-digit window widths of the fixed-base tables. The generator's
# table (26 rows of 512 entries) is built at import; a key's (43 rows of
# 32, about 0.26 MB) on its first use. An 8-bit key window saves about
# 0.06 ms per key term but costs about 9 ms more per table, so it pays
# only after some 150 uses of a table, more than a one-shot run of any
# bundled scenario makes.
# KEY_TABLE_CACHE bounds how many key tables live, and so their memory to
# about 17 MB: 64 is the most nodes a keyring holds, so the tables of one
# keyring never evict each other.
BASE_WINDOW = 10
KEY_WINDOW = 6
KEY_TABLE_CACHE = 64

# secp256k1 domain parameters (SEC2).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
G: Point = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)


def is_on_curve(point: Optional[Point]) -> bool:
    if point is None:
        return True
    x, y = point
    return (y * y - x * x * x - 7) % P == 0


def point_neg(point: Optional[Point]) -> Optional[Point]:
    if point is None:
        return None
    x, y = point
    return (x, (-y) % P)


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
        lam = (3 * x1 * x1) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
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
    zinvs = iter(_batch_invert([Z for _, _, Z in pts if Z]))
    out = []
    for X, Y, Z in pts:
        if not Z:
            out.append(None)
            continue
        zinv = next(zinvs)
        zinv2 = zinv * zinv % P
        out.append((X * zinv2 % P, Y * zinv2 * zinv % P))
    return out


def affine_sums(groups: Iterable[Iterable[Point]]) -> List[Optional[Point]]:
    """The sum of each group of affine points, all made affine with one
    shared field inversion; None where a sum is the point at infinity."""
    return _jac_to_affine_all([_jac_sum(list(group)) for group in groups])


def _batch_invert(values):
    """Inverses of nonzero field elements, sharing one field inversion."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % P
    inv = pow(acc, -1, P)
    out = [None] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % P
        inv = inv * values[i] % P
    return out


def _add_affine(pairs):
    """The sum of each pair of affine points, or None where the pair
    cancels to infinity; all the pairs share one field inversion."""
    # Equal x: a doubling (2y), or a cancellation whose inverse goes unused.
    dens = [q[0] - p[0] or 2 * p[1] for p, q in pairs]
    out = []
    for ((x1, y1), (x2, y2)), inv in zip(pairs, _batch_invert(dens)):
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
    digit of k. Row i holds ``j * 2^(window*i) * point`` for
    j = 1 .. 2^(window-1); index 0 is unused. Entries are affine.
    """

    __slots__ = ("window", "rows")

    def __init__(self, point: Point, window: int):
        self.window = window
        # Row bases 2^(window*i) * point: one doubling chain in Jacobian,
        # then one shared inversion to make them affine.
        acc = (point[0], point[1], 1)
        bases = [acc]
        for _ in range(256 // window):
            for _ in range(window):
                acc = _jac_double(acc)
            bases.append(acc)
        rows = _multiples(_jac_to_affine_all(bases), 1 << (window - 1))
        self.rows = [[None] + row for row in rows]

    def mult(self, k: int) -> Optional[Point]:
        """k * point."""
        return fixed_sum(((k, self),))


def _entries(terms) -> List[Point]:
    """The signed-digit table entries whose sum is k * base summed over
    (k, FixedBase) terms: one entry per nonzero window digit of each k."""
    entries = []
    for k, table in terms:
        k %= N
        w = table.window
        full = 1 << w
        half = full >> 1
        for row in table.rows:
            if not k:
                break
            digit = k & (full - 1)
            k >>= w
            if digit > half:  # the signed digit digit - 2^w; carry into k
                k += 1
                x, y = row[full - digit]
                entries.append((x, P - y))
            elif digit:
                entries.append(row[digit])
    return entries


def _add_pairs(points: List[Point]) -> List[Point]:
    """Adjacent pairs of affine points added, sharing one field inversion.

    A pair that cancels to infinity is left out, and an odd last point
    carries over, so the list's sum is unchanged.
    """
    sums = _add_affine(list(zip(points[0::2], points[1::2])))
    out = [point for point in sums if point is not None]
    if len(points) % 2:
        out.append(points[-1])
    return out


# A level of pairwise affine additions costs one field inversion, about
# 20 us with plain ints (2-core x86_64 VM, Python 3.11), and saves about
# 2 us per pair against Jacobian mixed additions (about 4 us a pair against
# 6 us an addition), so it pays only from about ten pairs on.
_MIN_AFFINE_PAIRS = 10


def _jac_sum(points: List[Point]):
    """Jacobian sum of affine points: halved level by level in affine pairs
    while a level holds at least _MIN_AFFINE_PAIRS pairs, then added one at
    a time in Jacobian coordinates."""
    while len(points) >= 2 * _MIN_AFFINE_PAIRS:
        points = _add_pairs(points)
    acc = _JINF
    for point in points:
        acc = _jac_add_mixed(acc, point)
    return acc


BASE = FixedBase(G, BASE_WINDOW)


def scalar_mult_base(k: int) -> Optional[Point]:
    """k * G via the generator's fixed-base table."""
    return BASE.mult(k)


@functools.lru_cache(maxsize=KEY_TABLE_CACHE)
def key_table(point: Point) -> FixedBase:
    """The fixed-base table of a long-lived key, built on first use.

    Tables are cached by point, at most KEY_TABLE_CACHE of them. Pass only
    keys the program holds for the life of a cluster, a keyring's node
    keys: a point taken from a message would let its sender fill the cache.
    """
    return FixedBase(point, KEY_WINDOW)


def fixed_sum(terms) -> Optional[Point]:
    """The affine sum of k * base over (k, FixedBase) terms."""
    return _jac_to_affine_all([_jac_sum(_entries(terms))])[0]


def sum_names(x: int, y_odd: bool, terms) -> bool:
    """Whether the sum of k * base over (k, FixedBase) terms is the point
    with x coordinate x and y parity y_odd.

    x is compared in Jacobian coordinates, X == x * Z^2, so a sum that
    misses it costs no inversion; only a match pays one for the parity.
    """
    if not 0 <= x < P:
        return False
    X, Y, Z = _jac_sum(_entries(terms))
    ZZ = Z * Z % P
    if not Z or X != x * ZZ % P:
        return False
    return bool(Y * pow(ZZ * Z, -1, P) % P & 1) == y_odd


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
