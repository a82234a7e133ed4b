"""secp256k1 group arithmetic.

Affine points are (x, y) integer tuples; ``None`` is the point at infinity.
Scalar multiplication runs in Jacobian coordinates. A multiple of a point
with a fixed-base table -- the generator, or a long-lived key through
``key_table`` -- is a sum of one table entry per window and needs no
doublings; any other point goes through ``scalar_mult``, which doubles and
adds in 4-bit windows. None of this is constant-time: the library targets
simulation and desk-scale testing, not hostile production deployments.
"""

import functools
from typing import Iterable, List, Optional, Tuple

try:  # gmpy2 speeds 256-bit modular arithmetic up; plain ints work too
    from gmpy2 import invert as _invert, mpz as _mpz
except ImportError:  # pragma: no cover
    _mpz = int

    def _invert(z, m):
        return pow(z, -1, m)

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
_P = _mpz(P)
_JINF = (_mpz(1), _mpz(1), _mpz(0))


def _jac_double(pt):
    X, Y, Z = pt
    if not Z or not Y:
        return _JINF
    YY = Y * Y % _P
    S = 4 * X * YY % _P
    M = 3 * X * X % _P
    X3 = (M * M - 2 * S) % _P
    return (X3, (M * (S - X3) - 8 * YY * YY) % _P, 2 * Y * Z % _P)


def _jac_add_mixed(pt, aff):
    """Add an affine point to a Jacobian point."""
    X, Y, Z = pt
    x2, y2 = aff
    if not Z:
        return (x2, y2, 1)
    ZZ = Z * Z % _P
    H = x2 * ZZ % _P - X
    R = y2 * ZZ % _P * Z % _P - Y
    if not H:
        return _jac_double(pt) if not R else _JINF
    HH = H * H % _P
    HHH = H * HH % _P
    V = X * HH % _P
    X3 = (R * R - HHH - 2 * V) % _P
    return (X3, (R * (V - X3) - Y * HHH) % _P, Z * H % _P)


def _jac_to_affine(pt) -> Optional[Point]:
    X, Y, Z = pt
    if Z == 0:
        return None
    zinv = _invert(Z, _P)
    zinv2 = zinv * zinv % P
    return (int(X * zinv2 % P), int(Y * zinv2 * zinv % P))


def _jac_to_affine_all(pts) -> List[Optional[Point]]:
    """_jac_to_affine of each point, sharing one field inversion."""
    zinvs = iter(_batch_invert([Z for _, _, Z in pts if Z]))
    out = []
    for X, Y, Z in pts:
        if not Z:
            out.append(None)
            continue
        zinv = next(zinvs)
        zinv2 = zinv * zinv % _P
        out.append((int(X * zinv2 % _P), int(Y * zinv2 * zinv % _P)))
    return out


def affine_sums(groups: Iterable[Iterable[Point]]) -> List[Optional[Point]]:
    """The sum of each group of affine points, all made affine with one
    shared field inversion; None where a sum is the point at infinity."""
    sums = []
    for group in groups:
        acc = _JINF
        for point in group:
            acc = _jac_add_mixed(acc, point)
        sums.append(acc)
    return _jac_to_affine_all(sums)


def _batch_invert(values):
    """Inverses of nonzero field elements, sharing one field inversion."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % _P
    inv = _invert(acc, _P)
    out = [None] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % _P
        inv = inv * values[i] % _P
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
        dens = []
        for row in rows:
            xm, ym = row[m - 1]
            dens.extend((xm - x) % _P for x, _ in row[: m - 1])
            dens.append(2 * ym % _P)
        invs = iter(_batch_invert(dens))
        for row in rows:
            xm, ym = row[m - 1]
            for x, y in row[:m]:
                if x == xm:  # entry m plus itself
                    lam = 3 * x * x * next(invs) % _P
                else:
                    lam = (ym - y) * next(invs) % _P
                x3 = (lam * lam - x - xm) % _P
                row.append((x3, (lam * (x - x3) - y) % _P))
        m *= 2
    return rows


def scalar_mult(k: int, point: Optional[Point]) -> Optional[Point]:
    """k * point for an arbitrary affine point, in 4-bit windows."""
    k %= N
    if k == 0 or point is None:
        return None
    multiples = _multiples([(_mpz(point[0]), _mpz(point[1]))], 16)[0]
    acc = _JINF
    for byte in k.to_bytes(32, "big"):
        for digit in (byte >> 4, byte & 15):
            acc = _jac_double(_jac_double(_jac_double(_jac_double(acc))))
            if digit:
                acc = _jac_add_mixed(acc, multiples[digit - 1])
    return _jac_to_affine(acc)


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
        acc = (_mpz(point[0]), _mpz(point[1]), _mpz(1))
        bases = [acc]
        for _ in range(256 // window):
            for _ in range(window):
                acc = _jac_double(acc)
            bases.append(acc)
        affine = [(_mpz(x), _mpz(y)) for x, y in _jac_to_affine_all(bases)]
        self.rows = [[None] + row for row in _multiples(affine, 1 << (window - 1))]

    def mult(self, k: int) -> Optional[Point]:
        """k * point."""
        return fixed_sum(((k, self),))


def _jac_sum(terms):
    """Jacobian sum of k * point over (k, FixedBase) terms."""
    acc = _JINF
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
                acc = _jac_add_mixed(acc, (x, _P - y))
            elif digit:
                acc = _jac_add_mixed(acc, row[digit])
    return acc


def _jac_equals(pt, point: Optional[Point]) -> bool:
    X, Y, Z = pt
    if not Z or point is None:
        return not Z and point is None
    ZZ = Z * Z % _P
    return X == point[0] * ZZ % _P and Y == point[1] * ZZ * Z % _P


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
    return _jac_to_affine(_jac_sum(terms))


def sum_equals(point: Optional[Point], terms) -> bool:
    """Whether point is the sum of k * base over (k, FixedBase) terms,
    compared without an inversion."""
    return _jac_equals(_jac_sum(terms), point)


def _sqrt_candidate(a: int) -> int:
    """a^((P+1)/4), the square root of a when a has one (P = 3 mod 4).

    The exponent's bits are runs of 223, 22 and 2 ones; this addition
    chain (libsecp256k1's) needs 253 squarings and 13 multiplications,
    where a plain ``pow`` spends about 50 more multiplications. Each
    ``pow(t, 1 << n, P)`` is n squarings done in C; n stays below 60, past
    which CPython's ``pow`` first builds a window table. ``xn`` is
    a^(2^n - 1).
    """
    x2 = a * a % P * a % P
    x3 = x2 * x2 % P * a % P
    x6 = pow(x3, 1 << 3, P) * x3 % P
    x9 = pow(x6, 1 << 3, P) * x3 % P
    x11 = pow(x9, 1 << 2, P) * x2 % P
    x22 = pow(x11, 1 << 11, P) * x11 % P
    x44 = pow(x22, 1 << 22, P) * x22 % P
    x88 = pow(x44, 1 << 44, P) * x44 % P
    x176 = pow(pow(x88, 1 << 44, P), 1 << 44, P) * x88 % P
    x220 = pow(x176, 1 << 44, P) * x44 % P
    x223 = pow(x220, 1 << 3, P) * x3 % P
    t = pow(x223, 1 << 23, P) * x22 % P
    t = pow(t, 1 << 6, P) * x2 % P
    return pow(t, 1 << 2, P)


def lift_x(x: int, y_odd: bool) -> Point:
    """Recover the curve point with the given x and y parity."""
    if not 0 <= x < P:
        raise ValueError("x out of range")
    y_sq = (x * x * x + 7) % P
    y = _sqrt_candidate(y_sq)
    if y * y % P != y_sq:
        raise ValueError("x is not on the curve")
    if bool(y & 1) != y_odd:
        y = P - y
    return (x, y)
