"""Group arithmetic, checked against a naively written affine oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mokka import curve, wire

from oracle import is_on_curve, point_neg


def naive_mult(k, point):
    """Independent double-and-add in plain affine coordinates."""
    k %= curve.N
    result = None
    addend = point
    while k:
        if k & 1:
            result = curve.point_add(result, addend)
        addend = curve.point_add(addend, addend)
        k >>= 1
    return result


@pytest.mark.parametrize("k", [1, 2, 3, 7, 0xDEADBEEF, curve.N - 1])
def test_scalar_mult_matches_naive(k):
    expected = naive_mult(k, curve.G)
    assert curve.scalar_mult(k, curve.G) == expected
    assert curve.scalar_mult_base(k) == expected


def test_zero_and_order_multiples_are_infinity():
    assert curve.scalar_mult(0, curve.G) is None
    assert curve.scalar_mult(curve.N, curve.G) is None
    assert curve.scalar_mult_base(0) is None


def test_add_inverse_is_infinity():
    assert curve.point_add(curve.G, point_neg(curve.G)) is None


KEY = curve.scalar_mult_base(0xC0FFEE)  # a keyring-style point other than G


def key_table(point):
    """A key's fixed-base table, as a keyring builds it."""
    return curve.FixedBase(point, curve.KEY_WINDOW)


KEY_TABLE = key_table(KEY)


def from_halves(k1, k2):
    """The scalar k1 + k2 * LAMBDA (mod N)."""
    return (k1 + k2 * curve.LAMBDA) % curve.N


# The split's rounding leaves (k1, k2) = e1 * (A1, -B1) + e2 * (A2, B2)
# with |e1|, |e2| <= 1/2; its corners, e1, e2 = +-(1/2 - 2^-64), hold the
# largest halves it returns.
_E = Fraction(1, 2) - Fraction(1, 2**64)
BOUND_EXTREMES = [
    (round(e1 * curve._A1 + e2 * curve._A2), round(-e1 * curve._B1 + e2 * curve._B2))
    for e1 in (_E, -_E)
    for e2 in (_E, -_E)
]


def boundary_halves(*windows):
    """Pairs of split halves at signed-digit carry boundaries of the
    windows, and at the split's bound: each half 0, +-2^(w-1), +-(2^w - 1)
    or +-(2^(w*r) - 1), whose carry runs into the last of a table's
    r + 1 rows, alone, as the other half, or opposite its negation."""
    halves = {0}
    for w in windows:
        r = curve.HALF_BITS // w
        for h in (2 ** (w - 1), 2**w - 1, 2 ** (w * r) - 1):
            halves |= {h, -h}
    pairs = {(h, 0) for h in halves} | {(0, h) for h in halves} | {(h, -h) for h in halves}
    return sorted(pairs | set(BOUND_EXTREMES))


def split_boundaries(*windows):
    """The scalars of boundary_halves, with LAMBDA, N - LAMBDA and N - 1,
    applied as examples."""
    scalars = {from_halves(*pair) for pair in boundary_halves(*windows)}
    scalars |= {curve.LAMBDA, curve.N - curve.LAMBDA, curve.N - 1}

    def apply(test):
        for k in sorted(scalars):
            test = example(k)(test)
        return test

    return apply


def test_boundary_scalars_split_into_their_halves():
    # Otherwise the examples built from them would miss the boundaries.
    for k1, k2 in boundary_halves(curve.BASE_WINDOW, curve.KEY_WINDOW):
        assert curve.split_scalar(from_halves(k1, k2)) == (k1, k2)
    # The extremes reach the bound's top bit, which the last row covers.
    top = max(abs(h) for pair in BOUND_EXTREMES for h in pair)
    assert top.bit_length() == curve.HALF_BITS


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=curve.N - 1))
@split_boundaries(curve.BASE_WINDOW, curve.KEY_WINDOW)
def test_split_halves_sum_to_k_within_the_bound(k):
    k1, k2 = curve.split_scalar(k)
    assert (k1 + k2 * curve.LAMBDA - k) % curve.N == 0
    assert abs(k1) <= (curve._A1 + curve._A2) // 2 < 2**curve.HALF_BITS
    assert abs(k2) <= (curve._B1 + curve._B2) // 2 < 2**curve.HALF_BITS


def test_beta_maps_a_point_to_its_lambda_multiple():
    for point in (curve.G, KEY):
        x, y = point
        assert naive_mult(curve.LAMBDA, point) == (curve.BETA * x % curve.P, y)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=curve.N - 1))
@split_boundaries(curve.BASE_WINDOW, curve.KEY_WINDOW)
def test_fast_paths_agree_with_each_other(k):
    expected = naive_mult(k, curve.G)
    assert curve.scalar_mult_base(k) == expected
    assert curve.scalar_mult(k, curve.G) == expected
    [by_table] = curve.fixed_sums([[(k, KEY_TABLE)]])
    assert by_table == curve.scalar_mult(k, KEY)
    # scalar_mult shares _multiples and _add_affine with the key table, so
    # also check the table against the independent point_add oracle.
    assert by_table == naive_mult(k, KEY)


def test_table_build_costs(monkeypatch):
    # Cold costs, which warm runs never see: the affine pairs and doublings
    # spent building the generator's table (at import) and a key's (on its
    # first use), and the entries each stores. Window 10 gives 13 rows of
    # 2^9 entries, each row 2^9 - 1 pairs; window 7 gives 19 rows of 2^6.
    pairs, doublings = [], []
    add_affine, jac_double = curve._add_affine, curve._jac_double
    monkeypatch.setattr(
        curve, "_add_affine", lambda p: pairs.append(len(p)) or add_affine(p)
    )
    monkeypatch.setattr(
        curve, "_jac_double", lambda pt: doublings.append(1) or jac_double(pt)
    )
    costs = []
    for point, window in ((curve.G, curve.BASE_WINDOW), (KEY, curve.KEY_WINDOW)):
        pairs.clear(), doublings.clear()
        table = curve.FixedBase(point, window)
        entries = sum(entry is not None for row in table.rows for entry in row)
        costs.append((len(table.rows), entries, sum(pairs), len(doublings)))
    assert costs == [(13, 6_656, 6_643, 120), (19, 1_216, 1_197, 126)]


def fold(points):
    """The sum of affine points by the point_add oracle, one at a time."""
    total = None
    for point in points:
        total = curve.point_add(total, point)
    return total


def names(point, terms):
    """sums_named for point's own (x, parity), and for the other parity."""
    x, y = point
    return tuple(curve.sums_named([(x, bool(y & 1), terms), (x, not y & 1, terms)]))


def test_sum_equals_doubling_and_cancellation():
    g_table = key_table(curve.G)
    neg_g_table = key_table(point_neg(curve.G))
    # Second entry equals the running sum: the doubling case, in the
    # Jacobian finish (2 entries) and in the affine levels (24 entries).
    for copies in (1, 12):
        terms = [(1, curve.BASE), (1, g_table)] * copies
        total = curve.scalar_mult(2 * copies, curve.G)
        assert curve.fixed_sums([terms])[0] == total
        assert names(total, terms) == (True, False)
    # Each entry next to its negation: the sum is infinity, which no
    # (x, parity) names.
    for copies in (1, 12):
        terms = [(1, curve.BASE), (1, neg_g_table)] * copies
        assert curve.fixed_sums([terms])[0] is None
        assert names(curve.G, terms) == (False, False)
    assert curve.fixed_sums([[]])[0] is None


def test_affine_sums_match_the_fold(monkeypatch):
    pts = [curve.scalar_mult_base(k) for k in range(1, 41)]
    neg = point_neg
    groups = [
        pts[:32],
        pts[:25],  # odd: the last point carries over each level
        [pts[0]] * 40,  # doublings at five of its six levels
        [pts[1]] * 23 + pts[2:5],
        pts[:10] + [pts[30], neg(pts[30])] + pts[10:22],  # one pair cancels
        # Each quad's two pair sums cancel at the second level, so the
        # sum reaches infinity mid-tree and goes on with the last three.
        [
            q for i in range(10)
            for q in (pts[i], pts[i + 10], neg(pts[i]), neg(pts[i + 10]))
        ] + pts[35:38],
        [p for i in range(13) for p in (pts[i], neg(pts[i]))],  # ends at infinity
        pts[:12] + [neg(p) for p in pts[:12]],  # ends at infinity, mid-tree
        [pts[7]],
        [],
    ]
    levels = []
    add_affine = curve._add_affine
    monkeypatch.setattr(
        curve, "_add_affine",
        lambda pairs: levels.append(len(pairs)) or add_affine(pairs),
    )
    assert curve.affine_sums(groups) == [fold(group) for group in groups]
    # The groups are halved together, one inversion per level, until the
    # longest, of 40 points, holds one: 40, 20, 10, 5, 3, 2, 1.
    assert len(levels) == 6


KEY2 = curve.scalar_mult_base(0xBEEF)
KEY2_TABLE = key_table(KEY2)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=curve.N - 1))
@split_boundaries(curve.BASE_WINDOW, curve.KEY_WINDOW)
def test_fixed_sums_and_sums_named_match_the_fold(k):
    # The shape of a Schnorr check over two signers, s*G - e*X_1 - e*X_2,
    # with the halves of each table's scalar at signed-digit carry boundaries.
    terms = [
        (k, curve.BASE),
        (k, KEY_TABLE),
        (curve.N - k, KEY2_TABLE),
    ]
    total = fold([
        curve.scalar_mult(k, curve.G),
        curve.scalar_mult(k, KEY),
        curve.scalar_mult(curve.N - k, KEY2),
    ])
    assert curve.fixed_sums([terms])[0] == total
    if total is not None:
        assert names(total, terms) == (True, False)
    # The same terms negated: the sum ends at infinity.
    cancelled = terms + [((curve.N - m) % curve.N, table) for m, table in terms]
    assert curve.fixed_sums([cancelled])[0] is None
    assert names(curve.G, cancelled) == (False, False)


def test_batched_sums_match_the_sums_one_at_a_time(monkeypatch):
    G, NEG_G = curve.G, point_neg(curve.G)
    g, neg_g, base = (G, key_table(G)), (NEG_G, key_table(NEG_G)), (G, curve.BASE)
    key, key2 = (KEY, KEY_TABLE), (KEY2, KEY2_TABLE)
    # Each sum as (k, (point, its table)) terms.
    spelled = [
        [],  # no entries: infinity
        [(1, base)],  # one entry, carried over every affine level
        [(1, base), (1, neg_g)],  # cancels (summed alone, in the Jacobian finish)
        [(1, base), (1, neg_g)] * 12,  # cancels in the affine levels
        [(1, base), (1, g)] * 12,  # doubling pairs
        # Digits above half take negated entries; the groups differ in length.
        [(curve.N - 1, base), (curve.N - 2**100, key)],
        [(0xDEADBEEF, key), (2**5 + 1, key2)],
        [(curve.N - 2**100, key2)],
        # Halves (0, 1) and (0, -1): entries of the k2 group, one negated.
        [(curve.LAMBDA, key), (curve.N - curve.LAMBDA, key2), (curve.LAMBDA, base)],
        # The k2 group cancels to infinity before phi maps it.
        [(curve.LAMBDA, key), (curve.N - curve.LAMBDA, key), (1, base)],
    ]
    sums = [[(k, table) for k, (_, table) in terms] for terms in spelled]
    totals = [fold(naive_mult(k, point) for k, (point, _) in terms) for terms in spelled]
    assert totals[0] is totals[2] is totals[3] is None
    inversions, levels = [], []
    batch_invert, add_affine = curve.batch_invert, curve._add_affine
    monkeypatch.setattr(
        curve, "batch_invert",
        lambda values, modulus=curve.P: inversions.append(len(values))
        or batch_invert(values, modulus),
    )
    monkeypatch.setattr(
        curve, "_add_affine",
        lambda pairs: levels.append(len(pairs)) or add_affine(pairs),
    )
    assert [curve.fixed_sums([terms])[0] for terms in sums] == totals
    alone = len(inversions)
    inversions.clear(), levels.clear()
    assert curve.fixed_sums(sums) == totals
    # One inversion per level of affine pairs, each level of at least
    # _MIN_AFFINE_PAIRS pairs over all the sums, and one to make all affine.
    assert levels and min(levels) >= curve._MIN_AFFINE_PAIRS
    assert inversions == levels + [sum(total is not None for total in totals)]
    assert len(inversions) < alone

    claims, named, x_matches = [], [], 0
    for terms, total in zip(sums, totals):
        x, y = total or G
        for claim_x, y_odd in (
            (x, bool(y & 1)),  # the sum's own point, if it is not infinity
            (x, not y & 1),  # the wrong parity
            ((x + 1) % curve.P, bool(y & 1)),  # the wrong x
            (x + curve.P, bool(y & 1)),  # x out of range, the same x mod P
        ):
            claims.append((claim_x, y_odd, terms))
            named.append(total is not None and (claim_x, y_odd) == (x, bool(y & 1)))
        x_matches += 2 * (total is not None)
    assert [curve.sums_named([claim])[0] for claim in claims] == named
    inversions.clear()
    assert curve.sums_named(claims) == named
    # Only the sums whose x matches pay toward the parities' one inversion.
    assert inversions[-1] == x_matches


KEYS = (KEY, KEY2) + tuple(
    curve.scalar_mult_base(k) for k in (0xFACE, 0xF00D, 0xD00D)
)
KEY_TABLES = {KEY: KEY_TABLE, KEY2: KEY2_TABLE} | {
    point: key_table(point) for point in KEYS[2:] + (point_neg(KEY),)
}


def sum_table(points):
    """The SumTable of points, over each point's key table."""
    return curve.SumTable(tuple(KEY_TABLES[point] for point in points))


def filled(table):
    return sum(slot is not None for row in table.rows for slot in row)


@settings(max_examples=3, deadline=None)
@given(st.integers(min_value=1, max_value=curve.N - 1))
@split_boundaries(curve.KEY_WINDOW)
@pytest.mark.parametrize("keys", [
    KEYS[:2], KEYS[:3], KEYS,
    (KEY, point_neg(KEY), KEY2),  # the fill's first pair cancels
], ids=["2-keys", "3-keys", "5-keys", "X,-X,Y"])
def test_sum_table_matches_the_fold(keys, k):
    # The boundary scalars' halves hold digits above half (2^6 + 1 and
    # 2^7 - 1), which take negated slots, as does a negative half; the
    # k2 half reads its slots through phi.
    total = fold([naive_mult(k, key) for key in keys])
    if keys[1] == point_neg(keys[0]):
        assert total == naive_mult(k, keys[2])
    # Each check runs first on empty slots: sums_named on one table,
    # fixed_sums on another.
    by_names, by_sum = sum_table(keys), sum_table(keys)
    if total is not None:
        assert names(total, [(k, by_names)]) == (True, False)
    assert curve.fixed_sums([[(k, by_sum)]])[0] == total
    # The slots the digits need are now filled, the same in both tables;
    # the checks again read them and fill none.
    assert by_names.rows == by_sum.rows
    rows = [list(row) for row in by_sum.rows]
    assert (filled(by_sum) > 0) == (k % curve.N > 0)
    for table in (by_names, by_sum):
        assert curve.fixed_sums([[(k, table)]])[0] == total
        if total is not None:
            assert names(total, [(k, table)]) == (True, False)
        assert table.rows == rows


def test_a_slot_both_halves_need_is_summed_once(monkeypatch):
    # With k1 = k2 both halves read the same slots, the k2 half through phi.
    table = sum_table(KEYS[:2])
    k = from_halves(0xDEADBEEF, 0xDEADBEEF)
    fills = []
    affine_sums = curve.affine_sums
    monkeypatch.setattr(
        curve, "affine_sums",
        lambda groups: affine_sums(fills.append(list(groups)) or fills[-1]),
    )
    [total] = curve.fixed_sums([[(k, table)]])
    assert total == fold(naive_mult(k, key) for key in KEYS[:2])
    # 0xDEADBEEF has five nonzero signed 7-bit digits: ten entries, five slots.
    assert [len(groups) for groups in fills] == [filled(table)] == [5]


def test_sum_tables_of_two_sizes_fill_together():
    # The two tables' slots are summed in the same levels, the smaller
    # table's groups done a level before the larger's.
    small, large = sum_table(KEYS[:2]), sum_table(KEYS[2:])
    for k in (2**5 + 1, 0xDEADBEEF, curve.N - 1):
        total = fold([naive_mult(k, key) for key in KEYS[:2]] + [
            naive_mult(curve.N - k, key) for key in KEYS[2:]
        ])
        assert curve.fixed_sums([[(k, small), (curve.N - k, large)]])[0] == total


def test_sum_table_of_keys_that_cancel_stays_unsummed():
    table = sum_table((KEY, point_neg(KEY)))
    for k in (1, 2**5 + 1, curve.N - 1):
        assert curve.fixed_sums([[(k, table)]]) == [None]
        with_base = [(k, curve.BASE), (k, table)]
        assert curve.fixed_sums([with_base]) == [naive_mult(k, curve.G)]
    assert filled(table) == 0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=curve.N - 1),
    st.integers(min_value=1, max_value=curve.N - 1),
)
def test_distributivity(a, b):
    lhs = curve.scalar_mult_base((a + b) % curve.N)
    rhs = curve.point_add(curve.scalar_mult_base(a), curve.scalar_mult_base(b))
    assert lhs == rhs


def test_curve_keeps_no_cache():
    # Only the generator's table lives here; a key's belongs to its holder.
    cached = [name for name, value in vars(curve).items() if hasattr(value, "cache_info")]
    assert cached == []


def test_results_are_on_curve():
    rng = random.Random(7)
    for _ in range(20):
        point = curve.scalar_mult_base(rng.randrange(1, curve.N))
        assert is_on_curve(point)


def test_point_codec_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        point = curve.scalar_mult_base(rng.randrange(1, curve.N))
        data = wire.encode_point(point)
        assert len(data) == 33
        assert wire.decode_point(data) == point


@pytest.mark.parametrize("fields", [
    (wire.SCHEME_SCHNORR, 1, 0, 0),
    (wire.SCHEME_SSS, wire.MAX_TERM, 2**64 - 1, 2**16 - 1),
])
def test_vote_message_round_trip(fields):
    data = wire.vote_message(*fields)
    assert len(data) == wire.VOTE_MESSAGE_LEN
    assert wire.decode_vote_message(data) == fields
    for wrong in (data[:-1], data + b"\x00"):
        with pytest.raises(wire.MalformedError):
            wire.decode_vote_message(wrong)


def test_decode_point_rejects_garbage():
    with pytest.raises(wire.MalformedError):
        wire.decode_point(b"\x04" + b"\x00" * 32)
    with pytest.raises(wire.MalformedError):
        wire.decode_point(b"\x02" + b"\x00" * 31)
    # x = 5 has no square root times... check a known non-residue x
    with pytest.raises(wire.MalformedError):
        wire.decode_point(b"\x02" + (5).to_bytes(32, "big"))
