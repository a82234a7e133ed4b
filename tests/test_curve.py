"""Group arithmetic, checked against a naively written affine oracle."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from mokka import curve, wire


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
    assert curve.point_add(curve.G, curve.point_neg(curve.G)) is None


KEY = curve.scalar_mult_base(0xC0FFEE)  # a keyring-style point other than G


def window_boundaries(*windows):
    """Scalars at signed-digit carry boundaries, applied as examples."""
    scalars = {0, 1, curve.N - 1, curve.N - 2**100}
    for w in windows:
        scalars |= {2 ** (w - 1), 2 ** (w - 1) + 1, 2**w - 1, 2**w}

    def apply(test):
        for k in sorted(scalars):
            test = example(k)(test)
        return test

    return apply


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=curve.N - 1))
@window_boundaries(curve.BASE_WINDOW, curve.KEY_WINDOW)
def test_fast_paths_agree_with_each_other(k):
    assert curve.scalar_mult_base(k) == curve.scalar_mult(k, curve.G)
    assert curve.key_table(KEY).mult(k) == curve.scalar_mult(k, KEY)
    # scalar_mult shares _multiples and _add_affine with the key table, so
    # also check the table against the independent point_add oracle.
    assert curve.key_table(KEY).mult(k) == naive_mult(k, KEY)


def fold(points):
    """The sum of affine points by the point_add oracle, one at a time."""
    total = None
    for point in points:
        total = curve.point_add(total, point)
    return total


def names(point, terms):
    """sum_names for point's own (x, parity), and for the other parity."""
    x, y = point
    return (
        curve.sum_names(x, bool(y & 1), terms),
        curve.sum_names(x, not y & 1, terms),
    )


def test_sum_equals_doubling_and_cancellation():
    g_table = curve.key_table(curve.G)
    neg_g_table = curve.key_table(curve.point_neg(curve.G))
    # Second entry equals the running sum: the doubling case, in the
    # Jacobian finish (2 entries) and in the affine levels (24 entries).
    for copies in (1, 12):
        terms = [(1, curve.BASE), (1, g_table)] * copies
        total = curve.scalar_mult(2 * copies, curve.G)
        assert curve.fixed_sum(terms) == total
        assert names(total, terms) == (True, False)
    # Each entry next to its negation: the sum is infinity, which no
    # (x, parity) names.
    for copies in (1, 12):
        terms = [(1, curve.BASE), (1, neg_g_table)] * copies
        assert curve.fixed_sum(terms) is None
        assert names(curve.G, terms) == (False, False)
    assert curve.fixed_sum([]) is None


def test_affine_sums_match_the_fold(monkeypatch):
    pts = [curve.scalar_mult_base(k) for k in range(1, 41)]
    neg = curve.point_neg
    groups = [
        pts[:32],
        pts[:25],  # odd: the last point carries over each level
        [pts[0]] * 40,  # doublings at two affine levels
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
    add_pairs = curve._add_pairs
    monkeypatch.setattr(
        curve, "_add_pairs",
        lambda points: levels.append(len(points)) or add_pairs(points),
    )
    assert curve.affine_sums(groups) == [fold(group) for group in groups]
    # An affine level ran in each of the eight groups of 24 or more points,
    # and a second one in the two of 40 or more.
    assert len(levels) == 10


KEY2 = curve.scalar_mult_base(0xBEEF)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=curve.N - 1))
@window_boundaries(curve.BASE_WINDOW, curve.KEY_WINDOW)
def test_fixed_sum_and_sum_names_match_the_fold(k):
    # The shape of a Schnorr check over two signers, s*G - e*X_1 - e*X_2,
    # with each table's scalar at or next to a signed-digit carry boundary.
    terms = [
        (k, curve.BASE),
        (k, curve.key_table(KEY)),
        (curve.N - k, curve.key_table(KEY2)),
    ]
    total = fold([
        curve.scalar_mult(k, curve.G),
        curve.scalar_mult(k, KEY),
        curve.scalar_mult(curve.N - k, KEY2),
    ])
    assert curve.fixed_sum(terms) == total
    if total is not None:
        assert names(total, terms) == (True, False)
    # The same terms negated: the sum ends at infinity.
    cancelled = terms + [((curve.N - m) % curve.N, table) for m, table in terms]
    assert curve.fixed_sum(cancelled) is None
    assert names(curve.G, cancelled) == (False, False)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=curve.N - 1),
    st.integers(min_value=1, max_value=curve.N - 1),
)
def test_distributivity(a, b):
    lhs = curve.scalar_mult_base((a + b) % curve.N)
    rhs = curve.point_add(curve.scalar_mult_base(a), curve.scalar_mult_base(b))
    assert lhs == rhs


def test_results_are_on_curve():
    rng = random.Random(7)
    for _ in range(20):
        point = curve.scalar_mult_base(rng.randrange(1, curve.N))
        assert curve.is_on_curve(point)


def test_point_codec_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        point = curve.scalar_mult_base(rng.randrange(1, curve.N))
        data = wire.encode_point(point)
        assert len(data) == 33
        assert wire.decode_point(data) == point


def test_decode_point_rejects_garbage():
    with pytest.raises(wire.MalformedError):
        wire.decode_point(b"\x04" + b"\x00" * 32)
    with pytest.raises(wire.MalformedError):
        wire.decode_point(b"\x02" + b"\x00" * 31)
    # x = 5 has no square root times... check a known non-residue x
    with pytest.raises(wire.MalformedError):
        wire.decode_point(b"\x02" + (5).to_bytes(32, "big"))
