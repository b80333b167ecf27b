import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislusin.intervalsets import (
    Interval, IntervalSet, interval_json_obj, parse_rational, rational_to_str,
)


def iset(*pairs, lo_closed=True, hi_closed=True):
    return IntervalSet(Interval(a, b, lo_closed, hi_closed) for a, b in pairs)


def open_set(*pairs):
    return iset(*pairs, lo_closed=False, hi_closed=False)


def union(s, t):
    # the normalizing constructor merges the pieces of both sets
    return IntervalSet(s.intervals + t.intervals)


def member(s, x) -> bool:
    # x is in s iff the one-point window [x, x] meets s
    return bool(s.clip(x, x))


def holds(iv, x) -> bool:
    """Pointwise flag logic for one interval, apart from the key encoding."""
    return ((iv.lo < x or (iv.lo == x and iv.lo_closed))
            and (x < iv.hi or (x == iv.hi and iv.hi_closed)))


rationals = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def interval_sets(draw, max_components=4):
    n = draw(st.integers(0, max_components))
    ivs = []
    for _ in range(n):
        a = draw(rationals)
        b = draw(rationals)
        ivs.append(
            Interval(min(a, b), max(a, b), draw(st.booleans()), draw(st.booleans()))
        )
    return IntervalSet(ivs)


# endpoints anywhere in [-1, 2], in either order, so that raw pieces can
# be empty, unsorted, overlapping or outside [0, 1]
raw_intervals = st.lists(
    st.builds(
        Interval,
        st.fractions(min_value=-1, max_value=2, max_denominator=8),
        st.fractions(min_value=-1, max_value=2, max_denominator=8),
        st.booleans(),
        st.booleans(),
    ),
    max_size=6,
)
radii = st.fractions(min_value=0, max_value=F(1, 4), max_denominator=32)
divisors = st.integers(1, 6)


def open_pieces(s):
    """The open interval between the ends of each nondegenerate piece of
    s: sorted, disjoint pairs, the input that `open_ranges` takes."""
    return [(iv.lo, iv.hi) for iv in s.intervals if iv.lo < iv.hi]


def assert_canonical(s):
    """Sorted, no empty piece, and no two neighbours mergeable under the
    flag rule: b merges into the piece a before it when b starts before
    a ends, or at a's end with either of those two ends closed."""
    for iv in s.intervals:
        assert iv.lo < iv.hi or (iv.lo == iv.hi and iv.lo_closed
                                 and iv.hi_closed)
    for a, b in zip(s.intervals, s.intervals[1:]):
        assert not (b.lo < a.hi or (b.lo == a.hi
                                    and (a.hi_closed or b.lo_closed)))


class TestMeasure:
    def test_empty(self):
        assert IntervalSet().measure() == 0

    def test_single_small_interval(self):
        w = F(1, 2**7)
        s = open_set((F(1, 2) - w, F(1, 2) + w))
        assert s.measure() == F(1, 2**6)

    def test_adjacent_halves_merge(self):
        s = iset((0, F(1, 2)), (F(1, 2), 1))
        assert s.measure() == 1
        assert len(s.intervals) == 1

    def test_open_abutting_does_not_merge(self):
        s = open_set((0, F(1, 2)), (F(1, 2), 1))
        assert len(s.intervals) == 2
        assert not member(s, F(1, 2))


class TestAlgebra:
    def test_subtract_empty(self):
        s = iset((0, F(1, 3)), (F(1, 2), 1))
        assert s.subtract(IntervalSet()) == s

    def test_subtract_middle(self):
        s = IntervalSet.unit().subtract(iset((F(1, 4), F(1, 2))))
        assert s.intervals == (
            Interval(0, F(1, 4), True, False),
            Interval(F(1, 2), 1, False, True),
        )

    def test_intersect_flags(self):
        a = IntervalSet.closed(0, F(1, 2))
        b = open_set((F(1, 4), 1))
        got = a.intersect(b).intervals
        assert got == (Interval(F(1, 4), F(1, 2), False, True),)

    @given(interval_sets(), interval_sets())
    @settings(max_examples=200, deadline=None)
    def test_measure_additivity(self, s, t):
        assert s.subtract(t).measure() + s.intersect(t).measure() == s.measure()

    @given(interval_sets(), interval_sets())
    @settings(max_examples=200, deadline=None)
    def test_de_morgan(self, s, t):
        u = IntervalSet.unit()
        s, t = s.clip(0, 1), t.clip(0, 1)
        lhs = u.subtract(union(s, t))
        rhs = u.subtract(s).intersect(u.subtract(t))
        assert lhs == rhs

    def test_subtract_left_neighbour_adds_no_point(self):
        s = open_set((0, 1)).subtract(open_set((-1, 0)))
        assert s == open_set((0, 1))
        assert not member(s, 0)

    def test_subtract_right_neighbour_adds_no_point(self):
        s = open_set((0, 1)).subtract(open_set((1, 2)))
        assert s == open_set((0, 1))
        assert not member(s, 1)

    def test_subtract_one_wide_by_many_small(self):
        holes = iset(*[(F(k, 16), F(2 * k + 1, 32)) for k in range(16)],
                     lo_closed=False)
        s = IntervalSet.unit().subtract(holes)
        assert s.intervals == (Interval(0, 0),) + tuple(
            Interval(F(2 * k + 1, 32), F(k + 1, 16), False, True)
            for k in range(16)
        )

    @given(interval_sets(), interval_sets(), radii, divisors)
    @settings(max_examples=300, deadline=None)
    def test_membership_oracle(self, s, t, lam, k):
        """union by the constructor, subtract, intersect, dilate
        (unclipped and clipped to [0, 1]), open_ranges and over agree with
        pointwise set logic at every endpoint, every endpoint moved by
        +-lam, 0 and 1, and at every midpoint between consecutive such
        points. Outputs are read through clip(x, x), inputs through the
        flags of their intervals."""
        ends = {x for iv in s.intervals + t.intervals for x in (iv.lo, iv.hi)}
        ends = sorted(ends | {x + d for x in ends for d in (lam, -lam)}
                      | {F(0), F(1)})
        points = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        join, diff, meet = union(s, t), s.subtract(t), s.intersect(t)
        near_set, grown = s.dilate(lam), s.dilate(lam).clip(0, 1)
        opened, shrunk = IntervalSet.open_ranges(open_pieces(t)), s.over(k)
        for out in (join, diff, meet, near_set, grown, opened, shrunk):
            # built in order: re-normalizing the output changes nothing
            assert all(a < b for a, b in zip(out._keys, out._keys[1:]))
            again = IntervalSet(out.intervals)
            assert again == out and again.intervals == out.intervals

        def in_s(x):
            return any(holds(iv, x) for iv in s.intervals)

        def in_t(x):
            return any(holds(iv, x) for iv in t.intervals)

        def near(x):
            # the open lam-neighbourhood; lam = 0 leaves the set itself
            if lam == 0:
                return in_s(x)
            return any(max(iv.lo - x, x - iv.hi) < lam for iv in s.intervals)

        for x in points:
            assert member(join, x) == (in_s(x) or in_t(x))
            assert member(diff, x) == (in_s(x) and not in_t(x))
            assert member(meet, x) == (in_s(x) and in_t(x))
            assert member(near_set, x) == near(x)
            assert member(grown, x) == (0 <= x <= 1 and near(x))
            assert member(opened, x) == any(iv.lo < x < iv.hi
                                            for iv in t.intervals)
            # x is in s.over(k) exactly when k x is in s
            assert member(shrunk, x / k) == in_s(x)
            assert member(shrunk, x) == in_s(k * x)

    @given(raw_intervals, raw_intervals, radii,
           st.fractions(min_value=-1, max_value=2, max_denominator=8),
           st.fractions(min_value=-1, max_value=2, max_denominator=8),
           divisors)
    @settings(max_examples=300, deadline=None)
    def test_every_output_is_canonical(self, raw_s, raw_t, lam, a, b, d):
        s, t = IntervalSet(raw_s), IntervalSet(raw_t)
        for out in (s, t, union(s, t), s.intersect(t), s.subtract(t),
                    t.subtract(s), s.dilate(lam), s.clip(a, b),
                    s.dilate(lam).clip(a, b), s.over(d),
                    IntervalSet.open_ranges(open_pieces(s)),
                    IntervalSet(raw_s + raw_t)):
            assert_canonical(out)
            assert all(k < l for k, l in zip(out._keys, out._keys[1:]))
        for piece in (s.first_piece(a, b), s.last_piece(a, b)):
            # an interval is not empty iff it holds its midpoint
            assert piece is None or member(IntervalSet([piece]),
                                           (piece.lo + piece.hi) / 2)

    def test_pieces_beside_a_missing_point(self):
        s = IntervalSet([Interval(0, F(1, 2), True, False),
                         Interval(F(1, 2), 1, False, True)])
        assert s.last_piece(0, F(1, 2)) == Interval(0, F(1, 2), True, False)
        assert s.first_piece(F(1, 2), 1) == Interval(F(1, 2), 1, False, True)
        assert s.first_piece(F(1, 2), F(1, 2)) is None
        assert s.last_piece(F(1, 2), F(1, 2)) is None

    @given(raw_intervals, st.fractions(min_value=-1, max_value=2, max_denominator=8),
           st.fractions(min_value=-1, max_value=2, max_denominator=8))
    @settings(max_examples=500, deadline=None)
    def test_clip_is_the_meet_with_the_window(self, raw, a, b):
        # also for a > b, where the window is empty
        s = IntervalSet(raw)
        assert s.clip(a, b) == s.intersect(IntervalSet.closed(a, b))

    @given(interval_sets(), rationals, rationals)
    @settings(max_examples=300, deadline=None)
    def test_first_and_last_piece_match_clip(self, s, a, b):
        a, b = min(a, b), max(a, b)
        clipped = s.clip(a, b).intervals
        assert s.first_piece(a, b) == (clipped[0] if clipped else None)
        assert s.last_piece(a, b) == (clipped[-1] if clipped else None)

    @given(interval_sets())
    @settings(max_examples=100, deadline=None)
    def test_normalization_idempotent(self, s):
        assert IntervalSet(s.intervals) == s


    @given(interval_sets(), rationals)
    @settings(max_examples=200, deadline=None)
    def test_contains_consistency(self, s, x):
        assert member(s, x) == any(holds(iv, x) for iv in s.intervals)


class TestDilate:
    def test_zero_is_identity_on_open(self):
        s = open_set((F(1, 4), F(1, 2)))
        assert s.dilate(0) == s

    def test_single_interval(self):
        s = iset((F(1, 4), F(1, 2))).dilate(F(1, 8))
        assert s.intervals == (Interval(F(1, 8), F(5, 8), False, False),)

    def test_clips_to_unit(self):
        s = iset((0, F(1, 2))).dilate(F(1, 4)).clip(0, 1)
        assert s.intervals == (Interval(0, F(3, 4), True, False),)
        # unclipped, the neighbourhood reaches below 0
        s = iset((0, F(1, 2))).dilate(F(1, 4))
        assert s.intervals == (Interval(F(-1, 4), F(3, 4), False, False),)

    def test_int_ends_stay_ints(self):
        # dilate and clip keep a set of ints over 8 a set of ints over 8,
        # and over(8) decodes it to what the Fraction algebra gives
        ints = IntervalSet.open_ranges([(1, 3), (7, 8)]).dilate(2).clip(0, 8)
        assert all(type(x) is int for x, _ in ints._keys)
        assert repr(ints) == "IntervalSet{[0, 5) u (5, 8]}"
        fracs = IntervalSet.open_ranges([(F(1, 8), F(3, 8)), (F(7, 8), 1)])
        assert ints.over(8) == fracs.dilate(F(1, 4)).clip(0, 1)
        assert ints.over(8).intervals == (Interval(0, F(5, 8), True, False),
                                          Interval(F(5, 8), 1, False, True))

    @given(interval_sets(), st.fractions(min_value=0, max_value=F(1, 4),
                                         max_denominator=32))
    @settings(max_examples=150, deadline=None)
    def test_growth_bound(self, s, lam):
        grown = s.dilate(lam)
        k = len(s.intervals)
        assert grown.measure() <= s.measure() + 2 * lam * k

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet.unit().dilate(-1)


class TestSerialization:
    def test_round_trip(self):
        s = IntervalSet(
            [Interval(0, F(1, 3), True, False), Interval(F(1, 2), 1, False, True)]
        )
        back = IntervalSet(
            Interval(parse_rational(o["lo"]), parse_rational(o["hi"]),
                     o["lo_closed"], o["hi_closed"])
            for o in s.to_json_obj())
        assert back == s

    def test_huge_exponent_rejected(self):
        # the one parser's exponent bound: no ten-million-digit power
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            parse_rational("1e10000000")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_float_rejected(self, value):
        # JSON NaN and the infinities read alike, each named
        with pytest.raises(ValueError, match="^%s is not a finite number$"
                           % value):
            parse_rational(value)

    def test_rational_strings(self):
        assert rational_to_str(F(1, 3)) == "1/3"
        assert rational_to_str(F(2)) == "2/1"
        obj = IntervalSet.closed(0, F(1, 3)).to_json_obj()
        assert obj == [
            {"lo": "0/1", "hi": "1/3", "lo_closed": True, "hi_closed": True}
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**40, 10**40), st.integers(1, 10**30),
           st.integers(1, 10**6))
    def test_an_int_pair_is_its_fraction(self, n, d, m):
        # an int over d, or a Fraction over m, is one rational in lowest terms
        assert rational_to_str(n, d) == rational_to_str(F(n, d))
        assert rational_to_str(F(n, d), m) == rational_to_str(F(n, d * m))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**20, 10**20), st.integers(-10**20, 10**20),
           st.integers(1, 10**12), st.booleans(), st.booleans())
    def test_interval_json_over_a_denominator(self, a, b, d, lc, hc):
        assert interval_json_obj(a, b, lc, hc, d) == (
            Interval(F(a, d), F(b, d), lc, hc).to_json_obj())

