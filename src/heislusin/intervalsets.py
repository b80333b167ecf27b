"""Exact algebra of finite unions of intervals with rational endpoints.

Endpoint open/closed flags are tracked exactly: measure does not care,
but membership does (x is in s iff s.clip(x, x) is not empty), and the
interval families used by the counterexample construction mix open and
closed pieces.

Every flag rule is settled by one encoding, which turns each endpoint
into a comparable key (x, t). A point x sits at (x, 1); a closed start
is (x, 0) and an open start (x, 2); a closed stop is (x, 2) and an open
stop (x, 0). An interval is then the half-open key range [start, stop):
it is empty when start >= stop, holds x when start <= (x, 1) < stop,
meets another in (max of the starts, min of the stops), and merges with
a sorted neighbour whose start is at or before its stop. A set is its
normalized ranges as one strictly increasing key list, start, stop,
start, stop, ..., and its algebra compares keys and nothing else.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


def _q(x) -> Fraction:
    """Coerce to Fraction; the one rational-coercion helper of the package."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _end(x):  # a key's end: an int as it is, so that int keys stay ints
    return x if isinstance(x, int) else _q(x)


def _cleared(values) -> tuple:
    """(nums, D) with values[i] = nums[i] / D, D the lcm of the
    denominators of the rationals `values`: the one place where exact
    values enter an integer kernel."""
    values = list(values)
    # star-args from a list, not a generator: CPython grows a tuple built
    # from a generator by resizing, which bypasses its tuple free lists on
    # the way in but not on the way out, so they fill and hold memory
    D = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (D // v.denominator) for v in values], D


# largest decimal exponent of a rational read from outside the package:
# Fraction("1e10000000") would build a ten-million-digit power of ten, and
# 4300 is Python's default limit on the digits of an integer string
MAX_EXPONENT = 4300


def parse_rational(s) -> Fraction:
    """Fraction(s) for a flag, CSV entry or JSON value; ValueError on a
    bool, a float that is not finite (JSON NaN, Infinity), or a decimal
    exponent above MAX_EXPONENT in magnitude."""
    if isinstance(s, bool):
        raise ValueError("%r is not a rational" % s)
    if isinstance(s, float) and not math.isfinite(s):
        raise ValueError("%r is not a finite number" % s)
    if isinstance(s, str) and ("e" in s or "E" in s):
        try:
            exponent = int(s.lower().rpartition("e")[2])
        except ValueError:
            exponent = 0  # not a decimal exponent; Fraction decides
        if abs(exponent) > MAX_EXPONENT:
            raise ValueError("decimal exponent of %r is above %d"
                             % (s, MAX_EXPONENT))
    return Fraction(s)


def rational_to_str(x, d=1) -> str:
    """The text "p/q" of x / d in lowest terms, for a rational x and an
    int d > 0: an int pair pays one gcd and builds no Fraction."""
    if not isinstance(x, int):
        x = _q(x)
        if d == 1:
            return "%d/%d" % (x.numerator, x.denominator)
        x, d = x.numerator, x.denominator * d
    g = math.gcd(x, d)
    return "%d/%d" % (x // g, d // g)


def interval_json_obj(lo, hi, lo_closed=True, hi_closed=True, d=1) -> dict:
    """The JSON object of the interval from lo / d to hi / d, for
    rationals lo and hi and an int d > 0: the one spelling of its layout."""
    return {"lo": rational_to_str(lo, d), "hi": rational_to_str(hi, d),
            "lo_closed": lo_closed, "hi_closed": hi_closed}


def _pth_root(power: Fraction, p: int) -> float:
    """power^(1/p) as a float, also when power is past the float range
    on either side; inf only when the root itself is."""
    try:
        value = float(power)
    except OverflowError:
        value = math.inf
    if power == 0 or sys.float_info.min <= value < math.inf:
        return value ** (1.0 / p)
    # power = r 2^(p k) exactly, with r within a factor 2^(p+1) of 1, so
    # float(r) keeps every bit and the root is r^(1/p) 2^k
    k = (power.numerator.bit_length() - power.denominator.bit_length()) // p
    try:
        return math.ldexp(float(power / Fraction(2) ** (p * k)) ** (1.0 / p), k)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Interval:
    """A single interval with rational endpoints and endpoint flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", _q(self.lo))
        object.__setattr__(self, "hi", _q(self.hi))

    def to_json_obj(self) -> dict:
        return interval_json_obj(self.lo, self.hi, self.lo_closed, self.hi_closed)


def _encode(iv: Interval) -> tuple:
    """The key range [start, stop) of an interval."""
    return (iv.lo, 0 if iv.lo_closed else 2), (iv.hi, 2 if iv.hi_closed else 0)


def _decode(start, stop) -> Interval:
    """The interval whose key range is [start, stop)."""
    return Interval(start[0], stop[0], start[1] == 0, stop[1] == 2)


_BELOW, _ABOVE = (-math.inf, 0), (math.inf, 0)  # below and above every key


def _ranges(keys) -> Iterable[tuple]:  # the (start, stop) pairs of keys
    return zip(keys[::2], keys[1::2])


def _complement(keys: list) -> list:
    """The key list of the complement: the same keys between a sentinel
    below and one above, a sentinel dropped where one is already at that
    end."""
    keys = keys[1:] if keys[:1] == [_BELOW] else [_BELOW] + keys
    return keys[:-1] if keys[-1:] == [_ABOVE] else keys + [_ABOVE]


def _merge(ranges) -> list:
    """The normalized key list of key ranges sorted by start: empty
    ranges drop out, and a range that starts at or before the last stop
    widens it."""
    keys = []
    for start, stop in ranges:
        if not keys or start > keys[-1]:
            if start < stop:
                keys += start, stop
        elif stop > keys[-1]:
            keys[-1] = stop
    return keys


class IntervalSet:
    """Normalized finite disjoint union of intervals, immutable: it is its
    strictly increasing key list `_keys`. Intervals from outside are
    normalized, so IntervalSet(s.intervals + t.intervals) is the union of
    s and t; `open_ranges` and every set operation build keys in order."""

    __slots__ = ("_keys",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._keys = _merge(sorted(map(_encode, intervals)))

    @staticmethod
    def _of(keys: list) -> "IntervalSet":
        """The set whose normalized key list is `keys`, taken as is."""
        s = IntervalSet.__new__(IntervalSet)
        s._keys = keys
        return s

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(_decode(start, stop) for start, stop in _ranges(self._keys))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def closed(a, b) -> "IntervalSet":
        return IntervalSet([Interval(_q(a), _q(b), True, True)])

    @staticmethod
    def unit() -> "IntervalSet":
        return IntervalSet.closed(0, 1)

    @staticmethod
    def open_ranges(pairs) -> "IntervalSet":
        """The union of the open intervals (lo, hi) of sorted, disjoint pairs
        of ints or rationals, lo < hi, taken as given: no sort, merge or cast."""
        return IntervalSet._of([key for lo, hi in pairs
                                for key in ((lo, 2), (hi, 0))])

    # -- basic queries --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self._keys == other._keys

    def __hash__(self):
        return hash(tuple(self._keys))

    def __repr__(self):
        return "IntervalSet{%s}" % " u ".join(
            "%s%s, %s%s" % ("[("[start[1] // 2], start[0], stop[0],
                            ")]"[stop[1] // 2])
            for start, stop in _ranges(self._keys)
        )

    def measure(self) -> Fraction:
        # a normalized set holds no empty range; on int keys the sum is an int
        return _q(sum(stop[0] - start[0] for start, stop in _ranges(self._keys)))

    def intersects(self, other: "IntervalSet") -> bool:
        return bool(self.intersect(other))

    # -- set algebra ----------------------------------------------------

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """self minus the complement of other, O(N + M)."""
        return self.subtract(IntervalSet._of(_complement(other._keys)))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """A cut loop over both key lists, O(N + M).

        Each range [start, stop) of self is cut left to right by the
        ranges of other that meet it: what lies before a cut's start is
        kept, and the rest starts at the cut's stop. Ranges of other that
        stop before a range of self starts are passed for good, since the
        later ranges of self start later still. Only the rest after the
        last cut can be empty.
        """
        A, B = self._keys, other._keys
        out = []
        j = 0
        for i in range(0, len(A), 2):
            start, stop = A[i], A[i + 1]
            while j < len(B) and B[j + 1] <= start:
                j += 2
            k = j
            if k < len(B) and B[k] <= start:  # a cut over the start moves it
                start = B[k + 1]
                k += 2
            while k < len(B) and B[k] < stop:
                out += start, B[k]
                start = B[k + 1]
                k += 2
            if start < stop:
                out += start, stop
        return IntervalSet._of(out)

    def dilate(self, lam) -> "IntervalSet":
        """The open lam-neighbourhood of the set, lam >= 0, unclipped: int
        ends and an int lam give int ends, and `clip` cuts to a window."""
        lam = _end(lam)
        if lam < 0:
            raise ValueError("dilation radius must be nonnegative")
        if not lam:
            return self
        # dilation keeps the ranges sorted by start
        return IntervalSet._of(_merge(((start[0] - lam, 2), (stop[0] + lam, 0))
                                      for start, stop in _ranges(self._keys)))

    def over(self, d: int) -> "IntervalSet":
        """The set with every end divided by the int d > 0: a set of ints
        over d decodes to its Fractions."""
        return IntervalSet._of([(Fraction(x, d), t) for x, t in self._keys])

    def clip(self, a, b) -> "IntervalSet":
        """self ∩ [a, b], O(log N + K) for the K ranges that meet [a, b]:
        they are found by bisection, as in `first_piece` and `last_piece`,
        and the first and the last are cut to the window; int ends stay ints."""
        lo, hi = (_end(a), 0), (_end(b), 2)
        keys = self._keys
        # from the first range that stops after the window starts to the
        # last range that starts before it stops
        out = keys[bisect.bisect(keys, lo) & -2:(bisect.bisect_left(keys, hi) + 1) & -2]
        if out:
            out[0], out[-1] = max(out[0], lo), min(out[-1], hi)
            if out[0] >= out[-1]:  # one range, and it misses the window
                out = []
        return IntervalSet._of(out)

    def first_piece(self, a, b) -> Optional[Interval]:
        """First interval of self.clip(a, b), or None; O(log N) by bisection."""
        lo, hi = (_q(a), 0), (_q(b), 2)
        # the first range that stops after the window starts
        return self._piece(bisect.bisect(self._keys, lo) // 2, lo, hi)

    def last_piece(self, a, b) -> Optional[Interval]:
        """Last interval of self.clip(a, b), or None; O(log N) by bisection."""
        lo, hi = (_q(a), 0), (_q(b), 2)
        # the last range that starts before the window stops
        return self._piece((bisect.bisect_left(self._keys, hi) - 1) // 2, lo, hi)

    def _piece(self, i, lo, hi) -> Optional[Interval]:
        """Range i of self clipped to the key range [lo, hi), or None."""
        if not 0 <= 2 * i < len(self._keys):
            return None
        start, stop = max(self._keys[2 * i], lo), min(self._keys[2 * i + 1], hi)
        return _decode(start, stop) if start < stop else None

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> list:
        return [iv.to_json_obj() for iv in self.intervals]
