"""Exact algebra of finite unions of intervals with rational endpoints.

Endpoint open/closed flags are tracked exactly: measure does not care,
but membership tests do, and the interval families used by the
counterexample construction mix open and closed pieces.

Every flag rule is settled by one encoding, which turns each endpoint
into a comparable key (x, t). A point x sits at (x, 1); a closed start
is (x, 0) and an open start (x, 2); a closed stop is (x, 2) and an open
stop (x, 0). An interval is then the half-open key range [start, stop):
it is empty when start >= stop, holds x when start <= (x, 1) < stop,
meets another in (max of the starts, min of the stops), and merges with
a sorted neighbour whose start is at or before its stop. A set keeps
its normalized ranges as one strictly increasing key list, start, stop,
start, stop, ..., and its algebra compares keys and nothing else.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Optional, Sequence


def _q(x) -> Fraction:
    """Coerce to Fraction; the one rational-coercion helper of the package."""
    return x if isinstance(x, Fraction) else Fraction(x)


def rational_to_str(x: Fraction) -> str:
    x = _q(x)
    return "%d/%d" % (x.numerator, x.denominator)


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

    @property
    def empty(self) -> bool:
        start, stop = _encode(self)
        return start >= stop

    def contains(self, x) -> bool:
        start, stop = _encode(self)
        return start <= (_q(x), 1) < stop

    def intersect(self, other: "Interval") -> "Interval":
        (a, b), (c, d) = _encode(self), _encode(other)
        return _decode(max(a, c), min(b, d))

    def to_json_obj(self) -> dict:
        return {
            "lo": rational_to_str(self.lo),
            "hi": rational_to_str(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Interval":
        return Interval(
            Fraction(obj["lo"]),
            Fraction(obj["hi"]),
            bool(obj["lo_closed"]),
            bool(obj["hi_closed"]),
        )


def _encode(iv: Interval) -> tuple:
    """The key range [start, stop) of an interval."""
    return (iv.lo, 0 if iv.lo_closed else 2), (iv.hi, 2 if iv.hi_closed else 0)


def _decode(start, stop) -> Interval:
    """The interval whose key range is [start, stop)."""
    return Interval(start[0], stop[0], start[1] == 0, stop[1] == 2)


_UNIT_START, _UNIT_STOP = (0, 0), (1, 2)  # the key range of [0, 1]


class IntervalSet:
    """Normalized finite disjoint union of intervals, immutable.

    `_keys` lists the key ranges of `intervals` in order, flattened to
    start, stop, start, stop, ...; it is strictly increasing.
    """

    __slots__ = ("intervals", "_keys")

    def __init__(self, intervals: Iterable[Interval] = ()):
        runs = []
        for iv in intervals:
            start, stop = _encode(iv)
            if start < stop:
                runs.append((start, stop, iv))
        runs.sort(key=itemgetter(0))
        keys, kept = [], []  # kept: the input interval while it is unwidened
        for start, stop, iv in runs:
            if keys and start <= keys[-1]:
                if stop > keys[-1]:
                    keys[-1], kept[-1] = stop, None
            else:
                keys += start, stop
                kept.append(iv)
        self._keys = keys
        self.intervals: tuple[Interval, ...] = tuple(
            _decode(keys[2 * i], keys[2 * i + 1]) if iv is None else iv
            for i, iv in enumerate(kept)
        )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Sequence, lo_closed=True, hi_closed=True) -> "IntervalSet":
        return IntervalSet(
            Interval(_q(a), _q(b), lo_closed, hi_closed) for a, b in pairs
        )

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def closed(a, b) -> "IntervalSet":
        return IntervalSet([Interval(_q(a), _q(b), True, True)])

    @staticmethod
    def open(a, b) -> "IntervalSet":
        return IntervalSet([Interval(_q(a), _q(b), False, False)])

    @staticmethod
    def unit() -> "IntervalSet":
        return IntervalSet.closed(0, 1)

    # -- basic queries --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        K = self._keys
        return "IntervalSet{%s}" % " u ".join(
            "%s%s, %s%s" % ("[("[start[1] // 2], start[0], stop[0],
                            ")]"[stop[1] // 2])
            for start, stop in zip(K[::2], K[1::2])
        )

    def measure(self) -> Fraction:
        # a normalized set holds no empty interval
        return sum((iv.hi - iv.lo for iv in self.intervals), Fraction(0))

    def contains(self, x) -> bool:
        """x is in the set iff an odd number of keys lie below (x, 1)."""
        return bisect.bisect(self._keys, (_q(x), 1)) % 2 == 1

    def intersects(self, other: "IntervalSet") -> bool:
        return bool(self.intersect(other))

    def distance(self, x) -> Fraction:
        """Infimum distance from x to the set (error on empty set)."""
        if not self.intervals:
            raise ValueError("distance to empty set is undefined")
        x = _q(x)
        return min(max(iv.lo - x, x - iv.hi, Fraction(0)) for iv in self.intervals)

    # -- set algebra ----------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Two pointers over both key lists, O(N + M)."""
        A, B = self._keys, other._keys
        out = []
        i = j = 0
        while i < len(A) and j < len(B):
            start = max(A[i], B[j])
            # drop whichever range stops first
            if A[i + 1] <= B[j + 1]:
                stop = A[i + 1]
                i += 2
            else:
                stop = B[j + 1]
                j += 2
            if start < stop:
                out.append(_decode(start, stop))
        return IntervalSet(out)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """A cut loop over both key lists, O(N + M).

        Each range [start, stop) of self is cut left to right by the
        ranges of other that meet it: what lies before a cut's start is
        kept, and the rest starts at the cut's stop. Ranges of other that
        stop before a range of self starts are passed for good, since the
        later ranges of self start later still.
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
                out.append(_decode(start, B[k]))
                start = B[k + 1]
                k += 2
            out.append(_decode(start, stop))  # dropped by __init__ if empty
        return IntervalSet(out)

    def dilate(self, lam) -> "IntervalSet":
        """Open lam-neighborhood of the set, clipped to [0,1]."""
        lam = _q(lam)
        if lam < 0:
            raise ValueError("dilation radius must be nonnegative")
        K = self._keys
        out = []
        for start, stop in zip(K[::2], K[1::2]):
            if lam:
                start, stop = (start[0] - lam, 2), (stop[0] + lam, 0)
            out.append(_decode(max(start, _UNIT_START), min(stop, _UNIT_STOP)))
        return IntervalSet(out)

    def clip(self, a, b) -> "IntervalSet":
        return self.intersect(IntervalSet.closed(a, b))

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
        if not 0 <= i < len(self.intervals):
            return None
        start, stop = max(self._keys[2 * i], lo), min(self._keys[2 * i + 1], hi)
        return _decode(start, stop) if start < stop else None

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> list:
        return [iv.to_json_obj() for iv in self.intervals]

    @staticmethod
    def from_json_obj(obj: list) -> "IntervalSet":
        return IntervalSet(Interval.from_json_obj(o) for o in obj)
