"""Exact algebra of finite unions of intervals with rational endpoints.

Endpoint open/closed flags are tracked exactly: measure does not care,
but membership tests do, and the interval families used by the
counterexample construction mix open and closed pieces.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
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
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    @property
    def length(self) -> Fraction:
        return Fraction(0) if self.empty else self.hi - self.lo

    def contains(self, x) -> bool:
        x = _q(x)
        if self.empty:
            return False
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo or (self.lo == other.lo and other.lo_closed):
            lo, lo_closed = self.lo, self.lo_closed
        else:
            lo, lo_closed = other.lo, other.lo_closed
        if self.lo == other.lo:
            lo_closed = self.lo_closed and other.lo_closed
        if self.hi < other.hi or (self.hi == other.hi and other.hi_closed):
            hi, hi_closed = self.hi, self.hi_closed
        else:
            hi, hi_closed = other.hi, other.hi_closed
        if self.hi == other.hi:
            hi_closed = self.hi_closed and other.hi_closed
        return Interval(lo, hi, lo_closed, hi_closed)

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


def _mergeable(a: Interval, b: Interval) -> bool:
    # b starts at or before the end of a (sorted order assumed)
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return False


class IntervalSet:
    """Normalized finite disjoint union of intervals, immutable."""

    __slots__ = ("intervals", "_los")

    def __init__(self, intervals: Iterable[Interval] = ()):
        items = sorted(
            (iv for iv in intervals if not iv.empty),
            key=lambda iv: (iv.lo, not iv.lo_closed, iv.hi),
        )
        merged: list[Interval] = []
        for iv in items:
            if merged and _mergeable(merged[-1], iv):
                last = merged[-1]
                if iv.hi > last.hi:
                    hi, hi_closed = iv.hi, iv.hi_closed
                elif iv.hi == last.hi:
                    hi, hi_closed = last.hi, last.hi_closed or iv.hi_closed
                else:
                    hi, hi_closed = last.hi, last.hi_closed
                merged[-1] = Interval(last.lo, hi, last.lo_closed, hi_closed)
            else:
                merged.append(iv)
        self.intervals: tuple[Interval, ...] = tuple(merged)
        self._los = [iv.lo for iv in self.intervals]

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
        parts = []
        for iv in self.intervals:
            parts.append(
                "%s%s, %s%s"
                % (
                    "[" if iv.lo_closed else "(",
                    iv.lo,
                    iv.hi,
                    "]" if iv.hi_closed else ")",
                )
            )
        return "IntervalSet{%s}" % " u ".join(parts)

    def measure(self) -> Fraction:
        # a normalized set holds no empty interval
        return sum((iv.hi - iv.lo for iv in self.intervals), Fraction(0))

    def contains(self, x) -> bool:
        x = _q(x)
        i = bisect.bisect_right(self._los, x)
        for j in (i - 1, i):
            if 0 <= j < len(self.intervals) and self.intervals[j].contains(x):
                return True
        return False

    def intersects(self, other: "IntervalSet") -> bool:
        return bool(self.intersect(other))

    def distance(self, x) -> Fraction:
        """Infimum distance from x to the set (error on empty set)."""
        if not self.intervals:
            raise ValueError("distance to empty set is undefined")
        x = _q(x)
        best = None
        for iv in self.intervals:
            if iv.lo <= x <= iv.hi:
                return Fraction(0)
            d = iv.lo - x if x < iv.lo else x - iv.hi
            if best is None or d < best:
                best = d
        return best

    # -- set algebra ----------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """One sweep over both sorted lists, O(N + M)."""
        A, B = self.intervals, other.intervals
        out = []
        i = j = 0
        while i < len(A) and j < len(B):
            a, b = A[i], B[j]
            iv = a.intersect(b)
            if not iv.empty:
                out.append(iv)
            # drop whichever ends first; on a tie the next piece of either
            # set starts after the shared end or at it, open
            if a.hi <= b.hi:
                i += 1
            if b.hi <= a.hi:
                j += 1
        return IntervalSet(out)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """One sweep over both sorted lists, O(N + M).

        Each interval a of self is cut left to right by the intervals of
        other that meet it; (lo, lo_closed) is the start of what is left
        of a. Intervals of other that end before a starts are passed for
        good, since the later intervals of self start later still.
        """
        B = other.intervals
        out = []
        j = 0
        for a in self.intervals:
            while j < len(B) and B[j].hi < a.lo:
                j += 1
            lo, lo_closed = a.lo, a.lo_closed
            k = j
            while k < len(B):
                b = B[k]
                if b.lo > a.hi or (
                    b.lo == a.hi and not (b.lo_closed and a.hi_closed)
                ):
                    break
                left = Interval(lo, b.lo, lo_closed, not b.lo_closed)
                if not left.empty:
                    out.append(left)
                if b.hi > lo:
                    lo, lo_closed = b.hi, not b.hi_closed
                elif b.hi == lo:
                    lo_closed = lo_closed and not b.hi_closed
                k += 1
            rest = Interval(lo, a.hi, lo_closed, a.hi_closed)
            if not rest.empty:
                out.append(rest)
        return IntervalSet(out)

    def dilate(self, lam) -> "IntervalSet":
        """Open lam-neighborhood of the set, clipped to [0,1]."""
        lam = _q(lam)
        if lam < 0:
            raise ValueError("dilation radius must be nonnegative")
        out = []
        for iv in self.intervals:
            lo, hi = iv.lo - lam, iv.hi + lam
            lo_closed = iv.lo_closed if lam == 0 else False
            hi_closed = iv.hi_closed if lam == 0 else False
            if lo < 0:
                lo, lo_closed = Fraction(0), True
            if hi > 1:
                hi, hi_closed = Fraction(1), True
            out.append(Interval(lo, hi, lo_closed, hi_closed))
        return IntervalSet(out)

    def clip(self, a, b) -> "IntervalSet":
        return self.intersect(IntervalSet.closed(a, b))

    def first_piece(self, a, b) -> Optional[Interval]:
        """First interval of self.clip(a, b), or None; O(log N) by bisection."""
        window = Interval(a, b)
        j = max(bisect.bisect_left(self._los, window.lo) - 1, 0)
        for iv in self.intervals[j:j + 2]:
            piece = iv.intersect(window)
            if not piece.empty:
                return piece
        return None

    def last_piece(self, a, b) -> Optional[Interval]:
        """Last interval of self.clip(a, b), or None; O(log N) by bisection."""
        window = Interval(a, b)
        j = bisect.bisect_right(self._los, window.hi)
        for iv in self.intervals[max(j - 2, 0):j][::-1]:
            piece = iv.intersect(window)
            if not piece.empty:
                return piece
        return None

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> list:
        return [iv.to_json_obj() for iv in self.intervals]

    @staticmethod
    def from_json_obj(obj: list) -> "IntervalSet":
        return IntervalSet(Interval.from_json_obj(o) for o in obj)
