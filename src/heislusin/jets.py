"""Jets of finite order on finite point sets, and their Taylor calculus.

A jet stores candidate derivative values (F^0, ..., F^m) at each site.
Whitney-type decay of the Taylor remainders is reported as a modulus
profile over a ladder of scales: a finite data set cannot certify a
little-o limit, only exhibit decay.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .intervalsets import _cleared, _q, parse_rational, rational_to_str
from .polynomials import Polynomial

DEFAULT_LADDER = tuple(Fraction(1, 2**j) for j in range(13))


def ladder_maxima(pairs, ladder, empty=None) -> list:
    """For each scale d of the ladder, the largest value among the
    (gap, value) pairs with gap <= d, or `empty` if there is none."""
    pairs = sorted(pairs, key=lambda p: p[0])
    gaps = [gap for gap, _ in pairs]
    running = list(itertools.accumulate((v for _, v in pairs), max))
    out = []
    for d in ladder:
        n = bisect.bisect_right(gaps, d)
        out.append(running[n - 1] if n else empty)
    return out


# pairs per step of `_remainder_sweep`: a step takes whole lags, at least one
_SWEEP_CHUNK = 2**12


def _check_scales(scales) -> None:
    """ValueError unless every scale of a modulus ladder is positive."""
    if any(s <= 0 for s in scales):
        raise ValueError("delta must be positive")


def _bins(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """For each value, the number of rows of `edges` below it, counted by
    comparisons and summed as int8 while the row count fits: for a column
    of sorted edges e[:, None], np.searchsorted(e, values)."""
    dtype = np.int8 if len(edges) < 2**7 else np.intp
    return (values > edges).view(np.int8).sum(axis=0, dtype=dtype)


def _remainder_sweep(xs: np.ndarray, U: np.ndarray, orders, reach):
    """Taylor remainders of a sampled jet over the pairs of sorted points.

    U holds the k-th derivatives at the points xs, k = 0..m, either as
    floats or as ints over a shared denominator (object arrays). Floats
    run Horner's rule with the weights 1/ell!; ints with the integer
    weights m!/ell!, so their remainders are ints, m! times the remainders
    of the scaled values. Lag by lag, while some gap xs[i + lag] - xs[i]
    is at most `reach`, yields (i, j, d, rems) for a chunk of whole lags,
    about `_SWEEP_CHUNK` pairs or one longer lag: flat index arrays with
    j = i + lag, the gaps d = xs[j] - xs[i], and for each order k in
    `orders` the absolute order-k remainders forward, at x_j expanded at
    x_i, and backward, at x_i expanded at x_j.
    """
    m, n = len(U) - 1, len(xs)
    fact = [math.factorial(ell) for ell in range(m + 1)]
    exact = U.dtype == object
    # the Taylor coefficients U[k + ell] / ell! (or U[k + ell] m!/ell!) as
    # rows of one array, so a chunk gathers them in one take per end;
    # row[k] holds ell = 0, U[k] (or m! U[k])
    row, coef = {}, []
    for k in orders:
        row[k] = len(coef)
        coef.extend(U[k + ell] * (fact[m] // fact[ell]) if exact
                    else U[k + ell] / fact[ell] for ell in range(m - k + 1))
    coef = np.array(coef)
    # ends[lag] = number of pairs with a lag of at most `lag`
    ends = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    lag = 1
    while lag < n:
        last = max(lag, int(np.searchsorted(
            ends, ends[lag - 1] + _SWEEP_CHUNK, side="right")) - 1)
        lags = np.arange(lag, last + 1)
        lens = n - lags
        starts = ends[lags - 1] - ends[lag - 1]  # row starts in the chunk
        i = np.arange(ends[last] - ends[lag - 1]) - np.repeat(starts, lens)
        j = i + np.repeat(lags, lens)
        d = xs[j] - xs[i]
        # row minima rise with the lag: cut the chunk at the first row
        # with no gap <= reach, and stop there
        dead = np.flatnonzero(np.minimum.reduceat(d, starts) > reach)
        if len(dead):
            cut = starts[dead[0]]
            if not cut:
                return
            i, j, d = i[:cut], j[:cut], d[:cut]
            last = n  # no later lag has a gap <= reach either
        ci, cj = np.take(coef, i, axis=1), np.take(coef, j, axis=1)
        neg = -d
        rems = []
        for k in orders:
            r = row[k]
            fwd, back = ci[r + m - k].copy(), cj[r + m - k].copy()
            for ell in range(m - k - 1, -1, -1):  # Horner's rule, in place
                fwd *= d
                fwd += ci[r + ell]
                back *= neg
                back += cj[r + ell]
            np.subtract(cj[r], fwd, out=fwd)
            np.subtract(ci[r], back, out=back)
            rems.append((np.abs(fwd, out=fwd), np.abs(back, out=back)))
        yield i, j, d, rems
        lag = last + 1


def _jet_modulus(xs: np.ndarray, U: np.ndarray, scales) -> list:
    """Whitney modulus profile, in floats, of the jet sampled at the
    sorted points xs: the float twin of `Jet.modulus_profile`.

    At each scale, the largest |remainder of order k| / gap^(m-k) over
    the orders k and both directions of every pair at most that scale
    apart, and 0.0 at a scale with no such pair; ValueError on a scale
    that is not positive.
    """
    _check_scales(scales)
    m = len(U) - 1
    bins = np.array(sorted({float(s) for s in scales}))
    best = np.zeros(len(bins) + 1)  # the last slot: gaps beyond every scale
    reach = bins[-1] if len(bins) else -1
    for _, _, d, rems in _remainder_sweep(xs, U, range(m + 1), reach):
        # coincident points (an extra point on a centre) are no pair
        gap = np.where(d > 0, d, np.inf)
        worst = np.maximum(*rems[m], out=rems[m][0])  # order m: gap^0
        for k in range(m):
            power = gap ** (m - k)
            for r in rems[k]:
                np.maximum(worst, np.divide(r, power, out=r), out=worst)
        np.maximum.at(best, _bins(d, bins[:, None]), worst)
    return ladder_maxima(zip(bins.tolist(), best.tolist()),
                         map(float, scales), 0.0)


@dataclass(frozen=True)
class Jet:
    """Values (F^k)_{k=0..m} at finitely many strictly increasing sites."""

    m: int
    sites: tuple
    values: tuple  # one (m+1)-tuple of Fractions per site
    _rows: dict = field(init=False, repr=False, compare=False)  # site -> row

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("jet order m must be >= 0")
        sites = tuple(_q(x) for x in self.sites)
        values = tuple(tuple(_q(v) for v in row) for row in self.values)
        if any(a >= b for a, b in zip(sites, sites[1:])):
            raise ValueError("sites must be strictly increasing")
        if any(len(row) != self.m + 1 for row in values):
            raise ValueError("each value vector must have length m+1")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_rows", {x: i for i, x in enumerate(sites)})

    @staticmethod
    def from_polynomial(p: Polynomial, sites: Sequence, m: int) -> "Jet":
        values = []
        for x in sites:
            values.append(tuple(p.derivative(k)(x) for k in range(m + 1)))
        return Jet(m, tuple(_q(x) for x in sites), tuple(values))

    def _index(self, a) -> int:
        a = _q(a)
        try:
            return self._rows[a]
        except KeyError:
            raise ValueError("%s is not a site of this jet" % a) from None

    def value(self, a, k: int) -> Fraction:
        if not 0 <= k <= self.m:
            raise ValueError("order k out of range")
        return self.values[self._index(a)][k]

    def taylor_poly(self, a) -> Polynomial:
        """Taylor polynomial of order m at the site a."""
        i = self._index(a)
        row = self.values[i]
        return Polynomial.from_taylor(
            [row[k] / math.factorial(k) for k in range(self.m + 1)],
            self.sites[i],
        )

    def whitney_modulus(self, delta) -> Fraction:
        """max over k and site pairs with 0 < |b-a| <= delta of
        |remainder| / |b-a|^(m-k); 0 if no pair qualifies."""
        return self.modulus_profile((delta,))[0][1]

    def modulus_profile(self, ladder=DEFAULT_LADDER) -> list:
        """(delta, whitney_modulus(delta)) for every delta of the ladder.

        The sieve's remainder sweep run on ints over a shared denominator.
        With D the lcm of the site denominators and L that of the values,
        the sites go in as the ints D x and the order-k values as the ints
        L D^(m-k) F^k, so every gap is an int G and the order-k remainder
        comes out as m! L D^(m-k) times the true one. A pair's worst ratio
        is then max_k |R_k| G^k / (L m! G^m). Pairs are compared by
        cross-multiplication within each ladder bin, and only the bin
        maxima become `Fraction`s, so every value is exact.
        """
        ladder = tuple(ladder)
        scales = [_q(d) for d in ladder]
        _check_scales(scales)
        m = self.m
        nums, D = _cleared(self.sites)
        xs = np.array(nums, dtype=object)
        nums, L = _cleared(v for row in self.values for v in row)
        powers = np.array([D ** (m - k) for k in range(m + 1)], dtype=object)
        U = (np.array(nums, dtype=object).reshape(-1, m + 1) * powers).T
        # a gap G lies in the first bin whose scale s has s D >= G, that is
        # floor(s D) >= G; an object array, as floor(s D) may pass int64
        bins = sorted(set(scales))
        floors = np.array([s.numerator * D // s.denominator for s in bins],
                          dtype=object)
        best = [None] * (len(bins) + 1)  # (num, G^m) of each bin's worst pair
        for _, _, G, rems in _remainder_sweep(
                xs, U, range(m + 1), floors[-1] if bins else -1):
            worst = np.maximum(*rems[0], out=rems[0][0])  # order 0: G^0
            for k in range(1, m + 1):
                power = G ** k
                for r in rems[k]:
                    np.maximum(worst, np.multiply(r, power, out=r), out=worst)
            for b, num, den in zip(np.searchsorted(floors, G).tolist(),
                                   worst.tolist(), (G ** m).tolist()):
                top = best[b]
                if top is None or num * top[1] > top[0] * den:
                    best[b] = (num, den)
        unit = L * math.factorial(m)  # each ratio is num / (unit G^m)
        return list(zip(ladder, ladder_maxima(
            ((s, Fraction(top[0], unit * top[1]))
             for s, top in zip(bins, best) if top is not None),
            scales, Fraction(0))))

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "sites": [
                {
                    "x": rational_to_str(x),
                    "F": [rational_to_str(v) for v in row],
                }
                for x, row in zip(self.sites, self.values)
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict, key: str = "F") -> "Jet":
        """The `key` jet of a JSON object; ValueError on a malformed shape."""
        m = obj.get("m") if isinstance(obj, dict) else None
        if type(m) is not int:  # a bool is not an int here; Jet checks m >= 0
            raise ValueError("jet JSON needs an object with an integer m")
        recs = obj.get("sites")
        if not isinstance(recs, list) or not all(
            isinstance(rec, dict) and "x" in rec and isinstance(rec.get(key), list)
            for rec in recs
        ):
            raise ValueError(
                'jet JSON "sites" must be a list of objects with "x" and a '
                'list "%s"' % key
            )
        try:
            sites = tuple(parse_rational(rec["x"]) for rec in recs)
            values = tuple(tuple(map(parse_rational, rec[key])) for rec in recs)
        except (TypeError, ZeroDivisionError):  # null, a list, "1/0"
            raise ValueError("jet JSON values must be finite numbers or "
                             "rational strings") from None
        return Jet(m, sites, values)


@dataclass(frozen=True)
class JetTriple:
    """Jets (F, G, H) of a horizontal-curve candidate; shared sites and order."""

    F: Jet
    G: Jet
    H: Jet

    def __post_init__(self):
        if not (self.F.m == self.G.m == self.H.m):
            raise ValueError("jets must share order m")
        if not (self.F.sites == self.G.sites == self.H.sites):
            raise ValueError("jets must share sites")

    @property
    def m(self) -> int:
        return self.F.m

    @property
    def sites(self) -> tuple:
        return self.F.sites

    def ode_residual(self, a, k: int) -> Fraction:
        """Defect of the order-k horizontality constraint at the site a.

        Zero iff H^k(a) = 2 sum_i C(k-1,i) (F^(k-i) G^i - G^(k-i) F^i)(a),
        which is `area_rate(F, G)` differentiated k-1 times (Leibniz),
        read off the jet values.
        """
        if not 1 <= k <= self.m:
            raise ValueError("require 1 <= k <= m")
        row = self.F._index(a)
        f, g = self.F.values[row], self.G.values[row]
        acc = Fraction(0)
        for i in range(k):
            acc += math.comb(k - 1, i) * (f[k - i] * g[i] - g[k - i] * f[i])
        return self.H.values[row][k] - 2 * acc

    def max_ode_residual(self) -> Fraction:
        best = Fraction(0)
        for a in self.sites:
            for k in range(1, self.m + 1):
                best = max(best, abs(self.ode_residual(a, k)))
        return best

    @staticmethod
    def from_curve_samples(f: Polynomial, g: Polynomial, h: Polynomial,
                           sites: Sequence, m: int) -> "JetTriple":
        return JetTriple(
            Jet.from_polynomial(f, sites, m),
            Jet.from_polynomial(g, sites, m),
            Jet.from_polynomial(h, sites, m),
        )

    def to_json_obj(self) -> dict:
        """F's `Jet.to_json_obj`, with G and H added to each site record."""
        obj = self.F.to_json_obj()
        for rec, g, h in zip(obj["sites"], self.G.values, self.H.values):
            rec["G"] = [rational_to_str(v) for v in g]
            rec["H"] = [rational_to_str(v) for v in h]
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "JetTriple":
        return JetTriple(
            Jet.from_json_obj(obj, "F"),
            Jet.from_json_obj(obj, "G"),
            Jet.from_json_obj(obj, "H"),
        )


def area_rate(p: Polynomial, q: Polynomial) -> Polynomial:
    """2 (p'q - q'p): the rate at which the planar path (p, q) sweeps
    signed area, and so the h' of its horizontal lift."""
    return 2 * (p.derivative() * q - q.derivative() * p)

