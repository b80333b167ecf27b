"""An exact horizontal curve with no C^2 horizontal Lusin approximation.

The curve (f, g, h) concentrates vertical motion on a nested family of
tiny dyadic-centered intervals: on each level-n component, f and g trace
a square of side h_n, contributing exactly 4 h_n^2 to h, while off the
components f = g = 0 and h is flat. As the components shrink much faster
than the vertical increments, the increment over a component dwarfs every
power of its length — which is what any C^2 horizontal approximation
would have to match.

Everything here is exact to a finite generation depth: the curve is
kept as integer vertex tables over shared denominators, h from the
signed area of each edge, and the reports verify the facts that drive
the obstruction from those tables; the piecewise curve is built from
them only when it is read.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Optional

from .curves import (
    PiecewiseCurve,
    PiecewisePolynomial,
    _linear_pieces,
    area_discrepancy,
    velocity,
)
from .intervalsets import IntervalSet, _cleared, _q
from .jets import Jet, JetTriple


@dataclass(frozen=True)
class CounterexampleParams:
    """Scale sequences h_n (square side), lambda_n (dilation radius),
    w_n (component radius), and the generation depth."""

    h_seq: Callable[[int], Fraction]
    lambda_seq: Callable[[int], Fraction]
    w_seq: Callable[[int], Fraction]
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        for name, seq in (
            ("h", self.h_seq), ("lambda", self.lambda_seq), ("w", self.w_seq)
        ):
            prev = None
            for n in range(1, self.depth + 1):
                v = _q(seq(n))
                if v <= 0:
                    raise ValueError("%s_%d must be positive" % (name, n))
                if prev is not None and v >= prev:
                    raise ValueError("%s sequence must be strictly decreasing" % name)
                prev = v
        for n in range(1, self.depth + 1):
            if _q(self.w_seq(n)) > Fraction(1, 2 ** (6 * n)):
                raise ValueError("need w_n <= 2^(-6n)")

    def h(self, n: int) -> Fraction:
        return _q(self.h_seq(n))

    def lam(self, n: int) -> Fraction:
        return _q(self.lambda_seq(n))

    def w(self, n: int) -> Fraction:
        return _q(self.w_seq(n))


def default_params(depth: int = 10) -> CounterexampleParams:
    """h_n = 3^-n, lambda_n = (2/5)^n, w_n = 2^(-n(n+6)).

    w decays super-geometrically so that the tail-sum smallness ratios
    decay for every fixed integrability exponent p, not just small ones.
    """
    return CounterexampleParams(
        h_seq=lambda n: Fraction(1, 3**n),
        lambda_seq=lambda n: Fraction(2**n, 5**n),
        w_seq=lambda n: Fraction(1, 2 ** (n * (n + 6))),
        depth=depth,
    )


@dataclass(frozen=True)
class CounterexampleCurve:
    """The built curve as integer vertex tables.

    Vertex i is t = ts[i]/T, f = fs[i]/L, g = gs[i]/L and h = hs[i]/L^2,
    and f, g and h are linear between vertices; components[n-1] holds the
    (first, last) vertex index of each level-n component, in order. The
    piecewise curve, and the open components as interval sets, are
    decoded from the tables when first read.
    """

    params: CounterexampleParams
    T: int
    L: int
    ts: tuple
    fs: tuple
    gs: tuple
    hs: tuple
    components: tuple

    @cached_property
    def _pairs(self) -> list:  # every component's vertex pair, in order
        return sorted(chain.from_iterable(self.components))

    def _open(self, pairs) -> IntervalSet:  # (ts[a], ts[b]) / T, each open
        ts = self.ts
        return IntervalSet.open_ranges((ts[a], ts[b]) for a, b in pairs).over(self.T)

    @cached_property
    def I_levels(self) -> tuple:  # IntervalSet per level 1..depth
        return tuple(map(self._open, self.components))

    @cached_property
    def I_union(self) -> IntervalSet:  # the union of all levels
        return self._open(self._pairs)

    @cached_property
    def curve(self) -> PiecewiseCurve:
        bps = [Fraction(t, self.T) for t in self.ts]
        return PiecewiseCurve(*(
            PiecewisePolynomial(bps, _linear_pieces(self.ts, self.T, ys, M))
            for ys, M in ((self.fs, self.L), (self.gs, self.L),
                          (self.hs, self.L**2))))

    def vertex_rows(self) -> tuple:
        """(rows, dens): the int rows (t, f, g, h) of the vertices, the
        curve at its breakpoints, and the denominators (T, L, L, L^2) of
        the four columns."""
        return (zip(self.ts, self.fs, self.gs, self.hs),
                (self.T, self.L, self.L, self.L**2))


# ---------------------------------------------------------------------------
# parameter diagnostics
# ---------------------------------------------------------------------------


def _decreasing_from(vals) -> Optional[int]:
    """Smallest index i such that vals[i:] is strictly decreasing; None
    for an empty sequence."""
    i = len(vals) - 1
    while i > 0 and vals[i - 1] > vals[i]:
        i -= 1
    return i if vals else None


def check_params(params: CounterexampleParams, p_max: int = 4,
                 tail_terms: int = 30) -> dict:
    """Exact values of every smallness condition on the scale sequences.

    Tail sums over k > n are truncated to `tail_terms` terms; with the
    default super-geometric w this is far below any tolerance of
    interest. Each entry carries the list of values for n = 1..depth and
    the first index past which the sequence is strictly monotone in the
    required direction.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if tail_terms < 0:  # P below would be indexed from its end
        raise ValueError("tail_terms must be >= 0")
    N = params.depth
    ns = range(1, N + 1)

    lam_partial = list(accumulate(2**n * params.lam(n) for n in ns))
    h_over_lam = [params.h(n) / params.lam(n) for n in ns]
    four_pow_h = [Fraction(4**n) * params.h(n) for n in ns]

    def tails(term):
        """T(n) = sum_{k=n+1}^{n+L} 2^(k-n) term(k) for n = 1..N, L =
        tail_terms: (P[n+L-1] - P[n-1]) / 2^n, P[j] = the sum of
        2^k term(k) over k = 2..j+1."""
        L = tail_terms
        P = list(accumulate((2**k * term(k) for k in range(2, N + L + 1)),
                            initial=Fraction(0)))
        return [(P[n + L - 1] - P[n - 1]) / 2**n for n in ns]

    def decreasing(values):
        return {"values": values, "decreasing_from": _decreasing_from(values)}

    return {
        "depth": N,
        "lambda_partial_sums": {
            "values": lam_partial,
            "bounded_by_4": lam_partial[-1] <= 4,
        },
        "h_over_lambda": decreasing(h_over_lam),
        "four_pow_times_h": {
            "values": four_pow_h,
            "increasing_from": _decreasing_from([-v for v in four_pow_h]),
        },
        "h_tail_ratio": decreasing([
            T / params.lam(n + 1) ** 2
            for n, T in zip(ns, tails(lambda k: params.h(k) ** 2))
        ]),
        "w_tail_ratios": {
            p: decreasing([
                T / params.lam(n + 1) ** (2 * p + 1)
                for n, T in zip(
                    ns, tails(lambda k: params.w(k) * params.h(k) ** p))
            ])
            for p in range(1, p_max + 1)
        },
    }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _level_rows(params: CounterexampleParams) -> tuple:
    """(rows, D): rows[n-1] holds the ends (lo, hi), ints over one D, of
    the open interval of radius w_n around each dyadic centre k/2^n that
    misses all earlier levels, in order."""
    N = params.depth
    W, D = _cleared([Fraction(1, 2**N)] + [params.w(n) for n in range(1, N + 1)])
    rows, los, his = [], [], []
    for n, w in enumerate(W[1:], start=1):
        # an open interval misses the earlier open ones exactly when the
        # closed one with the same ends does: when the first earlier one
        # that stops after c - w starts at or after c + w
        kept = []
        for c in range(D >> n, D, D >> n):
            i = bisect.bisect_right(his, c - w)
            if i == len(his) or los[i] >= c + w:
                kept.append((c - w, c + w))
        rows.append(kept)
        # the kept intervals are disjoint, so starts and stops sort alike
        los = sorted(los + [lo for lo, _ in kept])
        his = sorted(his + [hi for _, hi in kept])
    return rows, D


def build_curve(params: CounterexampleParams) -> CounterexampleCurve:
    """Assemble (f, g, h) on [0,1]: the four-piece square pattern of side
    h_n on every level-n component, zero in the gaps.

    The vertices are ints: t over T = 4D, D the shared denominator of
    the component ends, and f, g over L, the one of the h_n. An edge from
    (f0, g0) to (f1, g1) adds exactly 2 (f1 g0 - f0 g1) to h, the integral
    of h' = 2 (f'g - g'f) over it, so h is linear between integer vertices
    over L^2: the horizontal lift of f and g."""
    rows, D = _level_rows(params)
    H, L = _cleared(params.h(n) for n in range(1, params.depth + 1))

    ts, fs, gs = [0], [0], [0]
    components = [[] for _ in rows]
    # the rows merged by their starts are the components in order, each
    # with its level
    for lo, hi, n in heapq.merge(*([(lo, hi, n) for lo, hi in row]
                                   for n, row in enumerate(rows))):
        # f = g = 0 in the gaps; the square's corners sit at the quarter
        # points after lo, a new vertex unless a component ends there
        k = int(4 * lo == ts[-1])
        components[n].append((len(ts) - k, len(ts) + 4 - k))
        ts += [4 * lo + i * (hi - lo) for i in range(k, 5)]
        fs += [0, 0, H[n], H[n], 0][k:]
        gs += [0, H[n], H[n], 0, 0][k:]
    if ts[-1] < 4 * D:
        ts, fs, gs = ts + [4 * D], fs + [0], gs + [0]
    hs = accumulate((2 * (f1 * g0 - f0 * g1) for f0, f1, g0, g1
                     in zip(fs, fs[1:], gs, gs[1:])), initial=0)
    return CounterexampleCurve(
        params, 4 * D, L, tuple(ts),
        tuple(fs), tuple(gs), tuple(hs), tuple(map(tuple, components)))


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def component_increments(C: CounterexampleCurve) -> list:
    """(level, component index, h(b) - h(a)) per component; each increment
    equals 4 h_n^2 exactly."""
    LL = C.L**2
    return [(n, i, Fraction(C.hs[b] - C.hs[a], LL))
            for n, level in enumerate(C.components, start=1)
            for i, (a, b) in enumerate(level)]


def measure_report(C: CounterexampleCurve) -> dict:
    """Exact measures of the interval levels and of the dilation shells
    A_n = (lambda_n-neighborhood of I_1..I_n) minus I, with the
    2 lambda_n (2^n - 1) upper bound checked per level.

    The shells are dilated, clipped to [0, 1] and measured as sets of ints
    over M, the lcm of T and the lambda_n denominators; each keeps its
    set of ints, "int_set", and shell["int_set"].over(report["M"]) is the
    shell as a set of Fractions."""
    params = C.params
    N = params.depth
    two_pow_w = sum(
        (Fraction(2) ** n * params.w(n) for n in range(1, N + 1)), Fraction(0)
    )
    R, M = _cleared([Fraction(1, C.T)] + [params.lam(n) for n in range(1, N + 1)])
    ts = [t * R[0] for t in C.ts]  # the vertex times over M
    I_all = IntervalSet.open_ranges((ts[a], ts[b]) for a, b in C._pairs)
    shells, partial = [], []
    for n, (level, r) in enumerate(zip(C.components, R[1:]), start=1):
        partial = list(heapq.merge(partial, ((ts[a], ts[b]) for a, b in level)))
        A_n = IntervalSet.open_ranges(partial).dilate(r).clip(0, M).subtract(I_all)
        measure = A_n.measure() / M
        bound = 2 * params.lam(n) * Fraction(2**n - 1)
        shells.append({
            "n": n,
            "measure": measure,
            "bound": bound,
            "within_bound": measure <= bound,
            "int_set": A_n,
        })
    measure_I = I_all.measure() / M
    return {
        "sum_2n_wn": two_pow_w,
        "sum_2n_wn_le_1_31": two_pow_w <= Fraction(1, 31),
        "measure_I": measure_I,
        "measure_le_sum": measure_I <= two_pow_w,
        "M": M,
        "shells": shells,
    }


def _check_level(C: CounterexampleCurve, n: int) -> None:
    if not 0 <= n < C.params.depth:
        raise ValueError("need 0 <= n and n + 1 <= depth")


def good_pair_search(E: IntervalSet, C: CounterexampleCurve,
                     n: int):
    """Find x < y in E minus all components, within 2^-n of each other,
    on opposite sides of some level-(n+1) component.

    Components are scanned left to right; on each side the admissible
    point nearest the component is chosen (interval endpoint when closed,
    midpoint otherwise). Returns (x, y) or None when no component admits
    a pair.

    Each component reads E and the union of the components only in the
    window [c - 2^-(n+1), c + 2^-(n+1)] around its centre c, both clipped
    by bisection, so no call subtracts the whole union or walks all of E.
    """
    _check_level(C, n)
    half = Fraction(1, 2 ** (n + 1))
    for a, b in C.components[n]:
        lo, hi = Fraction(C.ts[a], C.T), Fraction(C.ts[b], C.T)
        c = (lo + hi) / 2
        wlo, whi = c - half, c + half
        free = E.clip(wlo, whi).subtract(C.I_union.clip(wlo, whi))
        liv = free.last_piece(wlo, lo)
        riv = free.first_piece(hi, whi)
        if liv is None or riv is None:
            continue
        x = liv.hi if liv.hi_closed else (liv.lo + liv.hi) / 2
        y = riv.lo if riv.lo_closed else (riv.lo + riv.hi) / 2
        if y - x <= Fraction(1, 2**n):
            return x, y
    return None


def straddle_jets(C: CounterexampleCurve, n: int) -> JetTriple:
    """The order-2 jet triple straddling the first level-(n+1) component:
    sites symmetric about its center at distance 2^-(n+1), zero
    horizontal jets, and a vertical jet that records h at the
    component's ends, so the full increment 4 h_{n+1}^2 comes with no
    horizontal motion."""
    _check_level(C, n)
    a, b = C.components[n][0]
    c = Fraction(C.ts[a] + C.ts[b], 2 * C.T)
    half = Fraction(1, 2 ** (n + 1))
    sites = (c - half, c + half)
    LL = C.L**2
    zeros = Jet(2, sites, ((0, 0, 0), (0, 0, 0)))
    H = Jet(2, sites, ((Fraction(C.hs[a], LL), 0, 0),
                       (Fraction(C.hs[b], LL), 0, 0)))
    return JetTriple(zeros, zeros, H)


def straddle_ratio(C: CounterexampleCurve, n: int) -> Fraction:
    """Area-discrepancy to velocity ratio of `straddle_jets(C, n)`: the
    full increment 4 h_{n+1}^2 over the gap to the fourth power, exactly
    4 (4^n h_{n+1})^2 with the default scales."""
    triple = straddle_jets(C, n)
    x, y = triple.sites
    return area_discrepancy(triple, x, y) / velocity(triple, x, y)
