"""Piecewise-polynomial curves in the first Heisenberg group.

The vertical component of a horizontal curve is determined by the
horizontal pair through the signed-area integral
h(t) = h(a) + 2 int_a^t (f'g - g'f). Everything here reads that one
identity, h' = area_rate(f, g), from `jets.area_rate`: `lift` integrates
it exactly for piecewise-polynomial inputs, and both residuals measure
how far an arbitrary curve is from it, the order-k one as the (k-1)-th
derivative of h' - area_rate(f, g).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Sequence

import numpy as np

from .intervalsets import _cleared, _pth_root, _q, rational_to_str
from .jets import DEFAULT_LADDER, JetTriple, area_rate, ladder_maxima
from .polynomials import (
    DEFAULT_TOL,
    CertifiedValue,
    Polynomial,
    _homogeneous,
    abs_integral,
    prefix_abs_integrals,
    sup_norm,
)


@dataclass(frozen=True, slots=True)
class PiecewisePolynomial:
    """One real-valued piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    Evaluation at an interior breakpoint uses the right piece; continuity
    is the caller's business (checked by `is_continuous`).
    """

    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        bps = tuple(_q(t) for t in self.breakpoints)
        if len(bps) < 2 or any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing, >= 2")
        pieces = tuple(self.pieces)
        if len(pieces) != len(bps) - 1:
            raise ValueError("need exactly one piece per breakpoint gap")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)

    @property
    def domain(self):
        return self.breakpoints[0], self.breakpoints[-1]

    def piece_index(self, t) -> int:
        t = _q(t)
        lo, hi = self.domain
        if not lo <= t <= hi:
            raise ValueError("%s outside domain [%s, %s]" % (t, lo, hi))
        i = bisect.bisect_right(self.breakpoints, t) - 1
        return min(i, len(self.pieces) - 1)

    def __call__(self, t) -> Fraction:
        return self.pieces[self.piece_index(t)](t)

    def center_floats(self, grid: int) -> list:
        """float(self(t)) at the cell centres t = (2i+1)/(2 grid), i < grid,
        of the domain [0, 1].

        A centre on a breakpoint takes the right piece, as `piece_index`
        does. Every centre is read in one homogenised Horner pass: its
        piece's numerators, padded with zeros to the largest degree d, at
        s / (2 grid), s = 2i+1, over that piece's den (2 grid)^d; int / int
        rounds correctly, as float(Fraction) does, and raises OverflowError
        past the float range.
        """
        if self.domain != (0, 1):
            raise ValueError("center_floats expects domain [0,1]")
        D = 2 * grid
        # the first centre at or right of each inner breakpoint b = p/q:
        # 2i+1 >= bD, so i = ceil((pD - q) / 2q), on ints
        firsts = [-((b.denominator - b.numerator * D) // (2 * b.denominator))
                  for b in self.breakpoints[1:-1]]
        per_piece = np.diff([0] + firsts + [grid])  # centres in each piece
        width = max(len(p.nums) for p in self.pieces) or 1
        nums = np.array([p.nums + (0,) * (width - len(p.nums))
                         for p in self.pieces], dtype=object)
        dens = np.array([p.den * D ** (width - 1) for p in self.pieces],
                        dtype=object)
        s = np.arange(1, D, 2).astype(object)
        return (_homogeneous(list(np.repeat(nums, per_piece, axis=0).T), s, D)
                / np.repeat(dens, per_piece)).tolist()

    def spans(self, a, b):
        """Yield (lo, hi, piece) for each piece that meets (a, b), in order,
        with its interval clipped to (a, b).

        The first such piece is found by bisection. Ends outside the
        domain are clipped to it, and a >= b yields nothing.
        """
        a, b = _q(a), _q(b)
        if a >= b:
            return
        bps = self.breakpoints
        i = max(bisect.bisect_right(bps, a) - 1, 0)
        while i < len(self.pieces) and bps[i] < b:
            yield max(a, bps[i]), min(b, bps[i + 1]), self.pieces[i]
            i += 1

    def is_continuous(self) -> bool:
        """Both pieces agree at each inner breakpoint T/D: a piece with
        coefficients nums/L of degree d is _homogeneous(nums, T, D) /
        (L D^d) there, and the sides are compared cross-multiplied."""
        T, D = _cleared(self.breakpoints)
        sides = pairwise((p.nums or (0,), p.den) for p in self.pieces)
        for t, ((a, La), (b, Lb)) in zip(T[1:-1], sides):
            if (_homogeneous(a, t, D) * Lb * D ** (len(b) - 1)
                    != _homogeneous(b, t, D) * La * D ** (len(a) - 1)):
                return False
        return True

    def derivative(self, k: int = 1) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self.breakpoints, [p.derivative(k) for p in self.pieces]
        )

    def abs_power_integrals(self, q: Polynomial, intervals, p: int) -> list:
        """Integral of |self - q|^p, p a positive integer, over each (a, b)
        of `intervals`.

        A piece span met by several intervals, such as a whole piece
        inside nested balls, is integrated once; each piece span is
        certified to DEFAULT_TOL / (number of pieces), however many
        intervals.
        """
        if p < 1:
            raise ValueError("p must be a positive integer")
        n = len(self.pieces)
        spans = {}  # (lo, hi) -> integral over that clipped piece span
        out = []
        for a, b in intervals:
            total = CertifiedValue(Fraction(0))
            for lo, hi, piece in self.spans(a, b):
                if (lo, hi) not in spans:
                    d = (piece - q) ** p
                    spans[lo, hi] = (
                        CertifiedValue(d.integral(lo, hi)) if p % 2 == 0
                        else abs_integral(d, lo, hi, tol=DEFAULT_TOL / n))
                total += spans[lo, hi]
            out.append(total)
        return out

    @staticmethod
    def linear(ts: Sequence, ys: Sequence) -> "PiecewisePolynomial":
        """The continuous piecewise-linear function through the points
        (ts[i], ys[i]); ts strictly increasing."""
        return PiecewisePolynomial(ts, _linear_pieces(
            *_cleared(map(_q, ts)), *_cleared(map(_q, ys))))


def _linear_pieces(ts: list, D: int, ys: list, L: int) -> list:
    """The pieces of `PiecewisePolynomial.linear` through the points
    (ts[i]/D, ys[i]/L), ts and ys ints: on each pair, the numerators
    y0 t1 - y1 t0 and (y1 - y0) D over L (t1 - t0)."""
    pieces = []
    for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:]):
        if t1 <= t0:
            raise ValueError("ts must be strictly increasing")
        pieces.append(Polynomial.from_ints((y0 * t1 - y1 * t0, (y1 - y0) * D),
                                           L * (t1 - t0)))
    return pieces


@dataclass(frozen=True)
class PiecewiseCurve:
    """Curve (f, g, h): three continuous `PiecewisePolynomial`s on shared
    breakpoints.

    The components are checked once, when the curve is made; the piece
    tuples and breakpoints are read from them.
    """

    f: PiecewisePolynomial
    g: PiecewisePolynomial
    h: PiecewisePolynomial

    def __post_init__(self):
        for name in "fgh":
            comp = getattr(self, name)
            if comp.breakpoints != self.f.breakpoints:
                raise ValueError("curve components must share their breakpoints")
            if not comp.is_continuous():
                raise ValueError("curve component %s must be continuous" % name)

    breakpoints = property(lambda self: self.f.breakpoints)
    f_pieces = property(lambda self: self.f.pieces)
    g_pieces = property(lambda self: self.g.pieces)
    h_pieces = property(lambda self: self.h.pieces)

    def __call__(self, t):
        i = self.f.piece_index(t)
        t = _q(t)
        return tuple(c.pieces[i](t) for c in (self.f, self.g, self.h))


def lift(f: PiecewisePolynomial, g: PiecewisePolynomial, h0=0) -> PiecewiseCurve:
    """Horizontal lift: h' = 2 (f'g - g'f) with h(t0) = h0, exactly.

    f and g must share their breakpoints, as the staircase, CSV curves and
    the Hermite fill do; ValueError otherwise. Continuity of f and g is
    checked once, by the curve.
    """
    bps = f.breakpoints
    if g.breakpoints != bps:
        raise ValueError("lift needs f and g on the same breakpoints, not "
                         "[%s] and [%s]" % (", ".join(map(str, bps)),
                                            ", ".join(map(str, g.breakpoints))))
    h_pieces = []
    acc = _q(h0)
    for i, (fp, gp) in enumerate(zip(f.pieces, g.pieces)):
        A = area_rate(fp, gp).antiderivative()
        h_pieces.append(A + (acc - A(bps[i])))
        acc = h_pieces[-1](bps[i + 1])
    try:
        return PiecewiseCurve(f, g, PiecewisePolynomial(bps, h_pieces))
    except ValueError as exc:
        raise ValueError(
            "lift requires continuous horizontal components"
        ) from exc


def higher_horizontality_residual(curve: PiecewiseCurve, k: int) -> Fraction:
    """Defect of the order-k differentiated horizontality identity.

    Max over pieces of the certified sup of (h' - area_rate(f, g))^(k-1),
    which by Leibniz is
    h^(k) - 2 sum_j C(k-1,j) (f^(k-j) g^(j) - g^(k-j) f^(j)).
    """
    if k < 1:
        raise ValueError("require k >= 1")
    bps = curve.breakpoints
    best = Fraction(0)
    for i, (fp, gp, hp) in enumerate(
        zip(curve.f_pieces, curve.g_pieces, curve.h_pieces)
    ):
        d = (hp.derivative() - area_rate(fp, gp)).derivative(k - 1)
        sv = sup_norm(d, bps[i], bps[i + 1])
        best = max(best, sv.value + sv.error)
    return best


def horizontality_residual(curve: PiecewiseCurve) -> Fraction:
    """Max sup-norm over pieces of h' - 2(f'g - g'f); 0 iff horizontal."""
    return higher_horizontality_residual(curve, 1)


# ---------------------------------------------------------------------------
# area discrepancy / velocity and the extendability report
# ---------------------------------------------------------------------------


def _descartes_exact(row) -> bool:
    """True when the jet row (v_0, ..., v_m) at a site a shows no sign
    change among v_1, ..., v_m. By Descartes' rule, T' = sum_k v_k
    (t - a)^(k-1) / (k-1)! then has no root right of a, so the integral
    of |T'| over [a, b] is |T(b) - v_0|, with no root to isolate."""
    return len({v > 0 for v in row[1:] if v}) <= 1


class _AreaKernel:
    """A(a, b) and two bounds on V(a, b) on ints, for the sites `idx` of
    a jet triple.

    The sites are cleared over D and all F, G, H values over one L, so
    f_k = L F^(k)(a) is an int, and so are g_k and h_k. With the gap
    b - a = G/D, L m! D^m (TF(b) - F(a)) is the int polynomial
    dF(G) = sum_(k>=1) f_k (m!/k!) D^(m-k) G^k, and likewise dG. With
    M = lcm(1..2m-1), K = L^2 m!^2 D^(2m) M and base = K / L^2,
        K A(a, b) = base (L (h_b - h_a) + 2 (f_a g_b - g_a f_b)) - Q(G),
    Q = K (S + 2 F(a) (TG(b) - G(a)) - 2 G(a) (TF(b) - F(a))), where S is
    the swept area int_a^b area_rate(TF, TG): one int polynomial per site.
    On the scale W = L m! D^(2m), V is bounded by ints:
        W V >= L m! G^(2m) + G^m (|dF(G)| + |dG(G)|),
        W V <= L m! G^(2m) + G^m U(G),
    U the sum of dF and dG with each coefficient made positive. A part
    that passes the Descartes test is exact: it adds its |dF| or |dG| to
    both bounds and nothing to U.
    """

    def __init__(self, triple: JetTriple, idx):
        m = self.m = triple.m
        self.X, D = _cleared([triple.sites[i] for i in idx])
        nums, L = _cleared([v for jet in (triple.F, triple.G, triple.H)
                            for i in idx for v in jet.values[i]])
        n, w = len(idx), m + 1
        rows = [nums[k * w:(k + 1) * w] for k in range(3 * n)]
        self.f, self.g, self.h = rows[:n], rows[n:2 * n], rows[2 * n:]
        self.descartes = [(_descartes_exact(triple.F.values[i]),
                           _descartes_exact(triple.G.values[i])) for i in idx]
        fact = math.factorial(m)
        M = math.lcm(*range(1, 2 * m))
        self.L, self.unit = L, L * fact
        self.base = fact * fact * D ** (2 * m) * M
        self.K, self.W = L * L * self.base, L * fact * D ** (2 * m)
        self.weights = [fact // math.factorial(k) * D ** (m - k)
                        for k in range(w)]
        self.c2 = 2 * M * fact * D ** m
        self.D, self.M = D, M

    def row(self, r: int, cols):
        """Yield (j, G, K A, lower, upper) for the sites j of `cols` as
        seen from the site r = a: G the int gap, and the int bounds on
        W V(a, b), equal when both parts are exact and read only when
        b > a."""
        m, X, h, f, g = self.m, self.X, self.h, self.f, self.g
        phi = [v * c for v, c in zip(f[r], self.weights)]
        gam = [v * c for v, c in zip(g[r], self.weights)]
        dF, dG = [0] + phi[1:], [0] + gam[1:]
        Q = [0] * (2 * m)
        for j, pj in enumerate(phi):
            for k, gk in enumerate(gam):
                if j != k:
                    Q[j + k] += 2 * (j - k) * (self.M // (j + k)) * pj * gk
        fa, ga = f[r][0], g[r][0]
        for k in range(1, m + 1):
            Q[k] += self.c2 * (fa * dG[k] - ga * dF[k])
        exF, exG = self.descartes[r]
        U = [(not exF) * abs(a) + (not exG) * abs(b) for a, b in zip(dF, dG)]
        base, L, unit, Xr, hr = self.base, self.L, self.unit, X[r], h[r][0]
        for j in cols:
            G = X[j] - Xr
            KA = (base * (L * (h[j][0] - hr)
                          + 2 * (fa * g[j][0] - ga * f[j][0]))
                  - _homogeneous(Q, G, 1))
            aF, aG = abs(_homogeneous(dF, G, 1)), abs(_homogeneous(dG, G, 1))
            Gm = G ** m
            low = high = unit * Gm * Gm
            low += Gm * (aF + aG)
            high += Gm * (_homogeneous(U, G, 1) + exF * aF + exG * aG)
            yield j, G, KA, low, high


def _taylor_pair(triple: JetTriple, a):
    return triple.F.taylor_poly(a), triple.G.taylor_poly(a)


def _velocities(m: int, a, TF: Polynomial, TG: Polynomial, ends) -> list:
    """V(a, b) for every b in the nondecreasing `ends`, each > a."""
    dF = prefix_abs_integrals(TF.derivative(), a, ends)
    dG = prefix_abs_integrals(TG.derivative(), a, ends)
    return [
        (b - a) ** (2 * m) + (b - a) ** m * (f.value + g.value)
        for b, f, g in zip(ends, dF, dG)
    ]


def area_discrepancy(triple: JetTriple, a, b) -> Fraction:
    """Vertical gap A(a,b) between the prescribed H-increment and the
    signed area swept by the Taylor polynomials of F and G:
    H(b) - H(a) - int_a^b area_rate(TF, TG) + 2 F(a) (G(b) - TG(b))
    - 2 G(a) (F(b) - TF(b)), the one-pair case of `_AreaKernel`."""
    a, b = _q(a), _q(b)
    if a == b:
        raise ValueError("require distinct sites")
    kernel = _AreaKernel(triple, (triple.F._index(a), triple.F._index(b)))
    (_, _, KA, _, _), = kernel.row(0, (1,))
    return Fraction(KA, kernel.K)


def velocity(triple: JetTriple, a, b) -> Fraction:
    """Normalizer V(a,b) = (b-a)^{2m} + (b-a)^m int_a^b (|TF'| + |TG'|)."""
    a, b = _q(a), _q(b)
    if a >= b:
        raise ValueError("require a < b")
    return _velocities(triple.m, a, *_taylor_pair(triple, a), (b,))[0]


def _ratio_maxima(triple: JetTriple, bins) -> list:
    """For each of the sorted, distinct scales `bins`, the largest |A|/V
    over the site pairs whose gap lies above the scale before it and at
    most this one, or None if there is no such pair; the filter that
    `extendability_report` describes."""
    sites = triple.sites
    n = len(sites)
    kernel = _AreaKernel(triple, range(n))
    X, D, m = kernel.X, kernel.D, kernel.m
    floors = [s.numerator * D // s.denominator for s in bins]
    # widening of W V, ceil(G^m wn / wd)
    wn, wd = (2 * DEFAULT_TOL * kernel.unit * D ** m).as_integer_ratio()
    nb = len(bins)
    lb = [(0, 1)] * nb  # largest lower bound per bin, as (|K A|, W V)
    lb_exact = [True] * nb  # attained by a pair whose ratio is exact
    seen = [False] * nb
    pending = [[] for _ in range(nb)]  # (r, j, |K A|, lower W V)
    for r in range(n - 1):
        stop = bisect.bisect_right(X, X[r] + floors[-1], r + 1)
        exact = all(kernel.descartes[r])
        for j, G, KA, low, high in kernel.row(r, range(r + 1, stop)):
            b = bisect.bisect_left(floors, G)
            seen[b] = True
            if not KA:
                continue
            A = abs(KA)
            num, den = lb[b]
            if exact:
                if A * den >= num * low:
                    lb[b], lb_exact[b] = (A, low), True
                continue
            wide = -(-G ** m * wn // wd)
            low, high = low - wide, high + wide
            if A * den > num * high:
                num, den = lb[b] = (A, high)
                lb_exact[b] = False
            if low <= 0 or A * den >= num * low:
                pending[b].append((r, j, A, low))
    best = [Fraction(num * kernel.W, kernel.K * den) if s and ok else None
            for s, ok, (num, den) in zip(seen, lb_exact, lb)]
    todo = {}  # r -> [(j, bin, |K A|)] of the pairs whose V is computed
    for b, ((num, den), rows) in enumerate(zip(lb, pending)):
        for r, j, A, low in rows:
            if low <= 0 or A * den >= num * low:
                todo.setdefault(r, []).append((j, b, A))
    for r, pairs in todo.items():
        pairs.sort()
        a = sites[r]
        ends = [sites[j] for j, _, _ in pairs] + [sites[-1]]
        speeds = _velocities(m, a, *_taylor_pair(triple, a), ends)
        for (_, b, A), V in zip(pairs, speeds):
            ratio = Fraction(A, kernel.K) / V
            if best[b] is None or ratio > best[b]:
                best[b] = ratio
    return best


@dataclass
class ExtendabilityReport:
    """Finite-scale evidence for the three horizontal-extension conditions."""

    ladder: tuple
    whitney_profiles: dict  # component -> list of modulus values along ladder
    max_ode_residual: Fraction
    ratio_profile: list  # max A/V over pairs with gap <= delta (None if no pair)
    whitney_pass: bool
    ode_pass: bool
    ratio_pass: bool

    @property
    def verdict(self) -> bool:
        return self.whitney_pass and self.ode_pass and self.ratio_pass

    def to_json_obj(self) -> dict:
        def profile(vals):
            return [
                {
                    "delta": rational_to_str(d),
                    # a float, or inf past the float range
                    "value": None if v is None else repr(_pth_root(v, 1)),
                }
                for d, v in zip(self.ladder, vals)
            ]

        return {
            "whitney": {k: profile(v) for k, v in self.whitney_profiles.items()},
            "max_ode_residual": repr(_pth_root(self.max_ode_residual, 1)),
            "area_velocity_ratio": profile(self.ratio_profile),
            "conditions": {
                "whitney_fields": self.whitney_pass,
                "ode_constraints": self.ode_pass,
                "ratio_vanishes": self.ratio_pass,
            },
            "verdict": "pass" if self.verdict else "fail",
        }


def extendability_report(
    triple: JetTriple,
    ladder=DEFAULT_LADDER,
    tolerance: Fraction = Fraction(1, 10**6),
) -> ExtendabilityReport:
    """Check the three jet conditions for extension to a C^m horizontal curve.

    Condition profiles are evaluated over a geometric delta-ladder, in the
    ladder's order; none falls as delta grows. A Whitney or A/V profile
    passes when its value at the smallest populated scale is at most
    `tolerance`, and fails with no populated scale, as no data is no
    evidence. A Whitney profile reads 0 at a scale with no pair, so only
    an A/V profile can be unpopulated. The ODE condition passes when the
    largest residual is at most `tolerance`.

    The A/V profile is read from each scale bin's largest ratio, and
    pairs farther apart than the largest scale are never visited. Every
    pair gets K A as one int and W V bounded by ints with no root
    (`_AreaKernel`), with d = b - a:
        V >= d^(2m) + d^m (|TF(b) - F(a)| + |TG(b) - G(a)|),
    as int |p'| >= |int p'|, and
        V <= d^(2m) + d^m sum_(k=1..m) (|F^(k)(a)| + |G^(k)(a)|) d^k / k!,
    by the triangle inequality on TF' and TG'. Both are widened by
    2 DEFAULT_TOL d^m, more than a certified V can differ from the true
    one, so they hold for the V that is computed. When F'(a), ...,
    F^(m)(a) show no sign change, TF' has no root right of a (Descartes'
    rule) and the F part is exactly |TF(b) - F(a)|, the value
    `prefix_abs_integrals` returns; likewise for G. A pair's V is computed
    only when A != 0, a part is not exact and its upper bound on A/V
    reaches the largest lower bound in its bin; every other pair's ratio
    is 0, exact, or below a pair that is computed, so no bin maximum
    changes. A computed V comes from `prefix_abs_integrals` on
    (a, last site], the isolation interval and refinement width that
    every pair of the site a shares, so it is the same certified
    `Fraction` as if every pair were computed. Ratios compare by
    cross-multiplication, K and W being the same for every pair, and only
    the bin maxima become `Fraction`s.
    """
    ladder = tuple(_q(d) for d in ladder)
    if not ladder:
        raise ValueError("need at least one ladder scale")
    if len(triple.sites) < 2:
        raise ValueError("need at least two sites")
    profiles = {
        name: [v for _, v in jet.modulus_profile(ladder)]
        for name, jet in (("F", triple.F), ("G", triple.G), ("H", triple.H))
    }
    ode_max = triple.max_ode_residual()

    bins = sorted(set(ladder))
    ratio_profile = ladder_maxima(
        ((s, v) for s, v in zip(bins, _ratio_maxima(triple, bins))
         if v is not None), ladder)

    up = sorted(range(len(ladder)), key=ladder.__getitem__)

    def passes(profile) -> bool:
        smallest = next((profile[i] for i in up if profile[i] is not None),
                        None)
        return smallest is not None and smallest <= tolerance

    return ExtendabilityReport(
        ladder, profiles, ode_max, ratio_profile,
        all(map(passes, profiles.values())), ode_max <= tolerance,
        passes(ratio_profile),
    )


# ---------------------------------------------------------------------------
# Hermite gap fill and horizontal repair
# ---------------------------------------------------------------------------


def hermite_two_point(a, va: Sequence, b, vb: Sequence) -> Polynomial:
    """Unique degree-(2m+1) polynomial with derivatives va at a, vb at b.

    va, vb list the derivative values of orders 0..m, and a != b. Newton
    form on the nodes (a,...,a,b,...,b) on ints: with a = A/D, b = B/D,
    H = B - A and the Taylor coefficients v^(k)/k! over one M, the divided
    difference on nodes i-j..i is Y[i] / (M H^j), and the interpolant
    times M (HD)^(2m+1) is sum_j Y[j] (HD)^(2m+1-j) prod_(k<j) (Dy - D node_k).
    """
    (A, B), D = _cleared((_q(a), _q(b)))
    if A == B:
        raise ValueError("require distinct ends")
    m = len(va) - 1
    if len(vb) != m + 1:
        raise ValueError("endpoint data must have equal length")
    # v^(k)/k! = v^(k) (m!/k!) / m!, so the Taylor coefficients are
    # ints over M = L m!, L the shared denominator of the values
    nums, L = _cleared(map(_q, (*va, *vb)))
    taylor = [v * (math.factorial(m) // math.factorial(k % (m + 1)))
              for k, v in enumerate(nums)]
    H, HD, n = B - A, (B - A) * D, 2 * m + 2
    # after pass j, Y[i] belongs to the nodes i-j..i (i >= j); going from
    # the bottom up keeps Y[i-1] at pass j-1
    Y = [taylor[0]] * (m + 1) + [taylor[m + 1]] * (m + 1)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            if i <= m or i - j > m:  # the nodes all at a, or all at b
                Y[i] = taylor[j + (i > m) * (m + 1)] * H**j
            else:
                Y[i] = D * (Y[i] - Y[i - 1])
    poly = Polynomial.constant(Y[-1])
    for j in range(n - 2, -1, -1):
        node = A if j <= m else B
        poly = poly * Polynomial.from_ints((-node, D)) + Y[j] * HD ** (n - 1 - j)
    return Polynomial.from_ints(poly.nums, L * math.factorial(m) * HD ** (n - 1))


def _gap_interpolants(triple: JetTriple, i: int):
    """Hermite interpolants of the F and G data across the gap after site i."""
    a, b = triple.sites[i], triple.sites[i + 1]
    return (
        hermite_two_point(a, triple.F.values[i], b, triple.F.values[i + 1]),
        hermite_two_point(a, triple.G.values[i], b, triple.G.values[i + 1]),
    )


def hermite_gap_fill(triple: JetTriple) -> PiecewiseCurve:
    """Fill the gaps between consecutive sites with degree-(2m+1) Hermite
    interpolants of the F and G data, then lift the vertical component.

    The result is exactly horizontal and matches the F, G jets at every
    site; it generally misses the prescribed H jets, which is the whole
    obstruction the area discrepancy measures.
    """
    sites = triple.sites
    if len(sites) < 2:
        raise ValueError("need at least two sites")
    f_pieces, g_pieces = zip(
        *(_gap_interpolants(triple, i) for i in range(len(sites) - 1))
    )
    f = PiecewisePolynomial(sites, f_pieces)
    g = PiecewisePolynomial(sites, g_pieces)
    return lift(f, g, triple.H.value(sites[0], 0))


def horizontal_repair_gap(triple: JetTriple, a, b) -> Fraction:
    """Vertical mismatch H(b) - h_lift(b) across one gap of the Hermite fill.

    h_lift starts from H(a); the mismatch is the part of the prescribed
    vertical increment the horizontal motion cannot supply.
    """
    a, b = _q(a), _q(b)
    sites = triple.sites
    ia = triple.F._index(a)
    if ia + 1 >= len(sites) or sites[ia + 1] != b:
        raise ValueError("a, b must be consecutive sites")
    h_lift_b = triple.H.value(a, 0) + area_rate(
        *_gap_interpolants(triple, ia)
    ).integral(a, b)
    return triple.H.value(b, 0) - h_lift_b
