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

    def abs_power_integrals(self, q: Polynomial, intervals, p: int,
                            tol: Fraction = DEFAULT_TOL) -> list:
        """Integral of |self - q|^p, p a positive integer, over each (a, b)
        of `intervals`.

        A piece span met by several intervals, such as a whole piece
        inside nested balls, is integrated once; each piece span is
        certified to tol / (number of pieces), however many intervals.
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
                        else abs_integral(d, lo, hi, tol=tol / n))
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
    domain = property(lambda self: self.f.domain)
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


def higher_horizontality_residual(curve: PiecewiseCurve, k: int,
                                  tol: Fraction = DEFAULT_TOL) -> Fraction:
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
        sv = sup_norm(d, bps[i], bps[i + 1], tol=tol)
        best = max(best, sv.value + sv.error)
    return best


def horizontality_residual(curve: PiecewiseCurve,
                           tol: Fraction = DEFAULT_TOL) -> Fraction:
    """Max sup-norm over pieces of h' - 2(f'g - g'f); 0 iff horizontal."""
    return higher_horizontality_residual(curve, 1, tol)


# ---------------------------------------------------------------------------
# area discrepancy / velocity and the extendability report
# ---------------------------------------------------------------------------


def _taylor_pair(triple: JetTriple, a):
    return triple.F.taylor_poly(a), triple.G.taylor_poly(a)


def _discrepancies(triple: JetTriple, a, TF: Polynomial, TG: Polynomial,
                   ends) -> list:
    """A(a, b) for every b in `ends`, from the Taylor polynomials at a:
    H(b) + 2 F(a) G(b) - 2 G(a) F(b) - P(b) for the one polynomial
    P = swept + 2 F(a) TG - 2 G(a) TF + H(a) - swept(a), swept the
    antiderivative of area_rate(TF, TG). P is read at each b = E/D, the
    ends cleared over D, by the homogenised Horner rule."""
    F, G, H = triple.F, triple.G, triple.H
    Fa, Ga = 2 * F.value(a, 0), 2 * G.value(a, 0)
    swept = area_rate(TF, TG).antiderivative()
    P = swept + TG * Fa - TF * Ga + (H.value(a, 0) - swept(a))
    E, D = _cleared(ends)
    nums = P.nums or (0,)
    K = P.den * D ** (len(nums) - 1)  # P(E/D) = _homogeneous(nums, E, D) / K
    return [H.value(b, 0) + Fa * G.value(b, 0) - Ga * F.value(b, 0)
            - Fraction(_homogeneous(nums, e, D), K) for b, e in zip(ends, E)]


def _velocities(m: int, a, TF: Polynomial, TG: Polynomial, ends,
                tol: Fraction) -> list:
    """V(a, b) for every b in the nondecreasing `ends`, each > a."""
    dF = prefix_abs_integrals(TF.derivative(), a, ends, tol)
    dG = prefix_abs_integrals(TG.derivative(), a, ends, tol)
    return [
        (b - a) ** (2 * m) + (b - a) ** m * (f.value + g.value)
        for b, f, g in zip(ends, dF, dG)
    ]


def area_discrepancy(triple: JetTriple, a, b) -> Fraction:
    """Vertical gap A(a,b) between the prescribed H-increment and the
    signed area swept by the Taylor polynomials of F and G."""
    a, b = _q(a), _q(b)
    if a == b:
        raise ValueError("require distinct sites")
    return _discrepancies(triple, a, *_taylor_pair(triple, a), (b,))[0]


def velocity(triple: JetTriple, a, b, tol: Fraction = DEFAULT_TOL) -> Fraction:
    """Normalizer V(a,b) = (b-a)^{2m} + (b-a)^m int_a^b (|TF'| + |TG'|)."""
    a, b = _q(a), _q(b)
    if a >= b:
        raise ValueError("require a < b")
    return _velocities(triple.m, a, *_taylor_pair(triple, a), (b,), tol)[0]


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
    tol: Fraction = DEFAULT_TOL,
) -> ExtendabilityReport:
    """Check the three jet conditions for extension to a C^m horizontal curve.

    Condition profiles are evaluated over a geometric delta-ladder, in the
    ladder's order; the pass rules read them from the largest scale down.
    The uniform-vanishing condition on A/V passes when the ratio at the
    smallest populated scale is below `tolerance` and the profile is
    non-increasing over its last three populated steps; with no populated
    scale it fails, as no data is no evidence.
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

    # Taylor data once per site a, every later site b in one sweep
    pairs = []
    sites = triple.sites
    for i, a in enumerate(sites[:-1]):
        ends = sites[i + 1:]
        TF, TG = _taylor_pair(triple, a)
        areas = _discrepancies(triple, a, TF, TG, ends)
        speeds = _velocities(triple.m, a, TF, TG, ends, tol)
        pairs.extend(
            (b - a, abs(av) / vv) for b, av, vv in zip(ends, areas, speeds)
        )
    ratio_profile = ladder_maxima(pairs, ladder)

    down = sorted(range(len(ladder)), key=ladder.__getitem__, reverse=True)
    populated = [ratio_profile[i] for i in down if ratio_profile[i] is not None]
    tail = populated[-3:]
    ratio_pass = bool(populated) and populated[-1] <= tolerance and all(
        x >= y for x, y in zip(tail, tail[1:])
    )
    whitney_pass = all(
        profile[down[-1]] <= tolerance for profile in profiles.values()
    )
    ode_pass = ode_max <= tolerance
    return ExtendabilityReport(
        ladder, profiles, ode_max, ratio_profile,
        whitney_pass, ode_pass, ratio_pass,
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
