"""Finite-scale estimators for L^p and approximate differentiability.

A function is m times L^p differentiable at x when the normalized
remainder [avg over B(x,rho) of |u - P|^p]^(1/p) / rho^m vanishes as
rho -> 0; it is approximately differentiable when the sublevel sets
{ |u - P| <= eps |y - x|^m } have full density. Finite data cannot
certify the limits, so these routines report ladders of exact values
over decreasing scales, and the Whitney sieve turns the pointwise
estimates into a retained set on which the induced jet is close to a
Whitney field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .curves import PiecewisePolynomial
from .intervalsets import Interval, IntervalSet, _pth_root, _q, rational_to_str
from .jets import DEFAULT_LADDER, _bins, _jet_modulus, _remainder_sweep
from .polynomials import (
    DEFAULT_TOL,
    Polynomial,
    isolate_roots,
    refine_root,
)


@dataclass
class LadderReport:
    """Normalized remainder values over a decreasing ladder of scales.

    `power_values` carries the p-th powers of the values (the values
    themselves are p-th roots, generally irrational); cross-scale and
    cross-exponent comparisons should use the powers. They are exact for
    even p and whenever u - P changes sign only at rational points;
    for odd p with irrational crossings each is certified only to within
    DEFAULT_TOL / (2 rho^(1+mp)) of the true power.
    """

    scales: tuple
    values: list  # floats
    power_values: list  # Fractions

    def to_csv(self) -> str:
        lines = ["rho,value"]
        for s, v in zip(self.scales, self.values):
            lines.append("%s,%r" % (rational_to_str(s), v))
        return "\n".join(lines) + "\n"


def lp_remainder_ladder(
    u: PiecewisePolynomial,
    P: Polynomial,
    x,
    m: int,
    p: int,
    ladder=None,
) -> LadderReport:
    """[avg over B(x,rho) of |u - P|^p]^(1/p) / rho^m per ladder scale.

    Exact path: u piecewise polynomial, integer p. The report stores the
    normalized p-th powers alongside float values: exact, except for odd
    p when u - P changes sign at irrational points, where the integral
    is certified to DEFAULT_TOL and so each power to
    DEFAULT_TOL / (2 rho^(1+mp)).
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if m < 0:
        raise ValueError("m must be nonnegative")
    x = _q(x)
    lo, hi = u.domain
    if ladder is None:
        ladder = tuple(d for d in DEFAULT_LADDER if d <= min(x - lo, hi - x))
        if not ladder:
            raise ValueError("x too close to the boundary for any scale")
    ladder = tuple(_q(s) for s in ladder)
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder scales must be strictly decreasing")
    if not ladder or ladder[-1] <= 0:
        raise ValueError("ladder scales must be positive, and at least one")
    if x - ladder[0] < lo or x + ladder[0] > hi:
        raise ValueError("x too close to the boundary for the largest scale")

    integrals = u.abs_power_integrals(
        P, [(x - rho, x + rho) for rho in ladder], p)
    powers, values = [], []
    for rho, integ in zip(ladder, integrals):
        power = (integ.value / (2 * rho)) / rho ** (m * p)
        powers.append(power)
        values.append(_pth_root(power, p))
    return LadderReport(ladder, values, power_values=powers)


# ---------------------------------------------------------------------------
# approximate differentiability
# ---------------------------------------------------------------------------


def approx_density(
    u: PiecewisePolynomial,
    P: Polynomial,
    x,
    m: int,
    eps,
    R,
) -> Fraction:
    """Fraction of B(x,R), clipped to the domain, where
    |u(y) - P(y)| <= eps |y - x|^m.

    Exact when the boundary crossings are rational (piecewise-linear u,
    low-degree P); otherwise correct up to DEFAULT_TOL per crossing.
    """
    x, eps, R = _q(x), _q(eps), _q(R)
    if eps <= 0 or R <= 0:
        raise ValueError("eps and R must be positive")
    dlo, dhi = u.domain
    a, b = max(dlo, x - R), min(dhi, x + R)
    if a >= b:
        raise ValueError("ball does not meet the domain")
    power = Polynomial((-x, 1)) ** m  # (y - x)^m
    # eps |y-x|^m left and right of x: |y-x|^m = (-1)^m (y-x)^m on the left
    e_left, e_right = (eps * (-1) ** m) * power, eps * power
    total = Fraction(0)
    for plo, phi, piece in u.spans(a, b):
        d = piece - P
        for lo, hi, e in (
            (plo, min(phi, x), e_left),
            (max(plo, x), phi, e_right),
        ):
            if lo >= hi:
                continue
            # good set: d - e <= 0 and -(d + e) <= 0
            over, under = d - e, -(d + e)
            n_roots = max(1, over.degree) + max(1, under.degree)
            width = DEFAULT_TOL / (2 * n_roots)
            total += _intersection_measure(over, under, lo, hi, width)
    return total / (b - a)


def _intersection_measure(q1: Polynomial, q2: Polynomial,
                          a: Fraction, b: Fraction, width: Fraction) -> Fraction:
    """Measure of {y in [a,b] : q1(y) <= 0 and q2(y) <= 0}, each crossing
    refined to a bracket no wider than `width`."""
    cuts = [a, b]
    for q in (q1, q2):
        if q.degree <= 0:
            continue
        for enc in isolate_roots(q, a, b):
            enc = refine_root(enc, width)
            cuts.append(enc.midpoint)
    cuts = sorted(set(cuts))
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        if q1(mid) <= 0 and q2(mid) <= 0:
            total += hi - lo
    return total


# ---------------------------------------------------------------------------
# Whitney sieve
# ---------------------------------------------------------------------------


@dataclass
class SieveResult:
    """Retained set of the sieve plus its diagnostics."""

    retained: IntervalSet
    cell_width: Fraction
    defects: list  # per n: (n, excluded measure at that stage, budget eps/2^n)
    modulus_scales: tuple
    modulus_profile: list  # floats, Whitney modulus of the jet on retained pts

    @property
    def budget_ok(self) -> bool:
        return all(new <= budget for _, new, budget in self.defects)

    def to_json_obj(self) -> dict:
        return {
            "retained": self.retained.to_json_obj(),
            "cell_width": rational_to_str(self.cell_width),
            "measure": rational_to_str(self.retained.measure()),
            "defects": [
                {
                    "n": n,
                    "excluded": rational_to_str(d),
                    "budget": rational_to_str(bud),
                }
                for n, d, bud in self.defects
            ],
            "budget_ok": self.budget_ok,
            "modulus": [
                {"delta": rational_to_str(s), "value": repr(v)}
                for s, v in zip(self.modulus_scales, self.modulus_profile)
            ],
        }


def whitney_sieve(
    u: PiecewisePolynomial,
    m: int,
    eps,
    grid: int = 2**14,
    n_max: int = 6,
    extra_points: Sequence = (),
    modulus_cap: int = 1024,
) -> SieveResult:
    """Retain the grid cells whose test points pass the W-measure test
    at every stage and radius, and report the Whitney modulus of the
    induced jet on the retained points.

    For each n = 1..n_max the bad set at x is
    W(x,r) = {y in B(x,r) : |u(y) - P_x(y)| > (1/n) |y - x|^m} with P_x
    the Taylor polynomial from the piecewise derivatives of u at x; x
    survives stage n when measure(W(x,r)) <= r/4 at every tested radius
    r <= 1/n. The measure counts the grid cells whose centres lie in
    W(x,r), and the comparison with r/4 is exact. A cell is retained
    when its center and every extra test point inside it survive all
    stages. `extra_points` lets callers force exact evaluation at
    places a uniform grid would miss (e.g. component centers of the
    counterexample curve); u is evaluated at them in exact arithmetic
    before rounding.

    The epsilon budget is reported, not enforced: `defects` lists the
    newly excluded measure at each stage against eps/2^n.

    The modulus is `jets._jet_modulus` of the kept points, defined
    there, at the scales of `DEFAULT_LADDER`. The stage tests read the
    order-0 remainders of the same sweep.
    """
    eps = _q(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m < 0 or n_max < 1 or grid < 8:
        raise ValueError("bad sieve parameters")
    dlo, dhi = u.domain
    if (dlo, dhi) != (Fraction(0), Fraction(1)):
        raise ValueError("sieve expects domain [0,1]")

    cell = Fraction(1, grid)
    extras = sorted(_q(t) for t in extra_points)
    if any(not Fraction(0) <= t <= Fraction(1) for t in extras):
        raise ValueError("extra points must lie in [0,1]")
    # the centres (2i+1)/(2 grid), then the extra points
    points = np.concatenate(((2 * np.arange(grid) + 1) / (2 * grid),
                             [float(t) for t in extras]))
    order = np.argsort(points, kind="stable")
    xs = points[order]
    is_center = order < grid

    derivs = [u.derivative(k) if k else u for k in range(m + 1)]
    try:
        U = np.array([d.center_floats(grid) + [float(d(t)) for t in extras]
                      for d in derivs])[:, order]
    except OverflowError:
        raise ValueError("a sample of u or of its first m derivatives is "
                         "past the float range") from None

    # radii tested: ladder values representable on the grid, up to the
    # radius 1 of the first stage
    radii = sorted({r for r in DEFAULT_LADDER if 4 * cell <= r <= 1})
    first_bad = _first_bad_counts(xs, U, is_center, radii, n_max)
    # measure(W(x,r)) <= r/4 holds when at most this many cells are bad
    caps = [math.floor(r * grid / 4) for r in radii]

    alive = np.ones(len(xs), dtype=bool)
    bad = np.zeros(first_bad.shape[1:], dtype=first_bad.dtype)
    defects = []
    excluded_prev = Fraction(0)
    for n in range(1, n_max + 1):
        bad += first_bad[n - 1]
        within = bad.cumsum(axis=0)  # bad cells at gap <= radii[r]
        for r, (radius, cap) in enumerate(zip(radii, caps)):
            if radius <= Fraction(1, n):
                alive &= within[r] <= cap
        excluded = cell * int(np.count_nonzero(is_center & ~alive))
        new = excluded - excluded_prev
        defects.append((n, new, eps / 2**n))
        excluded_prev = excluded

    # each test point's first and last closed cell: a centre's own, an
    # extra point t's one or two; a cell is retained when every test
    # point in it is alive
    ks = [t * grid for t in extras]
    first, last = (
        np.concatenate((np.arange(grid), np.array(ends, dtype=int)))[order]
        for ends in ([max(math.ceil(k) - 1, 0) for k in ks],
                     [min(math.floor(k), grid - 1) for k in ks]))
    cell_alive = np.ones(grid, dtype=bool)
    cell_alive[first[~alive]] = cell_alive[last[~alive]] = False
    # one closed interval per run of retained cells
    edges = np.flatnonzero(np.diff(cell_alive, prepend=False, append=False))
    retained = IntervalSet(
        Interval(Fraction(a, grid), Fraction(b, grid), True, True)
        for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())
    )

    keep = np.flatnonzero(alive & cell_alive[last])
    if len(keep) > modulus_cap:
        keep = keep[::-(-len(keep) // modulus_cap)]
    profile = _jet_modulus(xs[keep], U[:, keep], DEFAULT_LADDER)
    return SieveResult(retained, cell, defects, DEFAULT_LADDER, profile)


def _first_bad_counts(xs, U, is_center, radii, n_max) -> np.ndarray:
    """counts[s, r, x]: grid cells y with |u(y) - P_x(y)| > (1/n)|y - x|^m
    first at stage n = s + 1 and with radii[r] the smallest radius
    >= |y - x|. The last stage and radius slots hold the pairs that are
    never bad or farther apart than every radius."""
    m = len(U) - 1
    rf = np.array([float(r) for r in radii])
    inv_n = np.array([1.0 / n for n in range(1, n_max + 1)])[:, None]
    shape = (n_max + 1, len(radii) + 1, len(xs))
    counts = np.zeros(math.prod(shape), dtype=np.int32)
    reach = max(rf, default=-1.0)
    weight = is_center.astype(np.int32)  # add.at's fast path needs one dtype
    stride = shape[1] * shape[2]  # of the stage in the flat index
    for i, j, d, [(fwd, back)] in _remainder_sweep(xs, U, (0,), reach):
        thr = inv_n * d**m
        # the flat index of (last stage, radius bin), less the pair's x
        last = np.multiply(_bins(d, rf[:, None]), shape[2], dtype=np.intp)
        last += n_max * stride
        # thr falls with n, so a pair stays bad from its first bad stage on,
        # n_max - (stages it is bad at); forward rems count the cell y = j
        # at x = i, backward ones y = i at j
        for x, y, rem in ((i, j, fwd), (j, i, back)):
            flat = np.multiply(_bins(rem, thr), -stride, dtype=np.intp)
            flat += last
            flat += x
            np.add.at(counts, flat, weight[y])
    return counts.reshape(shape)
