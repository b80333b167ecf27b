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

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .curves import PiecewisePolynomial
from .intervalsets import Interval, IntervalSet, _q, rational_to_str
from .jets import DEFAULT_LADDER
from .polynomials import (
    DEFAULT_TOL,
    Polynomial,
    isolate_roots,
    refine_root,
)


@dataclass
class LadderReport:
    """Normalized remainder values over a decreasing ladder of scales.

    `power_values` carries the exact p-th powers of the values (the
    values themselves are p-th roots, generally irrational); exact
    cross-scale and cross-exponent comparisons should use the powers.
    """

    scales: tuple
    values: list  # floats
    power_values: Optional[list] = None  # Fractions, exact path only
    densities: Optional[list] = None

    def to_json_obj(self) -> dict:
        out = {
            "scales": [rational_to_str(s) for s in self.scales],
            "values": [repr(v) for v in self.values],
        }
        if self.power_values is not None:
            out["power_values"] = [rational_to_str(v) for v in self.power_values]
        if self.densities is not None:
            out["densities"] = [rational_to_str(d) for d in self.densities]
        return out

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
    tol: Fraction = DEFAULT_TOL,
) -> LadderReport:
    """[avg over B(x,rho) of |u - P|^p]^(1/p) / rho^m per ladder scale.

    Exact path: u piecewise polynomial, integer p. The report stores the
    exact normalized p-th powers alongside float values.
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
    if x - ladder[0] < lo or x + ladder[0] > hi:
        raise ValueError("x too close to the boundary for the largest scale")

    powers, values = [], []
    for rho in ladder:
        integ = u.abs_power_integral(P, x - rho, x + rho, p, tol)
        power = (integ.value / (2 * rho)) / rho ** (m * p)
        powers.append(power)
        values.append(float(power) ** (1.0 / p))
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
    tol: Fraction = DEFAULT_TOL,
) -> Fraction:
    """Fraction of B(x,R), clipped to the domain, where
    |u(y) - P(y)| <= eps |y - x|^m.

    Exact when the boundary crossings are rational (piecewise-linear u,
    low-degree P); otherwise correct up to tol per crossing.
    """
    x, eps, R = _q(x), _q(eps), _q(R)
    if eps <= 0 or R <= 0:
        raise ValueError("eps and R must be positive")
    dlo, dhi = u.domain
    a, b = max(dlo, x - R), min(dhi, x + R)
    if a >= b:
        raise ValueError("ball does not meet the domain")
    shift = Polynomial((-x, 1))  # y - x
    total = Fraction(0)
    for i, piece in enumerate(u.pieces):
        plo = max(a, u.breakpoints[i])
        phi = min(b, u.breakpoints[i + 1])
        if plo >= phi:
            continue
        d = piece - P
        for lo, hi, sgn in (
            (plo, min(phi, x), (-1) ** m),
            (max(plo, x), phi, 1),
        ):
            if lo >= hi:
                continue
            # on this side |y-x|^m = sgn * (y-x)^m
            e = (eps * sgn) * shift**m
            # good set: d <= e and -d <= e
            n_roots = max(1, (d - e).degree) + max(1, (d + e).degree)
            step = tol / (2 * n_roots)
            total += _intersection_measure(d - e, -(d + e), lo, hi, step)
    return total / (b - a)


def _intersection_measure(q1: Polynomial, q2: Polynomial,
                          a: Fraction, b: Fraction, tol: Fraction) -> Fraction:
    """Measure of {y in [a,b] : q1(y) <= 0 and q2(y) <= 0}."""
    cuts = [a, b]
    for q in (q1, q2):
        if q.is_zero or q.degree <= 0:
            continue
        for enc in isolate_roots(q, a, b):
            enc = refine_root(enc, tol)
            cuts.append(enc.midpoint)
    cuts = sorted(set(cuts))
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        v1 = q1(mid) if not q1.is_zero else Fraction(0)
        v2 = q2(mid) if not q2.is_zero else Fraction(0)
        if v1 <= 0 and v2 <= 0:
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
    budget_ok: bool
    modulus_scales: tuple
    modulus_profile: list  # floats, Whitney modulus of the jet on retained pts

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


def _sample_piecewise(u: PiecewisePolynomial, points) -> np.ndarray:
    bps = u.breakpoints
    out = np.empty(len(points))
    for j, t in enumerate(points):
        i = min(bisect.bisect_right(bps, t) - 1, len(u.pieces) - 1)
        out[j] = float(u.pieces[i](t))
    return out


def whitney_sieve(
    u: PiecewisePolynomial,
    m: int,
    eps,
    grid: int = 2**14,
    n_max: int = 6,
    extra_points: Sequence = (),
    modulus_cap: int = 1024,
    ladder=DEFAULT_LADDER,
) -> SieveResult:
    """Retain the grid cells whose test points pass every scale test
    W-measure test, and report the Whitney modulus of the induced jet on
    the retained points.

    For each n = 1..n_max the bad set at x is
    W(x,r) = {y in B(x,r) : |u(y) - P_x(y)| > (1/n) |y - x|^m} with P_x
    the Taylor polynomial from the piecewise derivatives of u at x; x
    survives stage n when measure(W(x,r)) <= r/4 at every tested radius
    r <= 1/n. A cell is retained when its center and every extra test
    point inside it survive all stages. `extra_points` lets callers
    force exact evaluation at places a uniform grid would miss (e.g.
    component centers of the counterexample curve); u is evaluated at
    them in exact arithmetic before rounding.

    The epsilon budget is reported, not enforced: `defects` lists the
    newly excluded measure at each stage against eps/2^n.
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
    centers = [Fraction(2 * i + 1, 2 * grid) for i in range(grid)]
    extras = sorted(_q(t) for t in extra_points)
    if any(not Fraction(0) <= t <= Fraction(1) for t in extras):
        raise ValueError("extra points must lie in [0,1]")
    points = centers + extras
    order = np.argsort([float(t) for t in points], kind="stable")
    xs_q = [points[i] for i in order]
    xs = np.array([float(t) for t in xs_q])

    derivs = [u.derivative(k) if k else u for k in range(m + 1)]
    U = np.vstack([_sample_piecewise(d, xs_q) for d in derivs])
    fact = [math.factorial(k) for k in range(m + 1)]

    # radii tested: ladder values representable on the grid
    r_min = Fraction(4, grid)
    radii = sorted((r for r in (_q(r) for r in ladder) if r >= r_min))

    npts = len(xs_q)
    alive = np.ones(npts, dtype=bool)
    widths = np.array(
        [float(cell)] * grid + [0.0] * len(extras)
    )[order]  # cell weight carried by each test point
    defects = []
    stage_excluded_prev = Fraction(0)
    budget_ok = True

    u0 = U[0]
    for n in range(1, n_max + 1):
        delta = 1.0 / n
        stage_alive = np.ones(npts, dtype=bool)
        for r in radii:
            if r > Fraction(1, n):
                continue
            rf = float(r)
            allowed = rf / 4.0
            # measure of W(x,r) via cell-weighted counting around each x
            badmass = np.zeros(npts)
            # pair (i, j): j right neighbor of i within r
            lo_idx = np.searchsorted(xs, xs - rf, side="left")
            hi_idx = np.searchsorted(xs, xs + rf, side="right")
            # accumulate per-lag to keep it vectorized
            max_span = int(np.max(hi_idx - lo_idx))
            for lag in range(1, max_span):
                i = np.arange(0, npts - lag)
                j = i + lag
                d = xs[j] - xs[i]
                within = d <= rf
                if not np.any(within):
                    break
                # Taylor of u at x_i evaluated at x_j, and vice versa
                pred_r = np.zeros(npts - lag)
                pred_l = np.zeros(npts - lag)
                for k in range(m, -1, -1):
                    pred_r = pred_r * d + U[k][i] / fact[k]
                    pred_l = pred_l * (-d) + U[k][j] / fact[k]
                thr = delta * d**m
                bad_r = within & (np.abs(u0[j] - pred_r) > thr)
                bad_l = within & (np.abs(u0[i] - pred_l) > thr)
                badmass[i] += np.where(bad_r, widths[j], 0.0)
                badmass[j] += np.where(bad_l, widths[i], 0.0)
            stage_alive &= badmass <= allowed
        alive &= stage_alive
        excluded = _excluded_measure(alive, order, grid, cell, len(extras))
        new = excluded - stage_excluded_prev
        budget = eps / 2**n
        defects.append((n, new, budget))
        budget_ok = budget_ok and new <= budget
        stage_excluded_prev = excluded

    # retained cells: center alive and every extra point in the closed
    # cell alive
    cell_alive = _cell_survival(alive, order, grid, xs_q, extras)
    retained = IntervalSet(
        Interval(Fraction(i, grid), Fraction(i + 1, grid), True, True)
        for i in range(grid)
        if cell_alive[i]
    )

    keep = [i for i in range(npts) if alive[i] and cell_alive[
        min(int(xs_q[i] * grid), grid - 1)
    ]]
    if len(keep) > modulus_cap:
        stride = -(-len(keep) // modulus_cap)
        keep = keep[::stride]
    profile_scales = tuple(_q(s) for s in ladder)
    profile = _jet_modulus(xs[keep], U[:, keep], m, profile_scales)
    return SieveResult(
        retained, cell, defects, budget_ok, profile_scales, profile
    )


def _excluded_measure(alive, order, grid, cell, n_extra) -> Fraction:
    dead_cells = set()
    inv = np.empty(len(order), dtype=int)
    inv[order] = np.arange(len(order))
    for i in range(grid):
        if not alive[inv[i]]:
            dead_cells.add(i)
    return cell * len(dead_cells)


def _cell_survival(alive, order, grid, xs_q, extras):
    inv = np.empty(len(order), dtype=int)
    inv[order] = np.arange(len(order))
    cell_alive = [bool(alive[inv[i]]) for i in range(grid)]
    for e, t in enumerate(extras):
        if alive[inv[grid + e]]:
            continue
        lo_cell = int(t * grid) - (1 if (t * grid).denominator == 1 else 0)
        hi_cell = int(t * grid)
        for c in (lo_cell, hi_cell):
            if 0 <= c < grid:
                cell_alive[c] = False
    return cell_alive


def _jet_modulus(xs: np.ndarray, U: np.ndarray, m: int, scales) -> list:
    """Whitney modulus profile of the sampled jet at the given points."""
    npts = len(xs)
    if npts < 2:
        return [0.0 for _ in scales]
    fact = [math.factorial(k) for k in range(m + 1)]
    d = xs[None, :] - xs[:, None]  # d[i, j] = x_j - x_i
    mask = d > 0
    gap = np.where(mask, d, np.inf)
    worst = np.full(d.shape, 0.0)
    for k in range(m + 1):
        pred = np.zeros(d.shape)
        for ell in range(m - k, -1, -1):
            pred = pred * d + U[k + ell][:, None] / fact[ell]
        rem = np.abs(U[k][None, :] - pred)
        ratio = rem / gap ** (m - k)
        worst = np.maximum(worst, np.where(mask, ratio, 0.0))
    out = []
    for s in scales:
        sel = mask & (d <= float(s))
        out.append(float(np.max(np.where(sel, worst, 0.0))) if np.any(sel) else 0.0)
    return out
