"""Acceptance gate: one check per numbered guarantee of the library.

Each test prints a single PASS/FAIL line (written straight to the real
stdout so it survives pytest capture) and then asserts. Criterion 9 is
split in two: 09a checks what the Whitney sieve retains, 09b checks the
jet modulus it reports for y^3 at delta = 2^-10 against the closed form
6 * delta of the Whitney remainders.
"""

import math
import random
import sys
from fractions import Fraction as F

from heislusin.counterexample import (
    build_curve,
    check_params,
    component_increments,
    default_params,
    good_pair_search,
    straddle_ratio,
)
from heislusin.curves import (
    PiecewisePolynomial,
    area_discrepancy,
    hermite_gap_fill,
    higher_horizontality_residual,
    horizontal_repair_gap,
    horizontality_residual,
    lift,
    velocity,
)
from heislusin.diffanalysis import lp_remainder_ladder, whitney_sieve
from heislusin.intervalsets import IntervalSet
from heislusin.jets import DEFAULT_LADDER, Jet, JetTriple
from heislusin.polynomials import DEFAULT_TOL, Polynomial, abs_integral, sup_norm


def record(capsys, label, ok):
    with capsys.disabled():
        print("%s criterion %s" % ("PASS" if ok else "FAIL", label),
              flush=True)
    assert ok, label


def single(p, a=0, b=1):
    return PiecewisePolynomial([a, b], [p])


def rand_poly(rng, deg, lo=-9, hi=9):
    return Polynomial(
        [F(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(deg + 1)]
    )


def test_criterion_01_component_increments(capsys):
    C = build_curve(default_params(8))
    incs = component_increments(C)
    record(
        capsys,
        "01: every component h-increment equals 4/9^n exactly (depth 8)",
        bool(incs) and all(v == 4 * F(1, 9) ** n for n, _, v in incs),
    )


def test_criterion_02_measure_bound(capsys):
    p = default_params(12)
    partial = F(0)
    ok = True
    levels = build_curve(p).I_levels
    union = IntervalSet()
    for n in range(1, 13):
        partial += 2**n * p.w(n)
        ok = ok and partial <= F(1, 31)
        union = IntervalSet(union.intervals + levels[n - 1].intervals)
        ok = ok and union.measure() <= partial
    record(capsys, "02: sum 2^n w_n <= 1/31 and measure(union I_n) <= it, N <= 12", ok)


def test_criterion_03_parameter_conditions(capsys):
    rep = check_params(default_params(10), p_max=4)
    ok = rep["lambda_partial_sums"]["bounded_by_4"]
    ok = ok and rep["h_over_lambda"]["values"] == [
        F(5, 6) ** n for n in range(1, 11)
    ]
    ok = ok and rep["h_over_lambda"]["decreasing_from"] == 0
    ok = ok and rep["h_tail_ratio"]["decreasing_from"] == 0
    for p in (1, 2, 3, 4):
        d = rep["w_tail_ratios"][p]["decreasing_from"]
        ok = ok and d is not None and d <= 2  # decreasing from n = 3 on
    record(capsys, "03: scale/height/width sequence conditions hold exactly", ok)


def test_criterion_04_straddle_contradiction(capsys, curve10):
    p = curve10.params
    ratios = []
    ok = True
    for n in range(5, 10):
        r = straddle_ratio(curve10, n)
        ratios.append(r)
        ok = ok and r == 4 * (4**n * p.h(n + 1)) ** 2
    ok = ok and all(a < b for a, b in zip(ratios, ratios[1:]))
    ok = ok and 4**6 * p.h(7) == F(4096, 2187) < 2
    ok = ok and 4**7 * p.h(8) == F(16384, 6561) >= 2
    record(capsys, "04: straddle ratio matches both routes, first crossing at n=7", ok)


def test_criterion_05_horizontality_identities(capsys):
    rng = random.Random(2024)
    sites = (0, F(1, 3), F(1, 2), 1)
    ok = True
    for _ in range(200):
        f, g = rand_poly(rng, 4), rand_poly(rng, 4)
        c = lift(single(f), single(g))
        ok = ok and horizontality_residual(c) == 0
        ok = ok and all(
            higher_horizontality_residual(c, k) == 0 for k in range(1, 5)
        )
        t = JetTriple.from_curve_samples(f, g, c.h_pieces[0], sites, 8)
        ok = ok and t.F.whitney_modulus(1) == 0
        ok = ok and t.G.whitney_modulus(1) == 0
        ok = ok and t.H.whitney_modulus(1) == 0
        ok = ok and t.max_ode_residual() == 0
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                ok = ok and area_discrepancy(t, a, b) == 0
    record(capsys, "05: lifted polynomial curves satisfy every identity exactly", ok)


def test_criterion_06_integral_max_bound(capsys):
    # 1/(8n^2) (b-a) sup|P| <= integral of |P| <= (b-a) sup|P| on [a, b],
    # cross-multiplied, with the certified errors as the slack
    def within(P, a, b, tol=DEFAULT_TOL):
        I, S = abs_integral(P, a, b, tol=tol), sup_norm(P, a, b, tol=tol)
        n = max(P.degree, 1)
        return I, S, ((b - a) * (S.value - S.error)
                      <= 8 * n * n * (I.value + I.error)
                      and I.value - I.error <= (b - a) * (S.value + S.error))

    rng = random.Random(7)
    ok = True
    # exact path: c (y-a)^i (y-b)^j has rational critical points
    for _ in range(500):
        a = F(rng.randint(-4, 4), rng.randint(1, 4))
        b = a + F(rng.randint(1, 8), rng.randint(1, 4))
        i, j = rng.randint(0, 5), rng.randint(0, 5)
        c = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        P = c * Polynomial((-a, 1)) ** i * Polynomial((-b, 1)) ** j
        I, S, bound = within(P, a, b)
        ok = ok and I.exact and S.exact and bound
    # certified path: arbitrary coefficients
    for _ in range(500):
        P = rand_poly(rng, rng.randint(0, 10))
        if P.is_zero:
            P = P + Polynomial((1,))
        ok = ok and within(P, 0, 1, tol=F(1, 10**10))[2]
    record(capsys, "06: averaged |P| vs sup norm stays in [1/(8n^2), 1]", ok)


def test_criterion_07_jet_constructions(capsys):
    rng = random.Random(13)
    ok = True
    for _ in range(100):
        p = rand_poly(rng, rng.randint(0, 6))
        rng.randint(-3, 3), rng.randint(1, 5)  # a base point: keeps the stream
        c = F(rng.randint(-5, 5))
        ok = ok and (p.antiderivative() + c).derivative() == p
    binom = [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1]]
    for m in (2, 3):
        for _ in range(50):
            P, Q = rand_poly(rng, m), rand_poly(rng, m)
            x = F(rng.randint(-2, 2), rng.randint(1, 4))
            h = lift(single(P, x, x + 1), single(Q, x, x + 1),
                     F(rng.randint(-5, 5))).h.pieces[0]
            for k in range(1, m + 1):
                want = 2 * sum(
                    binom[k - 1][i]
                    * (P.derivative(k - i)(x) * Q.derivative(i)(x)
                       - Q.derivative(k - i)(x) * P.derivative(i)(x))
                    for i in range(k)
                )
                ok = ok and h.derivative(k)(x) == want
            t = JetTriple(*(Jet.from_polynomial(u, [x], m) for u in (P, Q, h)))
            ok = ok and all(t.ode_residual(x, k) == 0 for k in range(1, m + 1))
    record(capsys, "07: jet integration and vertical-jet ODE constraints exact", ok)


def test_criterion_08_lp_ladder_decay(capsys):
    # Depth 12 (as in criterion 2) so the two smallest windows around
    # x = 1/3 actually meet construction levels 11 and 12; at depth 10
    # they are empty and the remainder is identically zero there.
    C = build_curve(default_params(12))
    lam = C.params.lam
    scales = [lam(n) for n in range(6, 11)]
    ok = True
    for p in (1, 2):
        rep = lp_remainder_ladder(
            C.curve.f, Polynomial.zero(), F(1, 3), 2, p, scales
        )
        vals = rep.power_values  # exact p-th powers of the ladder values
        ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
        ok = ok and vals[-1] * 4**p <= vals[0]
    record(capsys, "08: normalized L^p remainders at x=1/3 drop by a factor >= 4", ok)


def test_criterion_09_sieve_retention(capsys, curve10):
    res = whitney_sieve(single(Polynomial((0, 0, 0, 1))), 2, F(1, 20),
                        grid=2**12)
    ok = res.retained.measure() >= F(95, 100)
    centers = [
        (iv.lo + iv.hi) / 2
        for lev in curve10.I_levels for iv in lev.intervals
    ]
    resc = whitney_sieve(curve10.curve.f, 2, F(2, 10), grid=2**12,
                         extra_points=centers)
    ok = ok and not resc.retained.intersects(curve10.I_union)
    record(capsys, "09a: sieve keeps >= 0.95 of y^3 and avoids every component", ok)


def test_criterion_09_sieve_modulus(capsys):
    cube = Polynomial((0, 0, 0, 1))
    res = whitney_sieve(single(cube), 2, F(1, 20), grid=2**12)
    delta = F(1, 2**10)
    idx = list(DEFAULT_LADDER).index(delta)
    # For u = y^3 and m = 2 the normalized order-k remainders at a gap g
    # are exactly g (k=0), 3g (k=1) and 6g (k=2), so the modulus at
    # delta is 6 * (largest gap <= delta). Every cell is retained and the
    # 1024-point cap keeps every fourth cell center, so the kept points
    # are spaced exactly delta apart and the modulus is 6 * delta.
    want = 6 * delta
    got = res.modulus_profile[idx]
    ok = math.isclose(got, float(want), rel_tol=1e-9)
    # the exact jet modulus on a run of the same evenly spaced sites
    sites = [F(8 * j + 1, 2**13) for j in range(40)]
    ok = ok and Jet.from_polynomial(cube, sites, 2).whitney_modulus(delta) == want
    record(
        capsys,
        "09b: y^3 sieve modulus at delta=2^-10 equals the Whitney closed "
        "form 6*delta",
        ok,
    )


def test_criterion_10_hermite_repair(capsys, curve10):
    rng = random.Random(29)
    sites = (0, F(2, 5), 1)
    ok = True
    for _ in range(25):
        f, g = rand_poly(rng, 2), rand_poly(rng, 2)
        c = lift(single(f), single(g))
        t = JetTriple.from_curve_samples(f, g, c.h_pieces[0], sites, 2)
        filled = hermite_gap_fill(t)
        for gap in range(len(sites) - 1):
            for s in (sites[gap], sites[gap + 1]):
                for k in range(3):
                    ok = ok and (
                        filled.f_pieces[gap].derivative(k)(s) == t.F.value(s, k)
                    )
                    ok = ok and (
                        filled.g_pieces[gap].derivative(k)(s) == t.G.value(s, k)
                    )
            ok = ok and horizontal_repair_gap(
                t, sites[gap], sites[gap + 1]
            ) == 0
    h = curve10.curve.h
    for n in (6, 7, 8):
        iv = curve10.I_levels[n].intervals[0]
        ctr = (iv.lo + iv.hi) / 2
        half = F(1, 2 ** (n + 1))
        x, y = ctr - half, ctr + half
        zeros = ((0, 0, 0), (0, 0, 0))
        t = JetTriple(
            Jet(2, (x, y), zeros), Jet(2, (x, y), zeros),
            Jet(2, (x, y), ((h(iv.lo), 0, 0), (h(iv.hi), 0, 0))),
        )
        ok = ok and horizontal_repair_gap(t, x, y) == 4 * curve10.params.h(
            n + 1
        ) ** 2
    record(capsys, "10: gap-fill matches jets; repair term 0 resp. 4 h_(n+1)^2", ok)


def test_criterion_11_good_pairs(capsys, curve10):
    I = curve10.I_union
    ok = True
    for n in range(1, curve10.params.depth):
        pair = good_pair_search(IntervalSet.unit(), curve10, n)
        ok = ok and pair is not None
        if pair is None:
            continue
        x, y = pair
        ok = ok and y - x <= F(1, 2**n)
        ok = ok and not I.clip(x, x) and not I.clip(y, y)
        ok = ok and any(
            x <= iv.lo and y >= iv.hi
            for iv in curve10.I_levels[n].intervals
        )
    ok = ok and F(2, 3) + F(4, 31) == F(74, 93) <= F(4, 5)
    record(capsys, "11: straddling pair at every level; 74/93 <= 4/5 exactly", ok)
