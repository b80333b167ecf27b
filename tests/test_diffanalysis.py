import bisect
import hashlib
import json
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislusin import jets
from heislusin.curves import PiecewisePolynomial
from heislusin.diffanalysis import (
    _first_bad_counts,
    _pth_root,
    approx_density,
    lp_remainder_ladder,
    whitney_sieve,
)
from heislusin.intervalsets import Interval, IntervalSet
from heislusin.jets import DEFAULT_LADDER, Jet, _jet_modulus
from heislusin.polynomials import Polynomial


def poly(*cs):
    return Polynomial(cs)


CUBE = poly(0, 0, 0, 1)


def single(p, a=0, b=1):
    return PiecewisePolynomial([a, b], [p])


def kink(c):
    """u(t) = |t - c| on [0, 1]."""
    return PiecewisePolynomial([0, c, 1], [poly(c, -1), poly(-c, 1)])


class TestLpLadder:
    def test_self_comparison_is_zero(self):
        u = single(poly(1, -1, 2), -1, 1)
        rep = lp_remainder_ladder(u, poly(1, -1, 2), 0, 2, 1,
                                  ladder=[F(1, 2), F(1, 4)])
        assert rep.power_values == [0, 0]

    def test_cubic_linear_decay(self):
        u = single(CUBE, -1, 1)
        rep = lp_remainder_ladder(u, Polynomial.zero(), 0, 2, 1,
                                  ladder=[F(1, 2), F(1, 4), F(1, 8)])
        # avg of |y|^3 over [-rho,rho] is rho^3/4, normalized by rho^2
        assert rep.power_values == [F(1, 8), F(1, 16), F(1, 32)]

    def test_power_mean_monotonicity(self):
        u = single(CUBE, -1, 1)
        ladder = [F(1, 2), F(1, 4), F(1, 8)]
        p1 = lp_remainder_ladder(u, Polynomial.zero(), 0, 2, 1, ladder)
        p2 = lp_remainder_ladder(u, Polynomial.zero(), 0, 2, 2, ladder)
        for a, b in zip(p1.power_values, p2.power_values):
            assert a**2 <= b  # (p=1 value)^2 <= (p=2 value)^2, exactly

    def test_boundary_guard(self):
        u = single(CUBE, 0, 1)
        with pytest.raises(ValueError):
            lp_remainder_ladder(u, Polynomial.zero(), F(1, 10), 2, 1,
                                ladder=[F(1, 2)])

    @pytest.mark.parametrize("ladder", [
        [F(0)], [F(1, 4), F(-1, 8)], [F(1, 4), F(0)], [],
    ])
    def test_non_positive_or_no_scale_rejected(self, ladder):
        u = single(CUBE, -1, 1)
        with pytest.raises(ValueError, match="positive"):
            lp_remainder_ladder(u, Polynomial.zero(), 0, 2, 1, ladder)

    def test_counterexample_f_decays_at_one_third(self, curve10):
        lam = curve10.params.lam
        scales = [lam(n) for n in (6, 7, 8)]
        rep = lp_remainder_ladder(curve10.curve.f, Polynomial.zero(),
                                  F(1, 3), 2, 1, scales)
        vals = rep.power_values
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p, rho", [(2, F(1, 2**600)), (3, F(1, 2**400))])
    def test_root_of_a_power_past_the_float_range(self, p, rho):
        # the kink is 1/6 at x = 1/2, so the power is near 6^-p rho^-p
        u = kink(F(1, 3))
        rep = lp_remainder_ladder(u, Polynomial.zero(), F(1, 2), 1, p,
                                  ladder=[F(1, 8), rho])
        with pytest.raises(OverflowError):
            float(rep.power_values[1])
        assert math.isclose(rep.values[1], 1 / (6 * float(rho)))
        assert rep.values[0] == float(rep.power_values[0]) ** (1.0 / p)

    @pytest.mark.parametrize("power, p", [
        (F(1, 10**400), 2), (F(10**400, 3), 2), (F(1, 3**900), 7),
    ])
    def test_root_of_a_power_below_or_above_the_float_range(self, power, p):
        with mpmath.workdps(50):
            root = mpmath.root(mpmath.mpf(power.numerator) / power.denominator,
                               p)
            assert abs(_pth_root(power, p) - root) <= 1e-15 * root

    def test_root_of_a_power_below_the_float_range(self):
        # y^3 on (-rho, rho): the 8th power averages to rho^24 / 25, far
        # below the float range, and its 8th root is about 2^-600
        u = single(CUBE, -1, 1)
        rho = F(1, 2**200)
        rep = lp_remainder_ladder(u, Polynomial.zero(), 0, 0, 8, [rho])
        assert rep.power_values == [rho**24 / 25]
        assert float(rep.power_values[0]) == 0.0
        with mpmath.workdps(50):
            root = mpmath.root(mpmath.mpf(2) ** -4800 / 25, 8)
            assert abs(rep.values[0] - root) <= 1e-15 * root

    def test_root_past_the_float_range_is_inf(self):
        u = kink(F(1, 3))
        rep = lp_remainder_ladder(u, Polynomial.zero(), F(1, 2), 1, 1,
                                  ladder=[F(1, 2**1100)])
        assert rep.values == [math.inf]
        assert rep.power_values[0] > 2**1090

    def test_csv_shape(self):
        u = single(CUBE, -1, 1)
        rep = lp_remainder_ladder(u, Polynomial.zero(), 0, 2, 1,
                                  ladder=[F(1, 2)])
        lines = rep.to_csv().splitlines()
        assert lines[0] == "rho,value"
        assert lines[1].startswith("1/2,")


class TestApproxDensity:
    def test_taylor_polynomial_full_density(self):
        p = poly(2, -1, 3)
        u = single(p, -1, 1)
        assert approx_density(u, p, 0, 2, F(1, 100), F(1, 2)) == 1

    def test_large_eps_near_one(self):
        u = single(poly(1), -1, 1)
        d = approx_density(u, Polynomial.zero(), 0, 1, 10**6, 1)
        assert d == 1 - F(1, 10**6)

    def test_monotone_in_eps(self):
        u = single(poly(0, 0, 1), -1, 1)
        vals = [
            approx_density(u, Polynomial.zero(), 0, 1, e, F(1, 2))
            for e in (F(1, 10), F(1, 2), F(2), F(10))
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_piecewise_constant_exact(self):
        # |1| <= 2|y - 0| exactly when |y| >= 1/2
        u = single(poly(1), -1, 1)
        assert approx_density(u, Polynomial.zero(), 0, 1, 2, 1) == F(1, 2)

    def test_counterexample_fprime_density_bound(self, curve10):
        # the bad set near x is carried by deep components only
        params = curve10.params
        x, n = F(1, 3), 6
        R = params.lam(n + 1)  # lies in [lambda_{n+1}, lambda_n)
        u = curve10.curve.f.derivative()
        d = approx_density(u, Polynomial.zero(), x, 1, 1, R)
        tail = sum(
            F(2) ** (k - n + 2) * params.w(k)
            for k in range(n + 1, params.depth + 1)
        )
        assert d >= 1 - tail / (2 * R)


class TestWhitneySieve:
    def test_cubic_retains_everything(self):
        res = whitney_sieve(single(CUBE), 2, F(5, 100), grid=2**10)
        assert res.retained.measure() == 1
        assert res.budget_ok

    def test_low_degree_full_grid(self):
        res = whitney_sieve(single(poly(1, 2, 1)), 2, F(5, 100), grid=2**9)
        assert res.retained.measure() == 1
        assert all(v == 0 for v in res.modulus_profile)

    def test_jump_excludes_neighborhood(self):
        u = PiecewisePolynomial([0, F(1, 2), 1], [poly(0), poly(1)])
        res = whitney_sieve(u, 1, F(5, 100), grid=2**10)
        nbhd = IntervalSet([Interval(F(1, 2) - F(1, 64), F(1, 2) + F(1, 64),
                                 False, False)])
        assert not res.retained.intersects(nbhd)

    def test_eps_only_affects_budget_reporting(self):
        u = single(CUBE)
        a = whitney_sieve(u, 2, F(5, 100), grid=2**9)
        b = whitney_sieve(u, 2, F(1, 100), grid=2**9)
        assert a.retained == b.retained  # retention is eps-independent
        assert [d[2] for d in a.defects] != [d[2] for d in b.defects]

    def test_counterexample_disjoint_from_components(self, curve10):
        centers = [
            (iv.lo + iv.hi) / 2
            for lev in curve10.I_levels for iv in lev.intervals
        ]
        res = whitney_sieve(
            curve10.curve.f, 2, F(2, 10), grid=2**12, extra_points=centers
        )
        assert not res.retained.intersects(curve10.I_union)
        # everything lost is the component cells plus the visible level-1
        # block; the remainder of the unit interval survives
        assert res.retained.measure() >= F(1, 2) - F(1, 10)

    def test_serialization(self):
        res = whitney_sieve(single(poly(0, 1)), 1, F(5, 100), grid=2**8)
        obj = res.to_json_obj()
        assert obj["measure"] == "1/1"
        assert obj["defects"][0]["n"] == 1

    @pytest.mark.parametrize("grid, c", [(80, F(11, 28)), (100, F(11, 28))])
    def test_survival_test_is_exact_off_power_of_two_grids(self, grid, c):
        # some centres have exactly r/4 of bad measure; adding up float
        # cell widths of 1/80 or 1/100 overshoots r/4 and drops them
        u = kink(c)
        res = whitney_sieve(u, 1, F(1, 20), grid=grid, n_max=3)
        assert res.retained == exact_retained(u, 1, grid, 3)


def exact_retained(u, m, grid, n_max):
    """The sieve's survival rule in exact arithmetic, for grid centres
    only: x survives when, for every stage n and tested radius r <= 1/n,
    the cells whose centres y satisfy 0 < |y - x| <= r and
    |u(y) - P_x(y)| > |y - x|^m / n measure at most r/4."""
    xs = [F(2 * i + 1, 2 * grid) for i in range(grid)]

    def piece(t):
        i = bisect.bisect_right(u.breakpoints, t) - 1
        return u.pieces[min(i, len(u.pieces) - 1)]

    radii = [r for r in DEFAULT_LADDER if r >= F(4, grid)]
    kept = []
    for x in xs:
        p = piece(x)
        taylor = [p.derivative(k)(x) / math.factorial(k) for k in range(m + 1)]
        pairs = [
            (abs(y - x),
             abs(piece(y)(y) - sum(a * (y - x) ** k
                                   for k, a in enumerate(taylor))))
            for y in xs if y != x
        ]
        kept.append(all(
            4 * sum(1 for gap, rem in pairs if gap <= r and n * rem > gap**m)
            <= r * grid
            for n in range(1, n_max + 1) for r in radii if r <= F(1, n)
        ))
    return IntervalSet(
        Interval(F(i, grid), F(i + 1, grid), True, True)
        for i, ok in enumerate(kept) if ok
    )


small = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def sampled_jets(draw):
    m = draw(st.integers(0, 3))
    sites = sorted(draw(st.sets(st.integers(0, 64), min_size=1, max_size=6)))
    values = tuple(tuple(draw(small) for _ in range(m + 1)) for _ in sites)
    # scales below the grid step 1/64 hold no pair
    ladder = draw(st.lists(
        st.fractions(min_value=F(1, 512), max_value=2, max_denominator=512),
        min_size=1, max_size=6))
    return Jet(m, tuple(F(x, 64) for x in sites), values), ladder


class TestSieveModulus:
    @given(sampled_jets())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_jet_modulus(self, case):
        jet, ladder = case
        xs = np.array([float(x) for x in jet.sites])
        U = np.array([[float(row[k]) for row in jet.values]
                      for k in range(jet.m + 1)])
        got = _jet_modulus(xs, U, ladder)
        gaps = [b - a for a, b in zip(jet.sites, jet.sites[1:])]
        for (d, exact), value in zip(jet.modulus_profile(ladder), got):
            assert type(value) is float
            if not any(g <= d for g in gaps):
                assert value == 0.0
            # a remainder sums terms below 9e in size with relative error
            # about 1e-15 each, then divides by gap^(m-k) >= 64^-3
            assert math.isclose(value, float(exact),
                                rel_tol=1e-9, abs_tol=1e-7)


def _sweep_data():
    """Floats on the centres of a 64-cell grid plus extra points, three
    of them on centres (pairs at gap 0), with m = 2 derivatives."""
    rng = np.random.default_rng(5)
    extras = [F(1, 128), F(37, 128), F(37, 128), F(1, 3), F(1, 2), 1]
    points = [F(2 * i + 1, 128) for i in range(64)] + extras
    order = np.argsort([float(t) for t in points], kind="stable")
    xs = np.array([float(points[i]) for i in order])
    return xs, rng.normal(size=(3, len(xs))), order < 64


class TestChunkedSweep:
    # radii up to 1/8 reach about 9 lags of rows about 69 pairs long, so
    # the sweep stops inside a chunk of 2^12 or 2^20 pairs
    RADII = [F(1, 2**k) for k in range(3, 5)]
    LADDER = [F(1, 2**k) for k in range(2, 9)]

    def run(self, monkeypatch, chunk):
        monkeypatch.setattr(jets, "_SWEEP_CHUNK", chunk)
        xs, U, is_center = _sweep_data()
        counts = _first_bad_counts(xs, U, is_center, self.RADII, 3)
        return counts, _jet_modulus(xs, U, self.LADDER)

    def test_float_results_do_not_depend_on_the_chunk(self, monkeypatch):
        counts, modulus = self.run(monkeypatch, jets._SWEEP_CHUNK)
        assert counts.sum() > 0 and modulus[-1] > 0
        for chunk in (1, 7, 2**20):
            other_counts, other_modulus = self.run(monkeypatch, chunk)
            assert np.array_equal(other_counts, counts)
            assert other_modulus == modulus

    def test_exact_profile_does_not_depend_on_the_chunk(self, monkeypatch):
        sites = [F(i, 40) + F(i * i % 7, 4000) for i in range(40)]
        values = [tuple(F((3 * i + k) % 11 - 5, k + 1) for k in range(4))
                  for i in range(40)]
        jet = Jet(3, sites, values)
        # the reach 1/9 ends the sweep inside a chunk of 2^12 pairs
        ladder = (F(1, 9), F(1, 20), F(1, 100), F(1, 2000))
        profile = jet.modulus_profile(ladder)
        for chunk in (1, 7, 2**20):
            monkeypatch.setattr(jets, "_SWEEP_CHUNK", chunk)
            assert jet.modulus_profile(ladder) == profile


def _array_power(x, k):
    """x ** k as the kernels take it, on a float64 array: numpy squares
    for k = 2 and may run its own SIMD pow, so Python's float pow can
    differ from it in the last bit."""
    return (np.array([x]) ** k)[0].item()


def _reference_pairs(xs, reach):
    """(i, j) for i < j in every lag whose smallest gap is at most
    `reach`: the pairs the sweep reads, farther ones included."""
    n = len(xs)
    for lag in range(1, n):
        if min(xs[i + lag] - xs[i] for i in range(n - lag)) > reach:
            return
        yield from ((i, i + lag) for i in range(n - lag))


def _reference_remainders(xs, U, i, j, k):
    """The gap and the forward and backward order-k remainders of the
    pair i < j, by Horner's rule with the weights 1/ell!, float by float."""
    m = len(U) - 1
    d = xs[j] - xs[i]
    ci = [U[k + ell][i] / math.factorial(ell) for ell in range(m - k + 1)]
    cj = [U[k + ell][j] / math.factorial(ell) for ell in range(m - k + 1)]
    fwd, back = ci[-1], cj[-1]
    for ell in range(m - k - 1, -1, -1):
        fwd = fwd * d + ci[ell]
        back = back * -d + cj[ell]
    return d, abs(cj[0] - fwd), abs(ci[0] - back)


def _reference_first_bad_counts(xs, U, is_center, radii, n_max):
    m = len(U) - 1
    rf = [float(r) for r in radii]
    counts = np.zeros((n_max + 1, len(rf) + 1, len(xs)), dtype=np.int32)
    for i, j in _reference_pairs(xs, max(rf, default=-1.0)):
        d, fwd, back = _reference_remainders(xs, U, i, j, 0)
        thr = [(1.0 / n) * _array_power(d, m) for n in range(1, n_max + 1)]
        gap_bin = bisect.bisect_left(rf, d)
        for x, y, rem in ((i, j, fwd), (j, i, back)):
            stage = n_max - sum(rem > t for t in thr)
            counts[stage, gap_bin, x] += is_center[y]
    return counts


def _reference_jet_modulus(xs, U, scales):
    m = len(U) - 1
    bins = sorted({float(s) for s in scales})
    best = [0.0] * (len(bins) + 1)
    for i, j in _reference_pairs(xs, bins[-1]):
        worst = 0.0
        for k in range(m + 1):
            d, fwd, back = _reference_remainders(xs, U, i, j, k)
            power = _array_power(d if d > 0 else math.inf, m - k)
            worst = max(worst, fwd / power, back / power)
        b = bisect.bisect_left(bins, d)
        best[b] = max(best[b], worst)
    return [max((v for s, v in zip(bins, best) if s <= float(scale)),
                default=0.0) for scale in scales]


@st.composite
def sieve_points(draw):
    """The sieve's test points: the centres of a grid, most of them off
    the dyadic ones, and extra points, some on a centre; sorted stably,
    with derivative floats of order m <= 3 at each."""
    grid = draw(st.integers(8, 48))
    extras = draw(st.lists(st.one_of(
        st.fractions(0, 1, max_denominator=3 * grid),
        st.integers(0, grid - 1).map(lambda c: F(2 * c + 1, 2 * grid))),
        max_size=4))
    points = [F(2 * c + 1, 2 * grid) for c in range(grid)] + extras
    order = np.argsort([float(t) for t in points], kind="stable")
    xs = [float(points[o]) for o in order]
    m = draw(st.integers(0, 3))
    value = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    U = [[draw(value) for _ in xs] for _ in range(m + 1)]
    return xs, U, (order < grid).tolist()


# a ladder longer than an int8 count can hold
LONG_LADDER = tuple(F(1, k) for k in range(200, 0, -1))


class TestFloatReference:
    """The sieve kernels against per-pair Python loops that take the same
    float expressions in the same order, so every value is equal."""

    ladders = st.one_of(
        st.just(LONG_LADDER),
        st.lists(st.fractions(F(1, 100), 1, max_denominator=100),
                 min_size=1, max_size=12).map(lambda s: sorted(set(s))))

    @given(sieve_points(), ladders, st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_first_bad_counts(self, case, radii, n_max):
        xs, U, is_center = case
        got = _first_bad_counts(np.array(xs), np.array(U),
                                np.array(is_center), radii, n_max)
        want = _reference_first_bad_counts(xs, U, is_center, radii, n_max)
        assert np.array_equal(got, want)

    @given(sieve_points(), ladders)
    @settings(max_examples=60, deadline=None)
    def test_jet_modulus(self, case, scales):
        xs, U, _ = case
        got = _jet_modulus(np.array(xs), np.array(U), scales)
        assert got == _reference_jet_modulus(xs, U, scales)


def _cube():
    return single(CUBE), 2, 2**9


def _jump():
    return PiecewisePolynomial([0, F(1, 2), 1], [poly(0), poly(1)]), 1, 2**10


def _kink():
    return kink(F(1201, 2048)), 1, 2**9


def _quartic():
    return single(poly(0, 0, 0, 0, 1)), 3, 2**9


def _cube_off_dyadic():
    """y^3 at m = 3 on 1000 cells, with extra points 1/3 and 1/2."""
    return single(CUBE), 3, 1000, F(1, 3), F(1, 2)


def _kink_off_dyadic():
    """The kink on 700 cells, with the kink itself as an extra point."""
    return kink(F(1201, 2048)), 1, 700, F(1201, 2048)


@pytest.mark.parametrize("case, digest", [
    (_cube, "49e5650e94ca4e6c943203129152b925706c82a72731dc4c16b4c856563a78d4"),
    (_jump, "a94ebe4e5a3ae7e2c99d261692e47f3bc4ac6c127f5f477b8ad008be13aaf89b"),
    (_kink, "6009f10fe6178f35834d3b34dfdd4f95d21fb8bfda5bb1cc6b7e19ec3c81689e"),
    (_quartic,
     "6c109f542e8dac1a5b56f2d19e894d67c23a1b26ae06bc56874b79d8699cb6a2"),
    (_cube_off_dyadic,
     "eec67cbc398dd12ac962ed9e90aad05d6f72eb65f4994c7b16e7cd9b8c1389fa"),
    (_kink_off_dyadic,
     "4f21020c5636591bcaf6fcaf8b37e97a82ae6492589d4c251639e6880a92569c"),
])
def test_sieve_output_is_pinned(case, digest):
    """sha256 of the sorted-key JSON of the whole sieve result, recorded
    from the earlier implementation that reran the lag loop for every
    (stage, radius) and built the modulus as a dense matrix; any change
    to retention, defects or modulus values changes it. The two cases
    off dyadic grids, where the gaps of one lag differ by ulps, were
    recorded on the sweep before its in-place Horner steps and its
    comparison-count bins."""
    u, m, grid, *extras = case()
    obj = whitney_sieve(u, m, F(5, 100), grid=grid,
                        extra_points=extras).to_json_obj()
    text = json.dumps(obj, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestParameterErrors:
    def test_lp_ladder_not_decreasing_rejected(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            lp_remainder_ladder(single(CUBE, -1, 1), Polynomial.zero(), 0,
                                1, 2, [F(1, 8), F(1, 4)])

    @pytest.mark.parametrize("eps, want", [(2, 1), (1, 1), (F(1, 2), 0)])
    def test_density_of_a_constant_gap_at_order_zero(self, eps, want):
        # u - P = 1 against eps |y - x|^0 = eps: both bounds are constant
        # polynomials, the zero polynomial at eps = 1, with no root
        assert approx_density(single(poly(1)), Polynomial.zero(), F(1, 2),
                              0, eps, F(1, 4)) == want

    @pytest.mark.parametrize("m, p, match", [
        (1, 0, "p must be a positive integer"), (-1, 1, "m must be"),
    ])
    def test_lp_bad_order_or_exponent(self, m, p, match):
        with pytest.raises(ValueError, match=match):
            lp_remainder_ladder(single(CUBE, -1, 1), Polynomial.zero(), 0,
                                m, p)

    @pytest.mark.parametrize("x, eps, R, match", [
        (0, 0, 1, "eps and R must be positive"),
        (0, 1, F(-1, 2), "eps and R must be positive"),
        (2, 1, 1, "ball does not meet the domain"),
        (-3, 1, 1, "ball does not meet the domain"),
    ])
    def test_density_bad_parameters(self, x, eps, R, match):
        with pytest.raises(ValueError, match=match):
            approx_density(single(CUBE), Polynomial.zero(), x, 1, eps, R)

    @pytest.mark.parametrize("u, kwargs, match", [
        (single(CUBE), dict(eps=0), "eps must be positive"),
        (single(CUBE), dict(m=-1), "bad sieve parameters"),
        (single(CUBE), dict(n_max=0), "bad sieve parameters"),
        (single(CUBE), dict(grid=4), "bad sieve parameters"),
        (single(CUBE, 0, 2), {}, "sieve expects domain"),
        (single(CUBE), dict(extra_points=[F(5, 4)]), "must lie in"),
    ])
    def test_sieve_bad_parameters(self, u, kwargs, match):
        args = dict(m=2, eps=F(1, 20), grid=64) | kwargs
        with pytest.raises(ValueError, match=match):
            whitney_sieve(u, **args)

    def test_budget_follows_the_defects(self):
        # y^3 is retained whole at m = 2 and loses 53/256 at stage 1 at m = 1
        for m, ok in ((2, True), (1, False)):
            res = whitney_sieve(single(CUBE), m, F(1, 20), grid=2**8)
            assert res.budget_ok is ok
            assert res.to_json_obj()["budget_ok"] is ok
