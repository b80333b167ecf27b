import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heislusin.curves import PiecewisePolynomial, lift
from heislusin.jets import Jet, JetTriple, area_rate
from heislusin.polynomials import Polynomial


def poly(*cs):
    return Polynomial(cs)


CUBE = poly(0, 0, 0, 1)  # y^3


def remainder(j, a, b, k):
    """Taylor remainder of order k at b, expanded at a, summed term by
    term from the jet's values: the brute-force reference, apart from the
    library's integer sweep."""
    return j.value(b, k) - sum(
        j.value(a, k + ell) * (b - a) ** ell / math.factorial(ell)
        for ell in range(j.m - k + 1))


class TestTaylorPoly:
    def test_linear_data(self):
        a = F(1, 4)
        j = Jet(2, (a,), ((0, 1, 0),))
        assert j.taylor_poly(a) == Polynomial.from_taylor([0, 1], a)

    def test_zero_data(self):
        j = Jet(2, (0,), ((0, 0, 0),))
        assert j.taylor_poly(0) == Polynomial.zero()

    def test_degree_two_reproduced(self):
        sq = poly(0, 0, 1)
        j = Jet.from_polynomial(sq, [F(1, 2)], 2)
        assert j.taylor_poly(F(1, 2)) == sq

    def test_non_site_rejected(self):
        j = Jet(1, (0, 1), ((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            j.taylor_poly(F(1, 2))


class TestRemainder:
    def test_low_degree_vanishes(self):
        p = poly(1, -2, 3)
        j = Jet.from_polynomial(p, [0, F(1, 3), 1], 2)
        for a in j.sites:
            for b in j.sites:
                for k in range(3):
                    assert remainder(j, a, b, k) == 0

    def test_top_order_is_difference(self):
        j = Jet.from_polynomial(CUBE, [0, F(1, 2)], 2)
        assert remainder(j, 0, F(1, 2), 2) == CUBE.derivative(2)(F(1, 2))

    def test_cubic_bottom_order(self):
        t = F(1, 2)
        j = Jet.from_polynomial(CUBE, [0, t], 2)
        assert remainder(j, 0, t, 0) == t**3

    def test_two_route_consistency(self):
        rng = random.Random(3)
        for _ in range(25):
            p = Polynomial([F(rng.randint(-5, 5)) for _ in range(6)])
            j = Jet.from_polynomial(p, [0, F(1, 3), F(4, 5)], 3)
            for a in j.sites:
                T = j.taylor_poly(a)
                for b in j.sites:
                    for k in range(4):
                        direct = remainder(j, a, b, k)
                        assert direct == j.value(b, k) - T.derivative(k)(b)


class TestWhitneyModulus:
    def test_low_degree_zero(self):
        j = Jet.from_polynomial(poly(1, 1, 1), [0, F(1, 2), 1], 2)
        for d in (F(1, 8), F(1, 2), 1):
            assert j.whitney_modulus(d) == 0

    def test_cubic_three_sites(self):
        # max over all pairs AND all orders k; the k=2 pair (0,1)
        # dominates with |6b - 6a| / |b-a|^0 = 6
        j = Jet.from_polynomial(CUBE, [0, F(1, 2), 1], 2)
        assert j.whitney_modulus(1) == 6
        assert j.whitney_modulus(F(1, 2)) == 3

    def test_monotone_in_delta(self):
        j = Jet.from_polynomial(CUBE, [0, F(1, 3), F(2, 3), 1], 2)
        profile = [j.whitney_modulus(F(1, 2**i)) for i in range(5)]
        assert all(a >= b for a, b in zip(profile, profile[1:]))

    def test_no_pair_in_range(self):
        j = Jet.from_polynomial(CUBE, [0, 1], 2)
        assert j.whitney_modulus(F(1, 2)) == 0


def brute_modulus(j, delta):
    """max over ordered site pairs 0 < |b-a| <= delta and orders k of
    |remainder| / |b-a|^(m-k), one scale at a time; 0 if no pair."""
    best = F(0)
    for a in j.sites:
        for b in j.sites:
            gap = abs(b - a)
            if a == b or gap > delta:
                continue
            for k in range(j.m + 1):
                best = max(best, abs(remainder(j, a, b, k)) / gap ** (j.m - k))
    return best


small = st.fractions(min_value=-9, max_value=9, max_denominator=7)
# pairwise coprime denominators make the lcm of the sites' denominators large
PRIMES = [q for q in range(2, 10**4)
          if all(q % d for d in range(2, math.isqrt(q) + 1))]


@st.composite
def jets_and_ladders(draw):
    m = draw(st.integers(0, 3))
    if draw(st.booleans()):
        sites = draw(st.sets(
            st.fractions(min_value=-2, max_value=2, max_denominator=16),
            min_size=1, max_size=6))
    else:  # one site per prime denominator up to 10^4
        primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1,
                               max_size=6, unique=True))
        sites = {F(draw(st.integers(-2 * q, 2 * q)), q) for q in primes}
    sites = sorted(sites)
    value = st.one_of(small, st.fractions(min_value=-9, max_value=9,
                                          max_denominator=10**6))
    values = tuple(tuple(draw(value) for _ in range(m + 1)) for _ in sites)
    # scales below the smallest gap, between gaps and above the widest
    scale = st.fractions(min_value=F(1, 512), max_value=5, max_denominator=512)
    gaps = sorted({b - a for a in sites for b in sites if a < b})
    if gaps:
        # scales within 1/D of a gap but not on a multiple of 1/D, D the
        # lcm of the site denominators, so strictly between two gaps G/D
        D = math.lcm(*(x.denominator for x in sites))
        near = st.builds(lambda g, k: g + F(k, 97 * D), st.sampled_from(gaps),
                         st.integers(-96, 96).filter(bool))
        scale = st.one_of(scale, near)
    ladder = draw(st.lists(scale, min_size=1, max_size=6))
    return Jet(m, tuple(sites), values), ladder


# the lcm D of these site denominators has 64 bits, so the bin bound
# floor(s D) of a scale s near 1/2 passes int64
WIDE_SITES = (F(-272, 541), F(1, 6829), F(1, 5147), F(1, 3511), F(1, 2011),
              F(69, 137))
WIDE_D = math.lcm(*(x.denominator for x in WIDE_SITES))


class TestModulusProfile:
    @given(jets_and_ladders())
    @example((Jet(1, WIDE_SITES, ((0, 1),) + ((0, 0),) * 5),
              [F(1, 512), F(1858029, 3694489) + F(1, 97 * WIDE_D)]))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_per_scale(self, case):
        j, ladder = case
        profile = j.modulus_profile(ladder)
        assert [d for d, _ in profile] == ladder
        for d, v in profile:
            assert type(v) is F
            assert v == brute_modulus(j, d)

    def test_empty_scales_read_zero(self):
        j = Jet.from_polynomial(CUBE, [0, F(1, 4), 1], 2)
        profile = j.modulus_profile((F(1, 8), F(1, 4), F(3, 4), 1))
        assert [v for _, v in profile] == [0, F(3, 2), F(9, 2), 6]

    def test_whitney_modulus_is_one_scale_case(self):
        j = Jet.from_polynomial(CUBE, [0, F(1, 3), F(1, 2), 1], 2)
        for d in (F(1, 6), F(1, 3), F(1, 2), 1):
            assert j.whitney_modulus(d) == j.modulus_profile((d,))[0][1]

    def test_nonpositive_scale_rejected(self):
        j = Jet.from_polynomial(CUBE, [0, 1], 2)
        for bad in ((0,), (1, F(-1, 2))):
            with pytest.raises(ValueError):
                j.modulus_profile(bad)
        with pytest.raises(ValueError):
            j.whitney_modulus(0)


class TestJetOrder:
    @pytest.mark.parametrize("build", [
        lambda: Jet(-1, (0, 1), ((), ())),
        lambda: Jet(-1, (), ()),
        lambda: Jet.from_json_obj({"m": -1, "sites": [{"x": "0", "F": []}]}),
    ], ids=["two sites", "no sites", "from JSON"])
    def test_negative_order_rejected_when_built(self, build):
        with pytest.raises(ValueError, match="m must be >= 0"):
            build()


class TestSiteLookup:
    def test_row_map_ignored_by_eq_and_repr(self):
        a = Jet(1, (0, 1), ((0, 1), (2, 3)))
        b = Jet(1, (F(0), F(1)), ((0, 1), (2, 3)))
        assert a == b and hash(a) == hash(b)
        assert "_rows" not in repr(a)

    def test_every_accessor_rejects_non_sites(self):
        j = Jet(2, (0, F(1, 3), 1), ((0, 0, 0),) * 3)
        t = JetTriple(j, j, j)
        for call in (lambda: j.value(F(1, 2), 0),
                     lambda: j.taylor_poly(F(1, 2)),
                     lambda: remainder(j, 0, F(1, 2), 0),
                     lambda: t.ode_residual(F(1, 2), 1)):
            with pytest.raises(ValueError, match="is not a site of this jet"):
                call()

    def test_lookup_accepts_any_rational_spelling(self):
        j = Jet(1, (F(1, 2), 1), ((5, 6), (7, 8)))
        assert j.value(0.5, 1) == 6 and j.value(1, 0) == 7
        assert j.taylor_poly(1) == Polynomial.from_taylor([7, 8], 1)


class TestOdeResidual:
    def test_zero_horizontal_jets(self):
        Z = Jet(2, (0, 1), ((0, 0, 0), (0, 0, 0)))
        H = Jet(2, (0, 1), ((5, 7, 11), (13, 17, 19)))
        t = JetTriple(Z, Z, H)
        for a in (0, 1):
            for k in (1, 2):
                assert t.ode_residual(a, k) == H.value(a, k)

    def test_diagonal_curve(self):
        # f = g = t gives f'g - g'f = 0, so h is constant
        ident = poly(0, 1)
        t = JetTriple.from_curve_samples(
            ident, ident, poly(4), [0, F(1, 2), 1], 2
        )
        assert t.max_ode_residual() == 0

    def test_k1_formula(self):
        F1 = Jet(2, (0,), ((2, 3, 0),))
        G1 = Jet(2, (0,), ((5, 7, 0),))
        H1 = Jet(2, (0,), ((0, 1, 0),))
        t = JetTriple(F1, G1, H1)
        assert t.ode_residual(0, 1) == 1 - 2 * (3 * 5 - 7 * 2)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_value_form_matches_area_rate(self, m, data):
        # the jet-value binomial sum is area_rate differentiated k-1 times
        f, g, h = (
            Polynomial(data.draw(st.lists(small, max_size=6))) for _ in "fgh"
        )
        sites = sorted(data.draw(st.sets(
            st.fractions(min_value=-2, max_value=2, max_denominator=8),
            min_size=1, max_size=4)))
        t = JetTriple.from_curve_samples(f, g, h, sites, m)
        rate = area_rate(f, g)
        for a in sites:
            for k in range(1, m + 1):
                assert t.ode_residual(a, k) == (
                    h.derivative(k)(a) - rate.derivative(k - 1)(a)
                )

    def test_k0_rejected(self):
        t = JetTriple.from_curve_samples(
            poly(0, 1), poly(0, 1), poly(0), [0, 1], 2
        )
        with pytest.raises(ValueError):
            t.ode_residual(0, 0)


def lifted_h(p, q, h0, x):
    """The h of the horizontal lift of (p, q) on [x, x + 1], h(x) = h0:
    the vertical jet that the horizontal data force."""
    f, g = (PiecewisePolynomial([x, x + 1], [u]) for u in (p, q))
    return lift(f, g, h0).h.pieces[0]


class TestJetConstructions:
    def test_integrate_jet_example(self):
        assert poly(0, 2).antiderivative() + 1 == poly(1, 0, 1)

    def test_integrate_jet_constant(self):
        assert Polynomial.zero().antiderivative() + F(3, 7) == poly(F(3, 7))

    def test_integrate_then_differentiate(self):
        rng = random.Random(11)
        for _ in range(100):
            p = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(rng.randint(1, 7))])
            x = F(rng.randint(-3, 3), rng.randint(1, 5))
            c, A = F(rng.randint(-5, 5)), p.antiderivative()
            q = A + (c - A(x))
            assert q.derivative() == p and q(x) == c

    def test_vertical_jet_antisymmetric_cancellation(self):
        x = F(1, 3)
        shift = Polynomial.from_taylor([0, 1], x)
        assert lifted_h(shift, shift, F(2, 5), x) == poly(F(2, 5))

    def test_vertical_jet_zero_pair(self):
        z = Polynomial.zero()
        assert lifted_h(z, z, 4, 0) == poly(4)

    def test_vertical_jet_low_degree_no_truncation(self):
        p, q = poly(1, 2), poly(-1, 3)
        x = F(1, 4)
        h = lifted_h(p, q, F(1, 2), x)
        assert h(x) == F(1, 2) and h.derivative() == area_rate(p, q)
        t = JetTriple(*(Jet.from_polynomial(u, [x], 3) for u in (p, q, h)))
        assert t.max_ode_residual() == 0


class TestSerialization:
    def test_jet_round_trip(self):
        j = Jet.from_polynomial(CUBE, [0, F(1, 3)], 2)
        assert Jet.from_json_obj(j.to_json_obj()) == j

    def test_triple_round_trip(self):
        t = JetTriple.from_curve_samples(
            poly(0, 1), poly(0, 0, 1), poly(0, 0, 0, F(-2, 3)), [0, 1], 2
        )
        assert JetTriple.from_json_obj(t.to_json_obj()) == t

    def test_shape_matches_documented_schema(self):
        t = JetTriple.from_curve_samples(
            poly(0, 1), poly(0), poly(0), [F(1, 2)], 1
        )
        obj = t.to_json_obj()
        assert obj["m"] == 1
        assert obj["sites"][0]["x"] == "1/2"
        assert obj["sites"][0]["F"] == ["1/2", "1/1"]
        assert set(obj["sites"][0]) == {"x", "F", "G", "H"}

    def test_triple_text_is_pinned(self):
        # key order and spelling of each site record
        t = JetTriple(
            Jet(1, (0, F(1, 2)), ((1, 2), (F(-1, 3), 0))),
            Jet(1, (0, F(1, 2)), ((0, 0), (5, F(7, 2)))),
            Jet(1, (0, F(1, 2)), ((F(1, 9), 1), (0, -4))),
        )
        assert json.dumps(t.to_json_obj()) == (
            '{"m": 1, "sites": ['
            '{"x": "0/1", "F": ["1/1", "2/1"], "G": ["0/1", "0/1"], '
            '"H": ["1/9", "1/1"]}, '
            '{"x": "1/2", "F": ["-1/3", "0/1"], "G": ["5/1", "7/2"], '
            '"H": ["0/1", "-4/1"]}]}')


class TestParameterErrors:
    @pytest.mark.parametrize("sites, values, match", [
        ((0, 0), ((0,), (0,)), "strictly increasing"),
        ((1, 0), ((0,), (0,)), "strictly increasing"),
        ((0, 1), ((0,), (0, 1)), "length m\\+1"),
    ])
    def test_bad_jet_rejected(self, sites, values, match):
        with pytest.raises(ValueError, match=match):
            Jet(0, sites, values)

    def test_order_out_of_range_rejected(self):
        j = Jet.from_polynomial(CUBE, (0, 1), 1)
        for k in (-1, 2):
            with pytest.raises(ValueError, match="order k out of range"):
                j.value(0, k)
            with pytest.raises(ValueError, match="order k out of range"):
                remainder(j, 0, 1, k)

    def test_triple_of_unlike_jets_rejected(self):
        a = Jet.from_polynomial(CUBE, (0, 1), 1)
        with pytest.raises(ValueError, match="share order m"):
            JetTriple(a, a, Jet.from_polynomial(CUBE, (0, 1), 2))
        with pytest.raises(ValueError, match="share sites"):
            JetTriple(a, Jet.from_polynomial(CUBE, (0, 2), 1), a)
