import hashlib
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heislusin import polynomials
from heislusin.curves import (
    PiecewiseCurve,
    PiecewisePolynomial,
    area_discrepancy,
    extendability_report,
    hermite_gap_fill,
    hermite_two_point,
    higher_horizontality_residual,
    horizontal_repair_gap,
    horizontality_residual,
    lift,
    velocity,
)
from heislusin.intervalsets import rational_to_str
from heislusin.jets import Jet, JetTriple
from heislusin.polynomials import Polynomial, sup_norm


def poly(*cs):
    return Polynomial(cs)


def single(p, a=0, b=1):
    return PiecewisePolynomial([a, b], [p])


def lifted(f, g, h0=0, a=0, b=1):
    return lift(single(f, a, b), single(g, a, b), h0)


def sample(curve, sites, m):
    h = curve.h
    return JetTriple(
        Jet(m, sites, tuple(
            tuple(curve.f.derivative(k)(s) if k else curve.f(s)
                  for k in range(m + 1)) for s in sites)),
        Jet(m, sites, tuple(
            tuple(curve.g.derivative(k)(s) if k else curve.g(s)
                  for k in range(m + 1)) for s in sites)),
        Jet(m, sites, tuple(
            tuple(h.derivative(k)(s) if k else h(s)
                  for k in range(m + 1)) for s in sites)),
    )


class TestPiecewisePolynomial:
    def test_right_continuous_piece_selection(self):
        pp = PiecewisePolynomial([0, F(1, 2), 1], [poly(0), poly(1)])
        assert pp(F(1, 2)) == 1
        assert pp(1) == 1  # last piece covers the right endpoint

    def test_integral_across_pieces(self):
        pp = PiecewisePolynomial([0, F(1, 2), 1], [poly(1), poly(3)])
        assert sum(p.integral(lo, hi) for lo, hi, p in pp.spans(0, 1)) == 2

    def test_linear_through_vertices(self):
        ts = [0, F(1, 4), F(1, 2), 1]
        ys = [F(1, 3), F(1, 3), -2, 5]
        pp = PiecewisePolynomial.linear(ts, ys)
        assert pp.is_continuous()
        assert [pp.pieces[i](t) for i, t in enumerate(ts[:-1])] == ys[:-1]
        assert pp(1) == 5
        assert pp.pieces[0] == poly(F(1, 3))  # flat piece is a constant
        assert pp.pieces[1] == poly(F(8, 3), F(-28, 3))

    @pytest.mark.parametrize("ts", [[0, 0, 1], [0, 1, F(1, 2)]])
    def test_linear_rejects_unordered_ts(self, ts):
        with pytest.raises(ValueError):
            PiecewisePolynomial.linear(ts, [0, 1, 2])

    def test_continuity_check(self):
        cont = PiecewisePolynomial([0, F(1, 2), 1], [poly(0, 1), poly(0, 1)])
        jump = PiecewisePolynomial([0, F(1, 2), 1], [poly(0), poly(1)])
        assert cont.is_continuous() and not jump.is_continuous()

    def test_equal_by_value(self):
        a = PiecewisePolynomial([0, F(1, 2), 1], [poly(0, 1), poly(0, 1)])
        b = PiecewisePolynomial((0, F(1, 2), 1), (poly(0, 1), poly(0, 1)))
        assert a == b and hash(a) == hash(b)
        assert a != PiecewisePolynomial([0, F(1, 3), 1], a.pieces)

    # |u - q|^p where u - q crosses zero at irrational points; recorded
    # while abs_power_integrals still added values and errors by hand
    @pytest.mark.parametrize("p, digest", [
        (1, "757f88d6b066865b94d09dc361de5ec831c7e13014aeb3fd3d6f4feb4c455671"),
        (2, "064f17ca1a1442cdfb0527446764afea5c9ebd7bc28a9b31210a0eaa153d4a34"),
        (3, "808adeb2b9b1708ee354af2f800b1d15a425f2cff3067491c781418bc29d176d"),
        (4, "1583be67ebd58a2f9255f675ae67c9cf829da45e09ddf19a192e4125cb2e9bc2"),
        (5, "33ae9201ea58faefb3a15cd24ed1ab129346264bc63f9fb31b37a83310cfdf5f"),
    ])
    def test_abs_power_integral_is_pinned(self, p, digest):
        cases = [
            (PiecewisePolynomial.linear((0, 1, 2), (0, 1, 0)),
             poly(F(1, 8), 0, 1), 0, 2),
            (PiecewisePolynomial.linear(
                (0, F(1, 3), F(1, 2), 1), (F(1, 3), 1, F(-1, 2), 0)),
             poly(F(-1, 2), 0, 2), F(1, 5), F(9, 10)),
        ]
        values = [u.abs_power_integrals(q, [(a, b)], p)[0]
                  for u, q, a, b in cases]
        assert [v.exact for v in values] == [p % 2 == 0] * 2
        text = "".join("%s %s %s\n" % (v.value, v.exact, v.error)
                       for v in values)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_abs_power_integrals_match_one_call_each(self, p):
        # nested balls share whole pieces; the crossings of |u - q| with
        # zero are irrational, so odd p gives certified values
        u = PiecewisePolynomial.linear(
            [F(i, 16) for i in range(17)],
            [F((5 * i) % 7 - 3, 4) for i in range(17)])
        q = poly(F(-1, 3), 1, F(1, 2))
        x = F(7, 13)
        intervals = [(x - F(1, 2**k), x + F(1, 2**k)) for k in range(1, 7)]
        intervals += [(0, 1), (F(1, 16), F(3, 8)), (F(1, 16), F(3, 8))]
        got = u.abs_power_integrals(q, intervals, p)
        assert got == [u.abs_power_integrals(q, [ab], p)[0] for ab in intervals]
        assert all(v.exact for v in got) == (p % 2 == 0)


ends = st.fractions(min_value=-1, max_value=2, max_denominator=6)


@st.composite
def pieces_and_ends(draw):
    """A piecewise polynomial on [0, 1] and two ends that may lie outside
    the domain, coincide, come in either order or sit on breakpoints."""
    bps = sorted(draw(st.sets(
        st.fractions(min_value=0, max_value=1, max_denominator=6),
        min_size=2, max_size=6)) | {F(0), F(1)})
    pp = PiecewisePolynomial(
        bps, [poly(i) for i in range(len(bps) - 1)])
    at = st.sampled_from(bps) | ends
    return pp, draw(at), draw(at)


class TestSpans:
    @given(pieces_and_ends())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan(self, case):
        pp, a, b = case
        ref = []
        for i, piece in enumerate(pp.pieces):
            lo = max(a, pp.breakpoints[i])
            hi = min(b, pp.breakpoints[i + 1])
            if lo < hi:
                ref.append((lo, hi, piece))
        assert list(pp.spans(a, b)) == ref

    def test_clipped_to_domain(self):
        pp = PiecewisePolynomial([0, F(1, 2), 1], [poly(1), poly(3)])
        assert list(pp.spans(-1, 2)) == [
            (0, F(1, 2), poly(1)), (F(1, 2), 1, poly(3))]
        assert list(pp.spans(F(1, 2), 1)) == [(F(1, 2), 1, poly(3))]
        assert list(pp.spans(1, 0)) == [] == list(pp.spans(2, 3))


@st.composite
def piecewise_on_unit(draw):
    """A random piecewise polynomial on [0, 1] and a grid, one of whose
    breakpoints lies on a cell centre."""
    grid = draw(st.integers(8, 200))
    centre = F(2 * draw(st.integers(0, grid - 1)) + 1, 2 * grid)
    inner = draw(st.sets(st.fractions(0, 1, max_denominator=3 * grid),
                         max_size=5))
    bps = sorted({F(0), F(1), centre} | inner)
    coeff = st.fractions(-50, 50, max_denominator=2**40)
    pieces = [Polynomial(draw(st.lists(coeff, max_size=6)))
              for _ in bps[1:]]
    return PiecewisePolynomial(bps, pieces), grid


class TestCenterSamples:
    @given(piecewise_on_unit())
    @settings(max_examples=100, deadline=None)
    def test_equal_exact_samples_rounded(self, case):
        u, grid = case
        want = [float(u(F(2 * i + 1, 2 * grid))) for i in range(grid)]
        assert u.center_floats(grid) == want

    def test_past_the_float_range_overflows(self):
        u = PiecewisePolynomial([0, F(1, 3), 1], [poly(1), poly(0, 10**400)])
        with pytest.raises(OverflowError):
            u.center_floats(16)

    def test_needs_the_unit_domain(self):
        with pytest.raises(ValueError):
            single(poly(1), 0, 2).center_floats(16)


rationals = st.fractions(-10, 10, max_denominator=10**6)


@st.composite
def linear_points(draw):
    """Strictly increasing ts and ys of the same length, some ys equal."""
    ts = sorted(draw(st.sets(rationals, min_size=2, max_size=8)))
    ys = draw(st.lists(st.one_of(rationals, st.just(F(1, 3))),
                       min_size=len(ts), max_size=len(ts)))
    return ts, ys


@st.composite
def piecewise_with_matches(draw):
    """A piecewise polynomial of degree 0 to 7 per piece; at each inner
    breakpoint the right piece is shifted to meet the left one or not,
    so both continuous and jumping functions come up."""
    bps = sorted(draw(st.sets(rationals, min_size=2, max_size=6)))
    coeff = st.fractions(-50, 50, max_denominator=2**40)
    pieces = [Polynomial(draw(st.lists(coeff, max_size=8)))]
    for t in bps[1:-1]:
        p = Polynomial(draw(st.lists(coeff, max_size=8)))
        if draw(st.booleans()):
            p = p + (pieces[-1](t) - p(t))
        pieces.append(p)
    return PiecewisePolynomial(bps, pieces)


class TestIntKernels:
    @given(linear_points())
    @settings(max_examples=200, deadline=None)
    def test_linear_matches_fraction_formula(self, case):
        ts, ys = case
        ref = []
        for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:]):
            s = (y1 - y0) / (t1 - t0)
            ref.append(poly(y0 - s * t0, s))
        pp = PiecewisePolynomial.linear(ts, ys)
        assert pp.pieces == tuple(ref)
        assert pp.breakpoints == tuple(ts)

    @given(piecewise_with_matches())
    @settings(max_examples=200, deadline=None)
    def test_continuity_matches_fraction_evaluation(self, pp):
        bps, pieces = pp.breakpoints, pp.pieces
        assert pp.is_continuous() == all(
            pieces[i - 1](t) == pieces[i](t)
            for i, t in enumerate(bps[1:-1], start=1))

    @given(piecewise_with_matches(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_catches_a_tiny_jump(self, pp, data):
        # make pp continuous, then lift every piece from breakpoint j on
        # by 2^-200: the one jump is at j
        pieces = list(pp.pieces)
        for i, t in enumerate(pp.breakpoints[1:-1], start=1):
            pieces[i] = pieces[i] + (pieces[i - 1](t) - pieces[i](t))
        cont = PiecewisePolynomial(pp.breakpoints, pieces)
        assert cont.is_continuous()
        assume(len(pieces) > 1)
        j = data.draw(st.integers(1, len(pieces) - 1))
        shifted = pieces[:j] + [p + F(1, 2**200) for p in pieces[j:]]
        assert not PiecewisePolynomial(pp.breakpoints, shifted).is_continuous()

    # a flat pair is checked too, not only a sloped one
    @pytest.mark.parametrize("ts, ys", [
        ([0, 0, 1], [1, 1, 2]),
        ([0, F(1, 2), F(1, 2)], [0, 3, 3]),
        ([0, 1, F(1, 2)], [0, 0, 0]),
    ])
    def test_linear_rejects_a_repeated_t_with_equal_ys(self, ts, ys):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewisePolynomial.linear(ts, ys)



class TestLift:
    def test_diagonal_gives_constant(self):
        c = lifted(poly(0, 1), poly(0, 1))
        assert all(p == Polynomial.zero() for p in c.h_pieces)

    def test_parabola(self):
        c = lifted(poly(0, 1), poly(0, 0, 1))
        assert c.h(1) == F(-2, 3)
        assert c.h_pieces[0] == poly(0, 0, 0, F(-2, 3))

    def test_zero_f_keeps_h_constant(self):
        c = lifted(Polynomial.zero(), poly(2, -3, 1), h0=F(5, 7))
        assert all(p == poly(F(5, 7)) for p in c.h_pieces)

    def test_discontinuous_rejected(self):
        jump = PiecewisePolynomial([0, F(1, 2), 1], [poly(0), poly(1)])
        line = PiecewisePolynomial([0, F(1, 2), 1], [poly(0, 1)] * 2)
        with pytest.raises(ValueError, match="lift requires continuous"):
            lift(jump, line)

    def test_discontinuous_g_rejected(self):
        jump = PiecewisePolynomial([0, F(1, 2), 1], [poly(0), poly(1)])
        line = PiecewisePolynomial([0, F(1, 2), 1], [poly(0, 1)] * 2)
        with pytest.raises(ValueError, match="lift requires continuous"):
            lift(line, jump)

    @pytest.mark.parametrize("f, g", [
        (PiecewisePolynomial([0, F(1, 3), 1], [poly(0, 1)] * 2),
         PiecewisePolynomial([0, F(1, 2), 1], [poly(0, 0, 1)] * 2)),
        (single(poly(0, 1)), single(poly(0, 1), 0, 2)),
    ], ids=["inner breakpoints", "domains"])
    def test_different_breakpoints_rejected(self, f, g):
        # f and g are lifted piece by piece, so they must share breakpoints
        with pytest.raises(ValueError, match="same breakpoints") as exc:
            lift(f, g)
        for u in (f, g):
            assert "[%s]" % ", ".join(map(str, u.breakpoints)) in str(exc.value)
        assert "continuous" not in str(exc.value)

    def test_components_built_once(self):
        c = lifted(poly(0, 1), poly(0, 0, 1))
        assert c.f is c.f and c.g is c.g and c.h is c.h
        assert c.h.pieces == c.h_pieces

    def test_separate_builds_compare_equal(self):
        def build():
            f = PiecewisePolynomial.linear([0, F(1, 3), 1], [0, 1, F(1, 2)])
            g = PiecewisePolynomial.linear([0, F(1, 3), 1], [1, 0, 2])
            return lift(f, g, F(1, 7))

        c1, c2 = build(), build()
        assert c1 is not c2 and c1 == c2
        assert c1 != lift(c1.f, c1.g, 0)


class TestPiecewiseCurve:
    def test_discontinuous_h_rejected(self):
        bps = [0, F(1, 2), 1]
        zero = PiecewisePolynomial(bps, (Polynomial.zero(),) * 2)
        with pytest.raises(ValueError, match="component h"):
            PiecewiseCurve(zero, zero, PiecewisePolynomial(bps, (poly(0), poly(1))))

    def test_piece_count_mismatch_rejected(self):
        zero = Polynomial.zero()
        with pytest.raises(ValueError, match="share their breakpoints"):
            PiecewiseCurve(single(zero), single(zero),
                           PiecewisePolynomial([0, F(1, 2), 1], (zero, zero)))
        with pytest.raises(ValueError, match="one piece per breakpoint gap"):
            PiecewisePolynomial([0, 1], (zero, zero))


class TestResiduals:
    def test_lift_output_is_horizontal(self):
        c = lifted(poly(0, 1, 2), poly(1, 0, 0, 1))
        assert horizontality_residual(c) == 0

    def test_diagonal_line_curve(self):
        t = poly(0, 1)
        c = PiecewiseCurve(single(t), single(t), single(t))
        assert horizontality_residual(c) == 1
        assert higher_horizontality_residual(c, 1) == 1

    def test_flat_f_and_constant_h(self):
        c = PiecewiseCurve(single(poly(0)), single(poly(2, -1)), single(poly(3)))
        assert horizontality_residual(c) == 0

    def test_higher_orders_vanish_on_lift(self):
        c = lifted(poly(0, 1), poly(0, 0, 1))
        for k in range(1, 5):
            assert higher_horizontality_residual(c, k) == 0


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def continuous_curves(draw):
    """Curves of 1 to 3 pieces, each component continuous, h arbitrary,
    so the curve is in general not horizontal."""
    bps = sorted(draw(st.sets(
        st.fractions(min_value=-1, max_value=1, max_denominator=6),
        min_size=2, max_size=4)))
    comps = []
    for _ in "fgh":
        pieces = []
        for lo in bps[:-1]:
            p = Polynomial(draw(st.lists(small, min_size=1, max_size=4)))
            if pieces:
                p = p + (pieces[-1](lo) - p(lo))
            pieces.append(p)
        comps.append(tuple(pieces))
    return PiecewiseCurve(*(PiecewisePolynomial(bps, c) for c in comps))


def binomial_residual(curve, k):
    """Order-k residual spelled out piece by piece as the binomial sum
    h^(k) - 2 sum_j C(k-1,j) (f^(k-j) g^(j) - g^(k-j) f^(j))."""
    best = F(0)
    bps = curve.breakpoints
    for i, (f, g, h) in enumerate(
        zip(curve.f_pieces, curve.g_pieces, curve.h_pieces)
    ):
        acc = Polynomial.zero()
        for j in range(k):
            acc = acc + math.comb(k - 1, j) * (
                f.derivative(k - j) * g.derivative(j)
                - g.derivative(k - j) * f.derivative(j)
            )
        d = h.derivative(k) - 2 * acc
        if not d.is_zero:
            sv = sup_norm(d, bps[i], bps[i + 1])
            best = max(best, sv.value + sv.error)
    return best


nonzero = small.filter(lambda x: x != 0)


@st.composite
def zero_gapped_linear_pairs(draw):
    """Piecewise-linear f and g on shared breakpoints, with h0; f or g is
    zero on one piece whose neighbouring pieces are not zero."""
    n = draw(st.integers(3, 7))
    ts = sorted(draw(st.sets(
        st.fractions(min_value=0, max_value=1, max_denominator=24),
        min_size=n + 1, max_size=n + 1)))
    values = st.lists(st.one_of(st.just(F(0)), small),
                      min_size=n + 1, max_size=n + 1)
    fs, gs = draw(values), draw(values)
    j = draw(st.integers(1, n - 2))
    zs = fs if draw(st.booleans()) else gs
    zs[j - 1], zs[j], zs[j + 1], zs[j + 2] = (
        draw(nonzero), F(0), F(0), draw(nonzero))
    return (PiecewisePolynomial.linear(ts, fs),
            PiecewisePolynomial.linear(ts, gs), draw(small))


class TestLiftZeroArea:
    @given(zero_gapped_linear_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_antiderivative_and_shift(self, pair):
        # reference: every piece integrates 2(f'g - g'f) and is shifted to
        # start at the end value of the piece before, zero rate or not
        f, g, h0 = pair
        bps = f.breakpoints
        ref, acc = [], h0
        for i, (fp, gp) in enumerate(zip(f.pieces, g.pieces)):
            rate = 2 * (fp.derivative() * gp - gp.derivative() * fp)
            A = rate.antiderivative()
            ref.append(A + (acc - A(bps[i])))
            acc = ref[-1](bps[i + 1])
        c = lift(f, g, h0)
        assert c.h_pieces == tuple(ref)
        assert c.f_pieces == f.pieces and c.g_pieces == g.pieces
        assert c.h(bps[-1]) == acc


class TestResidualLeibniz:
    @given(continuous_curves(), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_matches_binomial_sum(self, curve, k):
        assert higher_horizontality_residual(curve, k) == binomial_residual(
            curve, k
        )

    @given(continuous_curves())
    @settings(max_examples=30, deadline=None)
    def test_first_order_is_k1_case(self, curve):
        assert horizontality_residual(curve) == binomial_residual(curve, 1)


class TestAreaVelocity:
    def test_zero_jets(self):
        z = Jet(2, (0, 1), ((0, 0, 0), (0, 0, 0)))
        t = JetTriple(z, z, z)
        assert area_discrepancy(t, 0, 1) == 0
        assert velocity(t, 0, 1) == 1  # (b-a)^4 alone

    def test_lifted_curve_has_zero_discrepancy(self):
        c = lifted(poly(0, 1), poly(0, 0, 1))
        t = sample(c, (0, F(1, 3), F(2, 3), 1), 2)
        for i, a in enumerate(t.sites):
            for b in t.sites[i + 1:]:
                assert area_discrepancy(t, a, b) == 0

    def test_velocity_linear_example(self):
        Fj = Jet(1, (0, 1), ((0, 1), (1, 1)))
        z = Jet(1, (0, 1), ((0, 0), (0, 0)))
        t = JetTriple(Fj, z, z)
        assert velocity(t, 0, 1) == 2

    def test_vertical_shift_invariance(self):
        c = lifted(poly(1, 2), poly(0, 1, 1))
        t = sample(c, (0, F(1, 2), 1), 2)
        shifted = JetTriple(
            t.F, t.G,
            Jet(2, t.sites, tuple(
                (row[0] + F(9, 4),) + row[1:] for row in t.H.values)),
        )
        for i, a in enumerate(t.sites):
            for b in t.sites[i + 1:]:
                assert area_discrepancy(t, a, b) == area_discrepancy(shifted, a, b)
                assert velocity(t, a, b) == velocity(shifted, a, b)

    def test_equal_sites_rejected(self):
        z = Jet(2, (0, 1), ((0, 0, 0), (0, 0, 0)))
        t = JetTriple(z, z, z)
        with pytest.raises(ValueError):
            area_discrepancy(t, 0, 0)
        with pytest.raises(ValueError):
            velocity(t, 1, 0)


class TestExtendabilityReport:
    def test_lifted_curve_passes(self):
        c = lifted(poly(0, 1), poly(0, 0, 1))
        t = sample(c, (0, F(1, 4), F(1, 2), F(3, 4), 1), 3)
        rep = extendability_report(t)
        assert rep.verdict
        assert rep.max_ode_residual == 0
        assert all(v == 0 for prof in rep.whitney_profiles.values() for v in prof)
        assert all(v in (0, None) for v in rep.ratio_profile)

    def test_perturbed_h1_fails_only_ode(self):
        c = lifted(poly(0, 1), poly(0, 0, 1))
        t = sample(c, (0, F(1, 2), 1), 3)
        rows = [list(r) for r in t.H.values]
        rows[1][1] += F(1, 100)  # break the first-order constraint at 1/2
        bad = JetTriple(t.F, t.G, Jet(3, t.sites, tuple(tuple(r) for r in rows)))
        rep = extendability_report(bad)
        assert not rep.ode_pass and not rep.verdict
        assert rep.max_ode_residual == F(1, 100)

    def test_verdict_ignores_ladder_order(self):
        # F has a large modulus at scale 1 and none at 1/32; G = H = 0
        sites = (0, F(1, 64), F(1, 2), F(33, 64))
        cubic = Jet.from_polynomial(poly(0, 1, 0, 1), sites, 3)
        square = Jet.from_polynomial(poly(1, 0, 2), sites, 3)
        f = Jet(3, sites, cubic.values[:2] + square.values[2:])
        z = Jet(3, sites, tuple((0,) * 4 for _ in sites))
        t = JetTriple(f, z, z)
        down = extendability_report(t, (1, F(1, 32)))
        up = extendability_report(t, (F(1, 32), 1))
        assert down.whitney_profiles["F"] == up.whitney_profiles["F"][::-1]
        assert down.whitney_profiles["F"][0] > 0
        for rep in (down, up):
            assert (rep.whitney_pass, rep.ode_pass, rep.ratio_pass) == (
                True, True, True)

    def test_ratio_rule_reads_scales_downward(self):
        # F = G = 0 and H steps by 1 between the two site clusters: A/V
        # vanishes for the pairs 1/64 apart and not for the pairs across
        sites = (0, F(1, 64), F(1, 2), F(33, 64))
        z = Jet(2, sites, tuple((0, 0, 0) for _ in sites))
        H = Jet(2, sites, ((0, 0, 0),) * 2 + ((1, 0, 0),) * 2)
        t = JetTriple(z, z, H)
        for ladder in ((1, F(1, 32)), (F(1, 32), 1)):
            rep = extendability_report(t, ladder)
            assert max(rep.ratio_profile) > 0 == min(rep.ratio_profile)
            assert rep.ratio_pass and rep.verdict

    def test_empty_ladder_is_rejected(self):
        t = sample(lifted(poly(0, 1), poly(0, 1)), (0, 1), 2)
        with pytest.raises(ValueError, match="ladder"):
            extendability_report(t, ladder=())

    def test_report_serializes(self):
        c = lifted(poly(0, 1), poly(0, 1))
        t = sample(c, (0, 1), 2)
        obj = extendability_report(t).to_json_obj()
        assert obj["verdict"] == "pass"
        assert set(obj["conditions"]) == {
            "whitney_fields", "ode_constraints", "ratio_vanishes"
        }


def pinned_triple(m, perturb):
    """Jets of a horizontal polynomial curve at non-uniform sites, with
    h' raised by `perturb` at the site 2/5."""
    c = lifted(poly(0, 1, 0, F(1, 3)), poly(F(1, 2), F(-1, 4), 1))
    sites = (0, F(1, 7), F(1, 4), F(2, 5), F(1, 2), F(5, 8), F(3, 4),
             F(9, 10), 1)
    t = sample(c, sites, m)
    rows = [list(r) for r in t.H.values]
    rows[3][1] += perturb
    return JetTriple(t.F, t.G, Jet(m, sites, tuple(map(tuple, rows))))


@pytest.mark.parametrize("m, perturb, report_digest, profile_digest", [
    (2, 0,
     "857a0c2d0619658f23a22c56335abc949794ec7f54b7621914c1aac31f83e948",
     "6d1c7acc15f4ea9acd6b1d8f75c27e6acdba9e5cf038022c8024c0d89099de23"),
    (3, F(1, 100),
     "588e69085a1e64837f7c24f05e788208ecfa69d7b7f691fabac7e7cbc1a036a7",
     "f6c4a3e90f8eefb4caf2d755d71b97bc2578ecf91e6cb6a7a7a3617e018263a0"),
])
def test_report_is_pinned(m, perturb, report_digest, profile_digest):
    """sha256 of the sorted-key JSON of `jets check`'s report and of the
    exact Whitney profiles, recorded from the implementation that summed
    each site pair's remainders in a Python loop over `Fraction`s."""
    t = pinned_triple(m, perturb)
    text = json.dumps(extendability_report(t).to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == report_digest
    profiles = {}
    for name, jet in (("F", t.F), ("G", t.G), ("H", t.H)):
        values = [v for _, v in jet.modulus_profile()]
        assert all(type(v) is F for v in values)
        profiles[name] = [rational_to_str(v) for v in values]
    text = json.dumps(profiles, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == profile_digest


def random_triple(rng, m, sites):
    rows = lambda: tuple(
        tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m + 1))
        for _ in sites
    )
    return JetTriple(Jet(m, sites, rows()), Jet(m, sites, rows()),
                     Jet(m, sites, rows()))


class TestPairSweep:
    SITES = (0, F(1, 7), F(1, 4), F(1, 2), F(5, 8), F(2, 3), 1)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_ratio_profile_matches_per_pair_brute_force(self, m):
        # the velocity integrands have degree <= 1 here: rational roots,
        # so every ratio is exact and must be the same Fraction
        t = random_triple(random.Random(m), m, self.SITES)
        # every pair's gap is a scale, plus one scale below them all
        ladder = sorted({F(1, 64)} | {
            b - a for i, a in enumerate(self.SITES) for b in self.SITES[i + 1:]})
        rep = extendability_report(t, ladder)
        ratios = {}
        for i, a in enumerate(t.sites):
            for b in t.sites[i + 1:]:
                ratios[(a, b)] = abs(area_discrepancy(t, a, b)) / velocity(t, a, b)
        for d, got in zip(ladder, rep.ratio_profile):
            vals = [r for (a, b), r in ratios.items() if b - a <= d]
            assert got == (max(vals) if vals else None)
        for name, jet in (("F", t.F), ("G", t.G), ("H", t.H)):
            assert rep.whitney_profiles[name] == [
                jet.whitney_modulus(d) for d in ladder]

    def test_certified_ratios_within_tol_of_per_pair(self):
        # m = 3: quadratic integrands with irrational roots
        t = random_triple(random.Random(7), 3, self.SITES)
        tol = F(1, 10**12)
        rep = extendability_report(t, (F(1, 2), 1), tol=tol)
        ratios, slack = [], F(0)
        for i, a in enumerate(t.sites):
            for b in t.sites[i + 1:]:
                A, V = abs(area_discrepancy(t, a, b)), velocity(t, a, b, tol)
                ratios.append(A / V)
                # both routes are within 2 tol of the true sum of the two
                # integrals, so the velocities differ by <= 4 tol (b-a)^m
                dV = 4 * tol * (b - a) ** 3
                slack = max(slack, A * dV / (V * (V - dV)))
        assert abs(rep.ratio_profile[-1] - max(ratios)) <= slack

    def test_call_counts_stay_linear(self, monkeypatch):
        n = 9
        sites = tuple(F(i, n - 1) for i in range(n))
        t = random_triple(random.Random(1), 3, sites)
        counts = {"isolate_roots": 0, "taylor_poly": 0}
        isolate, taylor = polynomials.isolate_roots, Jet.taylor_poly

        def counted_isolate(*args, **kwargs):
            counts["isolate_roots"] += 1
            return isolate(*args, **kwargs)

        def counted_taylor(self, a):
            counts["taylor_poly"] += 1
            return taylor(self, a)

        monkeypatch.setattr(polynomials, "isolate_roots", counted_isolate)
        monkeypatch.setattr(Jet, "taylor_poly", counted_taylor)
        extendability_report(t)
        assert 0 < counts["isolate_roots"] <= 2 * (n - 1)
        assert 0 < counts["taylor_poly"] <= 2 * n


class TestHermite:
    def test_reproduces_cubic(self):
        q = poly(1, -2, 0, 5)
        got = hermite_two_point(
            0, [q(0), q.derivative()(0)], 1, [q(1), q.derivative()(1)]
        )
        assert got == q

    def test_smoothstep(self):
        got = hermite_two_point(0, [0, 0], 1, [1, 0])
        assert got == poly(0, 0, 3, -2)

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rebuilds_polynomial_from_end_data(self, m, data):
        ends = st.fractions(min_value=-3, max_value=3, max_denominator=9)
        a, b = data.draw(ends), data.draw(ends)
        if a == b:
            b = a + 1
        q = Polynomial(data.draw(st.lists(small, max_size=2 * m + 2)))
        va = [q.derivative(k)(a) for k in range(m + 1)]
        vb = [q.derivative(k)(b) for k in range(m + 1)]
        assert hermite_two_point(a, va, b, vb) == q

    def test_gap_fill_matches_derivatives_at_sites(self):
        rng = random.Random(5)
        sites = (0, F(1, 3), 1)
        m = 2
        rows = lambda: tuple(
            tuple(F(rng.randint(-4, 4)) for _ in range(m + 1)) for _ in sites
        )
        t = JetTriple(
            Jet(m, sites, rows()), Jet(m, sites, rows()),
            Jet(m, sites, tuple((F(rng.randint(-4, 4)), 0, 0) for _ in sites)),
        )
        filled = hermite_gap_fill(t)
        for gap, a in enumerate(sites[:-1]):
            for k in range(m + 1):
                assert filled.f_pieces[gap].derivative(k)(a) == t.F.value(a, k)
                assert filled.g_pieces[gap].derivative(k)(a) == t.G.value(a, k)
            b = sites[gap + 1]
            for k in range(m + 1):
                assert filled.f_pieces[gap].derivative(k)(b) == t.F.value(b, k)
                assert filled.g_pieces[gap].derivative(k)(b) == t.G.value(b, k)
        assert horizontality_residual(filled) == 0

    def test_repair_gap_zero_on_lifted_curve(self):
        c = lifted(poly(1, 1, -1), poly(0, 2, 1))
        t = sample(c, (0, F(1, 2), 1), 2)
        assert horizontal_repair_gap(t, 0, F(1, 2)) == 0
        assert horizontal_repair_gap(t, F(1, 2), 1) == 0

    def test_repair_gap_is_h_increment_for_zero_jets(self):
        z = Jet(1, (0, 1), ((0, 0), (0, 0)))
        H = Jet(1, (0, 1), ((3, 0), (8, 0)))
        t = JetTriple(z, z, H)
        assert horizontal_repair_gap(t, 0, 1) == 5

    def test_repair_gaps_read_off_the_fill(self):
        t = random_triple(random.Random(3), 2, (0, F(1, 3), F(1, 2), 1))
        filled = hermite_gap_fill(t)
        for i, (a, b) in enumerate(zip(t.sites, t.sites[1:])):
            h = filled.h_pieces[i]
            want = t.H.value(b, 0) - t.H.value(a, 0) - (h(b) - h(a))
            assert horizontal_repair_gap(t, a, b) == want

    def test_non_consecutive_rejected(self):
        c = lifted(poly(0, 1), poly(0, 1))
        t = sample(c, (0, F(1, 2), 1), 1)
        with pytest.raises(ValueError):
            horizontal_repair_gap(t, 0, 1)

    def test_unequal_endpoint_data_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            hermite_two_point(0, [0, 1], 1, [1])


class TestDegenerateCurves:
    def test_residual_of_a_lift_is_zero_at_every_order(self):
        # every piece's residual is the zero polynomial
        bps = (0, F(1, 2), 1)
        c = lift(PiecewisePolynomial(bps, (poly(0, 1), poly(F(1, 2)))),
                 PiecewisePolynomial(bps, (poly(0, 2), poly(1))))
        for k in (1, 2, 3):
            got = higher_horizontality_residual(c, k)
            assert got == 0 and type(got) is F

    def test_residual_order_below_one_rejected(self):
        c = lifted(poly(0, 1), poly(0, 1))
        with pytest.raises(ValueError, match="require k >= 1"):
            higher_horizontality_residual(c, 0)

    @pytest.mark.parametrize("bps", [(0,), (0, 0), (1, 0)])
    def test_breakpoints_not_increasing_rejected(self, bps):
        with pytest.raises(ValueError, match="strictly increasing, >= 2"):
            PiecewisePolynomial(bps, (poly(1),) * max(len(bps) - 1, 0))

    def test_power_below_one_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            single(poly(0, 1)).abs_power_integrals(poly(0), [(0, 1)], 0)

    def test_one_site_rejected(self):
        t = sample(lifted(poly(0, 1), poly(1)), (F(1, 2),), 1)
        for fn in (extendability_report, hermite_gap_fill):
            with pytest.raises(ValueError, match="at least two sites"):
                fn(t)


def test_hermite_equal_ends_rejected():
    # a == b leaves no gap to interpolate across
    with pytest.raises(ValueError, match="distinct ends"):
        hermite_two_point(F(1, 2), [0, 1], F(1, 2), [1, 0])
