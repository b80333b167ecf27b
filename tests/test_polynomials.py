import hashlib
import math
import random
import signal
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heislusin.curves import PiecewisePolynomial
from heislusin.intervalsets import Interval, IntervalSet, _cleared
from heislusin.polynomials import (
    DEFAULT_TOL,
    CertifiedValue,
    Polynomial,
    RootEnclosure,
    _coeff_bound,
    _homogeneous,
    _simplest,
    abs_integral,
    isolate_roots,
    prefix_abs_integrals,
    refine_root,
    sup_norm,
)

coeffs = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=20),
    min_size=0, max_size=6,
)


def P(*cs):
    return Polynomial(cs)


def from_roots(lead, roots):
    """lead * prod (y - r) over the roots, by `Polynomial` products."""
    p = P(lead)
    for r in roots:
        p = p * P(-r, 1)
    return p


def shifted_power(x, k):
    """(y - x)^k."""
    return P(-x, 1) ** k


def taylor(p, x):
    """The coefficients c_k = p^(k)(x)/k! of p = sum c_k (y - x)^k."""
    return [p.derivative(k)(x) / math.factorial(k) for k in range(p.degree + 1)]


class TestArithmetic:
    def test_degree_conventions(self):
        assert Polynomial.zero().degree == -1
        assert P(3).degree == 0
        assert P(0, 0, 1).degree == 2

    @given(coeffs)
    @settings(max_examples=200, deadline=None)
    def test_derivative_of_antiderivative(self, cs):
        p = Polynomial(cs)
        assert p.antiderivative().derivative() == p

    @given(coeffs, st.integers(min_value=0, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_kth_derivative_is_k_first_derivatives(self, cs, k):
        p = q = Polynomial(cs)
        for _ in range(k):
            q = q.derivative()
        assert p.derivative(k) == q

    @pytest.mark.parametrize("p", [P(1, 2), Polynomial.zero()])
    def test_negative_derivative_order_rejected(self, p):
        with pytest.raises(ValueError, match="order"):
            p.derivative(-1)
        u = PiecewisePolynomial((0, 1), (p,))
        with pytest.raises(ValueError, match="order"):
            u.derivative(-1)

    @given(coeffs, coeffs,
           st.fractions(min_value=-3, max_value=3, max_denominator=12))
    @settings(max_examples=200, deadline=None)
    def test_product_evaluation(self, a, b, x):
        pa, pb = Polynomial(a), Polynomial(b)
        assert (pa * pb)(x) == pa(x) * pb(x)

    def test_from_roots(self):
        p = from_roots(2, [F(1, 2), -1])
        assert p(F(1, 2)) == 0 and p(-1) == 0 and p.coeffs[-1] == 2

    def test_taylor_round_trip(self):
        p = P(1, -2, 0, 3)
        c = F(2, 7)
        assert Polynomial.from_taylor(taylor(p, c), c) == p


class TestTruncateShifted:
    """The remainder of p by (y - x)^(m+1) is its Taylor expansion at x
    truncated after order m."""

    def test_pure_high_order_term(self):
        x = F(1, 3)
        p = Polynomial.from_taylor([0, 0, 0, 1], x)  # (y-x)^3
        assert p % shifted_power(x, 3) == Polynomial.zero()

    def test_mixed_orders(self):
        x = F(1, 3)
        p = Polynomial.from_taylor([1, 1, 0, 1], x)  # 1+(y-x)+(y-x)^3
        assert p % shifted_power(x, 3) == Polynomial.from_taylor([1, 1], x)

    def test_low_degree_identity(self):
        p = P(1, 2, 3)
        assert p % shifted_power(F(5, 7), 3) == p

    @given(coeffs, st.fractions(min_value=-2, max_value=2, max_denominator=8),
           st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_projection_and_linearity(self, cs, x, m):
        p, d = Polynomial(cs), shifted_power(x, m + 1)
        t = p % d
        assert t % d == t
        q = P(1, -1, 2)
        assert (p + q) % d == t + q % d


def simplest(a, b):
    """`_simplest` on the ends a <= b cleared over one denominator."""
    (A, B), Q = _cleared((a, b))
    p, q = _simplest(A, B, Q)
    assert q > 0 and math.gcd(p, q) == 1
    return F(p, q)


def simplest_between_reference(a, b):
    """The recursive continued-fraction walk through `Fraction`
    reciprocals that `_simplest` must agree with."""
    if a > b:
        raise ValueError("empty interval")
    if a == b:
        return a
    if a <= 0 <= b:
        return F(0)
    if b < 0:
        return -simplest_between_reference(-b, -a)
    ca = math.ceil(a)
    if ca <= b:
        return F(ca)
    fa = math.floor(a)
    return fa + 1 / simplest_between_reference(1 / (b - fa), 1 / (a - fa))


@st.composite
def brackets(draw):
    den = draw(st.sampled_from([
        2 ** draw(st.integers(0, 60)), 3 ** draw(st.integers(0, 30)),
        10 ** draw(st.integers(0, 15)), draw(st.integers(1, 10**12))]))
    a = F(draw(st.integers(-4 * den, 4 * den)), den)
    width = draw(st.fractions(min_value=0, max_value=1,
                              max_denominator=10**9))
    return a, a + width


class TestRoots:
    def test_simplest_between(self):
        assert simplest(F(31, 100), F(35, 100)) == F(1, 3)
        assert simplest(F(-1, 2), F(1, 2)) == 0
        assert simplest(F(5, 2), F(7, 2)) == 3

    @given(brackets())
    @settings(max_examples=400, deadline=None)
    def test_simplest_between_matches_recursive_form(self, bracket):
        a, b = bracket
        got = simplest(a, b)
        assert got == simplest_between_reference(a, b)
        assert a <= got <= b

    @pytest.mark.parametrize("a, b", [
        (F(-7, 3), F(-9, 4)),  # negative
        (F(-1, 3), F(1, 7)),  # contains 0
        (F(-3, 2), F(-1, 2)),  # contains the integer -1
        (F(5, 3), F(9, 4)),  # contains the integer 2
        (F(13, 8), F(13, 8)),  # a single point
        (F(-355, 113), F(-333, 106)),  # negative, no integer inside
    ])
    def test_simplest_between_edge_brackets(self, a, b):
        assert simplest(a, b) == simplest_between_reference(a, b)

    def test_rational_roots_found_exactly(self):
        p = from_roots(1, [F(1, 3), F(1, 2), 2])
        encs = [refine_root(e, F(1, 2**40)) for e in isolate_roots(p, 0, 3)]
        assert [e.exact for e in encs] == [F(1, 3), F(1, 2), 2]

    def test_irrational_roots_bracketed(self):
        p = P(-2, 0, 1)  # y^2 - 2
        encs = isolate_roots(p, 0, 2)
        assert len(encs) == 1
        e = refine_root(encs[0], F(1, 10**12))
        assert e.width <= F(1, 10**12)
        assert e.lo <= F(14142135623730951, 10**16) <= e.hi

    def test_repeated_roots_deduplicated(self):
        p = from_roots(1, [F(1, 2), F(1, 2), F(1, 4)])
        encs = [refine_root(e, F(1, 2**40)) for e in isolate_roots(p, 0, 1)]
        assert [e.exact for e in encs] == [F(1, 4), F(1, 2)]


def refine_reference(enc, width):
    """Bisection that recomputes the simplest-fraction candidate at every
    step, the form `refine_root` must agree with."""
    if enc.exact is not None:
        return enc
    s, lo, hi = enc.poly, enc.lo, enc.hi
    sign_lo = s(lo) > 0
    while hi - lo > width:
        cand = simplest(lo, hi)
        if lo < cand < hi and s(cand) == 0:
            return RootEnclosure(cand, cand)
        mid = (lo + hi) / 2
        fm = s(mid)
        if fm == 0:
            return RootEnclosure(mid, mid)
        if (fm > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return RootEnclosure(lo, hi, s)


class TestRefineRoot:
    def test_sqrt2_pinned_dyadic_bracket(self):
        e = refine_root(RootEnclosure(F(1), F(2), P(-2, 0, 1)),
                        F(1, 2**40))
        assert e.exact is None
        assert (e.lo, e.hi) == (F(1554944255987, 2**40),
                                F(1554944255988, 2**40))
        # the same bracket from integer square roots
        assert e.lo == F(math.isqrt(2 * 4**40), 2**40)

    def test_rational_root_of_quadratic_exact(self):
        p = P(-20, 11, 3)  # (3y - 4)(y + 5)
        # the first candidate, 1, is the bracket's left endpoint; 4/3
        # only becomes the candidate once the bracket has left 1 behind
        e = refine_root(RootEnclosure(F(1), F(2), p), F(1, 2**40))
        assert e.exact == F(4, 3)

    def test_candidate_on_endpoint_then_midpoint_hit(self):
        p = P(-15, -4, 4)  # (2y - 5)(2y + 3); candidate 2 is the endpoint
        e = refine_root(RootEnclosure(F(2), F(3), p), F(1, 2**40))
        assert e.exact == F(5, 2)

    def test_candidate_kept_inside_bracket(self):
        p = P(-5, 0, 3)  # 3y^2 - 5, irrational root in (1, 2)
        e = refine_root(RootEnclosure(F(1), F(2), p), F(1, 2**30))
        assert e.exact is None and e.lo < e.hi and e.hi - e.lo <= F(1, 2**30)
        assert p(e.lo) < 0 < p(e.hi)

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=9),
                    min_size=1, max_size=3),
           st.fractions(min_value=-2, max_value=5, max_denominator=7),
           st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
           st.lists(st.fractions(min_value=-4, max_value=4,
                                 max_denominator=97),
                    min_size=2, max_size=2, unique=True),
           st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_same_enclosures_as_per_step_candidate(self, roots, c, lead,
                                                   ends, bits):
        # rational roots plus a possibly irrational factor y^2 - c, with a
        # leading coefficient that need not be an integer
        p = from_roots(lead, roots) * P(-c, 0, 1)
        width = F(1, 2**bits)
        # (-4, 4) gives dyadic brackets; ends with denominators up to 97,
        # as sites such as 1/10 give, brackets over other denominators
        for a, b in ((-4, 4), sorted(ends)):
            for enc in isolate_roots(p, a, b):
                assert refine_root(enc, width) == refine_reference(enc, width)


class TestIntegerGate:
    """`_cleared` and `_homogeneous`, the way exact rationals enter and
    are read by every integer kernel."""

    @given(coeffs, st.integers(-60, 60), st.integers(1, 40),
           st.lists(st.integers(-60, 60), max_size=6))
    @example([], -3, 2, [-3, 0, 5])  # the zero polynomial
    @example([F(1, 2), F(-2, 3), F(5, 6)], -7, 4, [-7, -1])
    @settings(max_examples=200, deadline=None)
    def test_homogeneous_of_cleared_is_the_scaled_value(self, cs, p, q, ps):
        poly = Polynomial(cs)
        nums, L = _cleared(poly.coeffs)
        assert L == math.lcm(*(c.denominator for c in poly.coeffs))
        assert [F(n, L) for n in nums] == list(poly.coeffs)
        want = L * F(q) ** max(poly.degree, 0) * poly(F(p, q))
        got = _homogeneous(nums, p, q)
        assert type(got) is int and got == want
        # an object array of p's agrees elementwise and holds Python ints
        arr = _homogeneous(nums, np.array(ps, dtype=object), q)
        assert arr.dtype == object and arr.shape == (len(ps),)
        assert arr.tolist() == [_homogeneous(nums, x, q) for x in ps]
        assert all(type(v) is int for v in arr.tolist())

    @given(coeffs, st.fractions(min_value=-4, max_value=4, max_denominator=9),
           st.fractions(min_value=-4, max_value=4, max_denominator=9))
    @example([], F(-1, 2), F(1, 3))
    def test_coeff_bound_is_the_written_out_sum(self, cs, a, b):
        a, b = min(a, b), max(a, b)
        poly = Polynomial(cs)
        M = max(abs(a), abs(b), F(1))
        want = sum((abs(c) * M ** k for k, c in enumerate(poly.coeffs)), F(0))
        got = _coeff_bound(poly, a, b)
        assert isinstance(got, F) and got == want


def mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def mp_real_roots(p, lo, hi):
    """The real roots of p strictly between lo and hi, at 50 digits."""
    with mpmath.workdps(50):
        cs = [mp(c) for c in reversed(p.coeffs)]
        return sorted(r.real for r in mpmath.polyroots(cs, maxsteps=200, extraprec=200)
                      if abs(r.imag) < mpmath.mpf(10) ** -40 and mp(lo) < r.real < mp(hi))


def mp_abs_integral(p, roots, a, b):
    """Integral of |p| over [a, b] at 50 digits, split at the given roots."""
    with mpmath.workdps(50):
        cs = [mp(c) for c in reversed(p.coeffs)]
        anti = [c / (len(cs) - i) for i, c in enumerate(cs)] + [0]
        pts = [mp(a)] + [r for r in roots if mp(a) < r < mp(b)] + [mp(b)]
        return sum(abs(mpmath.polyval(anti, v) - mpmath.polyval(anti, u))
                   for u, v in zip(pts, pts[1:]))


class TestPrefixAbsIntegrals:
    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=7),
                    min_size=1, max_size=4),
           st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12),
                    min_size=1, max_size=6),
           st.fractions(min_value=-3, max_value=3, max_denominator=5))
    @settings(max_examples=150, deadline=None)
    def test_rational_roots_equal_per_end(self, roots, ends, lead):
        p = from_roots(lead if lead != 0 else 1, roots)
        a = min(ends) - F(1, 3)
        ends = sorted(ends)
        got = prefix_abs_integrals(p, a, ends)
        assert got == [abs_integral(p, a, b) for b in ends]
        assert all(v.error == 0 for v in got)

    @pytest.mark.parametrize("p", [
        P(-2, 0, 1),  # y^2 - 2
        P(-2, 0, 1) * P(-3, 0, 1) * P(F(-1, 5), 1),  # irrational and rational
        P(1, -4, 0, 1),  # y^3 - 4y + 1, three irrational roots
    ])
    def test_irrational_roots_within_tol_of_mpmath(self, p):
        tol = F(1, 10**9)
        a = F(-5, 2)
        roots = mp_real_roots(p, a, 2)
        ends = {F(k, 8) for k in range(-19, 17)}
        # ends on both sides of each root, 2^-36 to 2^-70 away: some lie
        # inside its refined bracket, on either side of the midpoint
        for r in roots:
            k = int(mpmath.floor(r * 2**70))
            ends |= {F(k, 2**70), F(k + 1, 2**70)}
            for e in range(36, 61, 2):
                ends |= {F(k - 2 ** (70 - e), 2**70), F(k + 2 ** (70 - e), 2**70)}
        ends = sorted(ends)
        got = prefix_abs_integrals(p, a, ends, tol)
        assert not all(v.error == 0 for v in got)
        for b, v in zip(ends, got):
            assert v.error <= tol
            with mpmath.workdps(50):
                diff = abs(mp(v.value) - mp_abs_integral(p, roots, a, b))
                assert diff <= mp(v.error) + mpmath.mpf(10) ** -45

    def test_one_end_is_abs_integral(self):
        p = P(1, -4, 0, 1)
        for b in (F(-1), F(1, 3), F(2)):
            assert prefix_abs_integrals(p, -2, [b]) == [abs_integral(p, -2, b)]

    def test_end_on_a_root_and_repeated_ends(self):
        p = P(-1, 0, 1)  # roots -1 and 1
        got = prefix_abs_integrals(p, -2, [-2, -1, -1, 0, 1, 2])
        assert [v.value for v in got] == [
            0, F(4, 3), F(4, 3), F(2), F(8, 3), F(4)]

    def test_bad_ends_rejected(self):
        with pytest.raises(ValueError):
            prefix_abs_integrals(P(0, 1), 0, [F(1, 2), F(1, 4)])
        with pytest.raises(ValueError):
            prefix_abs_integrals(P(0, 1), 0, [F(-1, 4)])
        assert prefix_abs_integrals(P(0, 1), 0, []) == []


class TestAbsIntegral:
    def test_sign_change_exact(self):
        v = abs_integral(P(-1, 0, 1), 0, 2)  # |t^2-1|
        assert v.error == 0 and v.value == 2

    def test_constant_sign_equals_plain_integral(self):
        p = P(1, 0, 1)
        v = abs_integral(p, -1, 1)
        assert v.error == 0 and v.value == p.integral(-1, 1)

    def test_certified_path_error_bound(self):
        p = P(-2, 0, 1)  # root sqrt(2), irrational
        v = abs_integral(p, 0, 2, tol=F(1, 10**10))
        true = 2 ** F(3, 2) * 4 / 3 - F(4, 3)  # float-side oracle
        assert abs(float(v.value) - float(true)) <= 2e-10
        assert v.error <= F(1, 10**10)

    @given(coeffs)
    @settings(max_examples=100, deadline=None)
    def test_dominates_plain_integral(self, cs):
        p = Polynomial(cs)
        v = abs_integral(p, -1, 1)
        assert v.value + v.error >= abs(p.integral(-1, 1))


class TestNonPositiveTol:
    """`refine_root` refuses a width <= 0, which no bisection reaches, so
    each certified primitive that refines a root refuses tol <= 0."""

    @pytest.mark.parametrize("tol", [F(0), F(-1)])
    @pytest.mark.parametrize("certified", [
        lambda tol: abs_integral(P(-2, 0, 1), 0, 2, tol=tol),
        lambda tol: sup_norm(P(0, -2, 0, 1), 0, 2, tol=tol),
    ], ids=["abs_integral", "sup_norm"])
    def test_irrational_crossing_raises_at_once(self, certified, tol):
        def timeout(*_):
            raise TimeoutError("still refining after 1 s")
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.setitimer(signal.ITIMER_REAL, 1)
        try:
            with pytest.raises(ValueError, match="width must be positive"):
                certified(tol)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_no_root_to_refine_stays_exact(self):
        assert abs_integral(P(1, 0, 1), 0, 2, tol=0) == CertifiedValue(F(14, 3))
        assert sup_norm(P(1, 1), 0, 2, tol=0) == CertifiedValue(F(3))


class TestSupNorm:
    def test_interior_critical_point(self):
        v = sup_norm(P(0, 0, -1, 1), 0, 1)  # t^3 - t^2, max 4/27 at 2/3
        assert v.error == 0 and v.value == F(4, 27)

    def test_endpoint_max(self):
        v = sup_norm(P(0, 1), -1, 1)
        assert v.error == 0 and v.value == 1


def integral_and_sup(p, a, b, tol=DEFAULT_TOL):
    """(integral of |p| over [a, b], sup of |p| there), each certified to
    tol; their quotient over b - a lies in [1/(8 n^2), 1] for degree n."""
    return abs_integral(p, a, b, tol=tol), sup_norm(p, a, b, tol=tol)


class TestIntmax:
    """The average of |p| over [a, b] against its sup norm there."""

    def test_constant(self):
        I, S = integral_and_sup(P(5), 0, 1)
        assert I.error == S.error == 0 and I.value == S.value == 5

    def test_linear(self):
        I, S = integral_and_sup(P(0, 1), -1, 1)
        assert I.error == S.error == 0 and (I.value, S.value) == (1, 1)

    def test_quadratic(self):
        I, S = integral_and_sup(P(0, 0, 1), -1, 1)
        assert I.error == S.error == 0 and (I.value, S.value) == (F(2, 3), 1)

    def test_rejects_zero(self):
        # the zero polynomial leaves the ratio without a denominator
        zero = CertifiedValue(F(0))
        assert integral_and_sup(Polynomial.zero(), 0, 1) == (zero, zero)

    def test_random_sample_within_bounds(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 10)
            p = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(n + 1)])
            if p.is_zero:
                continue
            I, S = integral_and_sup(p, 0, 1, tol=F(1, 10**10))
            n_eff = max(p.degree, 1)
            assert S.value - S.error <= 8 * n_eff**2 * (I.value + I.error)
            assert I.value - I.error <= S.value + S.error


class TestCertifiedQuotient:
    """`CertifiedValue`'s `+`, the one rule for combining certified
    values, behind `prefix_abs_integrals` and `abs_power_integrals`."""

    @given(st.fractions(min_value=0, max_value=10, max_denominator=50),
           st.fractions(min_value=0, max_value=1, max_denominator=50),
           st.fractions(min_value=F(1, 10), max_value=10, max_denominator=50),
           st.fractions(min_value=0, max_value=1, max_denominator=50))
    @settings(max_examples=300, deadline=None)
    def test_error_covers_the_box(self, n, en, d, ed):
        a, b = CertifiedValue(n, en), CertifiedValue(d, ed)
        s = a + b
        assert s.value == n + d
        assert (s.error == 0) == (en == 0 and ed == 0)
        # n + d is monotone in each argument: its extremes are at corners
        for nn in (n - en, n + en):
            for dd in (d - ed, d + ed):
                assert abs(nn + dd - s.value) <= s.error

    def test_irrational_crossing_is_certified(self):
        # y^2 - 2 changes sign at sqrt 2: the integral of |p| over [0, 2]
        # is 8 sqrt2/3 - 4/3, the sup norm is exactly 2
        p = P(-2, 0, 1)
        got, sup = integral_and_sup(p, 0, 2)
        with mpmath.workdps(50):
            integral = 8 * mpmath.sqrt(2) / 3 - mp(F(4, 3))
            assert 0 < got.error < F(1, 10**6)
            assert abs(mp(got.value) - integral) <= mp(got.error)
        assert sup == CertifiedValue(F(2))


def triples_digest(values):
    """sha256 of the (value, error == 0, error) triples, one per line."""
    text = "".join("%s %s %s\n" % (v.value, v.error == 0, v.error)
                   for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


SQ2, CUBIC = P(-2, 0, 1), P(1, -3, 0, 1)  # roots +-sqrt 2; 2 cos(2 pi k/9)


def intmax_parts(p, a, b):
    """The integral and the sup norm of |p| on [a, b], to DEFAULT_TOL
    (b - a)/4 and DEFAULT_TOL/4."""
    a, b = F(a), F(b)
    return [abs_integral(p, a, b, tol=DEFAULT_TOL * (b - a) / 4),
            sup_norm(p, a, b, tol=DEFAULT_TOL / 4)]


def over_parts(p, E):
    """The integral of |p| over each interval of E, certified to
    DEFAULT_TOL / (number of intervals), and their sum."""
    parts = [abs_integral(p, iv.lo, iv.hi, tol=DEFAULT_TOL / len(E.intervals))
             for iv in E.intervals]
    return parts + [sum(parts, CertifiedValue(F(0)))]


class TestCertifiedPins:
    """Certified values on polynomials with irrational roots, pinned to
    exact Fractions and flags: the `prefix` cases recorded while
    `prefix_abs_integrals` still added errors by hand, the `intmax` and
    `degiorgi` cases the integrals and sup norms that the average-to-sup
    and De Giorgi-type ratios were built from, recorded with those ratios
    still in the package."""

    @pytest.mark.parametrize("values, digest", [
        (lambda: intmax_parts(SQ2, 0, 2),
         "1796d1ff88b49690ad162ac0744e34ef1a22ddc053bf5da975a6b56bf828b26e"),
        (lambda: intmax_parts(SQ2, F(-3, 2), 2),
         "75340742ee7113058fa0df31a1632a9482cd73d1b2f74cdb187f23fc1235f4c9"),
        (lambda: intmax_parts(SQ2, 1, 2),
         "5afbccb6d95d480bf1361e66e11ed11819de25be66263b7af76a302225b599a4"),
        (lambda: intmax_parts(CUBIC, -2, 2),
         "91b0885b523979cf5b8c033c40d5c273dc9bb984e11fc23af6f3993d79633dec"),
        (lambda: intmax_parts(CUBIC, 0, 1),
         "3893256795390674870049f0453e1cc97d71ba3c8ab8dad3e65b63d19d9eb9e8"),
        (lambda: over_parts(SQ2, IntervalSet.closed(0, 2)),
         "e84584687a153592fa71dd6a5b27ee279918bab31a685d0336906816b1f85032"),
        (lambda: over_parts(CUBIC, IntervalSet([Interval(-2, -1),
                                                Interval(0, 2)])),
         "995ad076e04cd1a06ac0e031e63f385ed786550c6745e8242ee0602ef780dc69"),
        (lambda: over_parts(CUBIC, IntervalSet([Interval(-2, -1),
                                                Interval(F(-1, 2), 0)])),
         "78ff178467aad6abbca8802e92649ef4cd82913966da4aa05541ec7cf43509d0"),
        (lambda: prefix_abs_integrals(CUBIC, -2, (-1, 0, F(1, 2), 1, 2)),
         "b40eb4b3feb7a9c960650072dc7f5527b42ffc64996c4a18875cb911caa1f513"),
        (lambda: prefix_abs_integrals(SQ2, 0, (1, F(3, 2), 2)),
         "5dcae1e75f85ce0ee329fc82ce058660393bb622b7776f9e236417c7984b2fc3"),
    ], ids=["intmax sq2 0..2", "intmax sq2 -3/2..2", "intmax sq2 1..2",
            "intmax cubic -2..2", "intmax cubic 0..1", "degiorgi sq2",
            "degiorgi cubic k1", "degiorgi cubic mixed parts",
            "prefix cubic", "prefix sq2"])
    def test_triples_are_pinned(self, values, digest):
        values = values()
        assert any(v.error != 0 for v in values)
        assert triples_digest(values) == digest


class TestDeGiorgi:
    """The integral of |p| over a set E, summed over E's intervals by
    `over_parts`: the denominator of the De Giorgi-type ratio
    r^(1+k) |p^(k)(x)| / (integral over E of |p|)."""

    def test_constant_density(self):
        # E has half the ball's one-sided radius 1/2: measure r/2, ratio 2
        E = IntervalSet.closed(F(1, 2), F(3, 4))
        assert over_parts(P(1), E)[-1] == CertifiedValue(E.measure())

    def test_linear_full_ball(self):
        # the integral of |y - x| over [x - r, x + r] is r^2: ratio 1
        x, r = F(1, 2), F(1, 4)
        p = Polynomial.from_taylor([0, 1], x)  # y - x
        assert over_parts(p, IntervalSet.closed(x - r, x + r))[-1] == (
            CertifiedValue(r * r))

    def test_scale_invariance(self):
        # the integral of |p(sy)| over E/s is that of |p| over E, over s
        s, p = F(2), P(1, 2, 1)
        E = IntervalSet.closed(F(1, 4), F(3, 4))
        ps = Polynomial([c * s**k for k, c in enumerate(p.coeffs)])
        Es = IntervalSet.closed(F(1, 8), F(3, 8))
        base, scaled = over_parts(p, E)[-1], over_parts(ps, Es)[-1]
        assert base.error == scaled.error == 0 and scaled.value * s == base.value

    def test_degenerate_rejected(self):
        # the zero polynomial leaves the ratio without a denominator
        E = IntervalSet.closed(F(1, 4), F(1, 2))
        assert over_parts(Polynomial.zero(), E) == [CertifiedValue(F(0))] * 2


def pin_family():
    """300 seeded `from_roots` products (p, a, b, q): repeated rational
    and dyadic roots, irrational quadratic factors (y - c)^2 - d, about
    a quarter with a root on an end of (a, b), and a divisor q."""
    rng = random.Random(15)
    family = []
    for _ in range(300):
        roots = [F(rng.randint(-16, 16), rng.choice((1, 2, 3, 4, 5, 8, 16)))
                 for _ in range(rng.randint(0, 3))]
        if roots:
            roots += [rng.choice(roots) for _ in range(rng.randint(0, 2))]
        p = from_roots(
            F(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 7))), roots)
        for _ in range(rng.randint(0, 2)):
            c = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            d = rng.choice((F(2), F(3), F(5), F(1, 2), F(7, 4)))
            p = p * P(c * c - d, -2 * c, 1)
        a = F(rng.randint(-8, 0), rng.choice((1, 2, 3)))
        b = F(rng.randint(1, 8), rng.choice((1, 2, 3)))
        if roots and rng.random() < 0.3:
            r = rng.choice(roots)
            a, b = (r, max(b, r + 1)) if rng.random() < 0.5 else (min(a, r - 1), r)
        q = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        family.append((p, a, b, q if not q.is_zero else P(1)))
    return family


def enclosure_line(e):
    return "%s %s %s %s\n" % (e.lo, e.hi, e.exact,
                               None if e.poly is None else e.poly.coeffs)


def isolation_lines():
    for p, a, b, _ in pin_family():
        for e in isolate_roots(p, a, b):
            yield enclosure_line(e)
            for width in (F(1, 2**10), F(1, 2**40)):
                yield enclosure_line(refine_root(e, width))


def division_lines():
    for p, _, _, q in pin_family():
        for num, den in ((p, q), (q, p), (p, p.derivative())):
            if not den.is_zero:
                quot, rem = num.divmod(den)
                yield "%s %s\n" % (quot.coeffs, rem.coeffs)


def taylor_lines():
    for p, a, _, _ in pin_family():
        yield "%s\n" % taylor(p, a)


class TestIsolationPins:
    """Enclosures (ends, exact root, witness coefficients), refinements
    at widths 2^-10 and 2^-40, quotients, remainders and Taylor
    coefficients p^(k)(a)/k! on `pin_family`, pinned to the values
    recorded while `isolate_roots` still ran a separate gcd to find the
    squarefree part and the Taylor coefficients came from a synthetic
    division."""

    @pytest.mark.parametrize("lines, digest", [
        (isolation_lines,
         "b8465027295fbd4515902dff5a7fe818b16bf3fffa739d9394d9181c68bb7add"),
        (division_lines,
         "dff972e68c0691cb3d3567b205ad914d04750ac144f4a86b35fe9745dae1f26c"),
        (taylor_lines,
         "a8a23205d39f1e79bfa661201d10133bccf51f3f233265dfc249903cf37cba72"),
    ], ids=["isolate and refine", "divmod", "taylor_coeffs"])
    def test_outputs_are_pinned(self, lines, digest):
        text = "".join(lines())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @given(coeffs, coeffs)
    @settings(max_examples=300, deadline=None)
    def test_divmod_identity(self, a, b):
        a, b = Polynomial(a), Polynomial(b)
        assume(not b.is_zero)
        q, r = a.divmod(b)
        assert a == q * b + r
        assert r.degree < b.degree


def sympy_real_roots(p):
    """The distinct real roots of p from sympy's factorisation over Q:
    the rational ones exactly, and each irrational one as its
    irreducible factor with an isolating interval."""
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], sympy.Symbol("y"))
    rational, irrational = set(), []
    for f, _ in poly.factor_list()[1]:
        if f.degree() == 1:
            c1, c0 = f.all_coeffs()
            rational.add(from_sympy(-c0 / c1))
        else:
            irrational.extend((f, from_sympy(s), from_sympy(t))
                              for (s, t), _ in f.intervals())
    return rational, irrational


def from_sympy(x):
    return F(int(x.p), int(x.q))


def sympy_count_between(roots, lo, hi):
    """Number of the roots strictly between the rationals lo and hi. An
    irrational root's interval is refined until neither end is in it."""
    rational, irrational = roots
    count = sum(1 for r in rational if lo < r < hi)
    for f, s, t in irrational:
        while any(s <= x <= t for x in (lo, hi)):
            s, t = map(from_sympy, f.refine_root(s, t, eps=(t - s) / 4))
        count += lo < s and t < hi
    return count


class TestSympyOracle:
    """`isolate_roots` against sympy's factorisation and root isolation,
    which share no code with this package."""

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=4),
                    min_size=1, max_size=3),
           st.lists(st.integers(1, 2), min_size=3, max_size=3),
           st.integers(-5, 4), st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_isolation_matches_sympy(self, factors, powers, a, length):
        # a product of random integer factors, some squared
        p = P(1)
        for cs, k in zip(factors, powers):
            p = p * Polynomial(cs) ** k
        assume(p.degree >= 1)
        a, b = F(a, 2), F(a + length, 2)
        roots = sympy_real_roots(p)
        encs = isolate_roots(p, a, b)
        assert len(encs) == sympy_count_between(roots, a, b)
        for e in encs:
            if e.exact is not None:
                assert e.exact in roots[0]
            else:
                assert sympy_count_between(roots, e.lo, e.hi) == 1


class TestDegenerateInputs:
    """Zero and degenerate inputs take the general paths and give the
    values the zero-case shortcuts returned."""

    def test_products_with_zero(self):
        for p in (Polynomial.zero(), P(F(1, 2), -2, 3)):
            assert (Polynomial.zero() * p).coeffs == ()
            assert (p * Polynomial.zero()).coeffs == ()
        assert Polynomial.zero() ** 0 == P(1)
        assert Polynomial.zero() ** 3 == Polynomial.zero()

    def test_zero_sup_norm(self):
        v = sup_norm(Polynomial.zero(), F(-1, 3), 2)
        assert v == CertifiedValue(F(0)) and type(v.value) is F

    def test_constant_has_no_roots(self):
        assert isolate_roots(P(F(-5, 7)), -10, 10) == []

    def test_every_end_at_a(self):
        for p in (P(-1, 0, 1), P(F(1, 3)), Polynomial.zero()):
            got = prefix_abs_integrals(p, 1, [1, 1, 1])
            assert got == [CertifiedValue(F(0))] * 3

    def test_reversed_interval_rejected(self):
        for fn in (sup_norm, abs_integral):
            with pytest.raises(ValueError, match="require a <= b"):
                fn(P(0, 1), 1, 0)

    def test_zero_polynomial_rejected_where_undefined(self):
        with pytest.raises(ZeroDivisionError):
            P(1, 1).divmod(Polynomial.zero())
        with pytest.raises(ValueError, match="zero polynomial"):
            isolate_roots(Polynomial.zero(), 0, 1)

    def test_degiorgi_bad_radius_and_null_set_rejected(self):
        # a null set E leaves the ratio without a denominator
        point = IntervalSet.closed(F(1, 2), F(1, 2))
        assert over_parts(P(1), point) == [CertifiedValue(F(0))] * 2

    def test_negative_truncation_order_is_zero(self):
        # order -1 keeps no term: the remainder by (y - x)^0 = 1
        assert P(1, 2, 3) % shifted_power(F(1, 2), 0) == Polynomial.zero()


class TestPower:
    def test_powers_are_repeated_products(self):
        p = P(F(1, 2), -1, F(2, 3))
        acc = P(1)
        for n in range(9):
            assert p ** n == acc
            acc = acc * p
        with pytest.raises(ValueError, match="negative power"):
            p ** -1

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
    def test_no_square_past_the_last_bit(self, monkeypatch, n):
        # one product per set bit and one square per bit after the first
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__",
                            lambda a, b: calls.append(1) or mul(a, b))
        P(1, 1) ** n
        assert len(calls) == bin(n).count("1") + n.bit_length() - 1


# ---------------------------------------------------------------------------
# the cleared form, against a plain Fraction-list reference
# ---------------------------------------------------------------------------
# The reference works on lists of Fractions, lowest power first, with
# trailing zeros stripped, and uses nothing from heislusin.


def ref_trim(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])


def ref_scale(a, c):
    return ref_trim([x * c for x in a])


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_pow(a, n):
    out = [F(1)]
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_deriv(a, k):
    out = []
    for i in range(k, len(a)):
        falling = 1
        for j in range(i - k + 1, i + 1):
            falling *= j
        out.append(a[i] * falling)
    return ref_trim(out)


def ref_antideriv(a):
    return ref_trim([F(0)] + [x / (i + 1) for i, x in enumerate(a)])


def ref_eval(a, x):
    return sum((c * F(x) ** k for k, c in enumerate(a)), F(0))


def ref_divmod(a, b):
    rem, quot = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        f = quot[k] = rem[k + len(b) - 1] / b[-1]
        for i, y in enumerate(b):
            rem[k + i] -= f * y
    return ref_trim(quot), ref_trim(rem)


def ref_from_taylor(cs, x):
    out = []
    for k, c in enumerate(cs):
        out = ref_add(out, ref_scale(ref_pow([-F(x), F(1)], k), F(c)))
    return out


points = st.fractions(min_value=-3, max_value=3, max_denominator=12)


class TestFractionReference:
    """Every ring, calculus and evaluation operation of `Polynomial`
    against the Fraction-list reference above."""

    @given(coeffs, coeffs, points, points, st.integers(0, 4), st.integers(0, 7))
    @example([], [F(1, 3)], F(0), F(1), 0, 0)  # the zero polynomial
    @settings(max_examples=300, deadline=None)
    def test_operations_match_the_reference(self, a, b, x, c, n, k):
        p, q = Polynomial(a), Polynomial(b)
        A, B = ref_trim(a), ref_trim(b)
        assert p.coeffs == tuple(A) and all(type(v) is F for v in p.coeffs)
        assert (p + q).coeffs == tuple(ref_add(A, B))
        assert (p - q).coeffs == tuple(ref_add(A, ref_scale(B, -1)))
        assert (-p).coeffs == tuple(ref_scale(A, -1))
        assert (p + c).coeffs == tuple(ref_add(A, ref_trim([c])))
        assert (p * q).coeffs == tuple(ref_mul(A, B))
        assert (p * c).coeffs == (c * p).coeffs == tuple(ref_scale(A, c))
        assert (p ** n).coeffs == tuple(ref_pow(A, n))
        assert p.derivative(k).coeffs == tuple(ref_deriv(A, k))
        assert p.antiderivative().coeffs == tuple(ref_antideriv(A))
        got = p(x)
        assert type(got) is F and got == ref_eval(A, x)
        anti = ref_antideriv(A)
        assert p.integral(x, c) == ref_eval(anti, c) - ref_eval(anti, x)
        assert (Polynomial.from_taylor(a, x).coeffs
                == tuple(ref_from_taylor(a, x)))
        if B:
            quot, rem = p.divmod(q)
            assert (quot.coeffs, rem.coeffs) == tuple(map(tuple, ref_divmod(A, B)))

    @given(coeffs)
    @settings(max_examples=200, deadline=None)
    def test_stored_form_is_cleared(self, cs):
        p = Polynomial(cs)
        assert all(type(v) is int for v in (*p.nums, p.den))
        assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
        assert not p.nums or p.nums[-1] != 0
        assert p.den == math.lcm(*(c.denominator for c in p.coeffs))
        assert p.coeffs == tuple(F(v, p.den) for v in p.nums)

    @given(coeffs, coeffs, points, st.integers(-9, 9).filter(bool),
           st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_equal_polynomials_have_equal_forms(self, a, b, x, k, c):
        p, q = Polynomial(a), Polynomial(b)
        assume(not q.is_zero)
        ways = [
            Polynomial(list(a) + [0, F(0)]),
            Polynomial.from_ints([v * k for v in p.nums], p.den * k),
            (p * q) // q,
            (p + q) - q,
            (p * c) * (1 / c),
            p.antiderivative().derivative(),
            Polynomial.from_taylor(taylor(p, x), x),
        ]
        for w in ways:
            assert (w.nums, w.den) == (p.nums, p.den)
            assert w == p and hash(w) == hash(p)

    def test_zero_polynomial_form(self):
        p = P(F(1, 3), -2, F(5, 7))
        zeros = [
            Polynomial(), Polynomial.zero(), Polynomial([0, F(0), 0.0]),
            p - p, p * 0, 0 * p, p * Polynomial.zero(), p % P(F(2, 9)),
            p.derivative(3), Polynomial.constant(F(2, 3)).derivative(),
            Polynomial.from_ints([0, 0], -7), Polynomial.from_ints((), 5),
        ]
        for z in zeros:
            assert z.degree == -1 and z.is_zero
            assert (z.nums, z.den) == ((), 1)
            assert z.coeffs == () and z(F(1, 2)) == 0
            assert z == Polynomial.zero() and hash(z) == hash(Polynomial.zero())


def sympy_inner_roots(poly, a, b, odd_only):
    """The distinct real roots of the sympy Poly `poly` strictly between
    the Rationals a and b, only those of odd multiplicity if `odd_only`,
    in order: Rationals, and CRootOf objects for the irrational ones."""
    sympy = pytest.importorskip("sympy")
    roots = []
    for factor, k in poly.factor_list()[1]:
        if not (odd_only and k % 2 == 0):  # an irreducible factor's roots are simple
            roots += [r for r in factor.real_roots() if a < r < b]
    return sorted(roots, key=lambda r: sympy.N(r, 60))


class TestCertifiedSympyOracle:
    """`abs_integral` and `sup_norm` of random integer polynomials over
    random rational intervals against sympy, which shares no code with
    this package: equal when every sign change (critical point) inside
    is rational, otherwise within the certified error of sympy's value at
    50 digits. 10^-40 covers the rounding of that value itself."""

    ints = st.lists(st.integers(-6, 6), min_size=1, max_size=6)
    ends = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    lengths = st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8)

    @staticmethod
    def setup(cs, a, length):
        sympy = pytest.importorskip("sympy")
        p = Polynomial(cs)
        assume(not p.is_zero)
        poly = sympy.Poly([sympy.Integer(c) for c in reversed(cs)],
                          sympy.Symbol("y"))
        return sympy, p, poly, sympy.Rational(a), sympy.Rational(a + length)

    @staticmethod
    def check(sympy, got, want, exact):
        value = sympy.Rational(got.value.numerator, got.value.denominator)
        if exact:
            assert want.is_Rational and value == want and got.error == 0
        else:
            error = sympy.Rational(got.error.numerator, got.error.denominator)
            slack = sympy.Rational(1, 10**40)
            assert abs(value - sympy.N(want, 50)) <= error + slack

    @given(ints, ends, lengths)
    @example([2, -9, 0, 4], F(-1), F(3))  # rational crossings -1/2 and 2
    @example([-2, 0, 1], F(0), F(2))  # the crossing sqrt(2)
    @example([0, 0, 1], F(-1), F(2))  # a double root: no sign change
    @settings(max_examples=60, deadline=None)
    def test_abs_integral(self, cs, a, length):
        sympy, p, poly, A, B = self.setup(cs, a, length)
        cuts = [A] + sympy_inner_roots(poly, A, B, odd_only=True) + [B]
        anti = poly.integrate()
        want = sum((abs(anti.eval(v) - anti.eval(u))
                    for u, v in zip(cuts, cuts[1:])), sympy.Integer(0))
        exact = all(c.is_Rational for c in cuts)
        self.check(sympy, abs_integral(p, a, a + length), want, exact)

    @given(ints, ends, lengths)
    @example([0, -3, 0, 1], F(-2), F(3))  # critical points -1 and 1
    @example([0, -2, 0, 1], F(0), F(2))  # the critical point sqrt(2/3)
    @settings(max_examples=60, deadline=None)
    def test_sup_norm(self, cs, a, length):
        sympy, p, poly, A, B = self.setup(cs, a, length)
        crits = sympy_inner_roots(poly.diff(), A, B, odd_only=False)
        values = [abs(poly.eval(x)) for x in [A, B] + crits]
        exact = all(c.is_Rational for c in crits)
        want = max(values) if exact else max(sympy.N(v, 60) for v in values)
        self.check(sympy, sup_norm(p, a, a + length), want, exact)
