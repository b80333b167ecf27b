import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from heislusin.counterexample import (
    CounterexampleParams,
    build_curve,
    check_params,
    component_increments,
    default_params,
    good_pair_search,
    measure_report,
    straddle_jets,
    straddle_ratio,
)
from heislusin.curves import horizontality_residual, lift
from heislusin.intervalsets import Interval, IntervalSet, rational_to_str


def union_of(sets):
    # the normalizing constructor merges the pieces of all the sets
    return IntervalSet([iv for s in sets for iv in s.intervals])


class TestParams:
    def test_defaults(self):
        p = default_params(8)
        assert p.h(3) == F(1, 27)
        assert p.lam(2) == F(4, 25)
        assert p.w(1) == F(1, 2**7)

    def test_increasing_sequence_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleParams(
                h_seq=lambda n: F(n), lambda_seq=lambda n: F(2, 5) ** n,
                w_seq=lambda n: F(1, 2 ** (7 * n)), depth=3,
            )

    def test_w_too_large_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleParams(
                h_seq=lambda n: F(1, 3) ** n, lambda_seq=lambda n: F(2, 5) ** n,
                w_seq=lambda n: F(1, 2**n), depth=3,
            )

    @pytest.mark.parametrize("kwargs, match", [
        (dict(depth=0), "depth must be >= 1"),
        (dict(h_seq=lambda n: F(2 - n, 3)), "h_2 must be positive"),
        (dict(lambda_seq=lambda n: F(0)), "lambda_1 must be positive"),
    ])
    def test_bad_depth_or_sequence_rejected(self, kwargs, match):
        args = dict(h_seq=lambda n: F(1, 3**n),
                    lambda_seq=lambda n: F(2, 5) ** n,
                    w_seq=lambda n: F(1, 2 ** (7 * n)), depth=3) | kwargs
        with pytest.raises(ValueError, match=match):
            CounterexampleParams(**args)


class TestCheckParams:
    def test_partial_sums_bounded(self):
        rep = check_params(default_params(10))
        vals = rep["lambda_partial_sums"]["values"]
        assert all(v <= 4 for v in vals)
        assert rep["lambda_partial_sums"]["bounded_by_4"]

    def test_h_over_lambda_closed_form(self):
        rep = check_params(default_params(10))
        got = rep["h_over_lambda"]["values"]
        assert got == [F(5, 6) ** n for n in range(1, 11)]
        assert rep["h_over_lambda"]["decreasing_from"] == 0

    def test_growth_closed_form(self):
        rep = check_params(default_params(10))
        got = rep["four_pow_times_h"]["values"]
        assert got == [F(4, 3) ** n for n in range(1, 11)]
        assert rep["four_pow_times_h"]["increasing_from"] == 0

    def test_h_tail_ratio_matches_geometric_oracle(self):
        tail = 30
        rep = check_params(default_params(10), tail_terms=tail)
        # independent truncated-geometric oracle for
        # (1/lambda_{n+1}^2) sum_{k>n} 2^(k-n) h_k^2
        for n, got in enumerate(rep["h_tail_ratio"]["values"], start=1):
            oracle = sum(
                F(2) ** (k - n) * F(1, 9) ** k
                for k in range(n + 1, n + 1 + tail)
            ) / F(2, 5) ** (2 * (n + 1))
            assert got == oracle
            closed = F(25, 4) * F(2, 7) * F(25, 36) ** n
            assert abs(got - closed) <= closed / 10**8
        assert rep["h_tail_ratio"]["decreasing_from"] == 0

    def test_negative_tail_terms_rejected(self):
        with pytest.raises(ValueError, match="tail_terms"):
            check_params(default_params(3), tail_terms=-1)

    def test_p_max_below_one_rejected(self):
        with pytest.raises(ValueError, match="p_max must be >= 1"):
            check_params(default_params(3), p_max=0)

    def test_w_ratios_eventually_decreasing(self):
        rep = check_params(default_params(10), p_max=4)
        for p in range(1, 5):
            entry = rep["w_tail_ratios"][p]
            # decreasing over at least the last step
            assert entry["decreasing_from"] <= len(entry["values"]) - 2


def direct_tail_ratios(params, depth, p_max, tail_terms):
    """The tail ratios by the direct double sum over n and k, and their
    `decreasing_from`: {"h": (values, index), p: (values, index)}."""
    def tail(n, term):
        return sum(
            (F(2) ** (k - n) * term(k)
             for k in range(n + 1, n + 1 + tail_terms)),
            F(0),
        )

    def decreasing_from(vals):
        i = len(vals) - 1
        while i > 0 and vals[i - 1] > vals[i]:
            i -= 1
        return i if vals else None

    ns = range(1, depth + 1)
    out = {"h": [tail(n, lambda k: params.h(k) ** 2) / params.lam(n + 1) ** 2
                 for n in ns]}
    for p in range(1, p_max + 1):
        out[p] = [tail(n, lambda k: params.w(k) * params.h(k) ** p)
                  / params.lam(n + 1) ** (2 * p + 1) for n in ns]
    return {key: (vals, decreasing_from(vals)) for key, vals in out.items()}


def slow_params(depth):
    return CounterexampleParams(
        h_seq=lambda n: F(1, n + 1), lambda_seq=lambda n: F(1, 2 * n + 1),
        w_seq=lambda n: F(1, n * 2 ** (6 * n)), depth=depth,
    )


class TestCheckParamsSlidingTails:
    """check_params' tail sums, prefix differences, are those of the
    direct double sum, Fraction for Fraction."""

    @pytest.mark.parametrize("make", [default_params, slow_params])
    @pytest.mark.parametrize("tail_terms", [0, 1, 2, 5, 30])
    def test_matches_direct_double_sum(self, make, tail_terms):
        for depth in range(1, 13):
            params = make(depth)
            ref = direct_tail_ratios(params, depth, 4, tail_terms)
            for p_max in range(1, 5):
                rep = check_params(params, p_max=p_max, tail_terms=tail_terms)
                got = rep["h_tail_ratio"]
                assert (got["values"], got["decreasing_from"]) == ref["h"]
                w = rep["w_tail_ratios"]
                assert sorted(w) == list(range(1, p_max + 1))
                for p, entry in w.items():
                    assert (entry["values"], entry["decreasing_from"]) == ref[p]


def geometric_params(eta, mu, omega, depth):
    return CounterexampleParams(
        h_seq=lambda n: eta**n, lambda_seq=lambda n: mu**n,
        w_seq=lambda n: omega**n, depth=depth,
    )


class TestCheckParamsGeometricOracle:
    """For h = eta^n, lambda = mu^n, w = omega^n every ratio is C q^n with
    C > 0 once tail_terms >= 1: the tails are finite geometric sums of
    ratio 2 eta^2 and 2 omega eta^p. So each sequence is strictly
    decreasing from n = 1 when q < 1, and never strictly decreasing over
    two terms otherwise."""

    @staticmethod
    def expected_from(q, depth):
        return 0 if q < 1 else depth - 1

    def test_seeded_grid(self):
        rng = random.Random(2019)
        for _ in range(200):
            eta, mu = (F(rng.randint(1, 15), 16) for _ in range(2))
            omega = F(1, 2 ** rng.randint(6, 12))
            depth, p_max = rng.randint(1, 9), rng.randint(1, 6)
            tail_terms = rng.choice([1, 2, 5, 30])
            rep = check_params(geometric_params(eta, mu, omega, depth),
                               p_max=p_max, tail_terms=tail_terms)
            case = (eta, mu, omega, depth, p_max, tail_terms)
            assert rep["h_over_lambda"]["decreasing_from"] == (
                self.expected_from(eta / mu, depth)), case
            assert rep["h_tail_ratio"]["decreasing_from"] == (
                self.expected_from(eta**2 / mu**2, depth)), case
            for p in range(1, p_max + 1):
                q = omega * eta**p / mu ** (2 * p + 1)
                assert rep["w_tail_ratios"][p]["decreasing_from"] == (
                    self.expected_from(q, depth)), (case, p)
            rising = rep["four_pow_times_h"]["increasing_from"]
            assert rising == (0 if 4 * eta > 1 else depth - 1), case
            r = 2 * mu  # sum_{n=1}^{depth} r^n, in closed form
            closed = depth if r == 1 else r * (r**depth - 1) / (r - 1)
            assert rep["lambda_partial_sums"]["values"][-1] == closed, case


class TestIntervals:
    def test_first_level(self):
        p = default_params(3)
        levels = build_curve(p).I_levels
        iv = levels[0].intervals[0]
        assert (iv.lo, iv.hi) == (F(1, 2) - p.w(1), F(1, 2) + p.w(1))
        assert not iv.lo_closed and not iv.hi_closed

    def test_component_count_bound(self):
        levels = build_curve(default_params(10)).I_levels
        for n, lev in enumerate(levels, start=1):
            assert len(lev.intervals) <= 2 ** (n - 1)

    def test_all_odd_centers_accepted_through_level_six(self):
        levels = build_curve(default_params(10)).I_levels
        for n, lev in enumerate(levels[:6], start=1):
            assert len(lev.intervals) == 2 ** (n - 1)

    @pytest.mark.parametrize("w_seq", [
        lambda n: F(1, 2 ** (n * (n + 6))),  # the default
        lambda n: F(1, 2 ** (6 * n)),  # the widest the params accept
        lambda n: F(2, 3 * 2 ** (6 * n)),  # ends over 3 2^(6n - 1)
    ], ids=["default", "widest", "non-dyadic"])
    def test_levels_match_pairwise_overlap_oracle(self, w_seq):
        # open (a, b) and (c, d) meet iff a < d and c < b; every earlier
        # component is compared with every centre, no interval algebra
        d = default_params(7)
        p = CounterexampleParams(d.h_seq, d.lambda_seq, w_seq, 7)
        chosen, rejected = [], 0
        for n, lev in enumerate(build_curve(p).I_levels, start=1):
            w = p.w(n)
            kept = []
            for k in range(1, 2**n):
                lo, hi = F(k, 2**n) - w, F(k, 2**n) + w
                if all(not (lo < b and a < hi) for a, b in chosen):
                    kept.append((lo, hi))
                elif k % 2:
                    rejected += 1
            assert [(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
                    for iv in lev.intervals] == [
                        (lo, hi, False, False) for lo, hi in kept]
            chosen += kept
        assert rejected > 0  # some odd centres meet an earlier component

    def test_levels_pairwise_disjoint(self):
        levels = build_curve(default_params(8)).I_levels
        union = IntervalSet()
        total = F(0)
        for lev in levels:
            assert not union.intersects(lev)
            union = union_of((union, lev))
            total += lev.measure()
        assert union.measure() == total

    def test_unions_are_the_partial_unions(self, curve10):
        assert len(curve10.I_levels) == 10
        assert curve10.I_union == union_of(curve10.I_levels)


def pieces_digest(c):
    """sha256 of the breakpoints and every piece of f, g and h, one line
    each as "p/q" coefficients."""
    lines = [",".join(rational_to_str(t) for t in c.breakpoints)]
    for pieces in (c.f_pieces, c.g_pieces, c.h_pieces):
        lines += [",".join(rational_to_str(x) for x in p.coeffs)
                  for p in pieces]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestCurve:
    def test_zero_off_components(self, curve10):
        for t in (0, F(1, 7), F(9, 10), 1):
            f, g, _ = curve10.curve(t)
            assert f == 0 and g == 0

    def test_center_value(self, curve10):
        p = curve10.params
        for n, lev in ((1, curve10.I_levels[0]), (3, curve10.I_levels[2])):
            iv = lev.intervals[0]
            c = (iv.lo + iv.hi) / 2
            f, g, _ = curve10.curve(c)
            assert f == p.h(n) and g == p.h(n)

    def test_f_slope_on_second_quarter(self, curve10):
        p = curve10.params
        iv = curve10.I_levels[0].intervals[0]
        c = (iv.lo + iv.hi) / 2
        # midpoint of J2 = [c - w/2, c]
        t = c - (iv.hi - iv.lo) / 8
        i = curve10.curve.f.piece_index(t)
        assert curve10.curve.f_pieces[i].derivative()(t) == 2 * p.h(1) / p.w(1)

    def test_curve_is_horizontal(self):
        c = build_curve(default_params(4))
        assert horizontality_residual(c.curve) == 0

    def test_h_nondecreasing(self, curve10):
        h = curve10.curve.h
        vals = [h(t) for t in curve10.curve.breakpoints]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_depth8_pieces_unchanged(self):
        # recorded when f and g were still built from hand-written
        # linear pieces
        c = build_curve(default_params(8)).curve
        assert len(c.breakpoints) == 1257
        assert pieces_digest(c) == (
            "c102e55efc897460be23623c2327a8562375177fcc71dc077cfb0d8acbf9939e"
        )

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_h_is_the_lift_of_f_and_g(self, depth):
        c = build_curve(default_params(depth)).curve
        assert c.h.pieces == lift(c.f, c.g, 0).h.pieces

    # denominators with the primes 7 and 11 in h, and 3 and 7 in w;
    # recorded when the curve was still built on Fractions and h by lift
    @pytest.mark.parametrize("h_seq, w_seq, digest", [
        (lambda n: F(2, 7) ** n, lambda n: F(1, 3 * 2 ** (6 * n)),
         "d53e45705f5cd0519ce4403d0034095b279ce47ca4f4198b8c3122639ebd94bd"),
        (lambda n: F(5, 11) ** n, lambda n: F(1, 7**n * 2 ** (6 * n)),
         "ef10daee645bee7ff4551c7eac0c8ba1d73040b50fda73a45202f6e33ea25ab1"),
    ], ids=["sevenths", "elevenths"])
    def test_other_families_match_lift_and_pin(self, h_seq, w_seq, digest):
        p = CounterexampleParams(h_seq, default_params(1).lambda_seq,
                                 w_seq, 7)
        C = build_curve(p)
        c = C.curve
        assert c.h.pieces == lift(c.f, c.g, 0).h.pieces
        assert pieces_digest(c) == digest
        assert [x for _, _, x in component_increments(C)] == [
            4 * p.h(n) ** 2 for n in range(1, 8) for _ in range(2 ** (n - 1))]

    def test_outside_domain_rejected(self, curve10):
        with pytest.raises(ValueError):
            curve10.curve(F(3, 2))


class TestIncrements:
    def test_all_levels_exact(self, curve10):
        p = curve10.params
        incs = component_increments(curve10)
        assert len(incs) == sum(
            len(lev.intervals) for lev in curve10.I_levels
        )
        for n, _, v in incs:
            assert v == 4 * F(1, 9) ** n

    def test_level_one_value(self, curve10):
        assert component_increments(curve10)[0][2] == F(4, 9)


class TestMeasureReport:
    def test_weighted_sum_bound(self, curve10):
        rep = measure_report(curve10)
        assert rep["sum_2n_wn"] <= F(1, 31)
        assert rep["sum_2n_wn_le_1_31"]

    def test_measure_below_weighted_sum(self, curve10):
        rep = measure_report(curve10)
        assert curve10.I_union.measure() == rep["measure_I"]
        assert rep["measure_le_sum"]

    def test_shell_bounds(self, curve10):
        rep = measure_report(curve10)
        for shell in rep["shells"]:
            assert shell["within_bound"]
            assert shell["measure"] <= 2 * curve10.params.lam(shell["n"]) * (
                2 ** shell["n"] - 1
            )
            # shells live off I by construction
            A_n = shell["int_set"].over(rep["M"])
            assert not A_n.intersects(curve10.I_union)

    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_each_partial_union_is_built_once(self, depth, monkeypatch):
        # the build, the shells and I_union merge sorted rows or vertex
        # pairs; none unites two sets through the normalizing constructor
        calls = []
        init = IntervalSet.__init__
        monkeypatch.setattr(IntervalSet, "__init__",
                            lambda *a: calls.append(1) or init(*a))
        C = build_curve(default_params(depth))
        measure_report(C)
        C.I_union
        assert len(calls) == 0

    def test_depth8_shells_are_pinned(self):
        # sorted-key JSON of every shell's set and exact measure;
        # recorded when interval algebra still ran on open/closed flags
        rep = measure_report(build_curve(default_params(8)))
        shells = [
            {"n": s["n"], "set": s["int_set"].over(rep["M"]).to_json_obj(),
             "measure": rational_to_str(s["measure"])}
            for s in rep["shells"]
        ]
        text = json.dumps(shells, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6e8c297f6fa5c8136be6b87c34e5540f91de8e4a4f3dfc6d7e0568232f6accbc"
        )


class TestGoodPair:
    def test_unit_interval_level_one(self, curve10):
        w2 = curve10.params.w(2)
        pair = good_pair_search(IntervalSet.unit(), curve10, 1)
        assert pair == (F(1, 4) - w2, F(1, 4) + w2)

    def test_pair_constraints_all_levels(self, curve10):
        I = curve10.I_union
        for n in range(1, curve10.params.depth):
            pair = good_pair_search(IntervalSet.unit(), curve10, n)
            assert pair is not None
            x, y = pair
            assert y - x <= F(1, 2**n)
            assert not I.clip(x, x) and not I.clip(y, y)
            # the components are open, so a pair touching the closure
            # endpoints still lies outside I on opposite sides
            assert any(
                x <= iv.lo and y >= iv.hi
                for iv in curve10.I_levels[n].intervals
            )

    def test_depth8_pairs_are_pinned(self):
        # every level's pair as "p/q" strings; recorded when interval
        # algebra still ran on open/closed flags
        C = build_curve(default_params(8))
        pairs = [
            [rational_to_str(x) for x in good_pair_search(IntervalSet.unit(),
                                                          C, n)]
            for n in range(8)
        ]
        assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == (
            "6e5842b8ff419d6eda9ea08522222c7000fefac2753779881548a6f9101a9794"
        )

    def test_exhausted(self, curve10):
        E = IntervalSet.unit()
        for iv in curve10.I_levels[1].intervals:
            c = (iv.lo + iv.hi) / 2
            E = E.subtract(IntervalSet([Interval(c - F(1, 2), c + F(1, 2),
                                              False, False)]))
        assert good_pair_search(E, curve10, 1) is None

    def test_negative_level_rejected(self, curve10):
        with pytest.raises(ValueError):
            good_pair_search(IntervalSet.unit(), curve10, -1)
        with pytest.raises(ValueError):
            good_pair_search(IntervalSet.unit(), curve10, 10)

    def test_matches_clip_of_whole_free_set(self):
        """The bisection for the free piece next to each component gives
        the pair that clipping the whole free set gives."""
        C = build_curve(default_params(6))

        def by_clip(E, n):
            free = E.subtract(C.I_union)
            half = F(1, 2 ** (n + 1))
            for iv in C.I_levels[n].intervals:
                c = (iv.lo + iv.hi) / 2
                left = free.clip(c - half, iv.lo)
                right = free.clip(iv.hi, c + half)
                if not left or not right:
                    continue
                liv, riv = left.intervals[-1], right.intervals[0]
                x = liv.hi if liv.hi_closed else (liv.lo + liv.hi) / 2
                y = riv.lo if riv.lo_closed else (riv.lo + riv.hi) / 2
                if y - x <= F(1, 2**n):
                    return x, y
            return None

        holes = IntervalSet(Interval(F(k, 64), F(4 * k + 1, 256), False, False)
                            for k in range(64))
        for E in (IntervalSet.unit(), IntervalSet.unit().subtract(holes),
                  IntervalSet([Interval(F(1, 8), F(3, 8), True, False)])):
            for n in range(6):
                assert good_pair_search(E, C, n) == by_clip(E, n)

    def test_sanity_constant(self):
        assert F(2, 3) + F(4, 31) == F(74, 93) <= F(4, 5)


class TestStraddle:
    def test_closed_form_levels(self, curve10):
        p = curve10.params
        for n in (6, 7):
            assert straddle_ratio(curve10, n) == 4 * (4**n * p.h(n + 1)) ** 2

    def test_first_crossing_at_seven(self, curve10):
        p = curve10.params
        assert 4**6 * p.h(7) == F(4096, 2187) < 2
        assert 4**7 * p.h(8) == F(16384, 6561) >= 2

    def test_negative_level_rejected(self, curve10):
        with pytest.raises(ValueError):
            straddle_ratio(curve10, -1)
        with pytest.raises(ValueError):
            straddle_jets(curve10, -1)

    def test_straddle_jets(self, curve10):
        p = curve10.params
        for n in (0, 3, 7):
            t = straddle_jets(curve10, n)
            iv = curve10.I_levels[n].intervals[0]
            x, y = t.sites
            assert t.m == 2 and x + y == iv.lo + iv.hi
            assert y - x == F(1, 2**n)
            assert t.F.values == t.G.values == ((0, 0, 0), (0, 0, 0))
            (h0, *dh0), (h1, *dh1) = t.H.values
            assert dh0 == dh1 == [0, 0]
            assert h1 - h0 == 4 * p.h(n + 1) ** 2

    def test_strictly_increasing(self, curve10):
        vals = [straddle_ratio(curve10, n) for n in range(1, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


# h = (2/7)^n and w = 1/(3 2^(6n)): the first family of the pieces pins
SEVENTHS = CounterexampleParams(
    lambda n: F(2, 7) ** n, default_params(1).lambda_seq,
    lambda n: F(1, 3 * 2 ** (6 * n)), 7)
# w_1 + w_6 = 1/64: the level-6 components at 31/64 and 33/64 touch I_1,
# so a component starts at the vertex where another ends
TOUCHING = CounterexampleParams(
    default_params(1).h_seq, default_params(1).lambda_seq,
    lambda n: {1: F(1, 64) - F(1, 2**40), 6: F(1, 2**40)}.get(
        n, F(1, 2 ** (6 * n))), 6)
# lambda_1 = 3/5 > 1/2: the first shells reach 0 and 1 and are clipped
WIDE = CounterexampleParams(
    default_params(1).h_seq, lambda n: F(3, 5) ** n,
    default_params(1).w_seq, 6)


@pytest.fixture(scope="module", params=["default8", "sevenths", "touching"])
def tabled(request):
    return build_curve({"default8": default_params(8), "sevenths": SEVENTHS,
                        "touching": TOUCHING}[request.param])


class TestTablesMatchCurve:
    """The reports read the integer vertex tables; each value is the one
    the piecewise curve gives."""

    def test_increments(self, tabled):
        C, h = tabled, tabled.curve.h
        assert component_increments(C) == [
            (n, i, h(iv.hi) - h(iv.lo))
            for n, lev in enumerate(C.I_levels, start=1)
            for i, iv in enumerate(lev.intervals)]
        assert all(v == 4 * C.params.h(n) ** 2
                   for n, _, v in component_increments(C))

    def test_straddle_h_values(self, tabled):
        C, h = tabled, tabled.curve.h
        for n in range(C.params.depth):
            iv = C.I_levels[n].intervals[0]
            (h0, *_), (h1, *_) = straddle_jets(C, n).H.values
            assert (h0, h1) == (h(iv.lo), h(iv.hi))

    def test_components_are_the_level_intervals(self, tabled):
        C = tabled
        for level, lev in zip(C.components, C.I_levels):
            assert [(F(C.ts[a], C.T), F(C.ts[b], C.T)) for a, b in level] == [
                (iv.lo, iv.hi) for iv in lev.intervals]
        assert C.curve.h.pieces == lift(C.curve.f, C.curve.g, 0).h.pieces

    @pytest.mark.parametrize("E", [
        IntervalSet.unit(), IntervalSet.closed(0, F(1, 3)),
        IntervalSet([Interval(F(1, 5), 1, False, True)]),
    ], ids=["unit", "first-third", "half-open"])
    def test_pairs_match_a_walk_over_the_level_sets(self, tabled, E):
        C = tabled

        def walk(n):
            free = E.subtract(C.I_union)
            half = F(1, 2 ** (n + 1))
            for iv in C.I_levels[n].intervals:
                c = (iv.lo + iv.hi) / 2
                liv = free.last_piece(c - half, iv.lo)
                riv = free.first_piece(iv.hi, c + half)
                if liv is None or riv is None:
                    continue
                x = liv.hi if liv.hi_closed else (liv.lo + liv.hi) / 2
                y = riv.lo if riv.lo_closed else (riv.lo + riv.hi) / 2
                if y - x <= F(1, 2**n):
                    return x, y
            return None

        pairs = [good_pair_search(E, C, n) for n in range(C.params.depth)]
        assert pairs == [walk(n) for n in range(C.params.depth)]
        assert any(pairs)

    @pytest.mark.parametrize("E", [
        IntervalSet.unit(), IntervalSet.closed(0, F(1, 3)),
        IntervalSet([Interval(F(1, 5), 1, False, True)]),
    ], ids=["unit", "first-third", "half-open"])
    def test_no_search_subtracts_the_union(self, tabled, E, monkeypatch):
        C, sizes = tabled, []
        subtract = IntervalSet.subtract

        def recording(s, other):
            sizes.append(len(other._keys))
            return subtract(s, other)

        monkeypatch.setattr(IntervalSet, "subtract", recording)
        # from n = 1 on; at n = 0 the window around the level-1 component
        # is all of [0, 1], and every component meets it
        for n in range(1, C.params.depth):
            good_pair_search(E, C, n)
        assert sizes and all(size < len(C.I_union._keys) for size in sizes)

    def test_vertices_are_the_curve_at_its_breakpoints(self, tabled):
        C = tabled
        rows, dens = C.vertex_rows()
        assert [tuple(map(F, row, dens)) for row in rows] == [
            (t, *C.curve(t)) for t in C.curve.breakpoints]

    @pytest.mark.parametrize(
        "params",
        [default_params(d) for d in range(5, 10)] + [SEVENTHS, TOUCHING, WIDE],
        ids=["depth%d" % d for d in range(5, 10)]
        + ["sevenths", "touching", "wide"])
    def test_shells_match_fraction_keys(self, params):
        C = build_curve(params)
        rep = measure_report(C)
        assert rep["measure_I"] == C.I_union.measure()
        for shell in rep["shells"]:
            partial = union_of(C.I_levels[:shell["n"]])
            A_n = (partial.dilate(params.lam(shell["n"])).clip(0, 1)
                   .subtract(C.I_union))
            assert shell["int_set"].over(rep["M"]) == A_n
            assert shell["measure"] == A_n.measure()


def test_reports_leave_the_curve_unbuilt():
    C = build_curve(default_params(6))
    component_increments(C)
    measure_report(C)
    straddle_jets(C, 2)
    straddle_ratio(C, 3)
    # the level sets and their union are still undecoded
    assert "I_levels" not in vars(C) and "I_union" not in vars(C)
    for n in range(6):
        good_pair_search(IntervalSet.unit(), C, n)
    assert "I_union" in vars(C) and "I_levels" not in vars(C)  # I_union alone
    assert "curve" not in vars(C)
    assert C.I_levels is C.I_levels and C.I_union is C.I_union
    assert C.curve is C.curve
