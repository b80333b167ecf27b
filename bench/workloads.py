"""The three benchmark workloads, their seeded inputs and output checks.

Each workload builds its inputs from the seed when it is constructed
(this is the set-up that `setup_s` times) and hands out one round of
operations at a time.  An operation is either a CLI command run
in-process through `heislusin.cli.run` or a call of a public function of
`heislusin`.  Every output is checked against a computation the
benchmark does itself or against a property of the method, never
against a stored copy of earlier output.

Library functions are always looked up on the package at call time
(`hl.good_pair_search`, not a name imported here), so that the traced
run sees the calls through its wrappers.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cached_property, partial


class CheckFailed(Exception):
    """An output differs from what the independent computation predicts."""


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Op:
    """One operation of a round.

    `call` runs it and returns its output.  A CLI operation returns a
    `CliResult` and fails unless its exit status is in `accept`.  An
    operation also fails when it raises.  `check` inspects the output of
    an operation that did not fail and raises `CheckFailed` when the
    output is wrong.
    """

    __slots__ = ("name", "call", "accept", "check")

    def __init__(self, name, call, check=None, accept=None):
        self.name = name
        self.call = call
        self.check = check
        self.accept = accept


class CliResult:
    __slots__ = ("status", "out", "err")

    def __init__(self, status, out, err):
        self.status, self.out, self.err = status, out, err


def cli(hl, *argv) -> CliResult:
    """Run one CLI command in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = hl.cli.run([str(a) for a in argv])
    return CliResult(status, out.getvalue(), err.getvalue())


def q(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


# ---------------------------------------------------------------------------
# staircase: the counterexample pipeline
# ---------------------------------------------------------------------------


class DyadicComponents:
    """Components of the staircase levels, from integer arithmetic alone.

    With w_n = 2^-(n(n+6)) every centre k/2^n and radius w_n is an
    integer multiple of 2^-D, D = depth(depth+6).  Level n keeps each
    centre whose open interval misses every interval kept before it.
    """

    def __init__(self, depth: int):
        self.scale = 1 << depth * (depth + 6)
        self.levels = []  # per level: (radius, sorted centres), in 2^-D units
        centres, radius = [], {}
        for n in range(1, depth + 1):
            r = self.scale >> n * (n + 6)
            step = self.scale >> n
            kept = []
            for k in range(1, 2**n):
                c = k * step
                i = bisect.bisect_left(centres, c)
                # the chosen intervals are disjoint, so an overlap on one
                # side implies an overlap with the nearest centre there
                if i < len(centres) and centres[i] - radius[centres[i]] < c + r:
                    continue
                if i > 0 and centres[i - 1] + radius[centres[i - 1]] > c - r:
                    continue
                kept.append(c)
            for c in kept:
                bisect.insort(centres, c)
                radius[c] = r
            self.levels.append((r, kept))
        self.centres, self.radius = centres, radius

    @property
    def counts(self) -> list:
        return [len(kept) for _, kept in self.levels]

    def inside(self, x: Fraction) -> bool:
        X = x * self.scale
        i = bisect.bisect_left(self.centres, X)
        return any(
            abs(X - self.centres[j]) < self.radius[self.centres[j]]
            for j in (i - 1, i) if 0 <= j < len(self.centres))

    def level_component_between(self, n: int, x: Fraction, y: Fraction) -> bool:
        r, kept = self.levels[n - 1]
        X, Y = x * self.scale, y * self.scale
        i = bisect.bisect_left(kept, X)
        return i < len(kept) and X <= kept[i] - r and kept[i] + r <= Y


class Staircase:
    """`counterexample verify`, `build` and `straddle`, plus the good-pair
    search at every level, all at one depth."""

    def __init__(self, hl, seed, workdir, depth=7):
        self.hl, self.depth = hl, depth
        rng = random.Random(seed)
        self.straddle_n = sorted(rng.sample(range(1, depth), 2))
        self.outdir = os.path.join(workdir, "staircase-build")
        self.curve = None

    @cached_property
    def oracle(self) -> DyadicComponents:
        return DyadicComponents(self.depth)

    def h_increment_total(self) -> Fraction:
        return sum((k * 4 * Fraction(1, 9**n)
                    for n, k in enumerate(self.oracle.counts, start=1)),
                   Fraction(0))

    def ops(self) -> list:
        hl, D = self.hl, self.depth
        ops = [
            self.verify_op(),
            Op("counterexample build",
               partial(cli, hl, "counterexample", "build", "--depth", D,
                       "--out", self.outdir),
               self.check_build, accept=(0,)),
        ]
        for n in self.straddle_n:
            ops.append(Op(
                "counterexample straddle",
                partial(cli, hl, "counterexample", "straddle", "--n", n,
                        "--depth", D),
                partial(self.check_straddle, n), accept=(0,)))
        # a negative level is a usage error; the CLI should exit 2
        ops.append(Op(
            "counterexample straddle --n -1",
            partial(cli, hl, "counterexample", "straddle", "--n", -1,
                    "--depth", 3),
            accept=(2,)))
        ops += self.pair_ops()
        return ops

    def verify_op(self) -> Op:
        return Op("counterexample verify",
                  partial(cli, self.hl, "counterexample", "verify",
                          "--depth", self.depth),
                  self.check_verify, accept=(0,))

    def pair_ops(self) -> list:
        ops = [Op("build_curve", self._build_curve)]
        for n in range(1, self.depth):
            ops.append(Op("good_pair_search", partial(self._pair, n),
                          partial(self.check_pair, n)))
        return ops

    def _build_curve(self):
        self.curve = self.hl.build_curve(self.hl.default_params(self.depth))

    def _pair(self, n):
        return self.hl.good_pair_search(self.hl.IntervalSet.unit(), self.curve, n)

    def check_verify(self, res: CliResult) -> None:
        lines = res.out.splitlines()
        expect(lines and all(l.startswith("PASS ") for l in lines),
               "verify printed a line that is not PASS")
        total = sum(self.oracle.counts)
        expect("(%d components)" % total in res.out,
               "verify does not report %d components" % total)

    def check_build(self, res: CliResult) -> None:
        with open(os.path.join(self.outdir, "intervals.json")) as fh:
            levels = json.load(fh)["levels"]
        expect([len(lev) for lev in levels] == self.oracle.counts,
               "component counts per level differ from the dyadic count")
        with open(os.path.join(self.outdir, "curve.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        hs = [Fraction(r.rsplit(",", 1)[1]) for r in rows]
        expect(all(a <= b for a, b in zip(hs, hs[1:])), "h decreases")
        expect(hs[-1] == self.h_increment_total(),
               "final h is not sum_n count_n 4 h_n^2")

    def check_straddle(self, n: int, res: CliResult) -> None:
        ratio = Fraction(res.out.split("ratio: ", 1)[1].split()[0])
        expect(ratio == 4 * (Fraction(4**n, 3 ** (n + 1))) ** 2,
               "straddle ratio at n=%d is not 4(4^n h_(n+1))^2" % n)

    def check_pair(self, n: int, pair) -> None:
        expect(pair is not None, "no good pair at level %d" % n)
        x, y = pair
        expect(x < y <= x + Fraction(1, 2**n), "pair gap at level %d" % n)
        expect(not self.oracle.inside(x) and not self.oracle.inside(y),
               "pair point inside a component at level %d" % n)
        expect(self.oracle.level_component_between(n + 1, x, y),
               "no level-%d component between the pair" % (n + 1))

    def ladder(self, workdir) -> list:
        """(components, ops) of verify plus the pair search at depths 5 to 8."""
        out = []
        for depth in (5, 6, 7, 8):
            sub = Staircase(self.hl, 0, workdir, depth)
            out.append((sum(sub.oracle.counts), [sub.verify_op()] + sub.pair_ops()))
        return out


# ---------------------------------------------------------------------------
# jets: extension of jets to horizontal curves
# ---------------------------------------------------------------------------

# exact polynomial helpers on coefficient lists, lowest power first


def p_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def p_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def p_scale(a, c):
    return [c * x for x in a]


def p_deriv(a, k=1):
    for _ in range(k):
        a = [i * x for i, x in enumerate(a)][1:] or [Fraction(0)]
    return a


def p_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_compose_linear(a, c0, c1):
    """a(c0 + c1 t)."""
    out = [Fraction(0)]
    for c in reversed(a):
        out = p_add(p_mul(out, [c0, c1]), [c])
    return out


def horizontal_lift(f, g):
    """h = 2 int_0^t (f'g - g'f): the vertical part of a horizontal curve."""
    integrand = p_scale(p_add(p_mul(p_deriv(f), g),
                              p_scale(p_mul(p_deriv(g), f), -1)), 2)
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(integrand)]


# f' and g' have the irrational roots 1/2 +- sqrt(3)/4 and 1/2 +- sqrt(2)/4
_BASE_F = p_add(p_scale(p_add(p_compose_linear([0, 0, 0, 1], Fraction(-1, 2), 1),
                              p_scale([Fraction(-1, 2), 1], Fraction(-9, 16))),
                        Fraction(3, 4)), [Fraction(1, 5)])
_BASE_G = p_add(p_scale(p_add(p_compose_linear([0, 0, 0, 1], Fraction(-1, 2), 1),
                              p_scale([Fraction(-1, 2), 1], Fraction(-6, 16))),
                        Fraction(-5, 8)), [Fraction(-1, 3)])

PERTURBATION = Fraction(1, 1024)


def symmetric_image(k: int, f, g):
    """Image of (f, g) under one of 16 symmetries: the 8 symmetries of the
    square in the (f, g) plane, times t -> 1 - t.  All images have the
    same coefficient sizes, so the seed changes the data and not the work."""
    if k & 1:
        f, g = g, f
    if k & 2:
        f = p_scale(f, -1)
    if k & 4:
        g = p_scale(g, -1)
    if k & 8:
        f, g = p_compose_linear(f, 1, -1), p_compose_linear(g, 1, -1)
    return f, g


class JetInput:
    """One seeded jet triple at uniform sites, with the curve behind it."""

    def __init__(self, label, m, f, g, sites, perturb_site=None):
        self.label, self.m, self.f, self.g = label, m, f, g
        self.sites = sites
        h = horizontal_lift(f, g)
        rows = []
        for i, x in enumerate(sites):
            jets = [[p_eval(p_deriv(c, k), x) for k in range(m + 1)]
                    for c in (f, g, h)]
            if i == perturb_site:
                jets[2][1] += PERTURBATION
            rows.append(jets)
        self.values = rows
        self.perturbed = perturb_site is not None

    def to_json_obj(self) -> dict:
        return {"m": self.m, "sites": [
            {"x": q(x), "F": [q(v) for v in F], "G": [q(v) for v in G],
             "H": [q(v) for v in H]}
            for x, (F, G, H) in zip(self.sites, self.values)]}


class Jets:
    """`jets check`, the Hermite gap fill, its horizontality residual and
    the repair gap of every site gap, on three seeded jet triples."""

    def __init__(self, hl, seed, workdir, sites=11):
        self.hl = hl
        rng = random.Random(seed)
        self.spacing = Fraction(1, sites - 1)
        grid = [i * self.spacing for i in range(sites)]
        self.inputs = []
        for label, m, perturb in (("m2", 2, None), ("m3", 3, None),
                                  ("perturbed", 2, rng.randrange(sites))):
            f, g = symmetric_image(rng.randrange(16), _BASE_F, _BASE_G)
            inp = JetInput(label, m, f, g, grid, perturb)
            inp.path = os.path.join(workdir, "jets-%s.json" % label)
            obj = inp.to_json_obj()
            with open(inp.path, "w") as fh:
                json.dump(obj, fh)
            inp.triple = hl.JetTriple.from_json_obj(obj)
            self.inputs.append(inp)

    def ops(self) -> list:
        ops = []
        for inp in self.inputs:
            ops.append(self.check_op(inp))
            box = {}
            ops.append(Op("hermite_gap_fill", partial(self._fill, inp, box),
                          partial(self.check_fill, inp)))
            ops.append(Op("horizontality_residual",
                          partial(self._residual, box),
                          partial(self.check_zero, "horizontality residual")))
            for a, b in zip(inp.sites, inp.sites[1:]):
                ops.append(Op("horizontal_repair_gap",
                              partial(self._repair, inp, a, b),
                              partial(self.check_zero, "repair gap")))
        return ops

    def check_op(self, inp) -> Op:
        # the verdict of a horizontal triple depends on how the smallest,
        # empty ladder scale is judged, so only a perturbed one fixes it
        return Op("jets check",
                  partial(cli, self.hl, "jets", "check", "--input", inp.path,
                          "--m", inp.m),
                  partial(self.check_report, inp),
                  accept=(1,) if inp.perturbed else (0, 1))

    def _fill(self, inp, box):
        box["fill"] = self.hl.hermite_gap_fill(inp.triple)
        return box["fill"]

    def _residual(self, box):
        return self.hl.horizontality_residual(box["fill"])

    def _repair(self, inp, a, b):
        return self.hl.horizontal_repair_gap(inp.triple, a, b)

    def largest_gap(self, delta: Fraction, nsites: int) -> Fraction:
        return min(math.floor(delta / self.spacing), nsites - 1) * self.spacing

    def check_report(self, inp, res: CliResult) -> None:
        rep = json.loads(res.out)
        ode = float(rep["max_ode_residual"])
        if inp.perturbed:
            expect(ode == float(PERTURBATION), "ODE residual is not the perturbation")
            expect(rep["conditions"]["ode_constraints"] is False
                   and rep["verdict"] == "fail",
                   "perturbed triple passes the ODE constraints")
        else:
            expect(ode == 0.0, "ODE residual of a horizontal triple is not 0")
        n = len(inp.sites)
        for comp, poly in (("F", inp.f), ("G", inp.g)):
            for entry in rep["whitney"][comp]:
                delta = Fraction(entry["delta"])
                if delta < self.spacing:
                    continue  # no pair of sites this close
                value = float(entry["value"])
                if inp.m == 3:
                    want = 0.0
                else:  # every remainder of a cubic is c3 d^(3-k) times a constant
                    want = float(6 * abs(poly[3]) * self.largest_gap(delta, n))
                expect(math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0),
                       "%s Whitney modulus at %s is %r, not %r"
                       % (comp, entry["delta"], value, want))
        if inp.m == 3:
            for entry in rep["area_velocity_ratio"]:
                if Fraction(entry["delta"]) >= self.spacing:
                    expect(entry["value"] is not None
                           and float(entry["value"]) == 0.0,
                           "area/velocity ratio of a horizontal cubic is not 0")

    def check_fill(self, inp, fill) -> None:
        expect(tuple(fill.breakpoints) == tuple(inp.sites), "fill breakpoints")
        for i in range(len(inp.sites) - 1):
            for pieces, col in ((fill.f_pieces, 0), (fill.g_pieces, 1)):
                coeffs = list(pieces[i].coeffs)
                for j in (i, i + 1):
                    got = [p_eval(p_deriv(coeffs, k), inp.sites[j])
                           for k in range(inp.m + 1)]
                    expect(got == inp.values[j][col],
                           "Hermite fill misses the jet at site %d" % j)

    @staticmethod
    def check_zero(what, value) -> None:
        expect(value == 0, "%s is %s, not 0" % (what, value))

    def ladder(self, workdir) -> list:
        """(sites, ops) of `jets check` at m=3 on fewer sites."""
        out = []
        for sites in (5, 7, 9, 11):
            subdir = os.path.join(workdir, "jets-ladder-%d" % sites)
            os.makedirs(subdir, exist_ok=True)
            sub = Jets(self.hl, 0, subdir, sites)
            out.append((sites, [sub.check_op(sub.inputs[1])]))
        return out


# ---------------------------------------------------------------------------
# sieve: finite-scale Whitney and L^p differentiability
# ---------------------------------------------------------------------------

REPEATED_T_CSV = "t,f,g,h\n0,0,0,0\n1/2,1,0,0\n1/2,1,0,0\n1,0,0,0\n"
SIEVE_EPS = Fraction(5, 100)
MODULUS_CAP = 1024
LP_SCALES = tuple(Fraction(1, 2**k) for k in range(2, 7))
DENSITY_EPS = Fraction(1, 2)
DENSITY_RADIUS = Fraction(1, 8)


class Sieve:
    """`whitney_sieve` of y^3, and `sieve`, `diff lp` and `diff density`
    on the kink u = |t - c| sampled in a curve CSV."""

    def __init__(self, hl, seed, workdir, grid=2**10, kink_grid=2**9,
                 rows=512):
        self.hl, self.grid, self.kink_grid = hl, grid, kink_grid
        rng = random.Random(seed)
        # the kink sits a quarter into a cell of the kink sieve's grid
        j = rng.randrange(kink_grid // 4, 3 * kink_grid // 4)
        self.c = c = Fraction(4 * j + 1, 4 * kink_grid)
        # P = (t - c)^2 + B crosses u at c +- (1 - sqrt(1 - 4B))/2
        self.B = Fraction(rng.randrange(1, 7), 64)
        self.density_x = c + Fraction(rng.randrange(1, 5), 64)
        ts = sorted({Fraction(i, rows) for i in range(rows + 1)} | {c})
        self.kink_csv = os.path.join(workdir, "kink.csv")
        with open(self.kink_csv, "w") as fh:
            fh.write("t,f,g,h\n")
            fh.writelines("%s,%s,0,0\n" % (q(t), q(abs(t - c))) for t in ts)
        self.repeated_csv = os.path.join(workdir, "repeated-t.csv")
        with open(self.repeated_csv, "w") as fh:
            fh.write(REPEATED_T_CSV)
        self.cube = hl.PiecewisePolynomial([0, 1], [hl.Polynomial((0, 0, 0, 1))])

    def ops(self) -> list:
        hl, c = self.hl, self.c
        P = (c * c + self.B, -2 * c, Fraction(1))
        return [
            Op("whitney_sieve", self._cube_sieve, self.check_cube),
            Op("sieve", partial(cli, hl, "sieve", "--input", self.kink_csv,
                                "--m", 1, "--grid", self.kink_grid),
               self.check_kink, accept=(0,)),
            Op("diff lp", partial(
                cli, hl, "diff", "lp", "--input", self.kink_csv, "--x", q(c),
                "--m", 1, "--p", 1, "--poly=" + ",".join(q(a) for a in P),
                "--scales", ",".join(q(s) for s in LP_SCALES)),
               self.check_lp, accept=(0,)),
            Op("diff density", partial(
                cli, hl, "diff", "density", "--input", self.kink_csv,
                "--x", q(self.density_x), "--m", 1, "--poly=%s,1" % q(-c),
                "--eps", q(DENSITY_EPS), "--radius", q(DENSITY_RADIUS)),
               self.check_density, accept=(0,)),
            # a repeated t is malformed input; the CLI should exit 2
            Op("sieve repeated t", partial(
                cli, hl, "sieve", "--input", self.repeated_csv, "--m", 1),
               accept=(2,)),
        ]

    def _cube_sieve(self, grid=None):
        return self.hl.whitney_sieve(self.cube, 2, SIEVE_EPS,
                                     grid=grid or self.grid,
                                     modulus_cap=MODULUS_CAP)

    def check_cube(self, res, grid=None) -> None:
        grid = grid or self.grid
        expect(res.retained.measure() == 1, "y^3 loses measure in the sieve")
        expect(all(new == 0 for _, new, _ in res.defects),
               "a sieve stage excludes part of y^3")
        # every centre survives; the modulus sees every stride-th of them
        stride = -(-grid // MODULUS_CAP) if grid > MODULUS_CAP else 1
        kept = -(-grid // stride)
        spacing = Fraction(stride, grid)
        for delta, value in zip(res.modulus_scales, res.modulus_profile):
            gap = min(math.floor(delta / spacing), kept - 1) * spacing
            want = float(6 * gap)
            expect(math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-15),
                   "y^3 modulus at %s is %r, not 6 * %s" % (delta, value, gap))

    def check_kink(self, res: CliResult) -> None:
        rep = json.loads(res.out)
        cell = Fraction(1, self.kink_grid)
        expect(Fraction(rep["cell_width"]) == cell, "kink sieve cell width")
        j = math.floor(self.c / cell)
        for iv in rep["retained"]:
            lo, hi = Fraction(iv["lo"]) / cell, Fraction(iv["hi"]) / cell
            expect(lo.denominator == 1 and hi.denominator == 1,
                   "retained set is not a union of whole cells")
            expect(hi <= j or lo >= j + 1, "the cell holding the kink is retained")

    @cached_property
    def lp_oracle(self) -> list:
        """mpmath quadrature of the normalised remainder at every scale."""
        import mpmath

        with mpmath.workdps(40):
            B = mpmath.mpf(self.B.numerator) / self.B.denominator
            root = (1 - mpmath.sqrt(1 - 4 * B)) / 2

            def side(s):  # |u - P| at t = c + s, u = |s|, P = s^2 + B
                return abs(abs(s) - s * s - B)

            out = []
            for rho in LP_SCALES:
                r = mpmath.mpf(rho.numerator) / rho.denominator
                cuts = sorted({-r, 0, r} | ({-root, root} if root < r else set()))
                out.append(mpmath.quad(side, cuts) / (2 * r) / r)
        return out

    def check_lp(self, res: CliResult) -> None:
        rows = res.out.splitlines()[1:]
        expect(len(rows) == len(LP_SCALES), "diff lp prints one row per scale")
        tol = self.hl.polynomials.DEFAULT_TOL
        for row, rho, want in zip(rows, LP_SCALES, self.lp_oracle):
            scale, value = row.split(",")
            expect(Fraction(scale) == rho, "diff lp scale")
            # the integral is certified to tol; the value divides it by 2 rho^2
            bound = float(tol / (2 * rho * rho)) + 1e-15 * float(want)
            expect(abs(float(value) - float(want)) <= bound,
                   "diff lp at %s is %s, quadrature gives %s"
                   % (q(rho), value, float(want)))

    def density_expected(self) -> Fraction:
        # P is the right-hand line of u, so only y < c can be bad there:
        # |u - P| = 2(c - y) <= eps (x - y)  iff  c - y <= eps d / (2 - eps)
        x, R, eps, c = self.density_x, DENSITY_RADIUS, DENSITY_EPS, self.c
        good_left = min(c - (x - R), eps * (x - c) / (2 - eps))
        return ((x + R - c) + good_left) / (2 * R)

    def check_density(self, res: CliResult) -> None:
        got = Fraction(res.out.split("density: ", 1)[1].split()[0])
        expect(got == self.density_expected(),
               "density %s, expected %s" % (got, self.density_expected()))

    def ladder(self, workdir) -> list:
        """(grid points, ops) of the y^3 sieve on coarser grids."""
        return [
            (grid, [Op("whitney_sieve", partial(self._cube_sieve, grid),
                       partial(self.check_cube, grid=grid))])
            for grid in (2**8, 2**9, 2**10)
        ]


WORKLOADS = {"staircase": Staircase, "jets": Jets, "sieve": Sieve}

# the sizes the self-check uses: every workload in a few seconds
TINY = {
    "staircase": {"depth": 5},
    "jets": {"sites": 5},
    "sieve": {"grid": 2**8, "kink_grid": 2**6, "rows": 128},
}
