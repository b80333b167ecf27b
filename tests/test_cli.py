import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislusin import cli
from heislusin.cli import (
    MAX_DECIMAL, MAX_DEPTH, MAX_GRID, MAX_M, MAX_NMAX, MAX_P, MAX_P_MAX,
    MAX_SAMPLES, read_curve_csv, run,
)
from heislusin.counterexample import (
    CounterexampleParams, build_curve, default_params, straddle_jets,
    straddle_ratio,
)
from heislusin.intervalsets import IntervalSet, rational_to_str
from heislusin.jets import Jet, JetTriple
from heislusin.polynomials import Polynomial


def invoke(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def write_zero_triple(path, m=2):
    z = Jet(m, (0, F(1, 2), 1), tuple((0,) * (m + 1) for _ in range(3)))
    triple = JetTriple(z, z, z)
    path.write_text(json.dumps(triple.to_json_obj()))


class TestUsage:
    def test_unknown_command(self, capsys):
        status, _, err = invoke(capsys, "frobnicate")
        assert status == 2

    def test_no_command(self, capsys):
        status, _, _ = invoke(capsys)
        assert status == 2

    def test_missing_required_flag(self, capsys):
        status, _, _ = invoke(capsys, "counterexample", "straddle")
        assert status == 2

    def test_missing_input_file(self, capsys, tmp_path):
        status, _, err = invoke(
            capsys, "jets", "check", "--input", str(tmp_path / "nope.json")
        )
        assert status == 2
        assert "error" in err


class TestStraddle:
    def test_golden_output(self, capsys):
        status, out, _ = invoke(
            capsys, "counterexample", "straddle", "--n", "7", "--depth", "9"
        )
        assert status == 0
        assert out == (
            "n: 7\n"
            "ratio: 1073741824/43046721\n"
            "closed form 4(4^n h_(n+1))^2: 1073741824/43046721\n"
            "4^n h_(n+1): 16384/6561\n"
            "exceeds 2: true\n"
        )

    def test_below_threshold(self, capsys):
        status, out, _ = invoke(
            capsys, "counterexample", "straddle", "--n", "6", "--depth", "8"
        )
        assert status == 0
        assert "exceeds 2: false" in out

    def test_depth_guard(self, capsys):
        status, _, err = invoke(
            capsys, "counterexample", "straddle", "--n", "9", "--depth", "9"
        )
        assert status == 2

    def test_negative_level(self, capsys):
        status, out, err = invoke(
            capsys, "counterexample", "straddle", "--n", "-1", "--depth", "3"
        )
        assert status == 2
        assert out == "" and "0 <= n" in err


@pytest.fixture(scope="module")
def curve8():
    return build_curve(default_params(8))


def straddle_text(n, ratio, params):
    """`counterexample straddle` output for a ratio and the closed form."""
    growth = 4**n * params.h(n + 1)
    return (
        "n: %d\nratio: %s\nclosed form 4(4^n h_(n+1))^2: %s\n"
        "4^n h_(n+1): %s\nexceeds 2: %s\n" % (
            n, rational_to_str(ratio), rational_to_str(4 * growth**2),
            rational_to_str(growth), "true" if growth >= 2 else "false")
    )


class TestStraddleTruncatedBuild:
    """`straddle` builds levels 1..n+1 only; what it reads of that curve
    is what the full depth-D curve gives."""

    @pytest.mark.parametrize("n", range(8))
    def test_prints_full_curve_ratio(self, capsys, curve8, n):
        status, out, _ = invoke(
            capsys, "counterexample", "straddle", "--n", str(n),
            "--depth", "8",
        )
        params = curve8.params
        ratio = straddle_ratio(curve8, n)
        assert ratio == 4 * (4**n * params.h(n + 1)) ** 2
        assert status == 0
        assert out == straddle_text(n, ratio, params)

    @pytest.mark.parametrize("n", range(8))
    def test_jets_match_full_curve(self, curve8, n):
        full = straddle_jets(curve8, n)
        cut = straddle_jets(build_curve(default_params(n + 1)), n)
        assert cut.sites == full.sites
        (h0, *_), (h1, *_) = full.H.values
        (c0, *_), (c1, *_) = cut.H.values
        assert c1 - c0 == h1 - h0 == 4 * curve8.params.h(n + 1) ** 2
        assert cut.F.values == full.F.values and cut.G.values == full.G.values

    def test_cost_follows_n_not_depth(self, capsys, monkeypatch):
        # a depth-14 build has about 80k pieces; levels 1..3 have 7 components
        depths = []

        def recording_build(params):
            depths.append(params.depth)
            return build_curve(params)

        monkeypatch.setattr(cli, "build_curve", recording_build)
        status, out, _ = invoke(
            capsys, "counterexample", "straddle", "--n", "2", "--depth", "14"
        )
        assert status == 0
        assert depths == [3]
        assert out == straddle_text(2, 4 * (4**2 * F(1, 27)) ** 2,
                                    default_params(3))


class TestDepthBound:
    @pytest.mark.parametrize("argv", [
        ("build", "--out", "{out}"),
        ("verify",),
        ("straddle", "--n", "1"),
    ])
    @pytest.mark.parametrize("depth", ["0", "15", "40"])
    def test_out_of_range_depth_is_usage_error(self, capsys, tmp_path,
                                               argv, depth):
        outdir = tmp_path / "out"
        argv = [a.format(out=outdir) for a in argv]
        start = time.perf_counter()
        status, out, err = invoke(
            capsys, "counterexample", *argv, "--depth", depth
        )
        assert status == 2
        assert time.perf_counter() - start < 0.5
        assert out == "" and "depth must be in 1..%d" % MAX_DEPTH in err
        assert not outdir.exists()

    def test_max_depth_is_accepted(self, capsys):
        # --depth is converted before --help stops the parse, so a
        # rejected depth would exit 2 here without building anything
        status, _, _ = invoke(
            capsys, "counterexample", "straddle", "--n", "1",
            "--depth", str(MAX_DEPTH), "--help",
        )
        assert status == 0



class TestSieveBounds:
    @pytest.mark.parametrize("flag, value, bounds", [
        ("--grid", "7", "grid must be in 8..%d" % MAX_GRID),
        ("--grid", str(MAX_GRID + 1), "grid must be in 8..%d" % MAX_GRID),
        ("--grid", str(2**40), "grid must be in 8..%d" % MAX_GRID),
        ("--nmax", "0", "nmax must be in 1..%d" % MAX_NMAX),
        ("--nmax", str(10**9), "nmax must be in 1..%d" % MAX_NMAX),
    ])
    def test_out_of_range_is_usage_error(self, capsys, tmp_path, flag,
                                         value, bounds):
        # the input does not exist: the bound must be checked first
        missing = tmp_path / "never-read.csv"
        start = time.perf_counter()
        status, out, err = invoke(
            capsys, "sieve", "--input", str(missing), "--m", "1", flag, value
        )
        assert status == 2
        assert time.perf_counter() - start < 0.5
        assert out == "" and bounds in err
        assert "No such file" not in err

    def test_bounds_are_accepted(self, capsys, tmp_path):
        for grid, nmax in ((8, 1), (MAX_GRID, MAX_NMAX)):
            status, _, _ = invoke(
                capsys, "sieve", "--input", str(tmp_path / "x.csv"),
                "--m", "1", "--grid", str(grid), "--nmax", str(nmax), "--help",
            )
            assert status == 0

# commands that read a curve CSV, with their required flags
LP = ("diff", "lp", "--x", "1/2", "--m", "1")
DENSITY = ("diff", "density", "--x", "1/2", "--m", "1", "--eps", "1",
           "--radius", "1/4")
SIEVE = ("sieve", "--m", "1")


class TestListFlags:
    """--poly, --scales and --ladder are comma lists of rationals parsed
    by argparse: a bad entry or an empty list exits 2 before the input
    is read."""

    @pytest.mark.parametrize("argv, flag, bad", [
        (LP, "--poly", "1,x"),
        (DENSITY, "--poly", "1/0"),
        (LP, "--scales", "1/4,abc"),
        (("jets", "check"), "--ladder", "1/2,zz"),
        (LP, "--poly", ""),
        (DENSITY, "--poly", ""),
        (LP, "--scales", ""),
        (("jets", "check"), "--ladder", ""),
        (LP, "--scales", "1/4,"),
        (LP, "--poly", "1e10000000"),
    ])
    def test_bad_list_is_usage_error(self, capsys, tmp_path, argv, flag, bad):
        missing = tmp_path / "never-read"
        status, out, err = invoke(capsys, *argv, "--input", str(missing),
                                  flag + "=" + bad)
        assert status == 2
        assert out == "" and "argument %s" % flag in err
        assert "No such file" not in err and "Traceback" not in err

    def test_lists_are_parsed(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n1/2,1/2,0,0\n1,0,0,0\n")
        status, out, _ = invoke(capsys, *LP, "--input", str(src),
                                "--poly", "0,1", "--scales", "1/4,1/8")
        assert status == 0
        # P = y: u - P vanishes left of 1/2 and is 1 - 2y right of it, so
        # the average of |u - P| over B(1/2, rho) is rho/2, over rho^1
        assert out.splitlines() == ["rho,value", "1/4,0.5", "1/8,0.5"]

    @pytest.mark.parametrize("scales", ["0", "1/4,-1/8", "1/4,0"])
    def test_non_positive_scale_is_usage_error(self, capsys, tmp_path,
                                               scales):
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n1/2,1/2,0,0\n1,0,0,0\n")
        status, out, err = invoke(capsys, *LP, "--input", str(src),
                                  "--scales", scales)
        assert status == 2
        assert out == "" and "positive" in err


class TestIntegerBounds:
    """Every integer flag has a range, and --tolerance a lower bound; a
    value outside it exits 2 before any input is read or anything is
    built."""

    @pytest.mark.parametrize("argv, flag, value, bounds", [
        (("counterexample", "straddle", "--n", "1"), "--decimal", "-1",
         "decimal must be in 1..%d" % MAX_DECIMAL),
        (("counterexample", "straddle", "--n", "1"), "--decimal", "0",
         "decimal must be in 1..%d" % MAX_DECIMAL),
        (("counterexample", "straddle", "--n", "1"), "--decimal",
         str(MAX_DECIMAL + 1), "decimal must be in 1..%d" % MAX_DECIMAL),
        (("counterexample", "build", "--out", "{out}"), "--samples", "-1",
         "samples must be in 0..%d" % MAX_SAMPLES),
        (("counterexample", "build", "--out", "{out}"), "--samples",
         str(MAX_SAMPLES + 1), "samples must be in 0..%d" % MAX_SAMPLES),
        (("counterexample", "verify"), "--p-max", "0",
         "p-max must be in 1..%d" % MAX_P_MAX),
        (("counterexample", "verify"), "--p-max", str(MAX_P_MAX + 1),
         "p-max must be in 1..%d" % MAX_P_MAX),
        (LP, "--m", "-1", "m must be in 0..%d" % MAX_M),
        (LP, "--m", str(MAX_M + 1), "m must be in 0..%d" % MAX_M),
        (DENSITY, "--m", str(MAX_M + 1), "m must be in 0..%d" % MAX_M),
        (SIEVE, "--m", "-1", "m must be in 0..%d" % MAX_M),
        (SIEVE, "--m", str(10**9), "m must be in 0..%d" % MAX_M),
        (LP, "--p", "0", "p must be in 1..%d" % MAX_P),
        (LP, "--p", str(MAX_P + 1), "p must be in 1..%d" % MAX_P),
        (("jets", "check", "--input", "{out}"), "--tolerance", "-1",
         "tolerance: must be >= 0"),
    ])
    def test_out_of_range_is_usage_error(self, capsys, tmp_path, argv, flag,
                                         value, bounds):
        outdir = tmp_path / "out"
        argv = [a.format(out=outdir) for a in argv]
        if argv[0] in ("diff", "sieve"):
            argv += ["--input", str(tmp_path / "never-read.csv")]
        # --decimal belongs to the top-level parser
        flags = [flag + "=" + value]
        argv = flags + argv if flag == "--decimal" else argv + flags
        start = time.perf_counter()
        status, out, err = invoke(capsys, *argv)
        assert status == 2
        assert time.perf_counter() - start < 0.5
        assert out == "" and bounds in err
        assert "No such file" not in err and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("argv", [
        ("--decimal", "1", "counterexample", "verify", "--p-max", "1",
         "--help"),
        ("--decimal", str(MAX_DECIMAL), "counterexample", "verify",
         "--p-max", str(MAX_P_MAX), "--help"),
        ("counterexample", "build", "--out", "x", "--samples", "0", "--help"),
        ("counterexample", "build", "--out", "x", "--samples",
         str(MAX_SAMPLES), "--help"),
        ("diff", "lp", "--input", "x", "--x", "0", "--m", "0", "--p", "1",
         "--help"),
        ("diff", "lp", "--input", "x", "--x", "0", "--m", str(MAX_M), "--p",
         str(MAX_P), "--help"),
        ("diff", "density", "--input", "x", "--x", "0", "--m", str(MAX_M),
         "--eps", "1", "--radius", "1", "--help"),
        ("sieve", "--input", "x", "--m", str(MAX_M), "--help"),
    ])
    def test_bounds_are_accepted(self, capsys, argv):
        # each flag is converted before --help stops the parse
        status, _, _ = invoke(capsys, *argv)
        assert status == 0


class TestVerify:
    def test_passes_at_depth_six(self, capsys):
        status, out, _ = invoke(
            capsys, "counterexample", "verify", "--depth", "6"
        )
        assert status == 0
        assert "FAIL" not in out
        assert "component increments equal 4 h_n^2 (63 components)" in out

    def test_w_ratio_rising_at_the_last_step_fails(self, capsys, monkeypatch):
        # w_n past the depth only enters the tail sums, and large enough
        # there it makes every w tail ratio rise at n = depth
        def rising(depth):
            d = default_params(depth)
            return CounterexampleParams(
                d.h_seq, d.lambda_seq,
                lambda n: d.w_seq(n) if n <= depth else F(1, 2 ** (6 * n)),
                depth,
            )

        monkeypatch.setattr(cli, "default_params", rising)
        status, out, _ = invoke(
            capsys, "counterexample", "verify", "--depth", "4"
        )
        assert status == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [
            "FAIL w tail ratio (p=%d) eventually decreasing" % p
            for p in range(1, 5)
        ]

    def test_one_ratio_shows_no_decrease(self, capsys):
        status, out, _ = invoke(
            capsys, "counterexample", "verify", "--depth", "1"
        )
        assert status == 1
        assert "FAIL w tail ratio (p=1) eventually decreasing" in out

    def test_one_value_shows_no_monotone_step(self, capsys):
        _, out, _ = invoke(capsys, "counterexample", "verify", "--depth", "1")
        for label in (
            "h_n / lambda_n decreasing",
            "4^n h_n increasing",
            "tail ratio sum 2^(k-n) h_k^2 / lambda_(n+1)^2 decreasing",
        ):
            assert "FAIL " + label in out.splitlines()


class TestBuild:
    def test_deterministic_artifacts(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            status, _, _ = invoke(
                capsys, "counterexample", "build", "--depth", "4",
                "--out", str(d),
            )
            assert status == 0
        for name in ("intervals.json", "curve.csv", "run_meta.json"):
            b1 = (d1 / name).read_bytes().replace(str(d1).encode(), b"")
            b2 = (d2 / name).read_bytes().replace(str(d2).encode(), b"")
            assert b1 == b2

    def test_curve_csv_round_trip(self, capsys, tmp_path):
        status, _, _ = invoke(
            capsys, "counterexample", "build", "--depth", "3",
            "--out", str(tmp_path),
        )
        assert status == 0
        f, g, h = read_curve_csv(tmp_path / "curve.csv")
        assert f(0) == 0 and f(1) == 0
        assert h(1) == F(4, 9) + 2 * F(4, 81) + 4 * F(4, 729)

    def test_depth6_curve_csv_is_pinned(self, capsys, tmp_path):
        # recorded when curve_to_csv still evaluated f, g and h separately
        status, _, _ = invoke(
            capsys, "counterexample", "build", "--depth", "6",
            "--out", str(tmp_path),
        )
        assert status == 0
        text = (tmp_path / "curve.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == (
            "70156940afb38803ff8a6ba3f5e77af59782cfcd881b78f3742479bbed64372a"
        )

    def test_intervals_json_shape(self, capsys, tmp_path):
        invoke(capsys, "counterexample", "build", "--depth", "2",
               "--out", str(tmp_path))
        obj = json.loads((tmp_path / "intervals.json").read_text())
        assert obj["depth"] == 2
        assert len(obj["levels"]) == 2
        assert obj["levels"][0][0]["lo"] == "63/128"

    def test_depth8_intervals_json_is_pinned(self, capsys, tmp_path):
        # recorded when interval algebra still ran on open/closed flags
        status, _, _ = invoke(capsys, "counterexample", "build", "--depth",
                              "8", "--out", str(tmp_path))
        assert status == 0
        text = (tmp_path / "intervals.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == (
            "4dfa103b01adcde8c619616036687311135498365d7897770170bd2b81ae6437"
        )

    def test_uniform_samples(self, capsys, tmp_path):
        status, _, _ = invoke(capsys, "counterexample", "build", "--depth",
                              "4", "--samples", "8", "--out", str(tmp_path))
        assert status == 0
        curve = build_curve(default_params(4)).curve
        rows = (tmp_path / "curve.csv").read_text().splitlines()
        assert rows[0] == "t,f,g,h" and len(rows) == 10
        for i, row in enumerate(rows[1:]):
            t = F(i, 8)
            assert row == ",".join(map(rational_to_str, (t, *curve(t))))

    @pytest.mark.parametrize("depth", [6, 9])
    def test_curve_csv_is_the_curve_at_its_breakpoints(self, capsys,
                                                        tmp_path, depth):
        # the rows come from the vertex tables, not from the curve
        status, _, _ = invoke(capsys, "counterexample", "build", "--depth",
                              str(depth), "--out", str(tmp_path))
        assert status == 0
        curve = build_curve(default_params(depth)).curve
        expected = cli.curve_to_csv(
            ((t, *curve(t)) for t in curve.breakpoints), cli._Fmt())
        assert (tmp_path / "curve.csv").read_bytes() == expected.encode()

    def test_build_leaves_the_curve_unbuilt(self, capsys, tmp_path,
                                            monkeypatch):
        built = []

        def recording_build(params):
            built.append(build_curve(params))
            return built[-1]

        monkeypatch.setattr(cli, "build_curve", recording_build)
        status, _, _ = invoke(capsys, "counterexample", "build", "--depth",
                              "5", "--out", str(tmp_path))
        assert status == 0
        assert "curve" not in vars(built[0])
        # nor the level sets or their union decoded
        assert "I_levels" not in vars(built[0])
        assert "I_union" not in vars(built[0])


class TestJetsCheck:
    def test_zero_jets_pass(self, capsys, tmp_path):
        p = tmp_path / "zero.json"
        write_zero_triple(p)
        status, out, _ = invoke(capsys, "jets", "check", "--input", str(p))
        assert status == 0
        rep = json.loads(out)
        assert rep["verdict"] == "pass"
        assert rep["max_ode_residual"] == "0.0"

    @pytest.mark.parametrize("ladder, ratio", [("1/4", None), ("1/2", "16.0")])
    def test_h_bump_fails_on_every_ladder(self, capsys, tmp_path, ladder,
                                          ratio):
        # zero F and G jets, H^0 = 0, 1, 0: no site pair is within 1/4, and
        # an A/V profile with no populated scale is no evidence of a pass
        sites = (0, F(1, 2), 1)
        z = Jet(2, sites, ((0, 0, 0),) * 3)
        H = Jet(2, sites, ((0, 0, 0), (1, 0, 0), (0, 0, 0)))
        p = tmp_path / "bump.json"
        p.write_text(json.dumps(JetTriple(z, z, H).to_json_obj()))
        status, out, _ = invoke(capsys, "jets", "check", "--input", str(p),
                                "--ladder", ladder)
        assert status == 1
        rep = json.loads(out)
        assert rep["verdict"] == "fail"
        assert rep["conditions"]["ratio_vanishes"] is False
        assert [v["value"] for v in rep["area_velocity_ratio"]] == [ratio]

    def test_violating_jets_fail(self, capsys, tmp_path):
        z = Jet(2, (0, 1), ((0, 0, 0), (0, 0, 0)))
        H = Jet(2, (0, 1), ((0, 1, 0), (0, 0, 0)))  # H^1 breaks the ODE
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(JetTriple(z, z, H).to_json_obj()))
        status, out, _ = invoke(capsys, "jets", "check", "--input", str(p))
        assert status == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_verdict_ignores_ladder_order(self, capsys, tmp_path):
        # F has a large modulus at scale 1 and none at 1/32: the verdict
        # reads the smallest scale, whichever end of the ladder it is
        sites = (0, F(1, 64), F(1, 2), F(33, 64))
        cubic = Jet.from_polynomial(Polynomial((0, 1, 0, 1)), sites, 3)
        square = Jet.from_polynomial(Polynomial((1, 0, 2)), sites, 3)
        f = Jet(3, sites, cubic.values[:2] + square.values[2:])
        z = Jet(3, sites, tuple((0,) * 4 for _ in sites))
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(JetTriple(f, z, z).to_json_obj()))
        for ladder in ("1,1/32", "1/32,1"):
            status, out, _ = invoke(
                capsys, "jets", "check", "--input", str(p), "--ladder", ladder
            )
            assert status == 0, ladder
            assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("ladder", ["1/2,0", "0", "-1/4"])
    def test_non_positive_scale_is_usage_error(self, capsys, tmp_path,
                                               ladder):
        p = tmp_path / "zero.json"
        write_zero_triple(p)
        status, out, err = invoke(capsys, "jets", "check", "--input", str(p),
                                  "--ladder=" + ladder)
        assert status == 2
        assert out == "" and err == "error: delta must be positive\n"

    def test_order_mismatch(self, capsys, tmp_path):
        p = tmp_path / "zero.json"
        write_zero_triple(p, m=2)
        status, _, err = invoke(
            capsys, "jets", "check", "--input", str(p), "--m", "3"
        )
        assert status == 2

    @pytest.mark.parametrize("edit", [
        lambda obj: [obj],
        lambda obj: dict(obj, sites="ab"),
        lambda obj: dict(obj, m=1.5),
        lambda obj: dict(obj, m=True),
        lambda obj: dict(obj, m=-1),
        lambda obj: dict(obj, sites=[dict(obj["sites"][0], x=None)]
                         + obj["sites"][1:]),
        lambda obj: dict(obj, sites=[dict(obj["sites"][0], F=[0, math.inf])]
                         + obj["sites"][1:]),
        lambda obj: dict(obj, sites=[dict(obj["sites"][0], F=[0, math.nan])]
                         + obj["sites"][1:]),
        lambda obj: dict(obj, sites=[dict(obj["sites"][0], x=-math.inf)]
                         + obj["sites"][1:]),
        lambda obj: dict(obj, sites=[dict(obj["sites"][0], F=["1/0", "0"])]
                         + obj["sites"][1:]),
        lambda obj: dict(obj, sites=[dict(obj["sites"][0],
                                          F=["1e10000000", "0"])]
                         + obj["sites"][1:]),
        # the last site is x = 1, which a bool would pass for
        lambda obj: dict(obj, sites=obj["sites"][:-1]
                         + [dict(obj["sites"][-1], x=True)]),
        lambda obj: dict(obj, sites=[dict(obj["sites"][0], F=[False, "0"])]
                         + obj["sites"][1:]),
    ], ids=["top-level list", "sites string", "m float", "m bool",
            "m negative", "x null", "F infinite", "F NaN", "x -Infinity",
            "F zero denominator",
            "F huge exponent", "x bool", "F bool"])
    def test_malformed_json_is_a_usage_error(self, capsys, tmp_path, edit):
        # exit 1 means "failed check", so a malformed file must not reach it
        p = tmp_path / "zero.json"
        write_zero_triple(p, m=1)
        p.write_text(json.dumps(edit(json.loads(p.read_text()))))
        start = time.perf_counter()
        status, out, err = invoke(capsys, "jets", "check", "--input", str(p))
        assert status == 2
        assert time.perf_counter() - start < 0.5
        assert out == "" and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("ladder, status, verdict", [
        ("1,1/4", 0, "pass"),  # the smallest scale sees only zero jets
        ("1", 1, "fail"),
    ])
    def test_value_past_float_range_prints_inf(self, capsys, tmp_path,
                                               ladder, status, verdict):
        # F = 10^400 at the site 1 and 0 elsewhere: its modulus at scale 1
        # is past the float range, and the verdict reads the exact value
        sites = (0, F(1, 4), 1)
        z = Jet(2, sites, ((0, 0, 0),) * 3)
        obj = JetTriple(z, z, z).to_json_obj()
        obj["sites"][2]["F"][0] = "1e400"
        p = tmp_path / "big.json"
        p.write_text(json.dumps(obj))
        got, out, err = invoke(capsys, "jets", "check", "--input", str(p),
                               "--ladder", ladder)
        assert got == status and err == ""
        rep = json.loads(out)
        assert rep["verdict"] == verdict
        assert rep["whitney"]["F"][0] == {"delta": "1/1", "value": "inf"}

    def test_json_decimals_are_read_exactly(self, capsys, tmp_path):
        # F = x at the sites 0, 1/10, 1/5 with m = 0: read as a binary
        # double, 0.1 would sit just above 1/10, and the F modulus at
        # 1/10 would read 0.09999999999999999
        def report(x, v):
            p = tmp_path / "triple.json"
            z = [0]
            p.write_text(json.dumps({"m": 0, "sites": [
                {"x": a, "F": [b], "G": z, "H": z}
                for a, b in ((0, 0), (x, v), ("1/5", "1/5"))]}))
            status, out, err = invoke(capsys, "jets", "check", "--input",
                                      str(p), "--ladder", "1/10")
            assert status == 1 and err == ""
            return out

        out = report(0.1, 0.1)
        assert json.loads(out)["whitney"]["F"] == [
            {"delta": "1/10", "value": "0.1"}]
        assert out == report("1/10", "1/10")

    def test_json_number_past_float_range_is_exact(self, capsys, tmp_path):
        # the JSON number 1e400 is 10^400, as the string "1e400" is
        sites = (0, F(1, 4), 1)
        z = Jet(2, sites, ((0, 0, 0),) * 3)
        obj = JetTriple(z, z, z).to_json_obj()
        obj["sites"][2]["F"][0] = "1e400"
        outs = []
        for text in (json.dumps(obj),
                     json.dumps(obj).replace('"1e400"', "1e400")):
            p = tmp_path / "big.json"
            p.write_text(text)
            outs.append(invoke(capsys, "jets", "check", "--input", str(p)))
        assert outs[0] == outs[1]


class TestCurveLift:
    def test_diagonal_lifts_flat(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(
            "t,f,g,h\n0,0,0,0\n1/2,1/2,1/2,0\n1,1,1,0\n"
        )
        dst = tmp_path / "out.csv"
        status, _, _ = invoke(
            capsys, "curve", "lift", "--input", str(src), "--out", str(dst)
        )
        assert status == 0
        _, _, h = read_curve_csv(dst)
        assert h(F(1, 4)) == 0 and h(1) == 0

    def test_output_is_pinned(self, capsys, tmp_path):
        # zero, one-sided and two-sided area pieces; recorded when
        # curve_to_csv still evaluated f, g and h separately
        src = tmp_path / "in.csv"
        src.write_text(
            "t,f,g,h\n0,0,0,0\n1/5,1,0,0\n1/3,1,3/2,0\n1/2,-2/3,1/4,0\n"
            "2/3,0,1/7,0\n4/5,0,0,0\n1,0,0,0\n"
        )
        dst = tmp_path / "out.csv"
        status, _, _ = invoke(
            capsys, "curve", "lift", "--input", str(src), "--h0", "1/3",
            "--out", str(dst),
        )
        assert status == 0
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == (
            "1d1f1311c0b828b7d375c06f85b9db219e03899996ae8e58fc2f35839d9a141b"
        )

    def test_lift_of_a_kink_and_a_square_is_pinned(self, capsys, tmp_path):
        # f = |t - 1/3|, g = t^2 at t = i/64; recorded when the reader
        # still built all three components
        src = tmp_path / "kg.csv"
        src.write_text("t,f,g,h\n" + "".join(
            "%s,%s,%s,0\n" % (t, abs(t - F(1, 3)), t * t)
            for t in (F(i, 64) for i in range(65))))
        status, out, _ = invoke(capsys, "curve", "lift", "--input", str(src))
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a984adb3c68d91f76ae2c4b5282e1a3011c003c3f5c3feb41c27fce2ecbdacd2"
        )

    def test_h0_offset(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n1,1,1,0\n")
        status, out, _ = invoke(
            capsys, "curve", "lift", "--input", str(src), "--h0", "3/7"
        )
        assert status == 0
        assert out.splitlines()[1] == "0/1,0/1,0/1,3/7"


class TestDiffAndSieve:
    def test_lp_csv(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n1/2,1/2,0,0\n1,0,0,0\n")
        status, out, _ = invoke(
            capsys, "diff", "lp", "--input", str(src), "--x", "1/2",
            "--m", "1", "--scales", "1/4,1/8",
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "rho,value"
        assert len(lines) == 3

    def test_lp_default_ladder(self, capsys, tmp_path):
        # with no --scales, the default ladder's scales that fit in the
        # domain around x: 1/4 down to 1/4096 at x = 1/3
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,1/3,0,0\n1/3,0,0,0\n1,2/3,0,0\n")
        argv = ("diff", "lp", "--input", str(src), "--x", "1/3", "--m", "1")
        status, out, _ = invoke(capsys, *argv)
        assert status == 0
        scales = ",".join("1/%d" % 2**j for j in range(2, 13))
        assert (status, out) == invoke(capsys, *argv, "--scales", scales)[:2]
        assert [r.split(",")[0] for r in out.splitlines()[1:]] == \
            scales.split(",")

    def test_lp_no_scale_at_the_boundary(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,1/3,0,0\n1,2/3,0,0\n")
        status, out, err = invoke(capsys, "diff", "lp", "--input", str(src),
                                  "--x", "1", "--m", "1")
        assert status == 2 and out == ""
        assert "x too close to the boundary for any scale" in err

    @pytest.mark.parametrize("p, scales", [
        ("2", "1/8,1/%d" % 2**600), ("1", "1/%d" % 2**1100),
    ], ids=["p2", "p1"])
    def test_lp_past_the_float_range(self, capsys, tmp_path, p, scales):
        # u(1/2) = 1/6, so the p-th power at the last scale is near
        # 6^-p rho^-p, past the float range; its square root (p = 2) is
        # 2^600/6, its first root (p = 1) is too large and prints inf
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,1/3,0,0\n1/3,0,0,0\n1,2/3,0,0\n")
        status, out, err = invoke(
            capsys, "diff", "lp", "--input", str(src), "--x", "1/2",
            "--m", "1", "--p", p, "--scales", scales,
        )
        assert status == 0, err
        value = float(out.splitlines()[-1].split(",")[1])
        assert value == math.inf if p == "1" else math.isclose(
            value, 2**600 / 6)

    # u = |t - 53/128| sampled at t = i/32 and at the kink, compared with
    # the quadratic (t - 53/128)^2 + 1/16, which it crosses at irrational
    # points; stdout recorded before the piece loops became one span walk
    KINK = F(53, 128)
    KINK_POLY = "--poly=%s,%s,1" % (KINK * KINK + F(1, 16), -2 * KINK)

    @pytest.fixture
    def kink_csv(self, tmp_path):
        ts = sorted({F(i, 32) for i in range(33)} | {self.KINK})
        src = tmp_path / "kink.csv"
        src.write_text("t,f,g,h\n" + "".join(
            "%s,%s,0,0\n" % (t, abs(t - self.KINK)) for t in ts))
        return str(src)

    @pytest.mark.parametrize("argv, digest", [
        (("diff", "lp", "--x", "53/128", "--m", "1", "--p", "1",
          "--scales", "1/4,1/8,1/16,1/32"),
         "a087d4ab5fa760a349eb2dfc815ef3c3e0c3a747eba87a769fb4f8f4845db28b"),
        (("diff", "lp", "--x", "53/128", "--m", "1", "--p", "3",
          "--scales", "1/4,1/8,1/16,1/32"),
         "2be2588de8875d404fe8f0cb80573926e2e10b3bf4a550533ce8fb303c56bad3"),
        (("diff", "density", "--x", "57/128", "--m", "1", "--eps", "1/2",
          "--radius", "1/8"),
         "89f31eeea5458c147ff69a3574ff32714882ff01a0bc092613218414698ba44d"),
        (("diff", "lp", "--x", "53/128", "--m", "1", "--p", "2",
          "--scales", "1/4,1/8,1/16,1/32"),
         "a8ade5fda58acc9e41c13a96476f74a2c6f9f3fa6a06e9c0ecdf88213d86e246"),
    ])
    def test_kink_output_is_pinned(self, capsys, kink_csv, argv, digest):
        status, out, _ = invoke(
            capsys, *argv, "--input", kink_csv, self.KINK_POLY)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_density(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,1,0,0\n1,1,0,0\n")
        status, out, _ = invoke(
            capsys, "diff", "density", "--input", str(src), "--x", "1/2",
            "--m", "1", "--eps", "4", "--radius", "1/2",
        )
        assert status == 0
        assert out.strip() == "density: 1/2"

    def test_sieve_json(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n1,1,0,0\n")
        status, out, _ = invoke(
            capsys, "sieve", "--input", str(src), "--m", "1",
            "--grid", "256",
        )
        assert status == 0
        obj = json.loads(out)
        assert obj["measure"] == "1/1"


class TestMalformedCsv:
    REPEATED_T = "t,f,g,h\n0,0,0,0\n1/2,1,0,0\n1/2,1,0,0\n1,0,0,0\n"
    ZERO_DENOMINATOR = "t,f,g,h\n0,0,0,0\n1/2,1/0,0,0\n1,0,0,0\n"
    # every command that reads a curve CSV
    READERS = pytest.mark.parametrize("argv", [
        ("sieve", "--m", "1", "--grid", "64"),
        ("diff", "lp", "--x", "1/2", "--m", "1"),
        ("diff", "density", "--x", "1/2", "--m", "1", "--eps", "1",
         "--radius", "1/4"),
        ("curve", "lift"),
    ])

    def test_reader_rejects_repeated_and_decreasing_t(self, tmp_path):
        for text in (self.REPEATED_T, "t,f,g,h\n0,0,0,0\n1,1,0,0\n1/2,0,0,0\n"):
            src = tmp_path / "bad.csv"
            src.write_text(text)
            with pytest.raises(ValueError, match="strictly increasing"):
                read_curve_csv(src)

    @READERS
    def test_repeated_t_is_usage_error(self, capsys, tmp_path, argv):
        src = tmp_path / "repeated-t.csv"
        src.write_text(self.REPEATED_T)
        status, out, err = invoke(capsys, *argv, "--input", str(src))
        assert status == 2
        assert out == ""
        assert "t must be strictly increasing" in err
        assert "Traceback" not in err

    @READERS
    @pytest.mark.parametrize("row", ["1/2,1,0", "1/2,1,0,0,0"])
    def test_row_of_other_than_four_fields_is_usage_error(
            self, capsys, tmp_path, argv, row):
        src = tmp_path / "short-or-long-row.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n%s\n1,0,0,0\n" % row)
        status, out, err = invoke(capsys, *argv, "--input", str(src))
        assert status == 2 and out == ""
        assert err == "error: curve CSV row %r has %d fields, not 4\n" % (
            row, row.count(",") + 1)

    @READERS
    def test_huge_exponent_is_usage_error(self, capsys, tmp_path, argv):
        # Fraction("1e10000000") alone would take seconds
        src = tmp_path / "huge-exponent.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n1/2,1e10000000,0,0\n1,0,0,0\n")
        start = time.perf_counter()
        status, out, err = invoke(capsys, *argv, "--input", str(src))
        assert status == 2
        assert time.perf_counter() - start < 0.5
        assert out == "" and "decimal exponent" in err
        assert "Traceback" not in err

    def test_sieve_sample_past_float_range_is_usage_error(self, capsys,
                                                          tmp_path):
        src = tmp_path / "big.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n1/2,1e400,0,0\n1,0,0,0\n")
        status, out, err = invoke(capsys, "sieve", "--input", str(src),
                                  "--m", "1", "--grid", "64")
        assert status == 2
        assert out == "" and "float range" in err
        assert "Traceback" not in err

    @READERS
    def test_zero_denominator_is_usage_error(self, capsys, tmp_path, argv):
        # exit 1 means "failed check", so an unparsable value must not
        # escape as a ZeroDivisionError
        src = tmp_path / "zero-denominator.csv"
        src.write_text(self.ZERO_DENOMINATOR)
        status, out, err = invoke(capsys, *argv, "--input", str(src))
        assert status == 2
        assert out == "" and err.startswith("error: ")
        assert "Traceback" not in err

    @READERS
    @pytest.mark.parametrize("header", ["t,g,f,h", "t", " t , f , g , h , x"])
    def test_header_other_than_t_f_g_h_is_usage_error(self, capsys, tmp_path,
                                                      argv, header):
        # a file headed t,g,f,h would be read with f and g swapped
        src = tmp_path / "bad-header.csv"
        src.write_text(header + "\n0,0,0,0\n1/2,1,0,0\n1,0,0,0\n")
        status, out, err = invoke(capsys, *argv, "--input", str(src))
        assert status == 2
        assert out == ""
        assert "header t,f,g,h" in err
        assert "Traceback" not in err

    def test_header_fields_are_stripped(self, tmp_path):
        src = tmp_path / "spaced-header.csv"
        src.write_text(" t , f,g ,h \n0,0,0,0\n1,1,2,3\n")
        f, g, h = read_curve_csv(src)
        assert (f(1), g(1), h(1)) == (1, 2, 3)

    def test_blank_lines_are_skipped(self, tmp_path):
        src = tmp_path / "blank.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n\n  \n1,1,2,3\n\n")
        f, g, h = read_curve_csv(src)
        assert f.breakpoints == (0, 1) and (f(1), g(1), h(1)) == (1, 2, 3)

    @READERS
    def test_single_row_is_usage_error(self, capsys, tmp_path, argv):
        src = tmp_path / "one-row.csv"
        src.write_text("t,f,g,h\n1/2,0,0,0\n")
        status, out, err = invoke(capsys, *argv, "--input", str(src))
        assert status == 2 and out == ""
        assert "need at least two sample rows" in err

    # each command with a column it never builds: f for diff and sieve
    # read through --component, f and g for curve lift
    UNREAD = pytest.mark.parametrize("argv, column", [
        (("sieve", "--m", "1", "--grid", "64", "--component", "f"), "g"),
        (("diff", "lp", "--x", "1/2", "--m", "1"), "h"),
        (("diff", "density", "--x", "1/2", "--m", "1", "--eps", "1",
          "--radius", "1/4"), "g"),
        (("curve", "lift"), "h"),
    ])

    @UNREAD
    @pytest.mark.parametrize("entry", ["abc", "1/0"])
    def test_malformed_entry_in_an_unread_column_is_usage_error(
            self, capsys, tmp_path, argv, column, entry):
        # every entry is parsed and checked, also where no component is built
        row = dict(t="1/2", f="1", g="0", h="0")
        row[column] = entry
        src = tmp_path / "bad-entry.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n%s\n1,0,0,0\n"
                       % ",".join(row[c] for c in "tfgh"))
        status, out, err = invoke(capsys, *argv, "--input", str(src))
        assert status == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestDecimalMode:
    def test_decimal_flag(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t,f,g,h\n0,0,0,0\n1,1,1,0\n")
        status, out, _ = invoke(
            capsys, "--decimal", "3", "curve", "lift", "--input", str(src)
        )
        assert status == 0
        assert out.splitlines()[1] == "0.000,0.000,0.000,0.000"


def decimal_text(x, k):
    """The k-digit decimal of the rational x by the Fraction rule: round
    x 10^k to an int, half to even, and put the point k digits in."""
    q = round(x * 10**k)
    digits = str(abs(q)).rjust(k + 1, "0")
    return "%s%s.%s" % ("-" if q < 0 else "", digits[:-k], digits[-k:])


class TestFormat:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**40, 10**40), st.integers(1, 10**30),
           st.integers(1, MAX_DECIMAL))
    def test_int_rounding_matches_the_fraction_rule(self, n, d, k):
        fmt = cli._Fmt(k)
        assert fmt(n, d) == fmt(F(n, d)) == decimal_text(F(n, d), k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**40, 10**40), st.integers(1, MAX_DECIMAL))
    def test_ties_round_half_to_even(self, j, k):
        # (2j + 1) / (2 10^k) lies halfway between two k-digit decimals
        n, d = 2 * j + 1, 2 * 10**k
        text = cli._Fmt(k)(n, d)
        assert text == decimal_text(F(n, d), k)
        assert int(text[-1]) % 2 == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**40, 10**40), st.integers(1, 10**30),
           st.integers(1, 10**6))
    def test_fraction_over_d_is_one_rational(self, n, d, m):
        # a Fraction x over an int d is x / d, reduced once
        assert cli._Fmt()(F(n, d), m) == rational_to_str(F(n, d * m))
        assert cli._Fmt()(n, d) == rational_to_str(F(n, d))

    @pytest.mark.parametrize("k, x, text", [
        (1, F(1, 20), "0.0"), (1, F(3, 20), "0.2"), (1, F(-1, 20), "0.0"),
        (1, F(-3, 20), "-0.2"), (2, F(-1, 3), "-0.33"), (3, F(5, 2), "2.500"),
    ])
    def test_pinned_decimals(self, k, x, text):
        assert cli._Fmt(k)(x) == text

    def test_floats_print_their_repr(self):
        assert cli._Fmt()(0.1) == cli._Fmt(3)(0.1) == "0.1"


def reference_build(depth, decimal, samples):
    """(intervals.json, curve.csv) of `counterexample build`, written from
    the piecewise curve and the decoded level sets by the Fraction rule."""
    C = build_curve(default_params(depth))
    intervals = json.dumps({
        "depth": depth,
        "levels": [lev.to_json_obj() for lev in C.I_levels],
    }, indent=2) + "\n"
    ts = (C.curve.breakpoints if not samples
          else [F(i, samples) for i in range(samples + 1)])
    text = rational_to_str if decimal is None else (
        lambda x: decimal_text(x, decimal))
    csv = "t,f,g,h\n" + "".join(
        ",".join(map(text, (t, *C.curve(t)))) + "\n" for t in ts)
    return intervals, csv


class TestBuildFromTables:
    """`build` writes both files from the int tables; each is what the
    curve and the level sets give through the Fraction rule."""

    @pytest.mark.parametrize("samples", [0, 8])
    @pytest.mark.parametrize("decimal", [None, 30])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_matches_the_fraction_reference(self, capsys, tmp_path, depth,
                                            decimal, samples):
        argv = [] if decimal is None else ["--decimal", str(decimal)]
        argv += ["counterexample", "build", "--depth", str(depth),
                 "--out", str(tmp_path)]
        if samples:
            argv += ["--samples", str(samples)]
        status, _, _ = invoke(capsys, *argv)
        assert status == 0
        intervals, csv = reference_build(depth, decimal, samples)
        assert (tmp_path / "intervals.json").read_bytes() == intervals.encode()
        assert (tmp_path / "curve.csv").read_bytes() == csv.encode()


class TestVerifyDecodesNothing:
    def test_no_set_of_fractions_is_made(self, capsys, monkeypatch):
        made = []
        of = IntervalSet._of

        def recording_of(keys):
            made.append(any(isinstance(k[0], F) for k in keys))
            return of(keys)

        monkeypatch.setattr(IntervalSet, "_of", staticmethod(recording_of))
        status, out, _ = invoke(capsys, "counterexample", "verify",
                                "--depth", "7")
        assert status == 0 and "FAIL" not in out
        assert made and not any(made)


ROOT = Path(__file__).resolve().parent.parent


def fresh_process(*args):
    """(status, stdout, stderr) of `python *args` in a new process with
    this checkout's src first on the path, at 80 columns."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"))
    return done.returncode, done.stdout, done.stderr


class TestOneParserPerProcess:
    """The parser is built on the first `run` and reused: each call in
    one process prints what a new process prints, and no flag value
    carries over to the next call."""

    SEQUENCE = [
        ("frobnicate",),
        ("--help",),
        ("counterexample", "build", "--help"),
        ("--decimal", "12", "counterexample", "straddle", "--n", "5",
         "--depth", "8"),
        ("counterexample", "straddle", "--n", "5", "--depth", "8"),
        ("counterexample", "verify", "--depth", "5", "--p-max", "99"),
        ("counterexample", "verify", "--depth", "5"),
        ("--decimal", "12", "counterexample", "verify", "--depth", "5"),
        ("counterexample", "straddle", "--n", "2", "--depth", "4"),
    ]

    def test_in_process_calls_match_fresh_processes(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.SEQUENCE:
            assert invoke(capsys, *argv) == fresh_process(
                "-m", "heislusin.cli", *argv), argv

    def test_decimal_does_not_carry_over(self, capsys):
        _, out, _ = invoke(capsys, "--decimal", "12", "counterexample",
                           "straddle", "--n", "7", "--depth", "9")
        ratio = F(1073741824, 43046721)
        assert "ratio: %s\n" % decimal_text(ratio, 12) in out
        status, out, _ = invoke(capsys, "counterexample", "straddle", "--n",
                                "7", "--depth", "9")
        assert status == 0
        assert "ratio: 1073741824/43046721\n" in out

    def test_parser_is_built_once(self, capsys, monkeypatch):
        invoke(capsys, "--help")

        def no_rebuild():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "_build_parser", no_rebuild)
        assert cli._parser() is cli._parser()
        status, out, _ = invoke(capsys, "counterexample", "straddle", "--n",
                                "2", "--depth", "4")
        assert status == 0 and out.startswith("n: 2\n")

    def test_parser_is_not_built_at_import(self):
        status, out, _ = fresh_process(
            "-c", "import heislusin.cli as c; "
            "print(c._parser.cache_info().currsize)")
        assert (status, out) == (0, "0\n")

