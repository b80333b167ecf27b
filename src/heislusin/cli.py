"""Command-line interface.

Subcommands:
  counterexample build     write interval levels and curve samples
  counterexample verify    run every exact check on the construction
  counterexample straddle  area/velocity ratio across a straddled component
  jets check               extendability report for a jet triple JSON
  curve lift               lift the horizontal components of a curve CSV
  diff lp                  L^p remainder ladder for a curve component
  diff density             approximate-differentiability density
  sieve                    Whitney sieve over a curve component

Outputs are deterministic for fixed flags: data files carry no
timestamps, rationals print as "p/q" (or fixed-precision decimals with
--decimal), CSV uses LF endings. Exit status: 0 success, 1 failed
check, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .counterexample import (
    build_curve,
    check_params,
    component_increments,
    default_params,
    measure_report,
    straddle_ratio,
)
from .curves import PiecewisePolynomial, extendability_report, lift
from .diffanalysis import approx_density, lp_remainder_ladder, whitney_sieve
from .intervalsets import (
    _q,
    interval_json_obj,
    parse_rational,
    rational_to_str,
)
from .jets import DEFAULT_LADDER, JetTriple
from .polynomials import Polynomial


class _Fmt:
    """The text of a rational: "p/q" in lowest terms, or with
    `decimal_digits` = k the fixed-point decimal with k digits, rounded
    half to even as round(x 10^k) is. Floats print as their repr."""

    def __init__(self, decimal_digits=None):
        self.decimal_digits = decimal_digits

    def __call__(self, x, d=1) -> str:
        """The text of x / d, for a rational x and an int d > 0: the
        `rational_to_str` of the pair, or one divmod on it."""
        if isinstance(x, float):
            return repr(x)
        k = self.decimal_digits
        if k is None:
            return rational_to_str(x, d)
        if not isinstance(x, int):
            x = _q(x)
            x, d = x.numerator, x.denominator * d
        q, r = divmod(x * 10**k, d)
        if 2 * r > d or (2 * r == d and q & 1):
            q += 1
        s = "%0*d" % (k + 1, abs(q))
        return "%s%s.%s" % ("-" if q < 0 else "", s[:-k], s[-k:])


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_meta(outdir, args):
    meta = {"command": "counterexample build", "flags": {
        k: (str(v) if isinstance(v, Fraction) else v)
        for k, v in sorted(vars(args).items())
        if not k.startswith("_") and not callable(v)
    }}
    with open(os.path.join(outdir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# largest staircase depth the counterexample commands accept; the
# breakpoint denominators grow like 2^(depth(depth+6))
MAX_DEPTH = 14
# largest sieve grid and stage count; the sieve's pair sweep grows like
# grid^2 and its bad-cell counts like nmax * grid
MAX_GRID = 2**14
MAX_NMAX = 32
# largest order m and exponent p of the L^p, density and sieve commands:
# the work grows with (piece - q)^p, (y - x)^m and m + 1 derivative
# sweeps, and m p <= 64 keeps every default-ladder value a finite float
MAX_M = 8
MAX_P = 8
# largest `verify --p-max`, `build --samples` and `--decimal` digit count
MAX_P_MAX = 8
MAX_SAMPLES = 2**16
MAX_DECIMAL = 100


def _int_in(name, lo, hi):
    """argparse type for an integer in lo..hi, so that an out-of-range
    value exits 2 before any input is read or anything is built."""
    def convert(s) -> int:
        try:
            value = int(s)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("bad %s %r" % (name, s)) from exc
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                "%s must be in %d..%d, got %d" % (name, lo, hi, value)
            )
        return value
    return convert


_depth = _int_in("depth", 1, MAX_DEPTH)
_m = _int_in("m", 0, MAX_M)


def _rat(s) -> Fraction:
    try:
        return parse_rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("bad rational %r" % s) from exc


def _nonneg_rat(s) -> Fraction:
    """argparse type for a rational >= 0."""
    value = _rat(s)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %s" % s)
    return value


def _rats(s) -> tuple:
    """argparse type for a nonempty comma-separated list of rationals."""
    if not s:
        raise argparse.ArgumentTypeError("empty list")
    return tuple(_rat(c) for c in s.split(","))


# ---------------------------------------------------------------------------
# curve CSV I/O (piecewise-linear interpretation)
# ---------------------------------------------------------------------------


def read_curve_csv(path):
    """The f, g and h of a curve CSV (see `read_curve_columns`) as
    piecewise-linear PiecewisePolynomial objects through the samples."""
    ts, columns = read_curve_columns(path)
    return tuple(PiecewisePolynomial.linear(ts, columns[c]) for c in "fgh")


def read_curve_columns(path):
    """Rows t,f,g,h with strictly increasing t; values "p/q" or decimal.

    Every entry is parsed and checked. Returns the t values and a dict
    from "f", "g" and "h" to that column's values, so that a command
    builds only the components it reads.
    """
    rows = []
    with open(path) as fh:
        header = [x.strip() for x in fh.readline().split(",")]
        if header != ["t", "f", "g", "h"]:
            raise ValueError("curve CSV must start with header t,f,g,h")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError("curve CSV row %r has %d fields, not 4"
                                 % (line, len(fields)))
            try:
                t, f, g, h = map(parse_rational, fields)
            except ZeroDivisionError:
                raise ValueError("zero denominator in curve CSV row %r"
                                 % line) from None
            rows.append((t, f, g, h))
    if len(rows) < 2:
        raise ValueError("need at least two sample rows")
    ts, *columns = zip(*rows)
    if any(t0 >= t1 for t0, t1 in zip(ts, ts[1:])):
        raise ValueError("t must be strictly increasing")
    return ts, dict(zip("fgh", columns))


def curve_to_csv(rows, fmt, dens=(1, 1, 1, 1)) -> str:
    """The curve CSV of the rows (t, f, g, h), each entry over its
    column's denominator in `dens`: the one CSV writer."""
    lines = ["t,f,g,h"]
    lines += [",".join(map(fmt, row, dens)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: return process exit status
# ---------------------------------------------------------------------------


def _cmd_ce_build(args, fmt) -> int:
    C = build_curve(default_params(args.depth))
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    # each component is the open interval between its end vertices
    levels = {
        "depth": args.depth,
        "levels": [[interval_json_obj(C.ts[a], C.ts[b], False, False, C.T)
                     for a, b in level] for level in C.components],
    }
    with open(os.path.join(outdir, "intervals.json"), "w") as fh:
        json.dump(levels, fh, indent=2)
        fh.write("\n")
    # the breakpoint rows are the vertex tables; samples read the curve
    if args.samples:
        ts = [Fraction(i, args.samples) for i in range(args.samples + 1)]
        text = curve_to_csv(((t, *C.curve(t)) for t in ts), fmt)
    else:
        rows, dens = C.vertex_rows()
        text = curve_to_csv(rows, fmt, dens)
    _write(os.path.join(outdir, "curve.csv"), text)
    _write_meta(outdir, args)
    print("wrote intervals.json and curve.csv to %s" % outdir)
    return 0


def _cmd_ce_verify(args, fmt) -> int:
    params = default_params(args.depth)
    C = build_curve(params)
    failures = 0

    def check(label, ok):
        nonlocal failures
        print("%s %s" % ("PASS" if ok else "FAIL", label))
        if not ok:
            failures += 1

    incs = component_increments(C)
    four_h2 = {n: 4 * params.h(n) ** 2 for n in range(1, params.depth + 1)}
    check(
        "component increments equal 4 h_n^2 (%d components)" % len(incs),
        all(v == four_h2[n] for n, _, v in incs),
    )
    mrep = measure_report(C)
    check(
        "sum 2^n w_n = %s <= 1/31" % fmt(mrep["sum_2n_wn"]),
        mrep["sum_2n_wn_le_1_31"],
    )
    check("measure(I) <= sum 2^n w_n", mrep["measure_le_sum"])
    check(
        "dilation shells within 2 lambda_n (2^n - 1)",
        all(s["within_bound"] for s in mrep["shells"]),
    )
    prep = check_params(params, p_max=args.p_max)
    check("sum 2^k lambda_k <= 4", prep["lambda_partial_sums"]["bounded_by_4"])
    stepped = params.depth >= 2  # one value alone shows no monotone step
    check(
        "h_n / lambda_n decreasing",
        stepped and prep["h_over_lambda"]["decreasing_from"] == 0,
    )
    check(
        "4^n h_n increasing",
        stepped and prep["four_pow_times_h"]["increasing_from"] == 0,
    )
    check(
        "tail ratio sum 2^(k-n) h_k^2 / lambda_(n+1)^2 decreasing",
        stepped and prep["h_tail_ratio"]["decreasing_from"] == 0,
    )
    for p, entry in sorted(prep["w_tail_ratios"].items()):
        # one ratio alone, or a rise at the last step, shows no decrease
        check(
            "w tail ratio (p=%d) eventually decreasing" % p,
            entry["decreasing_from"] <= len(entry["values"]) - 2,
        )
    return 1 if failures else 0


def _cmd_ce_straddle(args, fmt) -> int:
    if not 0 <= args.n < args.depth:
        print("error: need 0 <= n and n + 1 <= depth", file=sys.stderr)
        return 2
    # levels 1..n+1 are built the same way at every depth, so the first
    # level-(n+1) component, its f and g pieces and the h increment across
    # it are those of the depth-`--depth` curve: build only that far
    params = default_params(args.n + 1)
    ratio = straddle_ratio(build_curve(params), args.n)
    growth = Fraction(4) ** args.n * params.h(args.n + 1)
    closed_form = 4 * growth**2
    print("n: %d" % args.n)
    print("ratio: %s" % fmt(ratio))
    print("closed form 4(4^n h_(n+1))^2: %s" % fmt(closed_form))
    print("4^n h_(n+1): %s" % fmt(growth))
    print("exceeds 2: %s" % ("true" if growth >= 2 else "false"))
    return 0 if ratio == closed_form else 1


def _cmd_jets_check(args, fmt) -> int:
    with open(args.input) as fh:
        # JSON decimals are read exactly, as CSV entries are
        triple = JetTriple.from_json_obj(
            json.load(fh, parse_float=parse_rational))
    if args.m is not None and triple.m != args.m:
        print(
            "error: jet order %d does not match --m %d" % (triple.m, args.m),
            file=sys.stderr,
        )
        return 2
    ladder = args.ladder or DEFAULT_LADDER
    rep = extendability_report(triple, ladder, tolerance=args.tolerance)
    obj = rep.to_json_obj()
    text = json.dumps(obj, indent=2) + "\n"
    _write(args.out, text)
    return 0 if rep.verdict else 1


def _cmd_curve_lift(args, fmt) -> int:
    ts, columns = read_curve_columns(args.input)
    f, g = (PiecewisePolynomial.linear(ts, columns[c]) for c in "fg")
    curve = lift(f, g, args.h0)
    rows = ((t, *curve(t)) for t in curve.breakpoints)
    _write(args.out, curve_to_csv(rows, fmt))
    return 0


def _component(args):
    ts, columns = read_curve_columns(args.input)
    return PiecewisePolynomial.linear(ts, columns[args.component])


def _cmd_diff_lp(args, fmt) -> int:
    u = _component(args)
    rep = lp_remainder_ladder(u, Polynomial(args.poly), args.x, args.m, args.p,
                              args.scales)
    _write(args.out, rep.to_csv())
    return 0


def _cmd_diff_density(args, fmt) -> int:
    u = _component(args)
    d = approx_density(u, Polynomial(args.poly), args.x, args.m, args.eps,
                       args.radius)
    print("density: %s" % fmt(d))
    return 0


def _cmd_sieve(args, fmt) -> int:
    u = _component(args)
    res = whitney_sieve(u, args.m, args.eps, grid=args.grid, n_max=args.nmax)
    text = json.dumps(res.to_json_obj(), indent=2) + "\n"
    _write(args.out, text)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heislusin",
        description="Exact tools for horizontal curves in the Heisenberg group",
    )
    ap.add_argument(
        "--decimal", type=_int_in("decimal", 1, MAX_DECIMAL), default=None,
        metavar="K",
        help="print rationals as K-digit decimals instead of p/q",
    )
    sub = ap.add_subparsers(dest="cmd")

    ce = sub.add_parser("counterexample").add_subparsers(dest="sub")
    b = ce.add_parser("build")
    b.add_argument("--depth", type=_depth, default=10)
    b.add_argument("--out", required=True)
    b.add_argument("--samples", type=_int_in("samples", 0, MAX_SAMPLES),
                   default=0,
                   help="uniform sample count instead of breakpoints")
    b.set_defaults(_run=_cmd_ce_build)
    v = ce.add_parser("verify")
    v.add_argument("--depth", type=_depth, default=10)
    v.add_argument("--p-max", dest="p_max",
                   type=_int_in("p-max", 1, MAX_P_MAX), default=4)
    v.set_defaults(_run=_cmd_ce_verify)
    s = ce.add_parser("straddle")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--depth", type=_depth, default=10)
    s.set_defaults(_run=_cmd_ce_straddle)

    jets = sub.add_parser("jets").add_subparsers(dest="sub")
    jc = jets.add_parser("check")
    jc.add_argument("--input", required=True)
    jc.add_argument("--m", type=int, default=None, help="expected jet order")
    jc.add_argument("--ladder", type=_rats, default=None)
    jc.add_argument("--tolerance", type=_nonneg_rat,
                    default=Fraction(1, 10**6))
    jc.add_argument("--out", default="-")
    jc.set_defaults(_run=_cmd_jets_check)

    curve = sub.add_parser("curve").add_subparsers(dest="sub")
    cl = curve.add_parser("lift")
    cl.add_argument("--input", required=True)
    cl.add_argument("--h0", type=_rat, default=Fraction(0))
    cl.add_argument("--out", default="-")
    cl.set_defaults(_run=_cmd_curve_lift)

    diff = sub.add_parser("diff").add_subparsers(dest="sub")
    lp = diff.add_parser("lp")
    lp.add_argument("--input", required=True)
    lp.add_argument("--component", choices="fgh", default="f")
    lp.add_argument("--poly", type=_rats, default="0",
                    help="comma-separated coefficients")
    lp.add_argument("--x", type=_rat, required=True)
    lp.add_argument("--m", type=_m, required=True)
    lp.add_argument("--p", type=_int_in("p", 1, MAX_P), default=1)
    lp.add_argument("--scales", type=_rats, default=None)
    lp.add_argument("--out", default="-")
    lp.set_defaults(_run=_cmd_diff_lp)
    dd = diff.add_parser("density")
    dd.add_argument("--input", required=True)
    dd.add_argument("--component", choices="fgh", default="f")
    dd.add_argument("--poly", type=_rats, default="0")
    dd.add_argument("--x", type=_rat, required=True)
    dd.add_argument("--m", type=_m, required=True)
    dd.add_argument("--eps", type=_rat, required=True)
    dd.add_argument("--radius", type=_rat, required=True)
    dd.set_defaults(_run=_cmd_diff_density)

    sv = sub.add_parser("sieve")
    sv.add_argument("--input", required=True)
    sv.add_argument("--component", choices="fgh", default="f")
    sv.add_argument("--m", type=_m, required=True)
    sv.add_argument("--eps", type=_rat, default=Fraction(5, 100))
    sv.add_argument("--grid", type=_int_in("grid", 8, MAX_GRID),
                    default=MAX_GRID)
    sv.add_argument("--nmax", type=_int_in("nmax", 1, MAX_NMAX), default=6)
    sv.add_argument("--out", default="-")
    sv.set_defaults(_run=_cmd_sieve)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `run`: it holds
    no mutable default, and its handlers look up the module's names when
    they are called."""
    return _build_parser()


def run(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not hasattr(args, "_run"):
        ap.print_usage(sys.stderr)
        return 2
    fmt = _Fmt(args.decimal)
    try:
        status = args._run(args, fmt)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return status


def main():  # console_scripts entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
