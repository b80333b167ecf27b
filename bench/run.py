"""Run one benchmark workload from a seed and print its metrics as JSON.

    python3 bench/run.py --workload staircase --seed 1 --seconds 40 --trace 0

Workloads: staircase, jets, sieve (see bench/README.md).  Run from any
directory; the program is imported from the `src` directory next to
`bench`, never from an installed copy.

With --trace 0 the last line of output holds the end-to-end metrics:
setup_s (from process start until the first job can begin), cold_s (the
first pass over the jobs in a fresh process), warm_s (a later pass in
the same process) and peak_rss_mib.  Cold samples come from probe
processes run one at a time between the warm passes until --seconds is
used up.  With --trace 1 the line holds the per-layer metrics of the
traced run instead.
"""

import os

# numpy's thread pools are held to one thread; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("peak_rss_mib", "MiB"))


class BenchError(Exception):
    """The benchmark cannot run here; it exits 2 without a result."""


def load_heislusin():
    """Import heislusin from this checkout's src directory."""
    sys.path.insert(0, SRC)
    import heislusin
    import heislusin.cli  # noqa: F401  (the CLI is not imported by the package)

    if os.path.dirname(os.path.dirname(os.path.abspath(heislusin.__file__))) != SRC:
        raise BenchError("heislusin was imported from %s" % heislusin.__file__)
    return heislusin


def setup(workload, seed, workdir, tiny):
    """Everything before the first job: import the program, make inputs."""
    from workloads import TINY, WORKLOADS

    hl = load_heislusin()
    sizes = TINY[workload] if tiny else {}
    return hl, WORKLOADS[workload](hl, seed, workdir, **sizes)


def cold_probe(args) -> tuple:
    """Set up and run one pass in a fresh process.

    Returns (seconds from process start until set-up finished, the pass).
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--cold-probe"]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.communicate(timeout=150)[0]
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("cold probe did not finish") from None
            raise
    if ready.strip() != "ready" or proc.returncode != 0 or not rest:
        raise BenchError("cold probe exited %s" % proc.returncode)
    out = json.loads(rest.splitlines()[-1])
    p = Pass()
    p.seconds, p.attempted, p.failed, p.problems = (
        out["seconds"], out["attempted"], out["failed"], out["problems"])
    return setup_s, p


def block_median(samples) -> float:
    """Median over blocks of about three consecutive samples of the block mean.

    Pass times on a shared machine fall into a fast and a slow band as the
    load on the host changes; the plain median of a run jumps between the
    bands, the mean of a block follows the share of time spent in each.
    """
    k = max(1, len(samples) // 3)
    cuts = [round(i * len(samples) / k) for i in range(k + 1)]
    return statistics.median(
        statistics.mean(samples[a:b]) for a, b in zip(cuts, cuts[1:]))


class Pass:
    """Outcome of one pass over a list of operations."""

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []


def run_ops(ops) -> Pass:
    """Run operations in order; only the calls themselves are timed."""
    from workloads import CheckFailed, CliResult

    out = Pass()
    clock = time.perf_counter
    for op in ops:
        out.attempted += 1
        t0 = clock()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises has failed
            out.seconds += clock() - t0
            out.failed += 1
            print("failed: %s: %s: %s" % (op.name, type(exc).__name__, exc),
                  file=sys.stderr)
            continue
        out.seconds += clock() - t0
        if isinstance(result, CliResult) and result.status not in op.accept:
            out.failed += 1
            print("failed: %s: exit %s" % (op.name, result.status), file=sys.stderr)
            continue
        if op.check is not None:
            try:
                op.check(result)
            except CheckFailed as exc:
                out.problems.append("%s: %s" % (op.name, exc))
            except Exception as exc:  # unreadable output is a wrong output
                out.problems.append("%s: %s: %s" % (op.name, type(exc).__name__, exc))
    return out


def measure(args, wl, deadline) -> tuple:
    """This process's cold pass, then a probe process and a warm pass in
    turn until the deadline (at least two of each), so that the cold and
    the warm samples are spread over the same stretch of time."""
    passes, probes = [run_ops(wl.ops())], []

    def time_left(step):
        return time.perf_counter() + step < deadline

    while len(probes) < 2 or time_left(passes[-1].seconds + probes[-1][0]):
        probes.append(cold_probe(args))
        if len(passes) < 3 or time_left(passes[-1].seconds):
            passes.append(run_ops(wl.ops()))
    cold = passes[:1] + [p for _, p in probes]
    print("cold pass seconds: %s; warm pass seconds: %s" % (
        " ".join("%.3f" % p.seconds for p in cold),
        " ".join("%.3f" % p.seconds for p in passes[1:])), file=sys.stderr)
    metrics = {
        "setup_s": block_median([s for s, _ in probes]),
        "cold_s": block_median([p.seconds for p in cold]),
        "warm_s": block_median([p.seconds for p in passes[1:]]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes + [p for _, p in probes], metrics


def traced(args, hl, wl, workdir, deadline) -> tuple:
    """Per-layer metrics: the scaling ladder under tracing, then untraced and
    traced passes in turn until the deadline.  The per-layer values are
    medians over the traced passes; the pairs give the tracing overhead."""
    from tracer import PER_LAYER, Tracer, fit_slope, layer_metrics

    tracer = Tracer()
    sizes, layer_times, ladder = [], [], []
    tracer.install(hl)
    try:
        for size, ops in wl.ladder(workdir):
            mark = tracer.mark()
            ladder.append(run_ops(ops))
            sizes.append(size)
            layer_times.append(tracer.summary(mark)["self_s"])
    finally:
        tracer.uninstall()
    untraced, traced_passes, per_pass = [], [], []
    while not untraced or time.perf_counter() + 2 * untraced[-1].seconds < deadline:
        untraced.append(run_ops(wl.ops()))
        mark = tracer.mark()
        tracer.reset_counters()
        tracer.install(hl)
        try:
            traced_passes.append(run_ops(wl.ops()))
        finally:
            tracer.uninstall()
        per_pass.append(layer_metrics(tracer.summary(mark), tracer.counters))
    metrics = {
        key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]
    }
    for layer in layer_times[0]:
        metrics[layer + ".slope"] = fit_slope(sizes, [t[layer] for t in layer_times])
    plain = statistics.median(p.seconds for p in untraced)
    overhead = statistics.median(p.seconds for p in traced_passes) / plain - 1
    print("tracing overhead: %+.1f%% over %d pairs of passes (untraced median %.3f s)"
          % (100 * overhead, len(untraced), plain), file=sys.stderr)
    tracer.write(
        os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed)),
        {
            "workload": args.workload,
            "seed": args.seed,
            "untraced_pass_s": [p.seconds for p in untraced],
            "traced_pass_s": [p.seconds for p in traced_passes],
            "tracing_overhead": overhead,
            "ladder_sizes": sizes,
            "ladder_self_s": layer_times,
        },
    )
    units = dict(PER_LAYER)
    return untraced + traced_passes, ladder, {n: metrics[n] for n in units}, units


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("staircase", "jets", "sieve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check sizes: every workload in a few seconds")
    ap.add_argument("--cold-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run still stops its probe process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, BENCH)
    deadline = start + args.seconds

    if not os.path.isfile(os.path.join(SRC, "heislusin", "__init__.py")):
        print("error: no heislusin sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        hl, wl = setup(args.workload, args.seed, workdir, args.tiny)
        if args.cold_probe:
            print("ready", flush=True)
            p = run_ops(wl.ops())
            print(json.dumps({"seconds": p.seconds, "attempted": p.attempted,
                              "failed": p.failed, "problems": p.problems}))
            return 0
        if args.trace:
            passes, extra, metrics, units = traced(args, hl, wl, workdir, deadline)
        else:
            passes, metrics = measure(args, wl, deadline)
            extra, units = [], dict(END_TO_END)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for ps in passes + extra for p in ps.problems]
    for p in problems[:20]:
        print("wrong output: %s" % p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
