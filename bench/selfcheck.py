"""Fast self-check of the benchmark: every workload at tiny sizes.

    python3 bench/selfcheck.py

Runs each workload once untraced and once traced at the sizes in
`workloads.TINY`, with every output check on, and fails unless each run
prints a well-formed result that is correct, has exactly the expected
failed operations and reports every metric of BENCHMARK.json.  Takes a
few seconds per workload; it is not part of the test suite.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# operations that fail on every run today, per round of each workload
KNOWN_FAILURES = {"staircase": 1, "jets": 0, "sieve": 1}


def run(workload, trace) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (cmd, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def ops_per_round(name) -> int:
    sys.path.insert(0, BENCH)
    from run import OUT, setup

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=OUT)
    try:
        return len(setup(name, 7, workdir, tiny=True)[1].ops())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = []
    for wl in spec["workloads"]:
        name = wl["name"]
        per_round = ops_per_round(name)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, trace)
            label = "%s --trace %d" % (name, trace)
            rounds, rest = divmod(res["attempted"], per_round)
            if rest or res["failed"] != rounds * KNOWN_FAILURES[name]:
                errors.append("%s: %d of %d operations failed, expected %d per "
                              "round of %d" % (label, res["failed"], res["attempted"],
                                               KNOWN_FAILURES[name], per_round))
            want = {m["name"] for m in spec[key]}
            if set(res["metrics"]) != want:
                errors.append("%s: metrics differ from BENCHMARK.json" % label)
            if not res["correct"]:
                errors.append("%s: outputs are wrong" % label)
            print("%-20s correct=%s attempted=%d failed=%d"
                  % (label, res["correct"], res["attempted"], res["failed"]))
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
