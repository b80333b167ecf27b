"""The demos' printed output, pinned by sha256.

The digests were recorded from the implementation in which the exact
Whitney modulus and the sieve's float modulus were separate code, so
these tests hold the walkthroughs (sieve moduli, straddle verdicts,
ladders) byte for byte across refactors.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, digest", [
    ("demo_counterexample",
     "acac074cb1be22ccde9a8ea8f5c5b476eed1f3091eb705ec9dc4927111d26d4b"),
    ("demo_extendability",
     "975a09bbe6092a68ad3bebb21626cf1a3c89513965a39d96d5d041aa36f23609"),
    ("demo_ladders",
     "46c55aef41ce1402256146385cdac8d267c59601513b69fd9b69ecedb9785051"),
])
def test_demo_output_is_pinned(demo, digest):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (demo + ".py"))],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest
