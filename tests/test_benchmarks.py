"""The benchmark's self-test, run against the package as it stands.

benchmarks/ drives the package through its public names: the
RansacParams fields it replaces per seed, NeedlePose, the log format.
A change that breaks one of them fails here, not first in a benchmark
run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "selftest.py"


def test_benchmark_selftest_passes():
    run = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stdout + run.stderr
