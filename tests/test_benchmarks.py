"""The benchmark's self-test, run against the package as it stands.

benchmarks/ drives the package through its public names: the
RansacParams fields it replaces per seed, NeedlePose, the log format.
A change that breaks one of them fails here, not first in a benchmark
run. A traced round is run too, since tracing wraps every public
function of the package.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SELFTEST = BENCHMARKS / "selftest.py"


def test_benchmark_selftest_passes():
    run = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_traced_estimator_round_is_correct():
    # --trace 1 wraps every public function of the package in a span; the
    # traced round must still check its estimates correct. It writes its
    # trace under the repo's .bench_out/.
    run = subprocess.run(
        [
            sys.executable,
            str(BENCHMARKS / "run.py"),
            *("--workload", "estimate_harsh", "--seed", "0", "--seconds", "1", "--trace", "1"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
