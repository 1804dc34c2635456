"""The benchmark's self-test, run against the package as it stands.

benchmarks/ drives the package through its public names: the
RansacParams fields it replaces per seed, NeedlePose, the log format.
A change that breaks one of them fails here, not first in a benchmark
run. A traced estimator round and a traced sweep are run too, since
tracing wraps every public function of the package.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
SELFTEST = BENCHMARKS / "selftest.py"

# Runs `suturesim` with the arguments after the first; with first
# argument 1 the benchmark's tracer is installed around the run.
CLI_UNDER_TRACER = """
import sys
sys.path[:0] = [{benchmarks!r}, {src!r}]
from tracer import Tracer
from suturesim import cli
tracer = Tracer() if sys.argv[1] == "1" else None
if tracer is not None:
    tracer.install()
try:
    rc = cli.main(sys.argv[2:])
finally:
    if tracer is not None:
        tracer.uninstall()
sys.exit(rc)
""".format(benchmarks=str(BENCHMARKS), src=str(ROOT / "src"))


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


def test_traced_sweep_matches_the_untraced_one(tmp_path):
    # The tracer rebinds the package's functions before the sweep forks
    # its workers; a traced sweep must exit, print and log exactly what
    # an untraced one does.
    runs = []
    for trace in ("0", "1"):
        log = tmp_path / f"trace{trace}.jsonl"
        run = subprocess.run(
            [
                sys.executable, "-c", CLI_UNDER_TRACER, trace,
                *("simulate", "--preset", "stitch_human", "--trials", "6", "--seed", "0"),
                *("--out", str(log)),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.stderr == ""
        runs.append((run.returncode, run.stdout, log.read_bytes()))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]
