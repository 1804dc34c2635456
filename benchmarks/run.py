"""suturesim benchmark: end-to-end figures, or per-layer figures with --trace 1.

    python3 benchmarks/run.py --workload stitch_sweep --seed 0 --seconds 30 --trace 0

Runs whole rounds of the workload (workloads.py) while the next one
still fits in --seconds, checks every output (checks.py), prints a
summary and, as the last line, one JSON object: correct, attempted,
failed and metrics. With --trace 1 it runs one untraced and one traced
round (tracer.py), prints the tracing overhead, writes the spans to
.bench_out/ and reports the per-layer metrics instead. Exits 2 without
a result when the program cannot be loaded from src/.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cold_setup() -> float:
    """Import suturesim from src/ and load the shipped config; seconds since start."""
    sys.path.insert(0, str(SRC))
    import suturesim

    if not Path(suturesim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"suturesim was imported from {suturesim.__file__}, not {SRC}")
    suturesim.load_config(ROOT / "configs" / "default.yaml")
    return time.perf_counter() - _T0


def main() -> int:
    try:
        setup_s = cold_setup()
    except (ImportError, OSError) as exc:
        print(f"error: cannot load suturesim from {SRC}: {exc}", file=sys.stderr)
        return 2

    import json

    import measure

    args = measure.parse_args(__doc__.splitlines()[0])
    print(json.dumps(measure.run(args, setup_s, ROOT)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
