"""Show that every output check can fail.

    python3 benchmarks/selftest.py

Makes small good outputs (three stitch trials, ten harsh-point
estimates), confirms that they pass, then feeds each check a doctored
copy and expects a rejection: a log cut after its first trial_end, one
clock shifted by a perception period, one cinch length changed, one
estimate moved by 2 mm. Exits 0 when every doctored copy is rejected.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from suturesim import perception as pc  # noqa: E402

CONFIG = ROOT / "configs" / "default.yaml"
OUT = ROOT / ".bench_out"
PRESET, TRIALS, BASE_SEED = "stitch", 3, 11


def doctor(lines: list[str], kind: str, edit) -> list[str]:
    """Copy of the log with `edit` applied to the first event of `kind`."""
    out = list(lines)
    for i, raw in enumerate(out):
        record = json.loads(raw)
        if record.get("record") == "event" and record["data"].get("kind") == kind:
            edit(record["data"])
            out[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            return out
    raise SystemExit(f"selftest: the good log has no {kind!r} event to doctor")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    shipped = checks.Shipped.load(CONFIG)
    log = OUT / "selftest.jsonl"
    code, printed, err = wl.run_cli([
        "simulate", "--config", str(CONFIG), "--preset", PRESET, "--trials", str(TRIALS),
        "--seed", str(BASE_SEED), "--out", str(log),
    ])
    if code != 0:
        raise SystemExit(f"selftest: simulate exited {code}: {err}")
    good = log.read_text(encoding="utf-8").splitlines()

    def sweep_problems(lines):
        facts = checks.check_log(lines, PRESET, TRIALS, BASE_SEED, shipped)
        return facts.problems + ([f"{facts.failed} failed trials"] if facts.failed else [])

    spec = pc.NeedleSpec()
    good_round = wl.estimate_round(wl.make_clouds(0, spec, 10), spec)

    def moved(poses):
        first = poses[0]
        shift = np.array([0.002, 0.0, 0.0])
        copy = checks.Pose(first.center + shift, first.normal, first.radius,
                           first.tip + shift, first.swage + shift)
        return [copy] + poses[1:]

    def accuracy_problems(poses):
        truths = [c.truth for c in wl.make_clouds(0, spec, 10)]
        problems = [p for pose in poses for p in checks.estimate_problems(pose, spec.radius)]
        return problems + checks.check_accuracy(
            [checks.pose_errors(p, t) for p, t in zip(poses, truths)]
        )

    cut = good[: next(i for i, raw in enumerate(good) if '"record":"trial_end"' in raw) + 1]
    cases = [
        ("good sweep log", sweep_problems(good), False),
        ("good estimates", accuracy_problems(good_round.poses) + good_round.problems, False),
        ("log cut after its first trial_end", sweep_problems(cut), True),
        ("one clock shifted by a perception period",
         sweep_problems(doctor(good, "observation",
                               lambda e: e.update(t=e["t"] + shipped.perception_period))), True),
        ("one cinch length changed",
         sweep_problems(doctor(good, "pull_thread", lambda e: e.update(length=e["length"] + 0.001))),
         True),
        ("one estimate moved by 2 mm", accuracy_problems(moved(good_round.poses)), True),
    ]
    ok = True
    for name, problems, should_fail in cases:
        passed = bool(problems) == should_fail
        ok &= passed
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    log.unlink()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
