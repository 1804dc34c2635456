"""The benchmark's workloads: inputs from a seed, one round of operations, checks.

A round is a fixed set of operations that depends on the seed alone, so
every run of a workload repeats the same rounds, and the share of failed
operations cannot depend on how many rounds fit in a run.

* `stitch_sweep` and `ablation`: per preset, `simulate --out <log>` and
  then `report --logs <log>`, both through `suturesim.cli.main` at the
  shipped defaults (configs/default.yaml). One operation is one trial.
* `estimate_harsh`: `perception.estimate_needle_pose` on clouds made
  before the timed loop, at criterion 1's noise point. One operation is
  one estimate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from suturesim import cli
from suturesim import perception as pc

# Trials per preset in one round. 400 stitch trials (and 4 x 75 ablation
# trials) keep the seed-to-seed spread of the trial mix near 5 %, and
# give the traced run at least 200 trials for a p95 with ten beyond it.
SWEEPS = {
    "stitch_sweep": {"stitch": 400},
    "ablation": {p: 75 for p in ("sensing_only", "thread_handling", "stitch", "stitch_human")},
}
# Trial seeds of --seed n start at n * SEED_STRIDE, so seeds never share trials.
SEED_STRIDE = 10_000

# Criterion 1's point: 200 points, 0.5 mm noise, 20 % outliers, 25 %
# occlusion, 500-iteration RANSAC in both stages.
ESTIMATES_PER_ROUND = 1000
CLOUD_POINTS = 200
HARSH_NOISE = pc.NoiseModel(
    gaussian_sigma=5e-4,
    outlier_fraction=0.20,
    dropout_fraction=0.0,
    occlusion_arc=0.25 * pc.NeedleSpec().arc_span,
)

WORKLOADS = (*SWEEPS, "estimate_harsh")


@dataclass
class SweepRound:
    trials: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    simulate_s: float = 0.0
    report_s: float = 0.0
    log_bytes: int = 0
    events: int = 0
    retries: int = 0
    observations: dict = field(default_factory=dict)
    sutures: dict = field(default_factory=dict)  # preset -> completed per passing trial
    digests: dict = field(default_factory=dict)  # preset -> sha256 of its log

    @property
    def seconds(self) -> float:
        return self.simulate_s + self.report_s


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sweep_round(
    workload: str, seed: int, config: Path, out_dir: Path, tag: str, shipped: checks.Shipped
) -> SweepRound:
    """simulate then report for each preset of the workload, checked."""
    base = seed * SEED_STRIDE
    r = SweepRound()
    for preset, n in SWEEPS[workload].items():
        log = out_dir / f"{workload}-{preset}-{tag}.jsonl"
        argv = ["simulate", "--config", str(config), "--preset", preset,
                "--trials", str(n), "--seed", str(base), "--out", str(log)]
        t0 = perf_counter()
        code, printed, err = run_cli(argv)
        r.simulate_s += perf_counter() - t0
        r.trials += n
        if code != 0:
            r.failed += n
            r.problems.append(f"{preset}: simulate exited {code}: {err.strip()}")
            continue
        t0 = perf_counter()
        code, reported, err = run_cli(["report", "--logs", str(log)])
        r.report_s += perf_counter() - t0
        if code != 0:
            r.problems.append(f"{preset}: report exited {code}: {err.strip()}")

        data = log.read_bytes()
        log.unlink()
        r.log_bytes += len(data)
        r.digests[preset] = hashlib.sha256(data).hexdigest()
        facts = checks.check_log(data.decode("utf-8").splitlines(), preset, n, base, shipped)
        r.failed += facts.failed
        r.problems += facts.problems
        r.problems += checks.check_report(printed, reported, preset, facts.sutures)
        r.events += facts.events
        r.retries += facts.retries
        for phase, k in facts.observations.items():
            r.observations[phase] = r.observations.get(phase, 0) + k
        r.sutures[preset] = facts.sutures
    if workload == "ablation" and all(r.sutures.get(p) for p in SWEEPS[workload]):
        means = {p: sum(s) / len(s) for p, s in r.sutures.items()}
        r.problems += checks.check_ablation_order(means)
    return r


# ---------------------------------------------------------------------------
# estimate_harsh


@dataclass(frozen=True)
class Cloud:
    points: np.ndarray
    truth: checks.Pose
    plane: pc.RansacParams
    circle: pc.RansacParams


def _random_pose(rng: np.random.Generator, spec: pc.NeedleSpec):
    """Criterion 1's pose draw: centre in a 6 x 6 x 5 cm box, tilt up to 40 degrees."""
    center = rng.uniform([-0.03, -0.03, 0.0], [0.03, 0.03, 0.05])
    tilt = math.radians(rng.uniform(0.0, 40.0))
    azim = rng.uniform(0.0, 2 * math.pi)
    normal = pc.canonical_normal(
        np.array([math.sin(tilt) * math.cos(azim), math.cos(tilt), math.sin(tilt) * math.sin(azim)])
    )
    return pc.make_needle_pose(center, normal, rng.normal(size=3), spec)


def make_clouds(seed: int, spec: pc.NeedleSpec, n: int = ESTIMATES_PER_ROUND) -> list[Cloud]:
    plane = pc.RansacParams()
    circle = pc.RansacParams(inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD)
    clouds = []
    for i in range(n):
        truth = _random_pose(np.random.default_rng([seed, i, 0]), spec)
        points = pc.synth_needle_cloud(
            truth, spec, HARSH_NOISE, CLOUD_POINTS, np.random.default_rng([seed, i, 1])
        )
        ransac_seed = seed * ESTIMATES_PER_ROUND + i
        clouds.append(
            Cloud(
                points,
                checks.Pose.of(truth),
                replace(plane, seed=ransac_seed),
                replace(circle, seed=ransac_seed),
            )
        )
    return clouds


@dataclass
class EstimateRound:
    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    seconds: float = 0.0
    poses: list = field(default_factory=list)  # checks.Pose, or None where the call raised
    errors: list = field(default_factory=list)  # (center mm, normal deg, endpoint mm)


def estimate_round(clouds: list[Cloud], spec: pc.NeedleSpec, tracer=None) -> EstimateRound:
    """Estimate every cloud once, timed as a whole, then check the results."""
    r = EstimateRound(ops=len(clouds))
    raw = []
    t0 = perf_counter()
    for i, c in enumerate(clouds):
        if tracer is not None:
            tracer.current_op = i
        try:
            raw.append(pc.estimate_needle_pose(c.points, spec, c.plane, c.circle))
        except Exception as exc:  # a raising estimate is a failed operation, not a crash
            raw.append(exc)
    r.seconds = perf_counter() - t0
    for i, (c, est) in enumerate(zip(clouds, raw)):
        if isinstance(est, Exception):
            r.failed += 1
            r.poses.append(None)
            r.problems.append(f"cloud {i}: estimate raised {est!r}")
            continue
        pose = checks.Pose.of(est)
        r.poses.append(pose)
        bad = checks.estimate_problems(pose, spec.radius)
        if bad:
            r.failed += 1
            r.problems += [f"cloud {i}: {p}" for p in bad]
            continue
        r.errors.append(checks.pose_errors(pose, c.truth))
    r.problems += checks.check_accuracy(r.errors)
    return r


def same_poses(a: list, b: list) -> bool:
    """Bitwise equality of two rounds' estimates."""
    if len(a) != len(b):
        return False
    for p, q in zip(a, b):
        if (p is None) != (q is None):
            return False
        if p is not None and not all(
            np.array_equal(getattr(p, f), getattr(q, f))
            for f in ("center", "normal", "radius", "tip", "swage")
        ):
            return False
    return True
