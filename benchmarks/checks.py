"""Output checks computed apart from the program.

Nothing here imports suturesim: sweep logs are read as raw JSON lines,
the shipped parameters come straight from configs/default.yaml, and pose
errors are recomputed with numpy. Every check returns the problems it
found as strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import yaml

# Criterion 1's joint tolerances and the share of estimates that must meet them.
CENTER_TOL_MM = 1.0
NORMAL_TOL_DEG = 2.0
ENDPOINT_TOL_MM = 1.5
JOINT_SHARE = 0.95
# An endpoint counts as "on its circle" within this distance (meters).
ON_CIRCLE_TOL = 1e-9

OBSERVATION_PHASES = ("insertion", "extraction", "handover", "pose_correction")
ERROR_CODES = ("I", "E", "H", "T")


@dataclass(frozen=True)
class Shipped:
    """The parameters of configs/default.yaml that the checks need."""

    perception_period: float
    durations: dict
    l_des: float
    l_each: float
    thread_length: float
    n_sutures: int

    @classmethod
    def load(cls, path) -> "Shipped":
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        return cls(
            perception_period=float(raw["timing"]["perception_period"]),
            durations={k: float(v) for k, v in raw["timing"]["durations"].items()},
            l_des=float(raw["controller"]["l_des"]),
            l_each=float(raw["controller"]["l_each"]),
            thread_length=float(raw["experiment"]["thread_length"]),
            n_sutures=int(raw["wound"]["n_sutures"]),
        )


@dataclass
class LogFacts:
    """What one checked log holds; `sutures` lists only trials that passed."""

    sutures: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)
    events: int = 0
    retries: int = 0
    observations: Counter = field(default_factory=Counter)


class _Trial:
    """Running state of one trial while its records stream past."""

    def __init__(self, k: int):
        self.k = k
        self.clock = 0.0
        self.net_thread = 0.0
        self.closed = 0
        self.n_events = 0
        self.retries = 0
        self.observations: Counter = Counter()
        self.problems: list[str] = []

    def event(self, data: dict, shipped: Shipped) -> None:
        kind = data.get("kind")
        if data.get("n") != self.n_events:
            self.problems.append(f"event {self.n_events} carries n={data.get('n')!r}")
        self.n_events += 1
        if kind == "observation":
            self.clock += shipped.perception_period
            self.observations[data.get("phase")] += 1
        elif kind == "motion":
            self.clock += shipped.durations[data["motion"]]
        elif kind == "pull_thread":
            self.clock += shipped.durations["pull_thread"]
            i = data.get("suture")
            expected = shipped.l_des - (i - 1) * shipped.l_each
            if data.get("length") != expected:
                self.problems.append(
                    f"suture {i} cinch length {data.get('length')!r} != {expected!r}"
                )
            self.net_thread += data.get("length", 0.0)
            if self.net_thread > shipped.thread_length:
                self.problems.append(
                    f"net thread pulled {self.net_thread!r} exceeds {shipped.thread_length!r}"
                )
        elif kind == "intervention":
            self.clock += shipped.durations["intervention"]
            self.net_thread -= data.get("thread_returned", 0.0)
        elif kind == "suture_closed":
            self.closed += 1
        elif kind == "retry":
            self.retries += 1
        if data.get("t") != self.clock:
            self.problems.append(
                f"event {self.n_events - 1} ({kind}) at t={data.get('t')!r}, "
                f"but its durations sum to {self.clock!r}"
            )

    def end(self, record: dict, shipped: Shipped) -> None:
        if record.get("elapsed") != self.clock:
            self.problems.append(
                f"elapsed {record.get('elapsed')!r} != summed durations {self.clock!r}"
            )
        done = record.get("sutures_completed")
        if done != self.closed:
            self.problems.append(f"sutures_completed={done!r} but {self.closed} suture_closed events")
        status, error = record.get("status"), record.get("error")
        if (status == "wound_closed") != (self.closed == shipped.n_sutures):
            self.problems.append(f"status {status!r} with {self.closed} of {shipped.n_sutures} closed")
        if status == "failed" and error not in ERROR_CODES:
            self.problems.append(f"failed trial carries error {error!r}")
        if status == "wound_closed" and error is not None:
            self.problems.append(f"closed wound carries error {error!r}")


def check_log(lines, preset: str, n_trials: int, base_seed: int, shipped: Shipped) -> LogFacts:
    """Check a `simulate --out` log given as an iterable of text lines.

    The log must hold exactly trials 0..n_trials-1 of `preset`, trial k
    seeded base_seed + k. A trial with a bad record counts as failed, as
    does every requested trial missing from the file.
    """
    facts = LogFacts()
    trial: _Trial | None = None
    passed = 0
    header = None
    next_k = 0
    for lineno, raw in enumerate(lines, start=1):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            facts.problems.append(f"line {lineno}: not JSON ({exc.msg})")
            break
        kind = record.get("record")
        if header is None:
            if kind != "header":
                facts.problems.append(f"line {lineno}: first record is {kind!r}, not a header")
                break
            header = record
            if record.get("n_trials") != n_trials:
                facts.problems.append(
                    f"header announces {record.get('n_trials')!r} trials, {n_trials} requested"
                )
            continue
        if kind == "trial_start":
            if trial is not None:
                facts.problems.append(f"line {lineno}: trial {trial.k} never ended")
                break
            trial = _Trial(next_k)
            want = (next_k, base_seed + next_k, preset)
            got = (record.get("trial"), record.get("seed"), record.get("preset"))
            if got != want:
                trial.problems.append(f"trial_start {got!r}, expected {want!r}")
            next_k += 1
        elif kind in ("event", "trial_end"):
            if trial is None or record.get("trial") != trial.k:
                facts.problems.append(f"line {lineno}: {kind} outside its trial")
                break
            if kind == "event":
                try:
                    trial.event(record.get("data", {}), shipped)
                except (KeyError, TypeError) as exc:
                    trial.problems.append(f"malformed event {trial.n_events - 1}: {exc!r}")
                continue
            trial.end(record, shipped)
            facts.events += trial.n_events
            facts.retries += trial.retries
            facts.observations.update(trial.observations)
            if trial.problems:
                facts.problems.extend(f"trial {trial.k}: {p}" for p in trial.problems)
            elif trial.k < n_trials:
                passed += 1
                facts.sutures.append(record["sutures_completed"])
            trial = None
        else:
            facts.problems.append(f"line {lineno}: unexpected record {kind!r}")
            break
    if header is None:
        facts.problems.append("log has no header")
    if trial is not None:
        facts.problems.append(f"log ends inside trial {trial.k}")
    if next_k != n_trials:
        facts.problems.append(f"log holds {next_k} trials, {n_trials} requested")
    facts.failed = n_trials - passed
    return facts


def rendered_mean(report: str, preset: str) -> str | None:
    """The mean_sutures_to_failure cell of `preset`'s row in a table report."""
    lines = report.splitlines()
    if len(lines) < 3:
        return None
    header = lines[0].split()
    for line in lines[2:]:
        cells = line.split()
        if cells and cells[0] == preset and len(cells) == len(header):
            return cells[header.index("mean_sutures_to_failure")]
    return None


def check_report(printed: str, reported: str, preset: str, sutures: list) -> list[str]:
    """`simulate`'s printed report against `report --logs` and the raw records."""
    problems = []
    if printed != reported:
        problems.append(f"{preset}: simulate's report differs from report --logs")
    if sutures:
        want = f"{sum(sutures) / len(sutures):.2f}"
        got = rendered_mean(reported, preset)
        if got != want:
            problems.append(f"{preset}: rendered mean {got!r}, raw records give {want!r}")
    return problems


def check_ablation_order(means: dict) -> list[str]:
    """The paper's ordering: stitch_human >= stitch > both baselines."""
    s = means["stitch"]
    if means["stitch_human"] >= s > max(means["sensing_only"], means["thread_handling"]):
        return []
    return [f"ablation ordering broken: {means!r}"]


# ---------------------------------------------------------------------------
# Estimator


@dataclass(frozen=True)
class Pose:
    """A needle pose as plain arrays: center, unit normal, radius, two ends."""

    center: np.ndarray
    normal: np.ndarray
    radius: float
    tip: np.ndarray
    swage: np.ndarray

    @classmethod
    def of(cls, pose) -> "Pose":
        """Copy any object with these five attributes, such as a suturesim NeedlePose."""
        return cls(*(np.array(getattr(pose, f)) for f in ("center", "normal")),
                   float(pose.radius), np.array(pose.tip), np.array(pose.swage))


def pose_errors(est: Pose, truth: Pose) -> tuple[float, float, float]:
    """(center mm, normal deg, endpoint mm); normals and end labels are unsigned."""
    center = float(np.linalg.norm(est.center - truth.center)) * 1e3
    sine = float(np.linalg.norm(np.cross(est.normal, truth.normal)))
    normal = math.degrees(math.atan2(sine, abs(float(np.dot(est.normal, truth.normal)))))
    same = max(np.linalg.norm(est.tip - truth.tip), np.linalg.norm(est.swage - truth.swage))
    crossed = max(np.linalg.norm(est.tip - truth.swage), np.linalg.norm(est.swage - truth.tip))
    return center, normal, float(min(same, crossed)) * 1e3


def off_circle(point: np.ndarray, pose: Pose) -> float:
    """Distance from a point to the pose's circle."""
    w = point - pose.center
    axial = float(np.dot(w, pose.normal))
    radial = float(np.linalg.norm(w - axial * pose.normal)) - pose.radius
    return math.hypot(axial, radial)


def estimate_problems(est: Pose, spec_radius: float) -> list[str]:
    """Per-estimate invariants: spec radius, both endpoints on the circle."""
    problems = []
    if est.radius != spec_radius:
        problems.append(f"radius {est.radius!r} != spec {spec_radius!r}")
    for name, end in (("tip", est.tip), ("swage", est.swage)):
        d = off_circle(end, est)
        if d > ON_CIRCLE_TOL:
            problems.append(f"{name} lies {d!r} m off the fitted circle")
    return problems


def within_tolerance(errors: tuple[float, float, float]) -> bool:
    center, normal, endpoint = errors
    return center <= CENTER_TOL_MM and normal <= NORMAL_TOL_DEG and endpoint <= ENDPOINT_TOL_MM


def check_accuracy(errors: list) -> list[str]:
    """At least JOINT_SHARE of the estimates meet all three tolerances."""
    if not errors:
        return ["no estimates to score"]
    share = sum(within_tolerance(e) for e in errors) / len(errors)
    if share >= JOINT_SHARE:
        return []
    return [f"only {100 * share:.1f}% of {len(errors)} estimates within criterion 1's tolerances"]
