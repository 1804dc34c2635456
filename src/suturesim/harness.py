"""Monte Carlo trial runner: ablation presets, metrics, reports.

A trial is one wound (six throws unless configured otherwise) driven by
the per-suture state machine until closure or an unrecoverable error.
Everything downstream of the seed is deterministic, so a trial, and its
log (triallog), is a pure function of its config and seed.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .controller import TRANSITIONS, ControllerParams, PipelineState, run_suture
from .perception import NeedleSpec, NoiseModel, RansacParams
from .simworld import (
    SIM_CIRCLE_RANSAC,
    SIM_CLOUD_POINTS,
    SIM_NOISE,
    SIM_RANSAC,
    FailureModel,
    TimingModel,
    WorldState,
    WoundSpec,
    make_wound,
)
from .triallog import ErrorKind, TrialLog, _trace_end_problem

# The largest cloud a config may ask for. No array the estimator builds
# grows faster than the cloud: at this cap the (n, 3) cloud is 48 KiB,
# and each RANSAC scoring block still holds at least four rows within
# perception's budget of 8192 (row, point) pairs, 64 KiB per temporary.
MAX_CLOUD_POINTS = 2048

#: preset name -> (the pipeline states it skips, human-intervention budget)
PRESETS: dict[str, tuple[frozenset, int]] = {
    "sensing_only": (
        frozenset({PipelineState.SWEEP, PipelineState.CINCH, PipelineState.POSE_CORRECTION}),
        0,
    ),
    "thread_handling": (frozenset({PipelineState.POSE_CORRECTION}), 0),
    "stitch": (frozenset(), 0),
    "stitch_human": (frozenset(), 2),
}


class HarnessError(RuntimeError):
    """Base class for experiment-harness failures."""


class TraceInvariantError(HarnessError):
    """An event trace violates a structural invariant."""


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment needs, in one bag: the one
    source of every setting and its default, the world's included."""

    preset: str = "stitch"
    n_trials: int = 15
    base_seed: int = 0
    controller: ControllerParams = field(default_factory=ControllerParams)
    failures: FailureModel = field(default_factory=FailureModel)
    timing: TimingModel = field(default_factory=TimingModel)
    noise: NoiseModel = SIM_NOISE
    ransac: RansacParams = SIM_RANSAC
    circle_ransac: RansacParams = SIM_CIRCLE_RANSAC
    needle: NeedleSpec = field(default_factory=NeedleSpec)
    wound: WoundSpec = field(default_factory=make_wound)
    n_cloud_points: int = SIM_CLOUD_POINTS
    thread_length: float = 0.40

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; expected one of {sorted(PRESETS)}"
            )
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if not (1 <= self.n_cloud_points <= MAX_CLOUD_POINTS):
            raise ValueError(f"n_cloud_points must be in [1, {MAX_CLOUD_POINTS}]")
        if not (self.thread_length > 0.0):
            raise ValueError("thread_length must be positive")


@dataclass
class MetricsReport:
    """Aggregate success metrics over a set of trials.

    Rates are fractions in [0, 1]; the renderer formats them as
    percentages. mean_time_per_suture and mean_sutures_to_intervention
    are None when their denominators are empty (no successful throw /
    no intervention events).
    """

    n_trials: int
    mean_sutures_to_failure: float
    single_suture_success_rate: float
    three_throw_success_rate: float
    full_wound_success_rate: float
    mean_time_per_suture: float | None
    error_counts: dict
    mean_sutures_to_intervention: float | None
    histogram: list


# ---------------------------------------------------------------------------
# Running trials


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialLog:
    """Run one seeded trial to its terminal state."""
    seed = config.base_seed + trial_index
    skip, budget = PRESETS[config.preset]
    world = WorldState(config, seed, budget)
    status, error, completed = "wound_closed", None, 0
    for i in range(1, config.wound.n_target_sutures + 1):
        failed = run_suture(world, config.controller, i, skip)
        if failed is not None:
            status, error = "failed", failed.value
            break
        completed = i
        if i < config.wound.n_target_sutures:
            world.advance_suture()
    return TrialLog(
        trial=trial_index,
        seed=seed,
        preset=config.preset,
        status=status,
        error=error,
        sutures_completed=completed,
        elapsed=world.clock,
        events=world.events,
    )


def iter_trials(config: ExperimentConfig) -> Iterator[TrialLog]:
    """n_trials independent trials, yielded in trial order as each is ready.

    Trial k is seeded base_seed + k, so trials share no state and run on a
    process pool with one worker per CPU this process may use, at most
    n_trials. Below two workers they run here, one after another, so
    `taskset -c 0` gives a serial run. The trials are the same either way.
    """
    workers = min(len(os.sched_getaffinity(0)), config.n_trials)
    if workers < 2:
        for k in range(config.n_trials):
            yield run_trial(config, k)
        return
    # Imported here so that a serial sweep, or a program that only loads
    # a config, does not pay for it.
    import multiprocessing

    # fork, not spawn: workers start with this process's modules loaded, so
    # they re-import nothing and call run_trial as it is bound here. Leaving
    # the block, by exhaustion, an exception or close(), ends the workers.
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        trials = functools.partial(_run_trial_in_worker, config)
        for pickled in pool.imap(trials, range(config.n_trials)):
            yield pickle.loads(pickled)


def _run_trial_in_worker(config: ExperimentConfig, trial_index: int) -> bytes:
    # The pool pickles this function by name, so run_trial is looked up
    # when a worker calls it: a wrapped or replaced run_trial need not
    # pickle. The trial goes back pickled and is unpickled only when its
    # turn comes: a trial that ends ahead of its turn waits in the parent
    # as bytes, several times smaller than its events as objects, so the
    # parent's peak memory hardly depends on the order trials end in.
    return pickle.dumps(run_trial(config, trial_index), pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# Metrics


class MetricsTally:
    """Single-pass metrics accumulator.

    `add` counts one trial and keeps only integers and a clock sum, never
    the trial's events, so a sweep of any length is tallied in constant
    memory.
    """

    def __init__(self):
        self.n_trials = 0
        self.closed_wounds = 0
        self.attempts = 0
        self.successes = 0
        self.total_elapsed = 0.0
        self.error_counts = {kind.value: 0 for kind in ErrorKind}
        self.intervention_gaps = 0
        self.interventions = 0
        self.histogram = [0] * 7  # trials by sutures completed

    def add(self, log: TrialLog) -> None:
        self.n_trials += 1
        self.closed_wounds += log.status == "wound_closed"
        self.total_elapsed += log.elapsed
        if log.sutures_completed >= len(self.histogram):
            self.histogram += [0] * (log.sutures_completed + 1 - len(self.histogram))
        self.histogram[log.sutures_completed] += 1
        closed_since_intervention = 0
        for event in log.events:
            kind = event.get("kind")
            if kind == "suture_attempt":
                self.attempts += 1
            elif kind == "suture_closed":
                self.successes += 1
                closed_since_intervention += 1
            elif kind == "suture_failed":
                err = event.get("error")
                if err in self.error_counts:
                    self.error_counts[err] += 1
            elif kind == "intervention":
                self.intervention_gaps += closed_since_intervention
                self.interventions += 1
                closed_since_intervention = 0

    def tee(self, logs: Iterable[TrialLog]) -> Iterator[TrialLog]:
        """Yield each log unchanged after adding it to the tally."""
        for log in logs:
            self.add(log)
            yield log

    def report(self) -> MetricsReport:
        n = self.n_trials
        if not n:
            raise HarnessError("cannot compute metrics over zero trials")
        bins = self.histogram
        return MetricsReport(
            n_trials=n,
            mean_sutures_to_failure=sum(k * c for k, c in enumerate(bins)) / n,
            single_suture_success_rate=(self.successes / self.attempts) if self.attempts else 0.0,
            three_throw_success_rate=sum(bins[3:]) / n,
            full_wound_success_rate=self.closed_wounds / n,
            mean_time_per_suture=(self.total_elapsed / self.successes) if self.successes else None,
            error_counts=dict(self.error_counts),
            mean_sutures_to_intervention=(
                self.intervention_gaps / self.interventions if self.interventions else None
            ),
            histogram=list(bins),
        )


def compute_metrics(logs: Iterable[TrialLog]) -> MetricsReport:
    """Metrics over any iterable of trials, in one pass."""
    tally = MetricsTally()
    for log in logs:
        tally.add(log)
    return tally.report()


# ---------------------------------------------------------------------------
# Rendering


def format_mean(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def format_rate(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.1f}%"


def format_time(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


_COLUMNS = [
    "preset",
    "trials",
    "mean_sutures_to_failure",
    "single_suture_success_rate",
    "three_throw_success_rate",
    "full_wound_success_rate",
    "mean_time_per_suture_s",
    *(f"errors_{kind.value}" for kind in ErrorKind),
    "mean_sutures_to_intervention",
]


def _row(name: str, m: MetricsReport) -> list[str]:
    return [
        name,
        str(m.n_trials),
        format_mean(m.mean_sutures_to_failure),
        format_rate(m.single_suture_success_rate),
        format_rate(m.three_throw_success_rate),
        format_rate(m.full_wound_success_rate),
        format_time(m.mean_time_per_suture),
        *(str(m.error_counts.get(kind.value, 0)) for kind in ErrorKind),
        format_mean(m.mean_sutures_to_intervention),
    ]


def report_render(metrics: dict[str, MetricsReport], format: str = "table") -> str:
    """Render an ordered {name: report} mapping, one row per name.

    `table` is aligned plain text; `csv` adds the sutures-to-failure
    histogram as trailing hist_<k> columns.
    """
    if format not in ("table", "csv"):
        raise ValueError(f"unknown report format {format!r}")

    header = _COLUMNS
    rows = [_row(name, report) for name, report in metrics.items()]

    if format == "csv":
        width = max((len(r.histogram) for r in metrics.values()), default=0)
        lines = [",".join(header + [f"hist_{k}" for k in range(width)])]
        for (name, report), row in zip(metrics.items(), rows):
            hist = list(report.histogram) + [0] * (width - len(report.histogram))
            lines.append(",".join(row + [str(h) for h in hist]))
        return "\n".join(lines) + "\n"

    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Trace validation


def validate_event_trace(log: TrialLog, config: ExperimentConfig) -> None:
    """Check a trial trace against the structural invariants of the config
    it ran with.

    Raises TraceInvariantError naming the first violated rule: monotone
    ids/clock, only the state-machine edges in controller.TRANSITIONS,
    per-phase retry bounds, every successful grasp gated by a fresh
    successful observation, exact cinch arithmetic, strict jitter bound,
    the preset's intervention budget, and a terminal record consistent
    with the trial status and the wound's suture count.
    """
    params = config.controller
    budget = PRESETS[config.preset][1]

    def fail(lineno: int, rule: str) -> None:
        raise TraceInvariantError(f"trial {log.trial}, event {lineno}: {rule}")

    last_t = -math.inf
    retries: dict[tuple, int] = {}
    attempt_no = 0  # a fresh attempt (post-intervention) gets a fresh retry budget
    interventions = 0
    observed_since_mark = False

    for k, event in enumerate(log.events):
        if event.get("n") != k:
            fail(k, f"event ids must be dense, got {event.get('n')!r}")
        t = event.get("t", 0.0)
        if t < last_t:
            fail(k, f"clock ran backwards ({t} < {last_t})")
        last_t = t
        kind = event.get("kind")

        if kind == "transition":
            frm, to = event.get("frm"), event.get("to")
            # a state read from a log may be any JSON value, and not hashable
            if type(frm) is not str or type(to) is not str or (frm, to) not in TRANSITIONS:
                fail(k, f"illegal transition {frm!r:.40} -> {to!r:.40}")
            observed_since_mark = False
        elif kind == "retry":
            key = (attempt_no, event.get("suture"), event.get("primitive"))
            retries[key] = retries.get(key, 0) + 1
            if retries[key] > params.max_retries:
                fail(k, f"{event.get('primitive')} retried more than {params.max_retries} times")
            if event.get("attempt") != retries[key]:
                fail(k, "retry attempt counter out of sequence")
            observed_since_mark = False
        elif kind == "suture_attempt":
            attempt_no += 1
            observed_since_mark = False
        elif kind == "observation":
            if event.get("ok"):
                observed_since_mark = True
        elif kind == "grasp":
            if event.get("success") and not observed_since_mark:
                fail(k, "grasp attempted without a fresh successful observation")
        elif kind == "pull_thread":
            i = event.get("suture")
            expected = params.l_des - (i - 1) * params.l_each
            if event.get("length") != expected:
                fail(k, f"cinch length {event.get('length')!r} != {expected!r} for suture {i}")
        elif kind == "handover_jitter":
            if not (event.get("magnitude") < params.handover_jitter_max):
                fail(k, "handover jitter magnitude must stay strictly under the bound")
        elif kind == "intervention":
            interventions += 1
            if interventions > budget:
                fail(k, f"interventions exceed the budget of {budget}")
            observed_since_mark = False

    problem = _trace_end_problem(log, config.wound.n_target_sutures)
    if problem is not None:
        raise TraceInvariantError(f"trial {log.trial}: {problem}")

