"""Monte Carlo trial runner: ablation presets, metrics, logs, reports.

A trial is one wound (six throws unless configured otherwise) driven by
the per-suture state machine until closure or an unrecoverable error.
Everything downstream of the seed is deterministic, so experiment logs
are byte-reproducible: records carry simulation clock only, never wall
time.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

from .controller import NEXT_STATE, ControllerParams, PipelineState, PrimitiveSet, run_suture
from .perception import NeedleSpec, NoiseModel, RansacParams
from .simworld import (
    SIM_CIRCLE_RANSAC,
    SIM_CLOUD_POINTS,
    SIM_NOISE,
    SIM_RANSAC,
    FailureModel,
    ThreadState,
    TimingModel,
    WoundSpec,
    make_world,
    make_wound,
)

LOG_FORMAT_VERSION = 2

#: preset name -> (enabled primitives, human-intervention budget)
PRESETS: dict[str, tuple[PrimitiveSet, int]] = {
    "sensing_only": (PrimitiveSet(sweep=False, cinch=False, correction=False), 0),
    "thread_handling": (PrimitiveSet(sweep=True, cinch=True, correction=False), 0),
    "stitch": (PrimitiveSet(sweep=True, cinch=True, correction=True), 0),
    "stitch_human": (PrimitiveSet(sweep=True, cinch=True, correction=True), 2),
}


class HarnessError(RuntimeError):
    """Base class for experiment-harness failures."""


class LogFormatError(HarnessError):
    """A persisted log file does not parse; message names the line."""


class TraceInvariantError(HarnessError):
    """An event trace violates a structural invariant."""


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment needs, in one bag."""

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
        if self.n_cloud_points < 1:
            raise ValueError("n_cloud_points must be >= 1")
        if not (self.thread_length > 0.0):
            raise ValueError("thread_length must be positive")

    @property
    def primitives(self) -> PrimitiveSet:
        return PRESETS[self.preset][0]

    @property
    def intervention_budget(self) -> int:
        return PRESETS[self.preset][1]


@dataclass
class TrialLog:
    """One trial's identity, outcome, and full ordered event trace."""

    trial: int
    seed: int
    preset: str
    status: str  # "wound_closed" | "failed"
    error: str | None  # I/E/H/T letter when status == "failed"
    sutures_completed: int
    elapsed: float  # simulation seconds
    events: list

    def __post_init__(self):
        if self.status not in ("wound_closed", "failed"):
            raise ValueError(f"unknown terminal status {self.status!r}")
        if self.sutures_completed < 0:
            raise ValueError(f"negative sutures_completed {self.sutures_completed}")


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
    enabled, budget = PRESETS[config.preset]
    world = make_world(
        seed=seed,
        spec=config.needle,
        wound=config.wound,
        failures=replace(config.failures, intervention_budget=budget),
        timing=config.timing,
        noise=config.noise,
        ransac=config.ransac,
        circle_ransac=config.circle_ransac,
        thread=ThreadState(total_length=config.thread_length),
        n_cloud_points=config.n_cloud_points,
    )
    status, error, completed = "wound_closed", None, 0
    for i in range(1, config.wound.n_target_sutures + 1):
        outcome = run_suture(world, config.controller, i, enabled)
        if outcome.state_after is not PipelineState.DONE:
            status = "failed"
            error = outcome.error.value if outcome.error else None
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


def run_experiment(config: ExperimentConfig) -> list[TrialLog]:
    """All of iter_trials' trials, in a list."""
    return list(iter_trials(config))


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
        self.error_counts = {"I": 0, "E": 0, "H": 0, "T": 0}
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
# Persistence: line-delimited JSON, one record per line


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_logs(logs: Iterable[TrialLog], path, n_trials: int | None = None) -> None:
    """Write a header announcing n_trials, then each trial as it arrives.

    `logs` may be any iterable, consumed once; n_trials defaults to
    len(logs). A run that dies mid-sweep leaves a log whose trial count
    falls short of its header, which read_logs rejects.
    """
    if n_trials is None:
        n_trials = len(logs)
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({"record": "header", "version": LOG_FORMAT_VERSION, "n_trials": n_trials}) + "\n")
        for log in logs:
            written += 1
            fh.write(
                _dump(
                    {
                        "record": "trial_start",
                        "trial": log.trial,
                        "seed": log.seed,
                        "preset": log.preset,
                    }
                )
                + "\n"
            )
            for event in log.events:
                fh.write(_dump({"record": "event", "trial": log.trial, "data": event}) + "\n")
            fh.write(
                _dump(
                    {
                        "record": "trial_end",
                        "trial": log.trial,
                        "status": log.status,
                        "error": log.error,
                        "sutures_completed": log.sutures_completed,
                        "elapsed": log.elapsed,
                    }
                )
                + "\n"
            )
    if written != n_trials:
        raise HarnessError(f"{path}: header announces {n_trials} trials but {written} were written")


# record kind -> {field: accepted JSON types}; bool is never accepted for a number
_TRIAL_START_FIELDS = {"trial": (int,), "seed": (int,), "preset": (str,)}
_EVENT_FIELDS = {"data": (dict,)}
_TRIAL_END_FIELDS = {
    "status": (str,),
    "error": (str, type(None)),
    "sutures_completed": (int,),
    "elapsed": (int, float),
}


def _check_fields(record: dict, fields: dict, lineno: int) -> None:
    for name, types in fields.items():
        value = record.get(name)
        if type(value) not in types:
            state = "missing" if name not in record else f"bad ({value!r:.40})"
            raise LogFormatError(f"line {lineno}: {record['record']} field {name!r} {state}")


def iter_logs(path) -> Iterator[TrialLog]:
    """Parse a log one trial at a time, yielding each at its trial_end.

    Only the open trial's events are held. The header's trial count is
    checked once the file ends, so a consumer that tallies before it
    prints shows nothing for a log cut at a trial boundary.
    """
    open_trial: dict | None = None
    events: list = []
    n_trials: int | None = None
    read = 0
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise LogFormatError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
            if type(record) is not dict:
                raise LogFormatError(f"line {lineno}: expected a JSON object, got {raw[:40]!r}")
            kind = record.get("record")
            if n_trials is None:
                # the first non-blank record must be the header
                if kind != "header":
                    raise LogFormatError(f"line {lineno}: expected header record, got {kind!r}")
                if record.get("version") != LOG_FORMAT_VERSION:
                    raise LogFormatError(
                        f"line {lineno}: unsupported log version {record.get('version')!r}"
                    )
                n_trials = record.get("n_trials")
                if type(n_trials) is not int or n_trials < 0:
                    raise LogFormatError(f"line {lineno}: bad trial count {n_trials!r} in header")
                continue
            if kind == "trial_start":
                if open_trial is not None:
                    raise LogFormatError(
                        f"line {lineno}: trial_start while trial {open_trial['trial']} is open"
                    )
                _check_fields(record, _TRIAL_START_FIELDS, lineno)
                open_trial = record
                events = []
            elif kind == "event":
                if open_trial is None or record.get("trial") != open_trial["trial"]:
                    raise LogFormatError(f"line {lineno}: event outside its trial")
                _check_fields(record, _EVENT_FIELDS, lineno)
                events.append(record["data"])
            elif kind == "trial_end":
                if open_trial is None or record.get("trial") != open_trial["trial"]:
                    raise LogFormatError(f"line {lineno}: trial_end without matching trial_start")
                _check_fields(record, _TRIAL_END_FIELDS, lineno)
                try:
                    log = TrialLog(
                        trial=open_trial["trial"],
                        seed=open_trial["seed"],
                        preset=open_trial["preset"],
                        status=record["status"],
                        error=record["error"],
                        sutures_completed=record["sutures_completed"],
                        elapsed=record["elapsed"],
                        events=events,
                    )
                except ValueError as exc:
                    raise LogFormatError(f"line {lineno}: {exc}") from exc
                read += 1
                yield log
                open_trial = None
            elif kind == "header":
                raise LogFormatError(f"line {lineno}: duplicate header")
            else:
                raise LogFormatError(f"line {lineno}: unknown record type {kind!r}")
    if n_trials is None:
        raise LogFormatError("line 1: empty file (missing header)")
    if open_trial is not None:
        raise LogFormatError(
            f"line {lineno}: file ends inside trial {open_trial['trial']} (truncated?)"
        )
    if read != n_trials:
        raise LogFormatError(
            f"line {lineno}: file ends after {read} trials, header announces {n_trials} (truncated?)"
        )


def read_logs(path) -> list[TrialLog]:
    """All of iter_logs' trials, in a list."""
    return list(iter_logs(path))


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
    "errors_I",
    "errors_E",
    "errors_H",
    "errors_T",
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
        str(m.error_counts.get("I", 0)),
        str(m.error_counts.get("E", 0)),
        str(m.error_counts.get("H", 0)),
        str(m.error_counts.get("T", 0)),
        format_mean(m.mean_sutures_to_intervention),
    ]


def report_render(metrics, format: str = "table") -> str:
    """Render one report or an ordered {name: report} mapping.

    `table` is aligned plain text; `csv` adds the sutures-to-failure
    histogram as trailing hist_<k> columns (one data row per preset).
    """
    if isinstance(metrics, MetricsReport):
        metrics = {"all": metrics}
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


_STATES = [s.value for s in PipelineState]
_FORWARD = {a.value: b.value for a, b in NEXT_STATE.items()}
_RETRYABLE = ("extraction", "handover")


def validate_event_trace(
    log: TrialLog,
    controller: ControllerParams | None = None,
    budget: int | None = None,
    n_sutures: int = 6,
) -> None:
    """Check a trial trace against the structural invariants.

    Raises TraceInvariantError naming the first violated rule: monotone
    ids/clock, legal state-machine edges only, per-phase retry bounds,
    every successful grasp gated by a fresh successful observation,
    exact cinch arithmetic, strict jitter bound, intervention budget,
    and a terminal record consistent with the trial status.
    """
    params = controller or ControllerParams()

    def fail(lineno: int, rule: str) -> None:
        raise TraceInvariantError(f"trial {log.trial}, event {lineno}: {rule}")

    last_t = -math.inf
    retries: dict[tuple, int] = {}
    attempt_no = 0  # a fresh attempt (post-intervention) gets a fresh retry budget
    interventions = 0
    observed_since_mark = False
    closed = 0
    last_terminal = None

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
            if frm not in _STATES or to not in _STATES:
                fail(k, f"transition between unknown states {frm!r} -> {to!r}")
            legal = (
                _FORWARD.get(frm) == to
                or to == "failed"
                or (frm == "failed" and to == "insertion")
                or (frm == to and frm in _RETRYABLE)
            )
            if not legal:
                fail(k, f"illegal transition {frm} -> {to}")
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
            last_terminal = None
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
            if budget is not None and interventions > budget:
                fail(k, f"interventions exceed the budget of {budget}")
            observed_since_mark = False
        elif kind == "suture_closed":
            closed += 1
            last_terminal = "closed"
        elif kind == "suture_failed":
            last_terminal = ("failed", event.get("error"))

    if log.status == "wound_closed":
        if last_terminal != "closed" or closed != n_sutures:
            raise TraceInvariantError(
                f"trial {log.trial}: wound_closed status but {closed} closures"
            )
    else:
        if not isinstance(last_terminal, tuple):
            raise TraceInvariantError(
                f"trial {log.trial}: failed status but the trace does not end in a failure"
            )
        if last_terminal[1] != log.error:
            raise TraceInvariantError(
                f"trial {log.trial}: status error {log.error!r} != trace error {last_terminal[1]!r}"
            )
    if log.sutures_completed != closed:
        raise TraceInvariantError(
            f"trial {log.trial}: sutures_completed={log.sutures_completed} but trace closed {closed}"
        )
