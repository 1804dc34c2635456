"""The trial log: its records, its error letters, and its writer and reader.

A log is line-delimited JSON, one record per line: a header announcing
the trial count, then for each trial a trial_start, one event line per
event and a trial_end. RECORDS names each record's fields and the JSON
types they accept; write_logs writes every record from it and iter_logs
checks every record against it. Records carry simulation clock only,
never wall time, so a seeded experiment's log is byte-reproducible.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

LOG_FORMAT_VERSION = 2


class ErrorKind(Enum):
    INSERTION = "I"
    EXTRACTION = "E"
    HANDOVER = "H"
    THREAD = "T"


class LogFormatError(RuntimeError):
    """A log file that does not parse, or a write that falls short of its
    header; the message names the line or the file."""


# record kind -> {field: accepted JSON types}; bool is never accepted for a number
RECORDS = {
    "header": {"version": (int,), "n_trials": (int,)},
    "trial_start": {"trial": (int,), "seed": (int,), "preset": (str,)},
    "event": {"trial": (int,), "data": (dict,)},
    "trial_end": {
        "trial": (int,),
        "status": (str,),
        "error": (str, type(None)),
        "sutures_completed": (int,),
        "elapsed": (int, float),
    },
}

# terminal status -> the errors a trial that ends in it may carry
_STATUS_ERRORS = {
    "wound_closed": frozenset([None]),
    "failed": frozenset(kind.value for kind in ErrorKind),
}


@dataclass
class TrialLog:
    """One trial's identity, outcome, and full ordered event trace."""

    trial: int
    seed: int
    preset: str
    status: str  # "wound_closed" | "failed"
    error: str | None  # an ErrorKind value when status == "failed"
    sutures_completed: int
    elapsed: float  # simulation seconds, finite and >= 0
    events: list

    def __post_init__(self):
        errors = _STATUS_ERRORS.get(self.status)
        if errors is None:
            raise ValueError(f"unknown terminal status {self.status!r}")
        if self.error not in errors:
            raise ValueError(f"{self.status} trial with error {self.error!r:.40}")
        if self.sutures_completed < 0:
            raise ValueError(f"negative sutures_completed {self.sutures_completed}")
        if not (0.0 <= self.elapsed < math.inf):
            raise ValueError(f"elapsed {self.elapsed!r} is not a finite, non-negative time")


# The fields a TrialLog is built from: its trial_start's and trial_end's.
_TRIAL_FIELDS = RECORDS["trial_start"].keys() | RECORDS["trial_end"].keys()


# ---------------------------------------------------------------------------
# Events


def _jsonable(value):
    """Coerce a payload value into plain JSON-serializable Python."""
    if isinstance(value, np.ndarray):
        return value.astype(float, copy=False).ravel().tolist()
    if isinstance(value, (bool, np.bool_)):  # before int: bool subclasses int
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def event_record(n: int, t: float, kind: str, context: dict, payload: dict) -> dict:
    """One event: its index n, clock t and kind, then the context's fields,
    then the payload's, which win on a shared name; values as plain JSON."""
    event = {"n": n, "t": t, "kind": kind}
    event.update({k: _jsonable(v) for k, v in context.items()})
    event.update({k: _jsonable(v) for k, v in payload.items()})
    return event


# ---------------------------------------------------------------------------
# Writing


def _line(kind: str, **values) -> str:
    record = {name: values[name] for name in RECORDS[kind]}
    record["record"] = kind
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def write_logs(logs: Iterable[TrialLog], path, n_trials: int | None = None) -> None:
    """Write a header announcing n_trials, then each trial as it arrives.

    `logs` may be any iterable, consumed once; n_trials defaults to
    len(logs). A run that dies mid-sweep leaves a log whose trial count
    falls short of its header, which iter_logs rejects.
    """
    if n_trials is None:
        n_trials = len(logs)
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_line("header", version=LOG_FORMAT_VERSION, n_trials=n_trials))
        for log in logs:
            written += 1
            fh.write(_line("trial_start", **vars(log)))
            for event in log.events:
                fh.write(_line("event", trial=log.trial, data=event))
            fh.write(_line("trial_end", **vars(log)))
    if written != n_trials:
        raise LogFormatError(f"{path}: header announces {n_trials} trials but {written} were written")


# ---------------------------------------------------------------------------
# Reading


def _check_fields(record: dict, lineno: int) -> None:
    fields = RECORDS[record["record"]]
    for name, types in fields.items():
        value = record.get(name)
        if type(value) not in types:
            state = "missing" if name not in record else f"bad ({value!r:.40})"
            raise LogFormatError(f"line {lineno}: {record['record']} field {name!r} {state}")
    for name in record:
        if name != "record" and name not in fields:
            raise LogFormatError(f"line {lineno}: {record['record']} field {name!r:.40} unknown")


def iter_logs(path) -> Iterator[TrialLog]:
    """Parse a log one trial at a time, yielding each at its trial_end.

    Every record must hold exactly its RECORDS fields, each of its
    RECORDS types. Only the open
    trial's events are held. Each event's `n` must be its index within
    its trial, and each trial_end must agree with the end of its trial's
    trace (_trace_end_problem), so a dropped, duplicated or reordered
    event line, or a relabelled outcome, is refused. A trial_end's error
    must fit its status, and its elapsed be finite and non-negative
    (TrialLog). The header's trial count is checked once the file ends,
    so a consumer that tallies before it prints shows nothing for a log
    cut at a trial boundary.
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
                announced = record.get("n_trials")
                if type(announced) is not int or announced < 0:
                    raise LogFormatError(f"line {lineno}: bad trial count {announced!r} in header")
            elif type(kind) is not str or kind not in RECORDS:  # a JSON list is unhashable
                raise LogFormatError(f"line {lineno}: unknown record type {kind!r}")
            elif kind == "header":
                raise LogFormatError(f"line {lineno}: duplicate header")
            elif kind == "trial_start" and open_trial is not None:
                raise LogFormatError(
                    f"line {lineno}: trial_start while trial {open_trial['trial']} is open"
                )
            elif kind != "trial_start" and (
                open_trial is None or record.get("trial") != open_trial["trial"]
            ):
                raise LogFormatError(f"line {lineno}: {kind} outside its trial")
            _check_fields(record, lineno)

            if kind == "header":
                n_trials = record["n_trials"]
            elif kind == "trial_start":
                open_trial, events = record, []
            elif kind == "event":
                data = record["data"]
                n = data.get("n")
                if type(n) is not int or n != len(events):
                    raise LogFormatError(f"line {lineno}: event n {n!r:.40}, expected {len(events)}")
                events.append(data)
            else:
                fields = {**open_trial, **record}
                try:
                    log = TrialLog(events=events, **{name: fields[name] for name in _TRIAL_FIELDS})
                except ValueError as exc:
                    raise LogFormatError(f"line {lineno}: {exc}") from exc
                problem = _trace_end_problem(log)
                if problem is not None:
                    raise LogFormatError(f"line {lineno}: {problem}")
                read += 1
                yield log
                open_trial = None
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


def _trace_end_problem(log: TrialLog, n_sutures: int | None = None) -> str | None:
    """What contradicts the trial's outcome at the end of its trace, or None.

    sutures_completed must be the trace's count of suture_closed events,
    and the status must match the trial's last terminal event: the last
    suture_closed or suture_failed after its last suture_attempt. A
    wound_closed trial ends in suture_closed, with n_sutures closures
    when n_sutures is given; a failed one ends in a suture_failed that
    carries the trial's error.
    """
    closed = 0
    last = {}  # the last terminal event, or {} when there is none
    for event in log.events:
        kind = event.get("kind")
        if kind == "suture_attempt":
            last = {}
        elif kind in ("suture_closed", "suture_failed"):
            closed += kind == "suture_closed"
            last = event
    last_kind = last.get("kind")
    if log.sutures_completed != closed:
        return f"sutures_completed {log.sutures_completed}, but the trial logs {closed} suture_closed events"
    if log.status == "wound_closed":
        if last_kind != "suture_closed":
            return "wound_closed status, but the trace does not end in a suture_closed"
        if n_sutures is not None and closed != n_sutures:
            return f"wound_closed status, but {closed} of {n_sutures} sutures closed"
    elif last_kind != "suture_failed":
        return "failed status, but the trace does not end in a suture_failed"
    elif last.get("error") != log.error:
        return f"status error {log.error!r}, but the last suture_failed carries {last.get('error')!r}"
    return None
