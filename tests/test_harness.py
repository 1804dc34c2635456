import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from suturesim import cli
from suturesim import config as cf
from suturesim import harness as hn
from suturesim import perception as pc
from suturesim.config import ConfigError, apply_overrides, config_from_dict, load_config
from suturesim.controller import TRANSITIONS, PipelineState
from suturesim.harness import (
    PRESETS,
    ExperimentConfig,
    MetricsReport,
    TraceInvariantError,
    compute_metrics,
    format_mean,
    format_rate,
    format_time,
    iter_trials,
    report_render,
    validate_event_trace,
)
from suturesim.simworld import FailureModel, InvariantViolation, NoiseModel
from suturesim.triallog import RECORDS, LogFormatError, TrialLog, iter_logs, write_logs

ZERO_NOISE = NoiseModel(
    gaussian_sigma=0.0, outlier_fraction=0.0, dropout_fraction=0.0, occlusion_arc=0.0
)

NO_FAILURES = FailureModel(
    grasp_miss_base=0.0,
    grasp_miss_per_mm_pose_error=0.0,
    entanglement_prob_unswept=0.0,
    entanglement_prob_swept=0.0,
    insertion_slip_prob=0.0,
    perception_corruption_prob=0.0,
)


def fast_config(**kwargs):
    kwargs.setdefault("n_trials", 3)
    kwargs.setdefault("ransac", pc.RansacParams(iterations=60))
    kwargs.setdefault(
        "circle_ransac",
        pc.RansacParams(iterations=60, inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD),
    )
    kwargs.setdefault("n_cloud_points", 100)
    return ExperimentConfig(**kwargs)


def fake_log(trial, completed, status, error=None, events=None, elapsed=100.0):
    return TrialLog(
        trial=trial,
        seed=trial,
        preset="stitch",
        status=status,
        error=error,
        sutures_completed=completed,
        elapsed=elapsed,
        events=events if events is not None else [],
    )


# ---------------------------------------------------------------------------
# presets and config dataclass


def test_preset_table():
    assert set(PRESETS) == {"sensing_only", "thread_handling", "stitch", "stitch_human"}
    assert PRESETS["sensing_only"][1] == 0
    assert PRESETS["stitch"][1] == 0
    assert PRESETS["stitch_human"][1] == 2
    optional = {PipelineState.SWEEP, PipelineState.CINCH, PipelineState.POSE_CORRECTION}
    assert PRESETS["sensing_only"][0] == optional
    assert PRESETS["thread_handling"][0] == {PipelineState.POSE_CORRECTION}
    assert PRESETS["stitch"][0] == PRESETS["stitch_human"][0] == frozenset()


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(preset="nonsense")
    with pytest.raises(ValueError):
        ExperimentConfig(n_trials=0)
    ExperimentConfig(n_cloud_points=hn.MAX_CLOUD_POINTS)  # the cap itself is accepted
    with pytest.raises(ValueError, match="n_cloud_points"):
        ExperimentConfig(n_cloud_points=hn.MAX_CLOUD_POINTS + 1)
    assert ExperimentConfig(preset="stitch_human").preset == "stitch_human"
    skip, budget = PRESETS["stitch_human"]
    assert budget == 2
    assert PipelineState.POSE_CORRECTION not in skip


# ---------------------------------------------------------------------------
# metrics arithmetic


def test_mean_sutures_over_completed_counts():
    logs = [fake_log(i, c, "failed", "I") for i, c in enumerate([1, 2, 3])]
    assert compute_metrics(logs).mean_sutures_to_failure == 2.0


def test_single_suture_rate_from_events():
    events = [{"kind": "suture_attempt"}] * 12 + [{"kind": "suture_closed"}] * 9
    logs = [fake_log(0, 5, "failed", "E", events=events)]
    m = compute_metrics(logs)
    assert m.single_suture_success_rate == 0.75
    assert format_rate(m.single_suture_success_rate) == "75.0%"


def test_table_consistency_case_44_successes_15_trials():
    # 15 trials totalling 44 completed sutures reads back as "2.93"
    completed = [6, 6, 6, 5, 4, 3, 3, 3, 2, 2, 2, 1, 1, 0, 0]
    assert sum(completed) == 44
    logs = [
        fake_log(i, c, "wound_closed" if c == 6 else "failed", None if c == 6 else "H")
        for i, c in enumerate(completed)
    ]
    m = compute_metrics(logs)
    assert m.n_trials == 15
    assert m.mean_sutures_to_failure == pytest.approx(44 / 15)
    assert format_mean(m.mean_sutures_to_failure) == "2.93"
    assert m.full_wound_success_rate == 3 / 15
    assert m.three_throw_success_rate == 8 / 15


def test_rate_formatting_golden():
    assert format_rate(0.6939) == "69.4%"
    assert format_rate(1.0) == "100.0%"
    assert format_rate(None) == "-"
    assert format_mean(None) == "-"
    assert format_time(None) == "-"
    assert format_time(159.34) == "159.3"


def test_error_counts_and_intervention_gaps():
    events = [
        {"kind": "suture_closed"},
        {"kind": "suture_closed"},
        {"kind": "suture_failed", "error": "E"},
        {"kind": "intervention"},
        {"kind": "suture_closed"},
        {"kind": "suture_failed", "error": "T"},
        {"kind": "intervention"},
    ]
    logs = [fake_log(0, 3, "failed", "T", events=events)]
    m = compute_metrics(logs)
    assert m.error_counts == {"I": 0, "E": 1, "H": 0, "T": 1}
    # 2 closed before the first intervention, 1 before the second
    assert m.mean_sutures_to_intervention == 1.5


def test_mean_time_denominator_is_successful_throws():
    events = [{"kind": "suture_closed"}] * 4
    logs = [fake_log(0, 4, "failed", "I", events=events, elapsed=600.0)]
    assert compute_metrics(logs).mean_time_per_suture == 150.0
    no_closes = [fake_log(0, 0, "failed", "I", elapsed=50.0)]
    assert compute_metrics(no_closes).mean_time_per_suture is None


def test_histogram_invariants():
    completed = [0, 1, 1, 3, 6, 6, 6, 2]
    logs = [
        fake_log(i, c, "wound_closed" if c == 6 else "failed", None if c == 6 else "I")
        for i, c in enumerate(completed)
    ]
    m = compute_metrics(logs)
    assert sum(m.histogram) == m.n_trials
    assert len(m.histogram) == 7  # bins 0..6
    hist_mean = sum(k * n for k, n in enumerate(m.histogram)) / m.n_trials
    assert abs(hist_mean - m.mean_sutures_to_failure) < 1e-12
    assert m.full_wound_success_rate <= m.three_throw_success_rate


def test_metrics_reject_empty_input():
    with pytest.raises(hn.HarnessError):
        compute_metrics([])


# ---------------------------------------------------------------------------
# experiment runs


@pytest.fixture(scope="module")
def nominal_logs():
    config = fast_config(preset="stitch", failures=NO_FAILURES, noise=ZERO_NOISE)
    return config, list(iter_trials(config))


def test_zero_noise_trials_all_close(nominal_logs):
    config, logs = nominal_logs
    assert len(logs) == config.n_trials
    assert all(log.status == "wound_closed" for log in logs)
    assert all(log.sutures_completed == 6 for log in logs)
    # trial k is seeded base_seed + k
    assert [log.seed for log in logs] == [config.base_seed + k for k in range(3)]


def test_traces_validate(nominal_logs):
    config, logs = nominal_logs
    for log in logs:
        validate_event_trace(log, config)


def test_tampered_traces_fail_validation(nominal_logs):
    config, logs = nominal_logs
    import copy

    clock_bad = copy.deepcopy(logs[0])
    clock_bad.events[10]["t"] = clock_bad.events[9]["t"] - 5.0
    with pytest.raises(TraceInvariantError):
        validate_event_trace(clock_bad, config)

    hop_bad = copy.deepcopy(logs[0])
    hop = next(e for e in hop_bad.events if e["kind"] == "transition")
    hop["to"] = "handover"
    with pytest.raises(TraceInvariantError):
        validate_event_trace(hop_bad, config)

    beta_bad = copy.deepcopy(logs[0])
    pull = next(e for e in beta_bad.events if e["kind"] == "pull_thread")
    pull["length"] = pull["length"] * 0.5
    with pytest.raises(TraceInvariantError):
        validate_event_trace(beta_bad, config)


def test_transition_edges():
    forward = ["insertion", "sweep", "extraction", "cinch", "handover", "pose_correction", "done"]
    assert TRANSITIONS == {
        *zip(forward, forward[1:]),
        ("extraction", "extraction"),
        ("handover", "handover"),
        *((state, "failed") for state in forward[:-1]),
        ("failed", "insertion"),
    }
    assert len(TRANSITIONS) == 15


@pytest.mark.parametrize(
    "frm,to",
    [
        ("cinch", "cinch"),
        ("insertion", "extraction"),
        ("done", "failed"),
        ("failed", "extraction"),
        ("failed", "failed"),
        ("insertion", "knotting"),
        (["insertion"], "sweep"),
    ],
)
def test_illegal_transitions_fail_validation(nominal_logs, frm, to):
    config, logs = nominal_logs
    import copy

    log = copy.deepcopy(logs[0])
    hop = next(e for e in log.events if e["kind"] == "transition")
    hop["frm"], hop["to"] = frm, to
    with pytest.raises(TraceInvariantError, match="illegal transition"):
        validate_event_trace(log, config)


def test_log_round_trip(tmp_path, nominal_logs):
    _, logs = nominal_logs
    path = tmp_path / "logs.jsonl"
    write_logs(logs, path)
    back = list(iter_logs(path))
    assert len(back) == len(logs)
    for a, b in zip(logs, back):
        assert (a.trial, a.seed, a.preset, a.status, a.error) == (
            b.trial,
            b.seed,
            b.preset,
            b.status,
            b.error,
        )
        assert a.sutures_completed == b.sutures_completed
        assert a.elapsed == b.elapsed
        assert a.events == b.events
    # metrics recomputed from disk match exactly
    assert compute_metrics(back) == compute_metrics(logs)


def test_log_writes_are_byte_identical(tmp_path):
    config = fast_config(preset="sensing_only", n_trials=2, base_seed=17)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_logs(list(iter_trials(config)), p1)
    write_logs(list(iter_trials(config)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def first_trial_end(lines):
    return next(i for i, line in enumerate(lines) if '"record":"trial_end"' in line)


def edit_first_trial_end(old, new):
    def mutate(lines):
        k = first_trial_end(lines)
        assert old in lines[k]
        return lines[:k] + [lines[k].replace(old, new)] + lines[k + 1 :]

    return mutate


def set_first_trial_end_elapsed(raw):
    def mutate(lines):
        k = first_trial_end(lines)
        edited, n = re.subn(r'"elapsed":[^,}]+', f'"elapsed":{raw}', lines[k])
        assert n == 1
        return lines[:k] + [edited] + lines[k + 1 :]

    return mutate


def first_suture_closed(lines):
    return next(i for i, line in enumerate(lines) if '"kind":"suture_closed"' in line)


def tamper_first_suture_closed(edit):
    """Apply edit(lines, k) at the first suture_closed event line k."""

    def mutate(lines):
        return edit(lines, first_suture_closed(lines))

    return mutate


def fail_last_suture_of_first_trial(error, status):
    """Turn the first trial's last suture_closed into a suture_failed
    with error I, and its trial_end into 5 sutures, `error` and `status`."""

    def mutate(lines):
        end = first_trial_end(lines)
        k = max(i for i in range(end) if '"kind":"suture_closed"' in lines[i])
        failed = lines[k].replace('"kind":"suture_closed"', '"error":"I","kind":"suture_failed"')
        trial_end = re.sub(
            r'"error":null,"record":"trial_end","status":"wound_closed","sutures_completed":6',
            f'"error":{error},"record":"trial_end","status":"{status}","sutures_completed":5',
            lines[end],
        )
        assert failed != lines[k] and trial_end != lines[end]
        return lines[:k] + [failed] + lines[k + 1 : end] + [trial_end] + lines[end + 1 :]

    return mutate


def test_log_writes_from_an_iterator_match_a_list(tmp_path, nominal_logs):
    _, logs = nominal_logs
    listed, streamed = tmp_path / "list.jsonl", tmp_path / "iter.jsonl"
    write_logs(logs, listed)
    write_logs(iter(logs), streamed, n_trials=len(logs))
    assert streamed.read_bytes() == listed.read_bytes()
    with pytest.raises(LogFormatError, match="header announces 4 trials but 3"):
        write_logs(iter(logs), tmp_path / "short.jsonl", n_trials=4)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda lines: lines[:25], "truncated"),
        (lambda lines: lines[:1] + ["{oops"] + lines[1:], "line 2: not valid JSON"),
        (lambda lines: lines[1:], "expected header"),
        (lambda lines: lines + [lines[0]], "duplicate header"),
        (lambda lines: [], "empty file"),
        (
            lambda lines: lines[:1]
            + ['{"record":"event","trial":0,"data":{}}']
            + lines[1:],
            "outside its trial",
        ),
        (lambda lines: lines[:1] + ['{"record":"wat"}'] + lines[1:], "unknown record"),
        pytest.param(
            lambda lines: lines[:1] + ['{"record":["x"]}'] + lines[1:],
            "unknown record",
            id="unhashable_record",
        ),
        (lambda lines: lines[: first_trial_end(lines) + 1], "header announces 3"),
        (lambda lines: [lines[0].replace('"n_trials":3', '"n_trials":"3"')] + lines[1:], "bad trial count"),
        (lambda lines: [lines[0].replace('"version":2', '"version":1')] + lines[1:], "line 1: unsupported log version 1"),
        (lambda lines: lines[:1] + ["5"] + lines[1:], "line 2: expected a JSON object"),
        pytest.param(
            lambda lines: lines[:1] + [lines[1].replace("{", '{"junk":[1,2],', 1)] + lines[2:],
            "line 2: trial_start field 'junk' unknown",
            id="unknown_field",
        ),
        (edit_first_trial_end('"status":"wound_closed",', ""), "'status' missing"),
        (
            edit_first_trial_end('"sutures_completed":6', '"sutures_completed":"x"'),
            "'sutures_completed' bad ('x')",
        ),
        (edit_first_trial_end('"sutures_completed":6', '"sutures_completed":-1'), "negative"),
        (edit_first_trial_end('"status":"wound_closed"', '"status":"closed"'), "terminal status"),
        # Each tampered event line shifts the `n` of the line at 0-based
        # index k, the first suture_closed's own place: line k + 1.
        pytest.param(
            tamper_first_suture_closed(lambda lines, k: lines[:k] + lines[k + 1 :]),
            lambda lines: f"line {first_suture_closed(lines) + 1}: event n",
            id="drop_suture_closed",
        ),
        pytest.param(
            tamper_first_suture_closed(lambda lines, k: lines[: k + 1] + lines[k:]),
            lambda lines: f"line {first_suture_closed(lines) + 2}: event n",
            id="duplicate_suture_closed",
        ),
        pytest.param(
            tamper_first_suture_closed(
                lambda lines, k: lines[:k] + [lines[k + 1], lines[k]] + lines[k + 2 :]
            ),
            lambda lines: f"line {first_suture_closed(lines) + 1}: event n",
            id="swap_suture_closed",
        ),
        pytest.param(
            edit_first_trial_end('"sutures_completed":6', '"sutures_completed":5'),
            "sutures_completed 5, but the trial logs 6 suture_closed events",
            id="sutures_completed_mismatch",
        ),
        pytest.param(set_first_trial_end_elapsed("NaN"), "elapsed nan", id="nan_elapsed"),
        pytest.param(set_first_trial_end_elapsed("-1e9"), "elapsed -1000000000.0", id="negative_elapsed"),
        pytest.param(
            edit_first_trial_end(
                '"error":null,"record":"trial_end","status":"wound_closed"',
                '"error":"Z","record":"trial_end","status":"failed"',
            ),
            "failed trial with error 'Z'",
            id="unknown_error_kind",
        ),
        pytest.param(
            edit_first_trial_end('"status":"wound_closed"', '"status":"failed"'),
            "failed trial with error None",
            id="failed_without_error",
        ),
        pytest.param(
            edit_first_trial_end('"error":null', '"error":"I"'),
            "wound_closed trial with error 'I'",
            id="closed_with_error",
        ),
        # A trial_end must agree with its trial's last terminal event.
        pytest.param(
            edit_first_trial_end(
                '"error":null,"record":"trial_end","status":"wound_closed"',
                '"error":"I","record":"trial_end","status":"failed"',
            ),
            "failed status, but the trace does not end in a suture_failed",
            id="failed_after_a_closure",
        ),
        pytest.param(
            fail_last_suture_of_first_trial("null", "wound_closed"),
            "wound_closed status, but the trace does not end in a suture_closed",
            id="closed_after_a_failure",
        ),
        pytest.param(
            fail_last_suture_of_first_trial('"E"', "failed"),
            "status error 'E', but the last suture_failed carries 'I'",
            id="failed_with_another_error",
        ),
    ],
)
def test_malformed_log_files_raise(tmp_path, capsys, nominal_logs, mutate, fragment):
    _, logs = nominal_logs
    path = tmp_path / "logs.jsonl"
    write_logs(logs, path)
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(mutate(lines)) + "\n")
    if callable(fragment):
        fragment = fragment(lines)
    with pytest.raises(LogFormatError) as err:
        list(iter_logs(bad))
    assert fragment in str(err.value)
    assert "line" in str(err.value)
    assert cli.main(["report", "--logs", str(bad)]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err.value}\n"


# ---------------------------------------------------------------------------
# rendering


def golden_report():
    return MetricsReport(
        n_trials=15,
        mean_sutures_to_failure=44 / 15,
        single_suture_success_rate=0.6939,
        three_throw_success_rate=8 / 15,
        full_wound_success_rate=0.2,
        mean_time_per_suture=159.34,
        error_counts={"I": 3, "E": 1, "H": 2, "T": 4},
        mean_sutures_to_intervention=None,
        histogram=[2, 2, 3, 3, 1, 1, 3],
    )


def test_table_render():
    text = report_render({"stitch": golden_report()}, format="table")
    lines = text.splitlines()
    assert lines[0].startswith("preset")
    row = lines[2]
    for cell in ["stitch", "15", "2.93", "69.4%", "53.3%", "20.0%", "159.3", "3", "1", "2", "4", "-"]:
        assert cell in row.split()


def test_csv_render():
    text = report_render({"all": golden_report()}, format="csv")
    header, row = text.strip().splitlines()
    assert header.split(",")[:2] == ["preset", "trials"]
    assert [c for c in header.split(",") if c.startswith("hist_")] == [
        f"hist_{k}" for k in range(7)
    ]
    cells = row.split(",")
    assert cells[0] == "all"
    assert cells[2] == "2.93"
    assert cells[3] == "69.4%"
    assert cells[-7:] == ["2", "2", "3", "3", "1", "1", "3"]


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        report_render({"all": golden_report()}, format="xml")


# ---------------------------------------------------------------------------
# config files


def test_default_yaml_mirrors_shipped_defaults():
    loaded = load_config("configs/default.yaml")
    default = ExperimentConfig()
    assert loaded.preset == default.preset
    assert loaded.n_trials == default.n_trials
    assert loaded.base_seed == default.base_seed
    assert loaded.controller == default.controller
    assert loaded.failures == default.failures
    assert loaded.timing == default.timing
    assert loaded.noise == default.noise
    assert loaded.ransac == default.ransac
    assert loaded.circle_ransac == default.circle_ransac
    assert loaded.needle == default.needle
    assert loaded.n_cloud_points == default.n_cloud_points
    assert loaded.thread_length == default.thread_length
    assert np.array_equal(loaded.wound.entry_points, default.wound.entry_points)
    assert np.array_equal(loaded.wound.exit_points, default.wound.exit_points)


def _dotted_keys(mapping, prefix=""):
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _dotted_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_default_yaml_holds_every_accepted_key_and_no_other():
    tables = {section: table for section, _, table in cf._SECTIONS}
    tables.update(experiment=cf._EXPERIMENT, timing=cf._TIMING_SCALARS, wound=cf._WOUND)
    accepted = {f"{section}.{key}" for section, table in tables.items() for key in table}
    accepted |= {f"timing.durations.{name}" for name in ExperimentConfig().timing.durations}
    with open("configs/default.yaml", encoding="utf-8") as fh:
        template = set(_dotted_keys(yaml.safe_load(fh)))
    assert sorted(accepted - template) == []
    assert sorted(template - accepted) == []


def test_config_from_none_is_default():
    cfg = config_from_dict(None)
    assert cfg.preset == "stitch"
    assert cfg.n_trials == ExperimentConfig().n_trials


def test_degree_fields_convert_to_radians():
    cfg = config_from_dict({"controller": {"insertion_rotation_deg": 60}})
    assert cfg.controller.insertion_rotation == pytest.approx(math.radians(60))
    # Observations are occluded by burial, so no occlusion key is accepted.
    with pytest.raises(ConfigError) as err:
        config_from_dict({"noise": {"occlusion_arc_deg": 90}})
    assert "noise.occlusion_arc_deg" in str(err.value)


def test_unknown_key_is_an_error_with_dotted_path():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"controller": {"max_retrys": 3}})
    assert "controller.max_retrys" in str(err.value)


def test_unknown_section_is_an_error():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"controler": {"max_retries": 3}})
    assert "controler" in str(err.value)


def test_type_errors_name_the_field():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": {"n_trials": "ten"}})
    assert "experiment.n_trials" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": {"n_trials": True}})  # bool is not a count
    with pytest.raises(ConfigError) as err:
        config_from_dict({"failure_model": {"insertion_slip_prob": 1.5}})
    assert "failure_model" in str(err.value)


def test_unknown_preset_in_file():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": {"preset": "warp_speed"}})
    assert "preset" in str(err.value)


def test_timing_durations_validated():
    data = {"timing": {"durations": {"move_to": 4.0}}}
    cfg = config_from_dict(data)
    assert cfg.timing.durations["move_to"] == 4.0
    assert cfg.timing.durations["jaw"] == ExperimentConfig().timing.durations["jaw"]
    # the parsed mapping is read, not consumed: a second load sees the same file
    assert data == {"timing": {"durations": {"move_to": 4.0}}}
    assert config_from_dict(data).timing == cfg.timing
    with pytest.raises(ConfigError) as err:
        config_from_dict({"timing": {"durations": {"teleport": 1.0}}})
    assert "timing.durations.teleport" in str(err.value)


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("experiment: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.yaml")


def test_apply_overrides():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, preset="stitch_human", n_trials=7, base_seed=42)
    assert (out.preset, out.n_trials, out.base_seed) == ("stitch_human", 7, 42)
    assert out.controller == cfg.controller
    assert apply_overrides(cfg) is cfg
    with pytest.raises(ConfigError):
        apply_overrides(cfg, n_trials=0)


# ---------------------------------------------------------------------------
# CLI


def test_cli_synth_then_estimate(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    truth = tmp_path / "truth.json"
    rc = cli.main(
        ["synth", "--out", str(cloud), "--seed", "9", "--truth", str(truth), "--sigma", "0.0002"]
    )
    assert rc == 0
    rc = cli.main(["estimate", str(cloud)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "center" in out and "normal" in out
    want = json.loads(truth.read_text())
    # printed center is close to the generating center
    line = next(l for l in out.splitlines() if l.startswith("center"))
    got = [float(v) for v in line.split()[1:4]]
    assert np.linalg.norm(np.array(got) - np.array(want["center"])) < 1e-3


def test_cli_estimate_prints_the_hypotheses_each_stage_drew(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    assert cli.main(["synth", "--out", str(cloud), "--seed", "9"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["estimate", str(cloud), "--iterations", "300"]) == cli.EXIT_OK
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    for stage in ("plane", "circle"):
        drawn = int(fields[f"{stage}_hypotheses"])
        assert 0 < drawn <= 300


def test_cli_estimate_failure_is_runtime_exit(tmp_path, capsys):
    bad = tmp_path / "two_points.csv"
    bad.write_text("0,0,0\n0.001,0,0\n")
    assert cli.main(["estimate", str(bad)]) == cli.EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_estimate_rejects_non_finite_cloud(tmp_path, capsys, bad):
    cloud = tmp_path / "cloud.csv"
    assert cli.main(["synth", "--out", str(cloud), "--seed", "9"]) == cli.EXIT_OK
    capsys.readouterr()
    lines = cloud.read_text().splitlines()
    lines[5] = f"0.01,{bad},0.02"
    cloud.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["estimate", str(cloud)]) == cli.EXIT_RUNTIME
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 6: non-finite coordinate" in err


def test_cli_bad_config_is_usage_exit(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("controller:\n  max_retries: -3\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "controller" in err


@pytest.mark.parametrize(
    "config_text, flags, field_name",
    [
        ("noise:\n  occlusion_arc_deg: 90\n", [], "noise.occlusion_arc_deg"),
        ("experiment:\n  base_seed: -4\n", [], "experiment.base_seed:"),
        ("", ["--seed", "-1"], "--seed:"),
        ("needle:\n  radius: .inf\n", [], "needle.radius:"),
        ("circle_ransac:\n  inlier_threshold: .inf\n", [], "circle_ransac.inlier_threshold:"),
        ("noise:\n  outlier_box: [.inf, 0.06, 0.06]\n", [], "noise.outlier_box[0]:"),
        ("controller:\n  approach_offset: .inf\n", [], "controller.approach_offset:"),
        ("controller:\n  approach_offset: -1\n", [], "controller.approach_offset:"),
        ("controller:\n  l_des: .inf\n", [], "controller.l_des:"),
        ("noise:\n  gaussian_sigma: .nan\n", [], "noise.gaussian_sigma"),
        ("experiment:\n  thread_length: .inf\n", [], "experiment.thread_length"),
        ("timing:\n  perception_period: .inf\n", [], "timing.perception_period"),
        ("timing:\n  durations:\n    move_to: .inf\n", [], "timing.durations.move_to"),
        ("timing:\n  durations:\n    jaw: -1\n", [], "timing.durations.jaw:"),
        ("wound:\n  ridge_height: .inf\n", [], "wound.ridge_height"),
        ("wound:\n  spacing: .inf\n", [], "wound.spacing"),
        ("controller:\n  correction_corner: [.inf, 0, 0]\n", [], "controller.correction_corner[0]"),
        ("controller:\n  handover_test_offset: [.nan, 0, 0]\n", [], "controller.handover_test_offset[0]"),
        # counts whose up-front arrays no machine holds: rejected before any is built
        ("ransac:\n  iterations: 100000000000000\n", [], "ransac.iterations:"),
        ("circle_ransac:\n  iterations: 123456789012345678901234\n", [], "circle_ransac.iterations:"),
        ("experiment:\n  n_cloud_points: 1000000000000\n", [], "experiment.n_cloud_points:"),
        ("", ["--trials", "0"], "--trials:"),
    ],
    ids=[
        "occlusion_key",
        "config_seed",
        "flag_seed",
        "infinite_radius",
        "infinite_threshold",
        "infinite_outlier_box",
        "infinite_approach_offset",
        "negative_approach_offset",
        "infinite_l_des",
        "nan_gaussian_sigma",
        "infinite_thread_length",
        "infinite_perception_period",
        "infinite_duration",
        "negative_duration",
        "infinite_ridge_height",
        "infinite_spacing",
        "infinite_correction_corner",
        "nan_handover_test_offset",
        "huge_iterations",
        "24_digit_iterations",
        "huge_cloud",
        "flag_trials",
    ],
)
def test_cli_config_rejected_at_load_is_usage_exit(tmp_path, capsys, config_text, flags, field_name):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config_text)
    rc = cli.main(["simulate", "--config", str(cfg), "--trials", "1", *flags])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and field_name in captured.err
    assert captured.err.count("\n") == 1


def test_config_error_names_the_section_when_only_a_combination_fails():
    # each value passes against the other's default; together swept > unswept
    with pytest.raises(ConfigError, match=r"^failure_model: sweeping must not increase"):
        config_from_dict(
            {"failure_model": {"entanglement_prob_unswept": 0.1, "entanglement_prob_swept": 0.2}}
        )
    with pytest.raises(ConfigError, match=r"^failure_model\.entanglement_prob_swept: sweeping"):
        config_from_dict({"failure_model": {"entanglement_prob_swept": 0.5}})


def test_cli_missing_logs_is_runtime_exit(tmp_path, capsys):
    assert cli.main(["report", "--logs", str(tmp_path / "none.jsonl")]) == cli.EXIT_RUNTIME
    capsys.readouterr()


def test_cli_bad_argument_value_is_usage_exit(tmp_path, capsys):
    rc = cli.main(["synth", "--out", str(tmp_path / "c.csv"), "--sigma", "-1"])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gaussian_sigma" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--sigma", "nan", "gaussian_sigma"),
        ("--sigma", "inf", "gaussian_sigma"),
        ("--occlusion-deg", "nan", "occlusion_arc"),
    ],
)
def test_cli_synth_rejects_non_finite_noise(tmp_path, capsys, flag, value, name):
    rc = cli.main(["synth", "--out", str(tmp_path / "c.csv"), flag, value])
    assert rc == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad argument: ") and name in err and err.count("\n") == 1
    assert not (tmp_path / "c.csv").exists()


def test_cli_estimate_negative_seed_is_usage_exit(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    assert cli.main(["synth", "--out", str(cloud), "--seed", "9"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["estimate", str(cloud), "--seed", "-1"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad argument: ") and err.count("\n") == 1


def test_cli_estimate_iterations_past_the_cap_is_usage_exit(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    assert cli.main(["synth", "--out", str(cloud), "--seed", "9"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["estimate", str(cloud), "--iterations", "100000000000000"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad argument: ") and "iterations" in err and err.count("\n") == 1


def test_cli_estimate_out_of_memory_is_runtime_exit(tmp_path, capsys, monkeypatch):
    # An estimate that runs out of memory on an oversized cloud file; the
    # allocation failure is raised here without allocating.
    cloud = tmp_path / "cloud.csv"
    assert cli.main(["synth", "--out", str(cloud), "--seed", "9"]) == cli.EXIT_OK
    capsys.readouterr()

    def oversized(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setattr(pc, "estimate_pose", oversized)
    assert cli.main(["estimate", str(cloud)]) == cli.EXIT_RUNTIME
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("trials", ["1", "4"])  # 4 trials raise in pool workers
def test_cli_invariant_violation_is_runtime_exit(tmp_path, capsys, monkeypatch, trials):
    def broken_trial(config, trial_index):
        raise InvariantViolation("dual grasp outside handover window")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(hn, "run_trial", broken_trial)
    rc = cli.main(["simulate", "--preset", "sensing_only", "--trials", trials])
    assert rc == cli.EXIT_RUNTIME
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dual grasp outside handover window\n"


def test_cli_report_rejects_log_cut_at_trial_boundary(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    argv = ["simulate", "--preset", "sensing_only", "--trials", "2", "--out", str(log)]
    assert cli.main(argv) == cli.EXIT_OK
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[: first_trial_end(lines) + 1]) + "\n")
    capsys.readouterr()

    assert cli.main(["report", "--logs", str(log)]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ") and "header announces 2" in captured.err


def test_cli_log_writes_booleans_as_json_booleans(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    argv = ["simulate", "--preset", "stitch", "--trials", "1", "--seed", "0", "--out", str(log)]
    assert cli.main(argv) == cli.EXIT_OK
    text = log.read_text()
    assert '"ok":true' in text
    assert '"ok":1' not in text


def test_cli_log_lines_hold_exactly_their_record_fields(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    argv = ["simulate", "--preset", "sensing_only", "--trials", "3", "--out", str(log)]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert {r["record"] for r in records} == set(RECORDS)
    for record in records:
        assert set(record) == {"record", *RECORDS[record["record"]]}


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "bogus"])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_cli_simulate_writes_logs_and_reports(tmp_path, capsys):
    logs = tmp_path / "run.jsonl"
    argv = [
        "simulate",
        "--preset",
        "sensing_only",
        "--trials",
        "2",
        "--seed",
        "3",
        "--out",
        str(logs),
    ]
    assert cli.main(argv) == 0
    table = capsys.readouterr().out
    assert "sensing_only" in table
    assert logs.exists()

    assert cli.main(["report", "--logs", str(logs), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0].startswith("preset,")
    assert "hist_0" in csv_text


def test_cli_runs_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    base = ["simulate", "--preset", "sensing_only", "--trials", "2", "--seed", "11"]
    assert cli.main(base + ["--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert cli.main(base + ["--out", str(out2)]) == 0
    second = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert first == second


def test_cli_sweep_memory_does_not_grow_with_trial_count(tmp_path, capsys):
    # simulate writes each trial as it finishes and report reads the log one
    # trial at a time, so a 16-trial sweep peaks about where a 4-trial one does
    def peak_kib(argv):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        return (tracemalloc.get_traced_memory()[1] - base) / 1024

    def sweep(n):
        log = tmp_path / f"{n}.jsonl"
        simulate = peak_kib(
            ["simulate", "--preset", "stitch_human", "--trials", str(n), "--out", str(log)]
        )
        return simulate, peak_kib(["report", "--logs", str(log)])

    tracemalloc.start()
    try:
        sweep(1)  # warm-up: first-call allocations do not count against either size
        small, large = sweep(4), sweep(16)
    finally:
        tracemalloc.stop()
    for command, a, b in zip(("simulate", "report"), small, large):
        assert b <= 1.5 * a, f"{command}: {a:.0f} KiB at 4 trials, {b:.0f} KiB at 16"


def test_serial_and_parallel_sweeps_match(tmp_path, capsys, monkeypatch):
    # one CPU runs the trials in this process; three run them in a pool
    parent, real_trial = os.getpid(), hn.run_trial
    outputs = {}
    for cpus in (1, 3):

        def located_trial(config, trial_index, serial=cpus == 1):
            assert (os.getpid() == parent) == serial
            return real_trial(config, trial_index)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        monkeypatch.setattr(hn, "run_trial", located_trial)
        log = tmp_path / f"{cpus}.jsonl"
        argv = ["simulate", "--preset", "stitch_human", "--trials", "6", "--out", str(log)]
        assert cli.main(argv) == cli.EXIT_OK
        outputs[cpus] = (log.read_bytes(), capsys.readouterr().out)
        assert multiprocessing.active_children() == []
    assert outputs[1] == outputs[3]

    trials = hn.iter_trials(fast_config(preset="sensing_only", n_trials=6))
    assert next(trials).trial == 0
    trials.close()
    assert multiprocessing.active_children() == []


def test_loading_a_config_imports_no_multiprocessing():
    # the pool's modules are imported by a parallel sweep, not at start-up
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys, suturesim; suturesim.load_config('configs/default.yaml'); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("spacing, code", [(0.044, cli.EXIT_OK), (0.046, cli.EXIT_USAGE)])
def test_wound_whose_thread_sweep_leaves_the_workspace_is_rejected_at_load(tmp_path, capsys, spacing, code):
    # at 0.046 m the sweep starts at y = -0.125, past the workspace's -0.12
    cfg = tmp_path / "long.yaml"
    cfg.write_text(f"wound:\n  spacing: {spacing}\n")
    assert cli.main(["simulate", "--config", str(cfg), "--preset", "stitch", "--trials", "4"]) == code
    captured = capsys.readouterr()
    if code == cli.EXIT_USAGE:
        assert captured.out == ""
        assert captured.err.startswith("error: wound") and captured.err.count("\n") == 1
        assert "thread sweep" in captured.err


@pytest.mark.parametrize(
    "section,field,value",
    [("wound", "ridge_half_width", 0.013), ("needle", "radius", 0.004)],
)
def test_wound_the_needle_cannot_span_is_rejected_at_load(tmp_path, capsys, section, field, value):
    with pytest.raises(ConfigError, match="exceeds the needle diameter"):
        config_from_dict({section: {field: value}})
    cfg = tmp_path / "wide.yaml"
    cfg.write_text(f"{section}:\n  {field}: {value}\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{section}.{field}" in captured.err
