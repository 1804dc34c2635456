import json
import math
import multiprocessing
import os
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
from suturesim.harness import (
    PRESETS,
    ExperimentConfig,
    LogFormatError,
    MetricsReport,
    TraceInvariantError,
    TrialLog,
    compute_metrics,
    format_mean,
    format_rate,
    format_time,
    read_logs,
    report_render,
    run_experiment,
    validate_event_trace,
    write_logs,
)
from suturesim.simworld import FailureModel, InvariantViolation, NoiseModel, make_world

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
    intervention_budget=0,
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
    prims = PRESETS["sensing_only"][0]
    assert not prims.sweep and not prims.cinch and not prims.correction
    prims = PRESETS["thread_handling"][0]
    assert prims.sweep and prims.cinch and not prims.correction
    assert all(PRESETS["stitch"][0] == PRESETS["stitch_human"][0] for _ in [0])


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(preset="nonsense")
    with pytest.raises(ValueError):
        ExperimentConfig(n_trials=0)
    cfg = ExperimentConfig(preset="stitch_human")
    assert cfg.intervention_budget == 2
    assert cfg.primitives.correction


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
    return config, run_experiment(config)


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
        validate_event_trace(log, controller=config.controller, budget=0)


def test_tampered_traces_fail_validation(nominal_logs):
    config, logs = nominal_logs
    import copy

    clock_bad = copy.deepcopy(logs[0])
    clock_bad.events[10]["t"] = clock_bad.events[9]["t"] - 5.0
    with pytest.raises(TraceInvariantError):
        validate_event_trace(clock_bad, controller=config.controller, budget=0)

    hop_bad = copy.deepcopy(logs[0])
    hop = next(e for e in hop_bad.events if e["kind"] == "transition")
    hop["to"] = "handover"
    with pytest.raises(TraceInvariantError):
        validate_event_trace(hop_bad, controller=config.controller, budget=0)

    beta_bad = copy.deepcopy(logs[0])
    pull = next(e for e in beta_bad.events if e["kind"] == "pull_thread")
    pull["length"] = pull["length"] * 0.5
    with pytest.raises(TraceInvariantError):
        validate_event_trace(beta_bad, controller=config.controller, budget=0)


def test_log_round_trip(tmp_path, nominal_logs):
    _, logs = nominal_logs
    path = tmp_path / "logs.jsonl"
    write_logs(logs, path)
    back = read_logs(path)
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
    write_logs(run_experiment(config), p1)
    write_logs(run_experiment(config), p2)
    assert p1.read_bytes() == p2.read_bytes()


def first_trial_end(lines):
    return next(i for i, line in enumerate(lines) if '"record":"trial_end"' in line)


def edit_first_trial_end(old, new):
    def mutate(lines):
        k = first_trial_end(lines)
        assert old in lines[k]
        return lines[:k] + [lines[k].replace(old, new)] + lines[k + 1 :]

    return mutate


def test_log_writes_from_an_iterator_match_a_list(tmp_path, nominal_logs):
    _, logs = nominal_logs
    listed, streamed = tmp_path / "list.jsonl", tmp_path / "iter.jsonl"
    write_logs(logs, listed)
    write_logs(iter(logs), streamed, n_trials=len(logs))
    assert streamed.read_bytes() == listed.read_bytes()
    with pytest.raises(hn.HarnessError, match="header announces 4 trials but 3"):
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
        (lambda lines: lines[: first_trial_end(lines) + 1], "header announces 3"),
        (lambda lines: [lines[0].replace('"n_trials":3', '"n_trials":"3"')] + lines[1:], "bad trial count"),
        (lambda lines: [lines[0].replace('"version":2', '"version":1')] + lines[1:], "line 1: unsupported log version 1"),
        (lambda lines: lines[:1] + ["5"] + lines[1:], "line 2: expected a JSON object"),
        (edit_first_trial_end('"status":"wound_closed",', ""), "'status' missing"),
        (
            edit_first_trial_end('"sutures_completed":6', '"sutures_completed":"x"'),
            "'sutures_completed' bad ('x')",
        ),
        (edit_first_trial_end('"sutures_completed":6', '"sutures_completed":-1'), "negative"),
        (edit_first_trial_end('"status":"wound_closed"', '"status":"closed"'), "terminal status"),
    ],
)
def test_malformed_log_files_raise(tmp_path, capsys, nominal_logs, mutate, fragment):
    _, logs = nominal_logs
    path = tmp_path / "logs.jsonl"
    write_logs(logs, path)
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(LogFormatError) as err:
        read_logs(bad)
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
    text = report_render(golden_report(), format="csv")
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
        report_render(golden_report(), format="xml")


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
    tables = {
        "experiment": cf._EXPERIMENT,
        "controller": cf._CONTROLLER,
        "failure_model": cf._FAILURES,
        "timing": cf._TIMING_SCALARS,
        "noise": cf._NOISE,
        "ransac": cf._RANSAC,
        "circle_ransac": cf._RANSAC,
        "needle": cf._NEEDLE,
        "wound": cf._WOUND,
    }
    accepted = {f"{section}.{key}" for section, table in tables.items() for key in table}
    accepted |= {f"timing.durations.{name}" for name in ExperimentConfig().timing.durations}
    with open("configs/default.yaml", encoding="utf-8") as fh:
        template = set(_dotted_keys(yaml.safe_load(fh)))
    assert sorted(accepted - template) == []
    assert sorted(template - accepted) == []


def test_make_world_and_experiment_config_share_in_loop_defaults():
    world = make_world(0)
    config = ExperimentConfig()
    assert world.noise == config.noise
    assert world.ransac == config.ransac
    assert world.circle_ransac == config.circle_ransac
    assert world.n_cloud_points == config.n_cloud_points


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
    cfg = config_from_dict({"timing": {"durations": {"move_to": 4.0}}})
    assert cfg.timing.durations["move_to"] == 4.0
    assert cfg.timing.durations["jaw"] == ExperimentConfig().timing.durations["jaw"]
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
        ("experiment:\n  base_seed: -4\n", [], "base_seed"),
        ("", ["--seed", "-1"], "base_seed"),
        ("needle:\n  radius: .inf\n", [], "needle"),
        ("circle_ransac:\n  inlier_threshold: .inf\n", [], "circle_ransac"),
    ],
    ids=["occlusion_key", "config_seed", "flag_seed", "infinite_radius", "infinite_threshold"],
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
