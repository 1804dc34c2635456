"""Acceptance gate: eight release criteria, one test (and one printed
pass/fail line) per criterion.

Tolerances here are pinned on purpose; loosening them is a release
decision, not a test fix.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from suturesim import cli
from suturesim import controller as ctl
from suturesim import geometry as geo
from suturesim import perception as pc
from suturesim import simworld as sw
from suturesim.controller import ControllerParams
from suturesim.harness import (
    PRESETS,
    ExperimentConfig,
    compute_metrics,
    format_mean,
    format_rate,
    iter_trials,
    validate_event_trace,
)
from suturesim.simworld import FailureModel, GripperId, NoiseModel
from suturesim.triallog import ErrorKind, TrialLog

from oracles import largest_gap_ends, trimmed_grid_circle_center

SPEC = pc.NeedleSpec()
PARAMS = ControllerParams()

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

FAST_RANSAC = pc.RansacParams(iterations=60)
FAST_CIRCLE = pc.RansacParams(iterations=60, inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def random_pose(rng, max_tilt_deg=40.0):
    center = rng.uniform([-0.03, -0.03, 0.0], [0.03, 0.03, 0.05])
    tilt = math.radians(rng.uniform(0.0, max_tilt_deg))
    azim = rng.uniform(0.0, 2 * math.pi)
    normal = pc.canonical_normal(
        np.array(
            [
                math.sin(tilt) * math.cos(azim),
                math.cos(tilt),
                math.sin(tilt) * math.sin(azim),
            ]
        )
    )
    return pc.make_needle_pose(center, normal, rng.normal(size=3), SPEC)


QUIET = ExperimentConfig(
    failures=NO_FAILURES,
    noise=ZERO_NOISE,
    ransac=FAST_RANSAC,
    circle_ransac=FAST_CIRCLE,
    n_cloud_points=100,
)


def quiet_world(seed, config=QUIET):
    """A world of `config`, with its preset's intervention budget."""
    return sw.WorldState(config, seed, PRESETS[config.preset][1])


def as_trial_log(world, seed, failed, preset="stitch"):
    """One suture's trace as a trial; `failed` is what run_suture returned."""
    return TrialLog(
        trial=0,
        seed=seed,
        preset=preset,
        status="failed" if failed else "wound_closed",
        error=failed.value if failed else None,
        sutures_completed=0 if failed else 1,
        elapsed=world.clock,
        events=world.events,
    )


# ---------------------------------------------------------------------------


def test_criterion_1_estimator_accuracy():
    """Center <= 1 mm, normal <= 2 deg, endpoints <= 1.5 mm, jointly in
    >= 95% of 1000 seeded clouds at the pinned noise point, under 60 s."""
    noise = NoiseModel(
        gaussian_sigma=5e-4,
        outlier_fraction=0.20,
        dropout_fraction=0.0,
        occlusion_arc=0.25 * SPEC.arc_span,
    )
    plane = pc.RansacParams()
    circle = pc.RansacParams(inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD)
    n_seeds = 1000
    joint = 0
    start = time.perf_counter()
    for seed in range(n_seeds):
        rng = np.random.default_rng(2_000_000 + seed)
        truth = random_pose(rng)
        cloud = pc.synth_needle_cloud(truth, SPEC, noise, 200, np.random.default_rng(3_000_000 + seed))
        estimate, _ = pc.estimate_pose(cloud, SPEC, plane, circle, np.random.default_rng(seed))
        delta = pc.pose_agreement(estimate, truth)
        normal_err = min(delta.normal_angle, math.pi - delta.normal_angle)
        if (
            delta.center_dist <= 1e-3
            and normal_err <= math.radians(2.0)
            and delta.endpoint_dist <= 1.5e-3
        ):
            joint += 1
    elapsed = time.perf_counter() - start
    rate = joint / n_seeds
    ok = rate >= 0.95 and elapsed < 60.0
    report(1, ok, f"joint accuracy {100 * rate:.1f}% of {n_seeds} seeds in {elapsed:.1f}s")
    assert rate >= 0.95, f"joint pass rate {rate:.3f} < 0.95"
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s >= 60s"


def test_criterion_2_oracle_equivalence():
    """On 100 small clouds: circle centers within 0.5 mm of the trimmed
    grid-search oracle; the points bounding the largest angular gap about
    the fitted center, which give the raw endpoints, match exhaustive
    search."""
    params = pc.RansacParams(iterations=400, inlier_threshold=4e-4, min_inliers=6)
    worst_gap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(4_000_000 + seed)
        n = int(rng.integers(12, 41))
        center = rng.uniform(-0.02, 0.02, size=2)
        start = rng.uniform(0.0, 2 * math.pi)
        span = rng.uniform(0.6 * math.pi, math.pi)
        angles = start + rng.uniform(0.0, span, size=n)
        pts = center + SPEC.radius * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1
        )
        pts += rng.normal(scale=1.5e-4, size=pts.shape)
        n_out = int(0.15 * n)
        if n_out:
            pts[:n_out] = rng.uniform(-0.03, 0.03, size=(n_out, 2))

        fitted, _ = pc.fit_circle_fixed_radius(pts, SPEC.radius, params, np.random.default_rng(seed))
        oracle = trimmed_grid_circle_center(pts, SPEC.radius)
        gap = float(np.linalg.norm(fitted - oracle))
        worst_gap = max(worst_gap, gap)
        assert gap <= 5e-4, f"seed {seed}: center gap {gap * 1000:.3f} mm > 0.5 mm"

        assert pc.arc_ends(pts, fitted)[:2] == largest_gap_ends(pts, fitted), (
            f"seed {seed}: largest-gap indices disagree with exhaustive search"
        )
    report(2, True, f"100 clouds; worst center gap {worst_gap * 1000:.3f} mm; all gap index pairs exact")


def test_criterion_3_cinch_formula_fidelity():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(1000):
        l_des = float(rng.uniform(0.02, 0.40))
        l_each = float(rng.uniform(0.001, 0.06))
        i = int(rng.integers(1, 9))
        expected = l_des - (i - 1) * l_each
        if expected < 0.0:
            with pytest.raises(ctl.CinchError):
                ctl.cinch_length(i, l_des, l_each)
        else:
            assert ctl.cinch_length(i, l_des, l_each) == expected  # bitwise
            checked += 1
    with pytest.raises(ctl.CinchError):
        ctl.cinch_length(5, 0.10, 0.03)
    report(3, True, f"1000 random triples exact ({checked} non-negative), negative guard enforced")


def test_criterion_4_retry_and_recovery_contracts():
    def phase_observation_pairs(events, phase):
        obs = [
            e
            for e in events
            if e["kind"] == "observation" and e.get("ok") and e.get("phase") == phase
        ]
        return [
            (np.array(a["center"]), np.array(b["center"]))
            for a, b in zip(obs[0::2], obs[1::2])
        ]

    # -- extraction: six scripted misses, exactly five retries, error E
    world = quiet_world(seed=70)
    world.scripted_grasp_outcomes = [False] * 6
    failed = ctl.run_suture(world, PARAMS, 1)
    ev = world.events
    retries = [e for e in ev if e["kind"] == "retry" and e["primitive"] == "extraction"]
    assert len(retries) == 5, f"{len(retries)} extraction retries, expected 5"
    assert failed is ErrorKind.EXTRACTION
    # each retried attempt's before/after observations move < 2 cm:
    # that sub-threshold progress is what triggered the retry
    stalls = [
        float(np.linalg.norm(b - a))
        for a, b in phase_observation_pairs(ev, "extraction")
    ]
    assert stalls and all(d < 0.02 for d in stalls)
    validate_event_trace(as_trial_log(world, 70, failed), QUIET)

    # -- a successful extraction clears the same 2 cm threshold
    nominal = quiet_world(seed=71)
    assert ctl.run_suture(nominal, PARAMS, 1) is None
    moved = phase_observation_pairs(nominal.events, "extraction")[-1]
    assert float(np.linalg.norm(moved[1] - moved[0])) >= 0.02

    # -- handover: six scripted misses, exactly five retries, jitter < 0.5 cm
    world = quiet_world(seed=72)
    world.scripted_grasp_outcomes = [True] + [False] * 6
    failed = ctl.run_suture(world, PARAMS, 1)
    ev = world.events
    retries = [e for e in ev if e["kind"] == "retry" and e["primitive"] == "handover"]
    assert len(retries) == 5, f"{len(retries)} handover retries, expected 5"
    assert failed is ErrorKind.HANDOVER
    jitters = [e["magnitude"] for e in ev if e["kind"] == "handover_jitter"]
    assert len(jitters) == 5
    assert all(0.0 <= m < 0.005 for m in jitters), f"jitter out of [0, 0.005): {jitters}"
    validate_event_trace(as_trial_log(world, 72, failed), QUIET)

    # -- two interventions rescue two failures; the third failure is terminal
    human = replace(QUIET, preset="stitch_human")
    world = quiet_world(seed=73, config=human)
    world.scripted_grasp_outcomes = ([True] + [False] * 6) * 3
    failed = ctl.run_suture(world, PARAMS, 1)
    ev = world.events
    interventions = [e for e in ev if e["kind"] == "intervention"]
    assert len(interventions) == 2, f"{len(interventions)} interventions, expected budget of 2"
    assert len([e for e in ev if e["kind"] == "suture_attempt"]) == 3
    assert failed is not None
    validate_event_trace(as_trial_log(world, 73, failed, preset="stitch_human"), human)
    report(
        4,
        True,
        "extraction/handover fail after exactly 5 retries; progress threshold 2 cm; "
        "jitter < 0.5 cm strict; intervention budget 2 — all read from event traces",
    )


def test_criterion_5_nominal_path_completeness():
    config = replace(QUIET, n_trials=100)
    logs = list(iter_trials(config))
    closed = sum(log.status == "wound_closed" for log in logs)
    assert closed == 100, f"only {closed}/100 zero-noise trials closed the wound"
    assert all(log.sutures_completed == 6 for log in logs)
    for log in logs:
        validate_event_trace(log, config)
    report(5, True, "100/100 zero-noise seeds closed all 6 sutures; every trace validates")


def test_criterion_6_ablation_ordering():
    """Shipped defaults, 500 trials per preset: sensing_only <
    thread_handling < stitch <= stitch_human, under 5 minutes."""
    start = time.perf_counter()
    means = {}
    for preset in ("sensing_only", "thread_handling", "stitch", "stitch_human"):
        trials = iter_trials(ExperimentConfig(preset=preset, n_trials=500))
        means[preset] = compute_metrics(trials).mean_sutures_to_failure
    elapsed = time.perf_counter() - start
    ok = (
        means["sensing_only"] < means["thread_handling"] < means["stitch"]
        and means["stitch_human"] >= means["stitch"]
        and elapsed < 300.0
    )
    report(
        6,
        ok,
        "mean sutures to failure "
        + " / ".join(f"{p}={means[p]:.2f}" for p in means)
        + f" in {elapsed:.0f}s",
    )
    assert means["sensing_only"] < means["thread_handling"], means
    assert means["thread_handling"] < means["stitch"], means
    assert means["stitch_human"] >= means["stitch"], means
    assert elapsed < 300.0, f"ablation took {elapsed:.0f}s >= 300s"


def test_criterion_7_metrics_goldens():
    completed = [6, 6, 6, 5, 4, 3, 3, 3, 2, 2, 2, 1, 1, 0, 0]  # sums to 44
    logs = [
        TrialLog(
            trial=i,
            seed=i,
            preset="stitch",
            status="wound_closed" if c == 6 else "failed",
            error=None if c == 6 else "I",
            sutures_completed=c,
            elapsed=c * 160.0,
            events=[{"kind": "suture_attempt"}] * (c + (c < 6))
            + [{"kind": "suture_closed"}] * c,
        )
        for i, c in enumerate(completed)
    ]
    m = compute_metrics(logs)
    assert m.n_trials == 15
    assert format_mean(m.mean_sutures_to_failure) == "2.93"
    assert format_rate(0.6939) == "69.4%"
    attempts = sum(c + (c < 6) for c in completed)
    assert m.single_suture_success_rate == 44 / attempts
    assert sum(m.histogram) == 15
    hist_mean = sum(k * n for k, n in enumerate(m.histogram)) / 15
    assert abs(hist_mean - m.mean_sutures_to_failure) < 1e-12
    assert m.full_wound_success_rate <= m.three_throw_success_rate
    # the 9-of-12 worked example
    nine_of_twelve = compute_metrics(
        [
            TrialLog(
                trial=0,
                seed=0,
                preset="stitch",
                status="failed",
                error="E",
                sutures_completed=5,
                elapsed=1.0,
                events=[{"kind": "suture_attempt"}] * 12 + [{"kind": "suture_closed"}] * 9,
            )
        ]
    )
    assert nine_of_twelve.single_suture_success_rate == 0.75
    assert format_rate(nine_of_twelve.single_suture_success_rate) == "75.0%"
    report(7, True, '44/15 renders "2.93"; 0.6939 renders "69.4%"; 9/12 renders "75.0%"')


def test_criterion_8_cli_determinism(tmp_path, capsys):
    sim = ["simulate", "--preset", "stitch", "--trials", "3", "--seed", "11"]
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(sim + ["--out", str(out1)]) == 0
    report1 = capsys.readouterr().out
    assert cli.main(sim + ["--out", str(out2)]) == 0
    report2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes(), "simulate log files differ between runs"
    assert report1 == report2, "simulate reports differ between runs"

    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert cli.main(["synth", "--out", str(c1), "--seed", "4"]) == 0
    assert cli.main(["synth", "--out", str(c2), "--seed", "4"]) == 0
    capsys.readouterr()
    assert c1.read_bytes() == c2.read_bytes(), "synth clouds differ between runs"
    report(8, True, "repeated simulate and synth invocations are byte-identical")
