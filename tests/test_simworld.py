import json
import math
from dataclasses import replace

import numpy as np
import pytest

from suturesim import geometry as geo
from suturesim import perception as pc
from suturesim import simworld as sw
from suturesim.geometry import RigidTransform
from suturesim.harness import ExperimentConfig
from oracles import sampled_visible_intervals
from suturesim.simworld import (
    BudgetExhausted,
    FailureModel,
    GripperId,
    InvariantViolation,
    JawState,
    MotionError,
    MoveTo,
    NoiseModel,
    PerceptionError,
    RotateHeld,
    SetJaw,
    ThreadError,
    ThreadState,
    TimingModel,
    Translate,
)

SPEC = pc.NeedleSpec()

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


QUIET = ExperimentConfig(
    failures=NO_FAILURES, noise=ZERO_NOISE, ransac=FAST_RANSAC, circle_ransac=FAST_CIRCLE
)


def quiet_world(seed=0, interventions=0, **changes):
    """Zero-noise, zero-failure world for deterministic geometry checks;
    `changes` replace fields of its config."""
    return sw.WorldState(replace(QUIET, **changes), seed, interventions)


def arc_mid_radial(pose):
    """Unit radial direction of the arc midpoint."""
    rho = geo.unit(pose.tip - pose.center)
    half = geo.rotation_about_axis(pose.normal, SPEC.arc_span / 2.0)
    return half.apply_vector(rho)


# ---------------------------------------------------------------------------
# validation


def test_failure_model_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        FailureModel(grasp_miss_base=1.2)
    with pytest.raises(ValueError):
        FailureModel(insertion_slip_prob=-0.1)
    with pytest.raises(ValueError):
        FailureModel(entanglement_prob_unswept=0.1, entanglement_prob_swept=0.2)


def test_timing_model_validation():
    with pytest.raises(ValueError):
        TimingModel(perception_period=0.0)
    with pytest.raises(ValueError):
        TimingModel(durations={"move_to": -1.0})
    with pytest.raises(MotionError):
        TimingModel().duration("teleport")


def test_thread_state_validation():
    with pytest.raises(ValueError):
        ThreadState(total_length=0.0)


def test_wound_validation():
    with pytest.raises(ValueError):
        sw.WoundSpec(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        sw.WoundSpec(np.zeros((2, 3)), np.zeros((3, 3)))
    wound = sw.make_wound()
    assert wound.n_target_sutures == len(wound.entry_points) == 6
    assert wound.entry(1)[1] == pytest.approx(-0.025)
    assert wound.exit(6)[1] == pytest.approx(0.025)


def test_suture_targets_geometry_and_guards():
    wound = sw.make_wound()
    t = sw.suture_targets(wound, 1, SPEC.radius)
    # circle through both points: final_center is radius from each
    assert np.linalg.norm(t.entry - t.final_center) == pytest.approx(SPEC.radius)
    assert np.linalg.norm(t.exit - t.final_center) == pytest.approx(SPEC.radius)
    assert abs(float(np.dot(t.true_normal, t.direction))) < 1e-12
    coincident = sw.WoundSpec(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        sw.suture_targets(coincident, 1, SPEC.radius)
    with pytest.raises(ValueError):
        sw.suture_targets(sw.make_wound(ridge_half_width=0.02), 1, SPEC.radius)


# ---------------------------------------------------------------------------
# kinematics


def test_needle_moves_rigidly_with_holder():
    world = quiet_world(seed=1)
    right = GripperId.RIGHT
    spec_r = world.spec.radius
    grip_offset = float(
        np.linalg.norm(world.needle_true.center - world.grippers[right].position)
    )

    script = [
        MoveTo(RigidTransform.from_translation([0.02, 0.01, 0.08])),
        Translate((0.0, -0.015, 0.01)),
        RotateHeld((0.0, 0.0, 1.0), math.radians(30.0), (0.02, 0.0, 0.09)),
        RotateHeld((1.0, 0.0, 0.0), math.radians(-50.0), (0.0, 0.0, 0.05)),
    ]
    for motion in script:
        before = world.needle_true
        world.execute(right, motion)
        pose = world.needle_true
        assert np.linalg.norm(pose.tip - pose.center) == pytest.approx(spec_r, abs=1e-9)
        assert np.linalg.norm(pose.swage - pose.center) == pytest.approx(spec_r, abs=1e-9)
        assert float(
            np.linalg.norm(pose.center - world.grippers[right].position)
        ) == pytest.approx(grip_offset, abs=1e-9)
        if isinstance(motion, Translate):
            shift = pose.center - before.center
            assert np.allclose(shift, motion.vector, atol=1e-12)


def test_move_to_translates_needle_by_same_offset():
    world = quiet_world(seed=2)
    target = RigidTransform.from_translation([0.03, -0.02, 0.07])
    before_center = world.needle_true.center.copy()
    before_grip = world.grippers[GripperId.RIGHT].position.copy()
    world.execute(GripperId.RIGHT, MoveTo(target))
    shift = target.translation - before_grip
    assert np.allclose(world.needle_true.center, before_center + shift, atol=1e-12)


def test_workspace_bounds_enforced():
    world = quiet_world(seed=3)
    with pytest.raises(MotionError):
        world.execute(GripperId.LEFT, MoveTo(RigidTransform.from_translation([0.5, 0, 0])))
    with pytest.raises(MotionError):
        world.execute(GripperId.LEFT, Translate((0.0, 0.0, 1.0)))


def test_clock_advances_by_configured_durations():
    world = quiet_world(seed=4)
    t0 = world.clock
    world.execute(GripperId.LEFT, MoveTo(RigidTransform.from_translation([0, 0.02, 0.08])))
    assert world.clock == pytest.approx(t0 + 8.0)
    world.execute(GripperId.LEFT, Translate((0.01, 0.0, 0.0)))
    assert world.clock == pytest.approx(t0 + 13.0)
    world.execute(GripperId.LEFT, SetJaw(JawState.CLOSED))
    assert world.clock == pytest.approx(t0 + 14.5)
    world.pull_thread(0.01)
    assert world.clock == pytest.approx(t0 + 19.5)
    # clock is monotone over the whole event trace
    times = [e["t"] for e in world.events]
    assert all(b >= a for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# grasping


def test_grasp_at_zero_distance_zero_base_always_succeeds():
    model = FailureModel(grasp_miss_base=0.0, grasp_miss_per_mm_pose_error=0.04)
    assert model.grasp_success_prob(0.0) == 1.0


def test_grasp_probability_formula():
    model = FailureModel(grasp_miss_base=0.05, grasp_miss_per_mm_pose_error=0.04)
    assert model.grasp_success_prob(5.0) == pytest.approx(0.75)
    assert model.grasp_success_prob(1000.0) == 0.0  # clamped


def test_grasp_success_frequency_matches_probability():
    """Empirical grasp rate at a 5 mm standoff: 10000 draws of p = 0.75."""
    failures = FailureModel(
        grasp_miss_base=0.05,
        grasp_miss_per_mm_pose_error=0.04,
        entanglement_prob_unswept=0.0,
        entanglement_prob_swept=0.0,
        insertion_slip_prob=0.0,
        perception_corruption_prob=0.0,
    )
    world = quiet_world(seed=11, failures=failures)
    pose = world.needle_true
    # keep re-grasps from spinning the arc between draws
    world.seat_tip_radial = geo.unit(pose.tip - pose.center)

    mid = arc_mid_radial(pose)
    probe = pose.center + (world.spec.radius + 0.005) * mid
    left = GripperId.LEFT
    world.begin_dual_grasp()
    world.execute(left, MoveTo(RigidTransform.from_translation(probe + 0.02 * mid)))
    world.execute(left, Translate(tuple(-0.02 * mid)))

    n = 10000
    hits = 0
    for _ in range(n):
        world.execute(left, SetJaw(JawState.CLOSED))
        if left in world._holders:
            hits += 1
        world.execute(left, SetJaw(JawState.OPEN))
    rate = hits / n
    assert abs(rate - 0.75) <= 0.02

    # the realized standoff really was 5 mm
    closes = [e for e in world.events if e["kind"] == "grasp"]
    assert closes and all(abs(e["distance_mm"] - 5.0) < 0.05 for e in closes)


def test_second_grasp_outside_handover_window_is_an_invariant_violation():
    world = quiet_world(seed=12)
    pose = world.needle_true
    mid = arc_mid_radial(pose)
    probe = pose.center + (world.spec.radius + 0.004) * mid
    left = GripperId.LEFT
    world.execute(left, MoveTo(RigidTransform.from_translation(probe + 0.02 * mid)))
    world.execute(left, Translate(tuple(-0.02 * mid)))
    world.scripted_grasp_outcomes = [True]
    with pytest.raises(InvariantViolation):
        world.execute(left, SetJaw(JawState.CLOSED))


# ---------------------------------------------------------------------------
# perception


def test_observe_zero_noise_recovers_truth():
    world = quiet_world(seed=21)
    obs = world.observe()
    delta = pc.pose_agreement(obs, world.needle_true)
    assert delta.center_dist < 1e-8
    assert min(delta.normal_angle, math.pi - delta.normal_angle) < 1e-8
    # endpoints are sampling-limited, not noise-limited
    assert delta.endpoint_dist < 1.5e-3
    assert world.clock == pytest.approx(world.timing.perception_period)


def test_observe_builds_one_generator(monkeypatch):
    # The cloud and both RANSAC stages share one child generator of the
    # world stream; the world's own generator is built with the world.
    world = quiet_world(seed=24)
    built = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    world.observe()
    assert len(built) == 1


def test_observe_fully_buried_raises():
    world = quiet_world(seed=22)
    sink = RigidTransform.from_translation([0.0, 0.0, -0.08])
    world.needle_true = pc.transform_pose(sink, world.needle_true)
    before = world.clock
    with pytest.raises(PerceptionError):
        world.observe()
    assert world.clock == pytest.approx(before + world.timing.perception_period)
    assert world.events[-1]["kind"] == "observation" and not world.events[-1]["ok"]


def test_perception_corruption_frequency():
    failures = FailureModel(
        grasp_miss_base=0.0,
        grasp_miss_per_mm_pose_error=0.0,
        entanglement_prob_unswept=0.0,
        entanglement_prob_swept=0.0,
        insertion_slip_prob=0.0,
        perception_corruption_prob=0.3,
    )
    world = quiet_world(seed=23, failures=failures, n_cloud_points=80)
    flags = []
    for _ in range(400):
        obs = world.observe()
        flags.append(world.events[-1]["corrupted"])
        if flags[-1]:
            # a corrupted estimate is visibly wrong, not subtly wrong
            assert pc.pose_agreement(obs, world.needle_true).center_dist > 1e-3
    rate = sum(flags) / len(flags)
    assert 0.24 <= rate <= 0.36


# ---------------------------------------------------------------------------
# burial geometry

GRID_STEP = SPEC.arc_span / 719  # spacing of the oracle's 720-sample scan


def random_pose(rng):
    """A needle near the ridge, often crossing a ridge or pad face."""
    center = (rng.uniform(-0.02, 0.02), rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.02))
    return pc.make_needle_pose(center, geo.unit(rng.normal(size=3)), rng.normal(size=3), SPEC)


def unmatched(ends, others, tol):
    return [e for e in ends if not any(abs(e - o) <= tol for o in others)]


def test_visible_intervals_match_sampled_oracle():
    world = quiet_world(seed=25)
    rng = np.random.default_rng(25)
    partly, slivers = 0, 0
    for _ in range(2000):
        world.needle_true = random_pose(rng)
        exact = world.visible_intervals()
        sampled = sampled_visible_intervals(world)
        assert world.needle_buried() == (exact != [(0.0, SPEC.arc_span)])
        partly += 0 < len(exact) and exact != [(0.0, SPEC.arc_span)]
        ends = [e for iv in exact for e in iv]
        sampled_ends = [e for iv in sampled for e in iv]
        if len(ends) == len(sampled_ends) and np.allclose(ends, sampled_ends, rtol=0.0, atol=1e-12):
            continue
        # the scan missed a sliver: two exact ends, closer than a grid
        # step, with no counterpart; every sampled end is still exact
        slivers += 1
        assert not unmatched(sampled_ends, ends, 1e-12)
        missed = unmatched(ends, sampled_ends, 1e-12)
        assert len(missed) == 2 and missed[1] - missed[0] < GRID_STEP
    assert partly > 500
    assert slivers <= 5


def test_burial_follows_the_needle_through_motion_drop_and_reseat():
    # visible_intervals and needle_buried are computed once per needle
    # pose; a world that has never seen the pose computes them afresh.
    world = quiet_world(seed=26, interventions=1)

    def burial(w):
        return w.visible_intervals(), w.needle_buried()

    def check():
        got = burial(world)
        assert burial(world) == got  # no motion in between
        fresh = quiet_world(seed=26, interventions=1)
        fresh.needle_true = world.needle_true
        assert burial(fresh) == got
        return got

    right = GripperId.RIGHT
    world.needle_true = inserted_pose(world.wound)
    seen = [check()]
    world.execute(right, Translate((0.0, 0.0, -0.008)))
    seen.append(check())
    world.execute(right, RotateHeld((0.0, 1.0, 0.0), math.radians(20.0), tuple(world.needle_true.center)))
    seen.append(check())
    world.execute(right, Translate((0.0, 0.0, 0.04)))
    seen.append(check())
    world.execute(right, SetJaw(JawState.OPEN))
    assert world.events[-1]["kind"] == "drop"
    seen.append(check())
    world.human_intervention()
    seen.append(check())
    assert seen[1][1] and not seen[3][1]  # buried once lowered, clear once lifted
    assert len({str(s) for s in seen}) >= 3


def test_sliver_between_scan_samples_is_buried():
    # circle bottom 1e-8 m under the pad, half a grid step past sample 300
    s_bottom = 300.5 * GRID_STEP
    alpha = s_bottom - math.pi / 2.0
    center = (0.03, 0.0, SPEC.radius - 1e-8)
    world = quiet_world(seed=26)
    world.needle_true = pc.make_needle_pose(
        center, (0.0, 1.0, 0.0), (math.cos(alpha), 0.0, math.sin(alpha)), SPEC
    )
    bottom = pc.arc_points(world.needle_true, SPEC.arc_span, [s_bottom])[0]
    assert bottom[2] == pytest.approx(-1e-8, abs=1e-15)
    assert sampled_visible_intervals(world) == [(0.0, SPEC.arc_span)]  # the scan misses it
    assert world.needle_buried()
    (a0, a1), (b0, b1) = world.visible_intervals()
    assert a0 == 0.0 and b1 == SPEC.arc_span
    assert a1 < s_bottom < b0 and b0 - a1 < GRID_STEP
    assert world._lowest_z() == pytest.approx(-1e-8, abs=1e-15)


def test_clear_needle_is_one_exact_interval():
    world = quiet_world(seed=27)  # seated over the first site, clear of tissue
    assert world.visible_intervals() == [(0.0, SPEC.arc_span)]
    assert not world.needle_buried()


def test_lowest_z_is_exact():
    world = quiet_world(seed=28)
    rng = np.random.default_rng(28)
    s = np.linspace(0.0, SPEC.arc_span, 20000)
    tol = SPEC.radius * (1.0 - math.cos(math.pi / 1438))  # half a scan step of sag
    for _ in range(300):
        world.needle_true = random_pose(rng)
        sampled = float(pc.arc_points(world.needle_true, SPEC.arc_span, s)[:, 2].min())
        low = world._lowest_z()
        assert low <= sampled + 1e-15  # 1e-15: rounding of the sampled points
        assert sampled - low <= tol


# ---------------------------------------------------------------------------
# tissue / thread checks


def inserted_pose(wound, i=1):
    t = sw.suture_targets(wound, i, SPEC.radius)
    return pc.make_needle_pose(t.final_center, t.true_normal, t.entry - t.final_center, SPEC)


def test_tissue_pass_check_ok_with_zero_slip():
    world = quiet_world(seed=31)
    t = world.targets[0]
    world.needle_true = inserted_pose(world.wound)
    assert world.tissue_pass_check(t.entry, t.exit) == "ok"


def test_tissue_pass_check_missed_wound():
    world = quiet_world(seed=32)
    t = world.targets[0]
    # ready pose hovers centimeters above the wound: nowhere near the chord
    world.needle_true = world.ready_pose(1)
    assert world.tissue_pass_check(t.entry, t.exit) == "missed_wound"


def test_tissue_pass_check_non_wound_region():
    world = quiet_world(seed=33)
    t = world.targets[0]
    rise = math.sqrt(SPEC.radius**2 - 0.25 * t.chord**2)
    low_center = 0.5 * (t.entry + t.exit) - rise * sw.WORLD_UP
    # circle still threads entry and exit, but the arc dives under the pad
    world.needle_true = pc.make_needle_pose(
        low_center, t.true_normal, -sw.WORLD_UP, SPEC
    )
    assert world.tissue_pass_check(t.entry, t.exit) == "non_wound_region"


def test_slip_frequency():
    failures = FailureModel(
        grasp_miss_base=0.0,
        grasp_miss_per_mm_pose_error=0.0,
        entanglement_prob_unswept=0.0,
        entanglement_prob_swept=0.0,
        insertion_slip_prob=0.1,
        perception_corruption_prob=0.0,
    )
    world = quiet_world(seed=34, failures=failures)
    t = world.targets[0]
    world.needle_true = inserted_pose(world.wound)
    n = 10000
    slips = sum(world.tissue_pass_check(t.entry, t.exit) == "slip" for _ in range(n))
    assert abs(slips / n - 0.10) <= 0.01


def test_entanglement_frequency_and_sweep_effect():
    failures = FailureModel(
        grasp_miss_base=0.0,
        grasp_miss_per_mm_pose_error=0.0,
        entanglement_prob_unswept=0.3,
        entanglement_prob_swept=0.0,
        insertion_slip_prob=0.0,
        perception_corruption_prob=0.0,
    )
    world = quiet_world(seed=35, failures=failures)
    n = 10000
    tangles = sum(world.thread_entanglement_check(False) == "entangled" for _ in range(n))
    assert abs(tangles / n - 0.30) <= 0.015
    # swept probability of zero can never entangle
    assert all(world.thread_entanglement_check(True) == "clear" for _ in range(200))


def test_pull_thread_accumulates_exactly():
    world = quiet_world(seed=36)
    pulls = [0.01, 0.02, 0.005]
    total = 0.0
    for length in pulls:
        world.pull_thread(length)
        total += length
    assert world.thread.pulled_through == total  # same accumulation, bitwise
    assert world.thread.per_suture_used[0] == total
    before = world.thread.pulled_through
    world.pull_thread(0.0)
    assert world.thread.pulled_through == before


def test_pull_thread_overdraw_raises():
    world = quiet_world(seed=37)
    world.pull_thread(0.35)
    with pytest.raises(ThreadError):
        world.pull_thread(0.06)
    # failed pull changes nothing
    assert world.thread.pulled_through == pytest.approx(0.35)
    assert world.events[-1]["kind"] == "thread_error"
    with pytest.raises(ValueError):
        world.pull_thread(-0.01)


# ---------------------------------------------------------------------------
# interventions


def test_intervention_budget_and_reset():
    world = quiet_world(seed=41, interventions=2)
    world.pull_thread(0.08)

    world.human_intervention()
    assert world.interventions_left == 1
    assert world.needle_holder is GripperId.RIGHT
    # the supervisor re-threads: this suture's spent thread is returned
    assert world.thread.pulled_through == pytest.approx(0.0)
    delta = pc.pose_agreement(world.needle_true, world.ready_pose(1))
    assert delta.center_dist < 1e-9

    world.human_intervention()
    assert world.interventions_left == 0
    with pytest.raises(BudgetExhausted):
        world.human_intervention()


def test_intervention_reseats_the_needle_as_a_new_world_does():
    fresh = quiet_world(seed=44, interventions=1)
    world = quiet_world(seed=44, interventions=1)
    world.execute(GripperId.RIGHT, Translate((0.0, 0.01, 0.01)))
    world.execute(GripperId.LEFT, MoveTo(RigidTransform.from_translation([-0.03, 0.02, 0.04])))
    world.execute(GripperId.LEFT, SetJaw(JawState.CLOSED))

    world.human_intervention()
    for name in ("center", "tip", "swage"):
        assert np.array_equal(getattr(world.needle_true, name), getattr(fresh.needle_true, name))
    for gid in GripperId:
        after, new = world.grippers[gid], fresh.grippers[gid]
        assert np.array_equal(after.pose.translation, new.pose.translation)
        assert after.jaw is new.jaw
    assert world._holders == fresh._holders == [GripperId.RIGHT]
    assert world.needle_holder is fresh.needle_holder is GripperId.RIGHT


def test_advance_suture_bounds():
    world = quiet_world(seed=42, wound=sw.make_wound(n_sutures=2))
    world.advance_suture()
    assert world.suture_index == 2
    with pytest.raises(sw.SimulationError):
        world.advance_suture()


# ---------------------------------------------------------------------------
# determinism


def scripted_run(seed):
    noise = NoiseModel(gaussian_sigma=3e-4, outlier_fraction=0.05, dropout_fraction=0.05)
    config = ExperimentConfig(
        noise=noise, ransac=FAST_RANSAC, circle_ransac=FAST_CIRCLE, n_cloud_points=100
    )
    world = sw.WorldState(config, seed, 0)
    t = world.targets[0]
    world.observe()
    world.execute(GripperId.RIGHT, Translate((0.0, 0.005, -0.01)))
    world.thread_entanglement_check(False)
    world.pull_thread(0.02)
    world.needle_true = inserted_pose(world.wound)
    world.tissue_pass_check(t.entry, t.exit)
    world.observe()
    return world


def test_bitwise_determinism_same_seed():
    a = scripted_run(seed=7)
    b = scripted_run(seed=7)
    assert json.dumps(a.events, sort_keys=True) == json.dumps(b.events, sort_keys=True)
    assert a.clock == b.clock
    assert np.array_equal(a.needle_true.center, b.needle_true.center)
    assert np.array_equal(a.needle_true.tip, b.needle_true.tip)


def test_different_seeds_diverge():
    a = scripted_run(seed=7)
    b = scripted_run(seed=8)
    assert json.dumps(a.events, sort_keys=True) != json.dumps(b.events, sort_keys=True)
