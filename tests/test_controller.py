import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from suturesim import controller as ctl
from suturesim import geometry as geo
from suturesim import perception as pc
from suturesim import simworld as sw
from suturesim.controller import (
    CinchError,
    ControllerParams,
    PipelineState,
    PlanError,
)
from suturesim.geometry import RigidTransform
from suturesim.harness import PRESETS, ExperimentConfig
from suturesim.simworld import (
    FailureModel,
    GripperId,
    JawState,
    MoveTo,
    NoiseModel,
    RotateHeld,
    SetJaw,
    Translate,
)
from suturesim.triallog import ErrorKind

SPEC = pc.NeedleSpec()
PARAMS = ControllerParams()

ZERO_NOISE = NoiseModel(
    gaussian_sigma=0.0, outlier_fraction=0.0, dropout_fraction=0.0, occlusion_arc=0.0
)

FAST_RANSAC = pc.RansacParams(iterations=60)
FAST_CIRCLE = pc.RansacParams(iterations=60, inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD)


QUIET = ExperimentConfig(
    failures=FailureModel(
        grasp_miss_base=0.0,
        grasp_miss_per_mm_pose_error=0.0,
        entanglement_prob_unswept=0.0,
        entanglement_prob_swept=0.0,
        insertion_slip_prob=0.0,
        perception_corruption_prob=0.0,
    ),
    noise=ZERO_NOISE,
    ransac=FAST_RANSAC,
    circle_ransac=FAST_CIRCLE,
    n_cloud_points=100,
)


def quiet_world(seed=0, interventions=0, **changes):
    return sw.WorldState(replace(QUIET, **changes), seed, interventions)


def events_of(world, kind):
    return [e for e in world.events if e["kind"] == kind]


# ---------------------------------------------------------------------------
# cinch arithmetic


@pytest.mark.parametrize("i,expected", list(enumerate([0.100, 0.085, 0.070, 0.055, 0.040, 0.025], start=1)))
def test_cinch_length_schedule(i, expected):
    beta = ctl.cinch_length(i, 0.10, 0.015)
    assert beta == pytest.approx(expected)
    assert beta == 0.10 - (i - 1) * 0.015  # exact float arithmetic, not approx


def test_cinch_length_table_case():
    assert ctl.cinch_length(3, 0.20, 0.03) == pytest.approx(0.14)
    assert ctl.cinch_length(1, 0.37, 0.05) == 0.37


def test_cinch_length_guards():
    with pytest.raises(CinchError):
        ctl.cinch_length(5, 0.10, 0.03)  # would be -0.02
    with pytest.raises(ValueError):
        ctl.cinch_length(0, 0.10, 0.01)


def test_controller_params_validation():
    with pytest.raises(ValueError):
        ControllerParams(approach_offset=0.0)
    with pytest.raises(ValueError):
        ControllerParams(insertion_rotation=0.0)
    with pytest.raises(ValueError):
        ControllerParams(max_retries=-1)


# ---------------------------------------------------------------------------
# pure planners


def horizontal_pose(center=(0.0, 0.0, 0.02)):
    """Needle in the x-z plane: tip at +x, swage at -x."""
    return pc.make_needle_pose(center, (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), SPEC)


def test_rotation_sense_advances_tip_along_direction():
    rng = np.random.default_rng(5)
    for _ in range(50):
        normal = geo.unit(rng.normal(size=3))
        center = rng.uniform(-0.02, 0.02, size=3)
        tip = center + SPEC.radius * geo.unit(
            np.cross(normal, rng.normal(size=3))
        )
        direction = geo.unit(np.array([rng.normal(), rng.normal(), 0.0]))
        s = ctl.rotation_sense(normal, tip, center, direction)
        velocity = np.cross(s * normal, tip - center)
        assert float(np.dot(velocity, direction)) > 0.0
        # axial symmetry: flipping the normal flips s, same physical axis
        assert ctl.rotation_sense(-normal, tip, center, direction) == -s


def test_label_endpoints_orders_by_swage_hint():
    pose = horizontal_pose()
    near_swage = ctl.label_endpoints(pose, pose.swage + np.array([0, 0, 0.002]))
    assert np.array_equal(near_swage.tip, pose.tip)
    flipped = ctl.label_endpoints(pose, pose.tip + np.array([0, 0, 0.002]))
    assert np.array_equal(flipped.tip, pose.swage)
    assert np.array_equal(flipped.swage, pose.tip)


def test_plan_insertion_script_shape():
    # tip staged on the approach ray at (-0.005, 0, 0), radial direction
    # oblique to the travel direction (radial parallel to travel has no
    # usable rotation sense)
    rho = geo.unit(np.array([1.0, 0.0, -1.0]))
    center = np.array([-0.005, 0.0, 0.0]) - SPEC.radius * rho
    needle = pc.make_needle_pose(center, (0.0, 1.0, 0.0), rho, SPEC)
    entry = np.zeros(3)
    exit_ = np.array([0.01, 0.0, 0.0])
    script = ctl.plan_insertion(needle, entry, exit_, PARAMS)
    assert len(script) == 3
    reach, chord, roll = script
    assert isinstance(reach, Translate) and isinstance(chord, Translate)
    # phase 1 translates the tip straight toward the entry point
    assert geo.unit(np.array(reach.vector)) == pytest.approx([1.0, 0.0, 0.0])
    assert np.allclose(chord.vector, exit_ - entry)
    assert isinstance(roll, RotateHeld)
    assert roll.angle == math.radians(45.0)
    assert abs(float(np.dot(roll.axis, needle.normal))) == pytest.approx(1.0)
    # pivot is the circle center as it will sit after both translations
    assert np.allclose(roll.pivot, needle.center + np.array(reach.vector) + chord.vector)


def test_plan_insertion_rejects_degenerate_chord():
    with pytest.raises(PlanError):
        ctl.plan_insertion(horizontal_pose(), (0.01, 0.0, 0.0), (0.01, 0.0, 0.0), PARAMS)


def test_plan_extraction_grasps_near_endpoint_with_quoted_offsets():
    pose = horizontal_pose()
    left = RigidTransform.from_translation([-0.06, 0.0, 0.02])
    script = ctl.plan_extraction(pose, left, PARAMS, sw.make_wound())
    move, advance, close, roll, lift = script
    regrasp = pose.swage  # nearer the left jaw
    start = move.pose.translation
    assert np.linalg.norm(start - regrasp) == pytest.approx(PARAMS.approach_offset)
    assert start[2] == pytest.approx(regrasp[2])  # offset is horizontal
    assert np.linalg.norm(advance.vector) == pytest.approx(PARAMS.approach_advance)
    # 1.5 cm advance from a 1 cm standoff overshoots the grasp point by 5 mm
    end = start + np.asarray(advance.vector)
    assert np.linalg.norm(end - regrasp) == pytest.approx(0.005)
    assert isinstance(close, SetJaw) and close.state is JawState.CLOSED
    assert roll.angle == math.radians(80.0)
    assert np.allclose(roll.pivot, pose.center)
    assert lift.vector[2] == pytest.approx(PARAMS.lift_clear)


def test_plan_extraction_requires_exposed_endpoint():
    buried_tip = pc.make_needle_pose(
        (0.0, 0.0, 0.004), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), SPEC
    )
    left = RigidTransform.from_translation([0.0, -0.02, -0.008])
    with pytest.raises(ctl.ExtractionPlanError):
        ctl.plan_extraction(buried_tip, left, PARAMS, wound=sw.make_wound())


def test_plan_handover_targets_far_endpoint_plus_jitter():
    pose = horizontal_pose()
    left = RigidTransform.from_translation([-0.06, 0.0, 0.02])
    right = RigidTransform.from_translation([0.06, 0.0, 0.02])
    jitter = np.array([0.001, 0.002, 0.0])
    move, advance, close = ctl.plan_handover(pose, left, right, PARAMS, jitter)
    target = pose.tip + jitter  # endpoint farther from the left jaw
    start = move.pose.translation
    assert np.linalg.norm(start - target) == pytest.approx(PARAMS.approach_offset)
    assert np.allclose(start + np.asarray(advance.vector), target + 0.005 * geo.unit(target - start))
    assert close.state is JawState.CLOSED


# ---------------------------------------------------------------------------
# recovery decisions


def shifted(pose, delta):
    return pc.transform_pose(RigidTransform.from_translation(delta), pose)


def test_recover_extraction_thresholds():
    before = horizontal_pose()
    assert ctl.recover_extraction(before, shifted(before, [0.015, 0, 0]), PARAMS) is True
    assert ctl.recover_extraction(before, shifted(before, [0.05, 0, 0]), PARAMS) is False
    # exactly at the 2 cm threshold counts as progress
    exact = shifted(before, [PARAMS.extraction_progress_threshold, 0, 0])
    assert ctl.recover_extraction(before, exact, PARAMS) is False
    # the retry budget is not recover_extraction's: a stalled attempt always
    # asks for a retry, and _with_retries decides when to give up (pinned by
    # test_pinned_exhaustion_digests and criterion 4)
    stuck = shifted(before, [0.001, 0, 0])
    assert ctl.recover_extraction(before, stuck, PARAMS) is True


def test_recover_handover_normal_change():
    y = np.array([0.0, 1.0, 0.0])
    assert ctl.recover_handover(y, y, PARAMS) is False
    tilted = geo.rotation_about_axis(np.array([0.0, 0.0, 1.0]), math.radians(5.0)).apply_vector(y)
    assert ctl.recover_handover(y, tilted, PARAMS) is True


def test_recover_handover_boundary_is_strict():
    y = np.array([0.0, 1.0, 0.0])
    nudged = geo.rotation_about_axis(np.array([0.0, 0.0, 1.0]), math.radians(0.4)).apply_vector(y)
    # pin epsilon to the exact angle the comparison will recompute
    angle = math.atan2(
        float(np.linalg.norm(geo.cross3(geo.unit(y), geo.unit(nudged)))),
        float(np.dot(geo.unit(y), geo.unit(nudged))),
    )
    params = ControllerParams(normal_change_epsilon=angle)
    assert ctl.recover_handover(y, nudged, params) is False


# ---------------------------------------------------------------------------
# normal aggregation


def test_aggregate_normals_handles_sign_flips():
    n = geo.unit(np.array([0.2, 1.0, -0.1]))
    mean = ctl.aggregate_normals([n, -n, n, -n])
    assert abs(float(np.dot(mean, n))) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ctl.aggregate_normals([])


def test_aggregate_normals_monte_carlo():
    """Ten sign-scrambled samples with up to 2 degrees of tilt: the
    aggregate lands within 1 degree of truth in at least 95% of seeds."""
    truth = np.array([0.0, 1.0, 0.0])
    good = 0
    n_seeds = 500
    for seed in range(n_seeds):
        rng = np.random.default_rng(40_000 + seed)
        samples = []
        for _ in range(10):
            tilt = math.radians(rng.uniform(0.0, 2.0))
            azim = rng.uniform(0.0, 2.0 * math.pi)
            axis = np.array([math.cos(azim), 0.0, math.sin(azim)])
            sample = geo.rotation_about_axis(axis, tilt).apply_vector(truth)
            samples.append(-sample if rng.random() < 0.5 else sample)
        mean = ctl.aggregate_normals(samples)
        err = math.acos(min(1.0, abs(float(np.dot(mean, truth)))))
        if err <= math.radians(1.0):
            good += 1
    assert good / n_seeds >= 0.95


def test_pose_correction_restores_canonical_normal():
    world = quiet_world(seed=50)
    center = world.needle_true.center
    world.execute(
        GripperId.RIGHT,
        RotateHeld((1.0, 0.0, 0.0), math.radians(30.0), tuple(center)),
    )
    n_before = world.needle_true.normal
    assert abs(float(np.dot(n_before, [0, 1, 0]))) < math.cos(math.radians(25.0))
    ctl.pose_correction(world, PARAMS)
    n_after = world.needle_true.normal
    assert abs(float(np.dot(n_after, [0, 1, 0]))) > math.cos(math.radians(0.001))


def test_pose_correction_ignores_the_sign_of_observed_normals():
    # A normal and its negation are the same plane: observations whose
    # normals are all flipped must leave the needle in the same pose.
    def corrected(flip):
        world = quiet_world(seed=52)
        center = world.needle_true.center
        world.execute(
            GripperId.RIGHT,
            RotateHeld((1.0, 0.0, 0.0), math.radians(20.0), tuple(center)),
        )
        if flip:
            observe = world.observe

            def flipped():
                pose = observe()
                circle = geo.Circle3D(pose.center, -pose.normal, pose.radius)
                return pc.NeedlePose(circle, pose.tip, pose.swage)

            world.observe = flipped
        ctl.pose_correction(world, PARAMS)
        return world.needle_true

    kept, flipped = corrected(False), corrected(True)
    np.testing.assert_array_equal(flipped.tip, kept.tip)
    np.testing.assert_array_equal(flipped.swage, kept.swage)
    np.testing.assert_array_equal(flipped.normal, kept.normal)
    np.testing.assert_array_equal(flipped.center, kept.center)


def test_pose_correction_of_an_aligned_needle_makes_only_the_final_turn():
    world = quiet_world(seed=53)
    observe = world.observe

    def on_y():
        pose = observe()
        circle = geo.Circle3D(pose.center, (0.0, 1.0, 0.0), pose.radius)
        return pc.NeedlePose(circle, pose.tip, pose.swage)

    world.observe = on_y
    ctl.pose_correction(world, PARAMS)
    turns = [e for e in events_of(world, "motion") if e["motion"] == "rotate_held"]
    assert len(turns) == 1
    assert list(turns[0]["axis"]) == [0.0, 1.0, 0.0]
    assert turns[0]["angle"] == PARAMS.correction_final_rotation


# ---------------------------------------------------------------------------
# insertion forward kinematics


def test_insertion_script_drives_tip_past_exit():
    world = quiet_world(seed=51)
    t = world.targets[0]
    right = GripperId.RIGHT
    obs = world.observe()
    labeled = ctl.label_endpoints(obs, world.swage_hint())
    d = t.direction
    staging = (t.entry - PARAMS.approach_offset * d) - labeled.tip
    world.execute(right, Translate(tuple(staging)))
    predicted = pc.transform_pose(RigidTransform.from_translation(staging), labeled)
    for motion in ctl.plan_insertion(predicted, t.entry, t.exit, PARAMS):
        world.execute(right, motion)
    tip = world.needle_true.tip
    assert float(np.dot(tip - t.exit, d)) > 0.0
    assert world.tissue_pass_check(t.entry, t.exit) == "ok"


# ---------------------------------------------------------------------------
# full-suture state machine


def test_run_suture_nominal_path():
    world = quiet_world(seed=60)
    assert ctl.run_suture(world, PARAMS, 1) is None
    assert events_of(world, "retry") == []
    assert world.thread.pulled_through == PARAMS.l_des  # beta(1), bitwise
    assert len(events_of(world, "suture_closed")) == 1
    pulls = events_of(world, "pull_thread")
    assert len(pulls) == 1 and pulls[0]["length"] == PARAMS.l_des
    hops = [(e["frm"], e["to"]) for e in events_of(world, "transition")]
    assert ("insertion", "sweep") in hops
    assert ("pose_correction", "done") in hops
    assert not any(to == "failed" for _, to in hops)


def test_disabled_primitives_still_transition():
    world = quiet_world(seed=61)
    skip = frozenset(
        {PipelineState.SWEEP, PipelineState.CINCH, PipelineState.POSE_CORRECTION}
    )
    failed = ctl.run_suture(world, PARAMS, 1, skip)
    assert failed is None
    assert world.thread.pulled_through == 0.0
    assert not events_of(world, "sweep_complete")
    hops = [(e["frm"], e["to"]) for e in events_of(world, "transition")]
    # no-op states are entered and left so one graph fits every trace
    assert ("sweep", "extraction") in hops
    assert ("cinch", "handover") in hops


def test_scripted_extraction_failure_after_exactly_five_retries():
    world = quiet_world(seed=62)
    world.scripted_grasp_outcomes = [False] * 6
    assert ctl.run_suture(world, PARAMS, 1) is ErrorKind.EXTRACTION
    retries = [e for e in events_of(world, "retry") if e["primitive"] == "extraction"]
    assert len(retries) == PARAMS.max_retries == 5
    failed = events_of(world, "suture_failed")
    assert len(failed) == 1 and failed[0]["error"] == "I E H T".split()[1]


def test_scripted_handover_failure_after_exactly_five_retries():
    world = quiet_world(seed=63)
    world.scripted_grasp_outcomes = [True] + [False] * 6
    assert ctl.run_suture(world, PARAMS, 1) is ErrorKind.HANDOVER
    retries = [e for e in events_of(world, "retry") if e["primitive"] == "handover"]
    assert len(retries) == 5
    jitters = events_of(world, "handover_jitter")
    assert len(jitters) == 5
    assert all(0.0 <= e["magnitude"] < PARAMS.handover_jitter_max for e in jitters)


# Every way a retried primitive can spend its whole budget, pinned by the
# sha256 of the trial's event list (JSON, sorted keys). A refactor of the
# retry code keeps every digest. scenario -> (seed, params, scripted
# grasps, noise, final failure detail, digest).
EXHAUSTION = {
    "extraction_no_progress": (
        80, PARAMS, [False] * 6, ZERO_NOISE,
        "needle did not clear the tissue",
        "775d359396b2bb248b3bd423d26bc2930c6efec329eac4e286e0aa6c1bf9d921",
    ),
    "extraction_motion_error": (
        81, ControllerParams(lift_clear=0.2), None, ZERO_NOISE,
        "attempt failed: target [-0.007628311267080643, -0.020252765301072683, "
        "0.21935130294689006] outside workspace",
        "ad7b713c4f2fd167e8079d419499b8634a95f8b4faf1b7a2f40c66661d4c51f4",
    ),
    "handover_never_captured": (
        82, PARAMS, [True] + [False] * 6, ZERO_NOISE,
        "re-grasp never captured the needle",
        "9b2c5cc499db434fed859d5867677c0e61934bb89d3c058ceaf3e8e38a7be322",
    ),
    "handover_motion_error": (
        83, ControllerParams(handover_test_offset=(0.2, 0.0, 0.0)), None, ZERO_NOISE,
        "attempt failed: target [0.2079464981703719, -0.02374615098264312, "
        "0.04090871211463571] outside workspace",
        "cb578aa658ba345568ebea6998c1c11034fa88215f93fa06d4df49925bc97a23",
    ),
    "handover_pose_shifting": (
        84, ControllerParams(normal_change_epsilon=1e-9), None, sw.SIM_NOISE,
        "needle pose kept shifting in the jaws",
        "26d2d76f427266dddc2abd194286eb9cd7ddd4991f89dfe3c7921ff8ed462b93",
    ),
}


@pytest.mark.parametrize("scenario", sorted(EXHAUSTION))
def test_pinned_exhaustion_digests(scenario):
    seed, params, grasps, noise, detail, digest = EXHAUSTION[scenario]
    world = quiet_world(seed=seed, noise=noise)
    world.scripted_grasp_outcomes = grasps
    assert ctl.run_suture(world, params, 1) is not None
    assert [e["detail"] for e in events_of(world, "suture_failed")] == [detail]
    assert len(events_of(world, "retry")) == params.max_retries
    encoded = json.dumps(world.events, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(encoded).hexdigest() == digest


def test_forced_entanglement_classified_as_thread_error():
    tangles = FailureModel(
        grasp_miss_base=0.0,
        grasp_miss_per_mm_pose_error=0.0,
        entanglement_prob_unswept=1.0,
        entanglement_prob_swept=1.0,
        insertion_slip_prob=0.0,
        perception_corruption_prob=0.0,
    )
    world = quiet_world(seed=64, failures=tangles)
    assert ctl.run_suture(world, PARAMS, 1) is ErrorKind.THREAD
    assert events_of(world, "suture_failed")[0]["error"] == "T"


def test_sweep_causally_prevents_entanglement():
    cfg = dict(
        grasp_miss_base=0.0,
        grasp_miss_per_mm_pose_error=0.0,
        entanglement_prob_unswept=1.0,
        entanglement_prob_swept=0.0,
        insertion_slip_prob=0.0,
        perception_corruption_prob=0.0,
    )
    swept = quiet_world(seed=65, failures=FailureModel(**cfg))
    assert ctl.run_suture(swept, PARAMS, 1) is None

    unswept = quiet_world(seed=65, failures=FailureModel(**cfg))
    skip = frozenset({PipelineState.SWEEP})
    assert ctl.run_suture(unswept, PARAMS, 1, skip) is ErrorKind.THREAD


def test_pipeline_calls_sweep_and_correction_by_their_module_names(monkeypatch):
    # A profiler that rebinds these names must see every call they get.
    calls = {"sweep_thread": 0, "pose_correction": 0}

    def counting(name):
        fn = getattr(ctl, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(ctl, name, counting(name))
    world = quiet_world(seed=60)
    assert ctl.run_suture(world, PARAMS, 1, PRESETS["stitch"][0]) is None
    assert calls == {"sweep_thread": 1, "pose_correction": 1}


def test_intervention_resumes_and_completes_suture():
    world = quiet_world(seed=66, interventions=2)
    world.scripted_grasp_outcomes = [True] + [False] * 6 + [True, True]
    assert ctl.run_suture(world, PARAMS, 1) is None
    assert len(events_of(world, "intervention")) == 1
    assert world.interventions_left == 1
    hops = [(e["frm"], e["to"]) for e in events_of(world, "transition")]
    assert ("failed", "insertion") in hops
    assert len(events_of(world, "suture_attempt")) == 2
    assert len(events_of(world, "suture_closed")) == 1
    # the retried attempt re-pulls the full first-suture allowance
    assert world.thread.pulled_through == PARAMS.l_des


def test_run_suture_rejects_wrong_index():
    world = quiet_world(seed=67)
    with pytest.raises(ctl.ControllerError):
        ctl.run_suture(world, PARAMS, 3)
