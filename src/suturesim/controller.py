"""Closed-loop multi-throw suturing controller.

Drives a two-arm world through the six-primitive suture cycle --
insert, sweep thread, extract, cinch, hand over, correct pose -- with
perception-gated planning, bounded retries, and an optional
human-rescue mode. The geometric planners are pure functions over
observed poses; run_suture owns sequencing, event logging, and the
error taxonomy (I: insertion, E: extraction, H: handover, T: thread).
Extraction and handover are retried; one runner, _with_retries, owns
the retry budget and logs every retry.

Conventions baked in here: the right jaw drives insertions and ends up
holding the needle after each handover; the left jaw re-grasps for
extraction; "horizontal" approach directions are the z-flattened vector
from the approaching jaw to its target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry as geo
from . import perception as pc
from .geometry import RigidTransform
from .perception import NeedlePose
from .simworld import (
    WORLD_UP,
    WORLD_Y,
    BudgetExhausted,
    GripperId,
    JawState,
    MotionError,
    MoveTo,
    PerceptionError,
    RotateHeld,
    SetJaw,
    ThreadError,
    Translate,
    WorldState,
    WoundSpec,
)


class ControllerError(RuntimeError):
    """Base class for controller-level failures."""


class PlanError(ControllerError):
    """A motion plan could not be constructed from the given geometry."""


class ExtractionPlanError(PlanError):
    """No exposed needle endpoint to re-grasp."""


class CinchError(ControllerError):
    """The cinch schedule asks for a negative pull."""


class CorrectionError(ControllerError):
    """Too few usable observations to aggregate a needle normal."""


class PipelineState(Enum):
    INSERTION = "insertion"
    SWEEP = "sweep"
    EXTRACTION = "extraction"
    CINCH = "cinch"
    HANDOVER = "handover"
    POSE_CORRECTION = "pose_correction"
    DONE = "done"
    FAILED = "failed"


class ErrorKind(Enum):
    INSERTION = "I"
    EXTRACTION = "E"
    HANDOVER = "H"
    THREAD = "T"


class Decision(Enum):
    PROCEED = "proceed"
    RETRY = "retry"


@dataclass(frozen=True)
class ControllerParams:
    """Every tunable the pipeline consumes, with production defaults."""

    insertion_rotation: float = math.radians(45.0)
    extraction_rotation: float = math.radians(80.0)
    correction_final_rotation: float = math.radians(90.0)
    approach_offset: float = 0.01
    approach_advance: float = 0.015
    handover_jitter_max: float = 0.005
    extraction_progress_threshold: float = 0.02
    max_retries: int = 5
    normal_samples: int = 10
    correction_corner: tuple = (0.06, -0.03, 0.015)
    l_des: float = 0.10
    l_each: float = 0.015
    # "nonzero normal change" needs a floating-point-safe reading:
    normal_change_epsilon: float = math.radians(0.5)
    handover_test_offset: tuple = (0.003, 0.0, 0.0)
    handover_miss_epsilon: float = 0.0015
    lift_clear: float = 0.03

    def __post_init__(self):
        for name in (
            "approach_offset",
            "approach_advance",
            "handover_jitter_max",
            "extraction_progress_threshold",
            "l_des",
            "l_each",
            "handover_miss_epsilon",
            "lift_clear",
        ):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        for name in (
            "insertion_rotation",
            "extraction_rotation",
            "correction_final_rotation",
            "normal_change_epsilon",
        ):
            v = getattr(self, name)
            if not (0.0 < v <= math.pi):
                raise ValueError(f"{name} must be in (0, pi]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.normal_samples < 1:
            raise ValueError("normal_samples must be >= 1")


@dataclass(frozen=True)
class PrimitiveSet:
    """Which optional primitives the pipeline actually executes.

    Disabled primitives still appear as states in the trace (entered and
    immediately left) so every trace satisfies one transition graph.
    """

    sweep: bool = True
    cinch: bool = True
    correction: bool = True


@dataclass
class StepOutcome:
    state_after: PipelineState
    error: ErrorKind | None = None


class _PhaseFailure(Exception):
    """Internal flow control: a primitive failed terminally."""

    def __init__(self, kind: ErrorKind, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


class _Retry(Exception):
    """Internal flow control: one attempt of a retried primitive failed."""


# Errors that fail one attempt of a retried primitive, not the whole suture.
_ATTEMPT_ERRORS = (PerceptionError, MotionError, PlanError)


# ---------------------------------------------------------------------------
# Pure geometric helpers


def cinch_length(i: int, l_des: float, l_each: float) -> float:
    """Thread pull for suture i: the target loop minus prior allowances."""
    if i < 1:
        raise ValueError("suture index must be >= 1")
    beta = l_des - (i - 1) * l_each
    if beta < 0.0:
        raise CinchError(
            f"suture {i} would need a pull of {beta:.4f} m; "
            "per-suture allowance exceeds the planned length"
        )
    return beta


def rotation_sense(normal, tip, center, direction) -> float:
    """Sign s so rotating about s*normal advances the tip along direction.

    The tip's instantaneous velocity under rotation about the circle
    normal is n x (tip - center); pick the sign making it point along
    the travel direction. Sign-symmetric in the normal, so the
    estimator's canonical normal choice never matters.
    """
    n = geo.unit(normal)
    v = geo.cross3(n, geo.as_point(tip) - geo.as_point(center))
    d = float(np.dot(v, geo.as_point(direction)))
    if abs(d) < 1e-12:
        raise PlanError("rotation sense is degenerate for this geometry")
    return 1.0 if d > 0.0 else -1.0


def label_endpoints(observed: NeedlePose, swage_hint) -> NeedlePose:
    """Order an estimate's endpoints so .swage is the thread-side end."""
    hint = geo.as_point(swage_hint)
    if np.linalg.norm(observed.tip - hint) < np.linalg.norm(observed.swage - hint):
        return NeedlePose(observed.circle, observed.swage, observed.tip)
    return observed


def _horizontal_unit(v) -> np.ndarray:
    flat = geo.as_point(v) * np.array([1.0, 1.0, 0.0])
    n = float(np.linalg.norm(flat))
    if n < 1e-9:
        raise PlanError("approach direction is vertical; no horizontal component")
    return flat / n


def plan_insertion(needle: NeedlePose, entry, exit_, params: ControllerParams) -> list:
    """Drive the tip to the entry point, through to the exit chord, then
    roll the needle into the tissue about its own normal.

    `needle` must be tip-labeled (see label_endpoints). The rotation
    pivot is the circle center as it will sit after the translations.
    """
    entry = geo.as_point(entry)
    exit_ = geo.as_point(exit_)
    chord = exit_ - entry
    length = float(np.linalg.norm(chord))
    if length < 1e-9:
        raise PlanError("entry and exit points coincide")
    d = chord / length
    reach = entry - needle.tip
    center_after = needle.center + reach + chord
    s = rotation_sense(needle.normal, needle.tip, needle.center, d)
    axis = s * geo.unit(needle.normal)
    return [
        Translate(tuple(reach)),
        Translate(tuple(chord)),
        RotateHeld(tuple(axis), params.insertion_rotation, tuple(center_after)),
    ]


def _approach(target, gripper_pose: RigidTransform, params: ControllerParams) -> list:
    """Close a jaw on target, approaching along the horizontal line of sight.

    The approach starts approach_offset short of target and overshoots by
    (approach_advance - approach_offset) so the closing jaws straddle it.
    """
    h = _horizontal_unit(target - gripper_pose.translation)
    start = target - params.approach_offset * h
    return [
        MoveTo(RigidTransform.from_translation(start)),
        Translate(tuple(params.approach_advance * h)),
        SetJaw(JawState.CLOSED),
    ]


def plan_extraction(
    observed: NeedlePose,
    left_gripper_pose: RigidTransform,
    params: ControllerParams,
    wound: WoundSpec,
) -> list:
    """Re-grasp the protruding end with the left jaw and roll the needle out.

    The re-grasp point is the estimated endpoint nearer the left jaw. The
    extraction rotation continues the insertion's rolling direction: sign
    chosen so the grasped end rises.
    """
    left_pos = left_gripper_pose.translation
    ends = [observed.tip, observed.swage]
    dists = [float(np.linalg.norm(e - left_pos)) for e in ends]
    regrasp = ends[int(np.argmin(dists))]
    if wound.buried(regrasp):
        raise ExtractionPlanError("no exposed needle endpoint to re-grasp")
    script = _approach(regrasp, left_gripper_pose, params)
    s = rotation_sense(observed.normal, regrasp, observed.center, WORLD_UP)
    axis = s * geo.unit(observed.normal)
    return script + [
        RotateHeld(tuple(axis), params.extraction_rotation, tuple(observed.center)),
        Translate((0.0, 0.0, params.lift_clear)),
    ]


def plan_handover(
    observed: NeedlePose,
    left_gripper_pose: RigidTransform,
    right_gripper_pose: RigidTransform,
    params: ControllerParams,
    jitter=(0.0, 0.0, 0.0),
) -> list:
    """Bring the right jaw onto the endpoint away from the left jaw.

    jitter (a horizontal offset, zero on the first attempt) shifts the
    re-grasp target to break out of repeatable failure geometry.
    """
    left_pos = left_gripper_pose.translation
    ends = [observed.tip, observed.swage]
    dists = [float(np.linalg.norm(e - left_pos)) for e in ends]
    target = ends[int(np.argmax(dists))] + geo.as_point(jitter)
    return _approach(target, right_gripper_pose, params)


def recover_extraction(before: NeedlePose, after: NeedlePose, params: ControllerParams) -> Decision:
    """Did the extraction actually move the needle? Decide from endpoints."""
    moved = pc.pose_agreement(before, after).endpoint_dist
    return Decision.PROCEED if moved >= params.extraction_progress_threshold else Decision.RETRY


def recover_handover(before_normal, after_normal, params: ControllerParams) -> Decision:
    """Retry when the test motion disturbed the needle plane.

    Strictly-greater comparison: a change of exactly epsilon proceeds.
    """
    a = geo.unit(before_normal)
    b = geo.unit(after_normal)
    angle = math.atan2(float(np.linalg.norm(geo.cross3(a, b))), float(np.dot(a, b)))
    return Decision.RETRY if angle > params.normal_change_epsilon else Decision.PROCEED


def aggregate_normals(normals) -> np.ndarray:
    """Mean of axially-ambiguous unit normals.

    Samples are sign-aligned to the first (a normal and its negation are
    the same plane) before averaging, then the mean is normalized.
    """
    rows = [geo.unit(n) for n in normals]
    if not rows:
        raise ValueError("no normals to aggregate")
    ref = rows[0]
    aligned = [r if float(np.dot(r, ref)) >= 0.0 else -r for r in rows]
    mean = np.mean(aligned, axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-9:
        raise CorrectionError("sampled normals cancel; no usable consensus")
    return mean / norm


# ---------------------------------------------------------------------------
# World-driving primitives


def sweep_thread(world: WorldState, wound: WoundSpec, params: ControllerParams) -> None:
    """Drag the free jaw down the wound centerline to clear loose thread."""
    gripper = GripperId.LEFT if world.needle_holder != GripperId.LEFT else GripperId.RIGHT
    ys = wound.entry_points[:, 1]
    margin = 0.01
    height = wound.ridge_height + 0.004
    start = np.array([0.0, float(ys.min()) - margin, height])
    run = (float(ys.max()) - float(ys.min()) + 2.0 * margin) * WORLD_Y
    world.execute(gripper, MoveTo(RigidTransform.from_translation(start)))
    world.execute(gripper, Translate(tuple(run)))
    world.mark_swept()


def pose_correction(world: WorldState, params: ControllerParams) -> None:
    """Re-canonicalize the held needle at the low-variance corner.

    Aggregates normal_samples estimates, rotates the sampled mean normal
    onto +y, then applies the fixed final rotation about world +y that
    maps the jaw's seated grip back to the pre-insertion orientation.
    """
    holder = world.needle_holder
    if holder is None:
        raise ControllerError("pose correction requires a held needle")
    try:
        locate = world.observe()
    except PerceptionError as exc:
        raise CorrectionError(f"cannot locate needle for correction: {exc}") from exc
    try:
        world.execute(
            holder,
            Translate(tuple(geo.as_point(params.correction_corner) - locate.center)),
        )
    except MotionError as exc:
        raise CorrectionError(f"staging move infeasible: {exc}") from exc
    normals = []
    centers = []
    failures = 0
    for _ in range(params.normal_samples):
        try:
            obs = world.observe()
        except PerceptionError:
            failures += 1
            continue
        normals.append(obs.normal)
        centers.append(obs.center)
    if 2 * failures > params.normal_samples:
        raise CorrectionError(
            f"{failures} of {params.normal_samples} normal samples failed"
        )
    mean_normal = aggregate_normals(normals)
    pivot = np.mean(centers, axis=0)
    align = geo.align_vectors(mean_normal, WORLD_Y)
    axis, angle = geo.rotation_to_axis_angle(align)
    try:
        if angle > 1e-12:
            world.execute(holder, RotateHeld(tuple(axis), angle, tuple(pivot)))
        world.execute(
            holder,
            RotateHeld(tuple(WORLD_Y), params.correction_final_rotation, tuple(pivot)),
        )
    except MotionError as exc:
        # A grossly wrong normal estimate can demand a swing that leaves the
        # workspace; surface it as a failed correction, not a dead run.
        raise CorrectionError(f"corrective rotation infeasible: {exc}") from exc


def _insertion(world: WorldState, i: int, params: ControllerParams) -> None:
    right = GripperId.RIGHT
    if world.needle_holder is not right:
        raise ControllerError("insertion expects the right jaw to hold the needle")
    targets = world.targets[i - 1]
    try:
        obs = world.observe()
    except PerceptionError as exc:
        raise _PhaseFailure(ErrorKind.INSERTION, f"perception: {exc}") from exc
    labeled = label_endpoints(obs, world.swage_hint())
    d = targets.direction
    staging = (targets.entry - params.approach_offset * d) - labeled.tip
    try:
        world.execute(right, Translate(tuple(staging)))
        predicted = pc.transform_pose(RigidTransform.from_translation(staging), labeled)
        for motion in plan_insertion(predicted, targets.entry, targets.exit, params):
            world.execute(right, motion)
    except (MotionError, PlanError) as exc:
        raise _PhaseFailure(ErrorKind.INSERTION, f"motion: {exc}") from exc
    verdict = world.tissue_pass_check(targets.entry, targets.exit)
    if verdict != "ok":
        raise _PhaseFailure(ErrorKind.INSERTION, verdict)
    world.execute(right, SetJaw(JawState.OPEN))
    world.execute(right, MoveTo(world.home_poses[right]))


def _with_retries(
    world: WorldState, state: PipelineState, kind: ErrorKind, params: ControllerParams, attempt
) -> None:
    """Run attempt(world, params, k) for k = 0 .. max_retries until one returns.

    This is the only place the retry budget is read. An attempt fails
    softly by raising _Retry or one of _ATTEMPT_ERRORS; each retry is
    logged with the state's self-transition before it starts. The last
    attempt's soft failure is terminal.
    """
    for k in range(params.max_retries + 1):
        if k:
            world.log_event("retry", primitive=state.value, attempt=k)
            world.log_event("transition", frm=state.value, to=state.value)
        try:
            return attempt(world, params, k)
        except _Retry as exc:
            detail = str(exc)
        except _ATTEMPT_ERRORS as exc:
            detail = f"attempt failed: {exc}"
    raise _PhaseFailure(kind, detail)


def _extraction(world: WorldState, params: ControllerParams, k: int) -> None:
    """One extraction attempt: re-grasp the exposed end and roll the needle out."""
    left = GripperId.LEFT
    if world.grippers[left].jaw is JawState.CLOSED:
        world.execute(left, SetJaw(JawState.OPEN))
    before = world.observe()
    try:
        script = plan_extraction(before, world.grippers[left].pose, params, wound=world.wound)
    except ExtractionPlanError as exc:
        raise _PhaseFailure(ErrorKind.EXTRACTION, str(exc)) from exc
    for motion in script:
        world.execute(left, motion)
    after = world.observe()
    if recover_extraction(before, after, params) is Decision.RETRY:
        raise _Retry("needle did not clear the tissue")


def _handover(world: WorldState, params: ControllerParams, k: int) -> None:
    """One handover attempt: the right jaw grasps the far end, a test nudge
    checks the grip, and the left jaw lets go. Retries jitter the target."""
    left, right = GripperId.LEFT, GripperId.RIGHT
    jitter = np.zeros(3)
    if k:
        theta = world.rng.uniform(0.0, 2.0 * math.pi)
        mag = world.rng.uniform(0.0, params.handover_jitter_max)
        jitter = mag * np.array([math.cos(theta), math.sin(theta), 0.0])
        world.log_event("handover_jitter", magnitude=mag)
    try:
        obs = world.observe()
        script = plan_handover(
            obs, world.grippers[left].pose, world.grippers[right].pose, params, jitter
        )
        world.begin_dual_grasp()
        for motion in script:
            world.execute(right, motion)
        before = world.observe()
        world.execute(right, Translate(params.handover_test_offset))
        after = world.observe()
        if float(np.linalg.norm(after.center - before.center)) < params.handover_miss_epsilon:
            raise _Retry("re-grasp never captured the needle")
        if recover_handover(before.normal, after.normal, params) is Decision.RETRY:
            raise _Retry("needle pose kept shifting in the jaws")
    except (_Retry, *_ATTEMPT_ERRORS):
        if world.grippers[right].jaw is JawState.CLOSED:
            world.execute(right, SetJaw(JawState.OPEN))
        world.end_dual_grasp()
        raise
    world.execute(left, SetJaw(JawState.OPEN))
    world.end_dual_grasp()
    try:
        released = world.observe()
    except PerceptionError as exc:
        raise _PhaseFailure(ErrorKind.HANDOVER, f"post-release check failed: {exc}") from exc
    if float(np.linalg.norm(released.center - after.center)) > params.extraction_progress_threshold:
        raise _PhaseFailure(ErrorKind.HANDOVER, "needle dropped at release")


# ---------------------------------------------------------------------------
# The per-suture state machine


# The forward edges of the per-suture state machine; harness.validate_event_trace
# reads this table to check a trace's transitions.
NEXT_STATE = {
    PipelineState.INSERTION: PipelineState.SWEEP,
    PipelineState.SWEEP: PipelineState.EXTRACTION,
    PipelineState.EXTRACTION: PipelineState.CINCH,
    PipelineState.CINCH: PipelineState.HANDOVER,
    PipelineState.HANDOVER: PipelineState.POSE_CORRECTION,
    PipelineState.POSE_CORRECTION: PipelineState.DONE,
}


def run_suture(
    world: WorldState,
    params: ControllerParams,
    i: int,
    enabled: PrimitiveSet = PrimitiveSet(),
) -> StepOutcome:
    """Execute one full suture throw; in human mode, spend interventions
    to resume after otherwise-terminal failures."""
    if world.suture_index != i:
        raise ControllerError(
            f"world is set up for suture {world.suture_index}, not {i}"
        )
    world.set_context(suture=i)
    while True:
        world.log_event("suture_attempt")
        try:
            _attempt_suture(world, params, i, enabled)
        except _PhaseFailure as failure:
            world.set_context(phase="recovery")
            world.log_event("suture_failed", error=failure.kind.value, detail=failure.detail)
            if world.interventions_left > 0:
                try:
                    world.human_intervention()
                except BudgetExhausted:
                    pass
                else:
                    world.log_event(
                        "transition",
                        frm=PipelineState.FAILED.value,
                        to=PipelineState.INSERTION.value,
                    )
                    continue
            return StepOutcome(PipelineState.FAILED, error=failure.kind)
        world.log_event("suture_closed")
        return StepOutcome(PipelineState.DONE)


def _attempt_suture(
    world: WorldState, params: ControllerParams, i: int, enabled: PrimitiveSet
) -> None:
    """One pass through the pipeline; raises _PhaseFailure on a terminal error."""
    state = PipelineState.INSERTION

    def goto(next_state: PipelineState) -> PipelineState:
        world.log_event("transition", frm=state.value, to=next_state.value)
        world.set_context(phase=next_state.value)
        return next_state

    world.set_context(phase=state.value)
    try:
        _insertion(world, i, params)
        state = goto(PipelineState.SWEEP)
        if enabled.sweep:
            sweep_thread(world, world.wound, params)

        state = goto(PipelineState.EXTRACTION)
        _with_retries(world, state, ErrorKind.EXTRACTION, params, _extraction)
        if world.thread_entanglement_check(world.swept) == "entangled":
            raise _PhaseFailure(ErrorKind.THREAD, "thread entangled during extraction")

        state = goto(PipelineState.CINCH)
        if enabled.cinch:
            try:
                beta = cinch_length(i, params.l_des, params.l_each)
                world.pull_thread(beta)
            except (CinchError, ThreadError) as exc:
                raise _PhaseFailure(ErrorKind.THREAD, str(exc)) from exc

        state = goto(PipelineState.HANDOVER)
        _with_retries(world, state, ErrorKind.HANDOVER, params, _handover)

        state = goto(PipelineState.POSE_CORRECTION)
        if enabled.correction:
            try:
                pose_correction(world, params)
            except CorrectionError as exc:
                raise _PhaseFailure(ErrorKind.HANDOVER, f"pose correction: {exc}") from exc

        state = goto(PipelineState.DONE)
    except _PhaseFailure:
        world.log_event("transition", frm=state.value, to=PipelineState.FAILED.value)
        raise
