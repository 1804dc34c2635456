"""Simulated suturing workcell.

Ground truth for a two-arm needle-driving rig working a raised-ridge
wound pad: a circular needle with attached thread, two grippers, a
clock, and a seeded RNG. Motions are kinematic (the needle rides
rigidly with whichever jaw holds it); contact effects -- grasp misses,
thread entanglement, insertion slips, corrupted estimates -- are
injected stochastically from the world's RNG so that every trial is a
pure function of its seed.

Observations are rendered geometrically: the visible part of the needle
arc (whatever is not buried in the ridge) is sampled into a synthetic
cloud and run through the pose estimator, so perception quality feeds
back into control exactly as it would from a camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import geometry as geo
from . import perception as pc
from .geometry import RigidTransform
from .perception import NeedlePose, NeedleSpec, NoiseModel, RansacParams

WORLD_UP = np.array([0.0, 0.0, 1.0])
WORLD_Y = np.array([0.0, 1.0, 0.0])

# Jaw geometry: a closing jaw can capture the needle anywhere along a
# channel reaching JAW_CAPTURE_DEPTH back from the tool point along the
# approach direction, out to JAW_CAPTURE_RADIUS sideways.
JAW_CAPTURE_RADIUS = 0.010
JAW_CAPTURE_DEPTH = 0.015

WOUND_TOLERANCE = 0.002  # how close the needle circle must pass to entry/exit

WORKSPACE_MIN = np.array([-0.12, -0.12, -0.01])
WORKSPACE_MAX = np.array([0.12, 0.12, 0.15])

# Samples along the needle body for the jaw-distance query only: arc-to-segment
# distance is the root of a quartic, with no closed form worth its code.
_ARC_SCAN = 720

# In-loop sensing defaults, for make_world and harness.ExperimentConfig alike.
# SIM_NOISE is the plant model for closed-loop runs; the estimator is tested
# against far harsher clouds separately. Against this benign noise, consensus
# saturates long before the offline estimator's default hypothesis budget, so
# 120 RANSAC iterations per stage keep 2000-trial sweeps fast.
SIM_NOISE = NoiseModel(gaussian_sigma=3e-4, outlier_fraction=0.05, dropout_fraction=0.05)
SIM_RANSAC = RansacParams(iterations=120)
SIM_CIRCLE_RANSAC = RansacParams(iterations=120, inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD)
SIM_CLOUD_POINTS = 140


class SimulationError(RuntimeError):
    """Base class for simulator failures."""


class MotionError(SimulationError):
    """A commanded motion left the workspace or was malformed."""


class PerceptionError(SimulationError):
    """An observation could not produce a pose estimate."""

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class ThreadError(SimulationError):
    """Thread bookkeeping violation (ran out of thread)."""


class BudgetExhausted(SimulationError):
    """No human interventions left."""


class InvariantViolation(AssertionError):
    """The world reached a state its own rules forbid."""


# ---------------------------------------------------------------------------
# Specs and models


@dataclass(frozen=True)
class WoundSpec:
    """Raised-ridge wound: entries on one face, exits on the other.

    The ridge runs along world y through x = 0, occupying
    |x| <= ridge_half_width, 0 <= z <= ridge_height; the pad surface is
    z = 0. Entry/exit pairs are matched by index, one per suture.
    """

    entry_points: np.ndarray
    exit_points: np.ndarray
    ridge_half_width: float = 0.005
    ridge_height: float = 0.010

    def __post_init__(self):
        entries = np.asarray(self.entry_points, dtype=float).reshape(-1, 3)
        exits = np.asarray(self.exit_points, dtype=float).reshape(-1, 3)
        if len(entries) == 0 or len(entries) != len(exits):
            raise ValueError("entry/exit point lists must be non-empty and equal length")
        if not (self.ridge_half_width > 0.0 and self.ridge_height > 0.0):
            raise ValueError("ridge dimensions must be positive")
        entries.setflags(write=False)
        exits.setflags(write=False)
        object.__setattr__(self, "entry_points", entries)
        object.__setattr__(self, "exit_points", exits)

    @property
    def n_target_sutures(self) -> int:
        return len(self.entry_points)

    def entry(self, i: int) -> np.ndarray:
        """Entry point of 1-based suture i."""
        return self.entry_points[i - 1]

    def exit(self, i: int) -> np.ndarray:
        return self.exit_points[i - 1]

    def buried(self, points) -> np.ndarray:
        """Bool mask of points inside tissue (in the ridge or below the pad); (3,) or (n, 3)."""
        p = np.asarray(points, dtype=float)
        x, z = p[..., 0], p[..., 2]
        in_ridge = (np.abs(x) <= self.ridge_half_width) & (z >= 0.0) & (z <= self.ridge_height)
        return in_ridge | (z < 0.0)


def make_wound(
    n_sutures: int = 6,
    spacing: float = 0.01,
    ridge_half_width: float = 0.005,
    ridge_height: float = 0.010,
    entry_height: float = 0.005,
) -> WoundSpec:
    """Evenly spaced suture sites straddling the ridge, centered on y = 0."""
    ys = (np.arange(n_sutures) - (n_sutures - 1) / 2.0) * spacing
    entries = np.stack([np.full(n_sutures, ridge_half_width), ys, np.full(n_sutures, entry_height)], axis=1)
    exits = np.stack([np.full(n_sutures, -ridge_half_width), ys, np.full(n_sutures, entry_height)], axis=1)
    return WoundSpec(entries, exits, ridge_half_width, ridge_height)


@dataclass(frozen=True)
class SutureTargets:
    """Geometry derived from one entry/exit pair.

    final_center is where the needle circle center sits once the needle
    threads both points with its plane vertical; ready_tip_radial is the
    tip's radial direction in the pre-insertion pose (so that a
    translation of the tip onto the entry point followed by a chord-long
    advance lands the circle exactly on final_center).
    """

    entry: np.ndarray
    exit: np.ndarray
    direction: np.ndarray
    chord: float
    final_center: np.ndarray
    ready_tip_radial: np.ndarray
    true_normal: np.ndarray


def suture_targets(wound: WoundSpec, i: int, radius: float) -> SutureTargets:
    entry = wound.entry(i)
    exit_ = wound.exit(i)
    chord_vec = exit_ - entry
    chord = float(np.linalg.norm(chord_vec))
    if chord < 1e-9:
        raise ValueError("entry and exit points coincide")
    if chord > 2.0 * radius:
        raise ValueError("entry-exit chord exceeds the needle diameter")
    direction = chord_vec / chord
    rise = math.sqrt(radius * radius - 0.25 * chord * chord)
    final_center = 0.5 * (entry + exit_) + rise * WORLD_UP
    ready_tip_radial = (exit_ - final_center) / radius
    true_normal = geo.unit(geo.cross3(WORLD_UP, direction))
    return SutureTargets(entry, exit_, direction, chord, final_center, ready_tip_radial, true_normal)


@dataclass
class FailureModel:
    """Stochastic contact / perception failure rates.

    grasp success at distance d (mm) from the jaw channel is
    1 - (grasp_miss_base + grasp_miss_per_mm_pose_error * d), clamped.
    intervention_budget = 0 disables the human-recovery mode.
    """

    grasp_miss_base: float = 0.04
    grasp_miss_per_mm_pose_error: float = 0.03
    entanglement_prob_unswept: float = 0.30
    entanglement_prob_swept: float = 0.05
    insertion_slip_prob: float = 0.12
    perception_corruption_prob: float = 0.05
    intervention_budget: int = 2

    def __post_init__(self):
        for name in (
            "grasp_miss_base",
            "grasp_miss_per_mm_pose_error",
            "entanglement_prob_unswept",
            "entanglement_prob_swept",
            "insertion_slip_prob",
            "perception_corruption_prob",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.entanglement_prob_swept > self.entanglement_prob_unswept:
            raise ValueError("sweeping must not increase the entanglement probability")
        if self.intervention_budget < 0:
            raise ValueError("intervention_budget must be >= 0")

    def grasp_success_prob(self, distance_mm: float) -> float:
        p_miss = self.grasp_miss_base + self.grasp_miss_per_mm_pose_error * distance_mm
        return min(1.0, max(0.0, 1.0 - p_miss))


DEFAULT_DURATIONS = {
    "move_to": 8.0,
    "translate": 5.0,
    "rotate_held": 10.0,
    "jaw": 1.5,
    "pull_thread": 5.0,
    "intervention": 30.0,
}


@dataclass
class TimingModel:
    """Simulated wall-clock costs; calibration, not prediction."""

    perception_period: float = 1.5
    durations: dict = field(default_factory=lambda: dict(DEFAULT_DURATIONS))

    def __post_init__(self):
        if not (self.perception_period > 0.0):
            raise ValueError("perception_period must be positive")
        for name, v in self.durations.items():
            if not (v > 0.0):
                raise ValueError(f"duration for {name!r} must be positive")

    def duration(self, primitive: str) -> float:
        try:
            return self.durations[primitive]
        except KeyError:
            raise MotionError(f"no duration configured for primitive {primitive!r}") from None


class GripperId(Enum):
    LEFT = "left"
    RIGHT = "right"


class JawState(Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass
class GripperState:
    id: GripperId
    pose: RigidTransform
    jaw: JawState = JawState.OPEN
    last_move_dir: np.ndarray | None = None

    @property
    def position(self) -> np.ndarray:
        return self.pose.translation


@dataclass
class ThreadState:
    total_length: float = 0.40
    pulled_through: float = 0.0
    per_suture_used: list = field(default_factory=list)

    def __post_init__(self):
        if not (self.total_length > 0.0):
            raise ValueError("total_length must be positive")
        if not (0.0 <= self.pulled_through <= self.total_length):
            raise ValueError("pulled_through must lie in [0, total_length]")
        if any(v < 0.0 for v in self.per_suture_used):
            raise ValueError("per_suture_used entries must be >= 0")

    @property
    def remaining(self) -> float:
        return self.total_length - self.pulled_through


# ---------------------------------------------------------------------------
# Motion primitives


@dataclass(frozen=True)
class MoveTo:
    pose: RigidTransform


@dataclass(frozen=True)
class Translate:
    vector: tuple


@dataclass(frozen=True)
class RotateHeld:
    axis: tuple
    angle: float
    pivot: tuple


@dataclass(frozen=True)
class SetJaw:
    state: JawState


Motion = MoveTo | Translate | RotateHeld | SetJaw


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


# ---------------------------------------------------------------------------
# The world


class WorldState:
    """Single-trial mutable ground truth plus the append-only event log.

    All randomness flows through self.rng in a fixed draw order, so a
    trial is reproducible bit-for-bit from its seed.
    """

    def __init__(
        self,
        spec: NeedleSpec,
        wound: WoundSpec,
        thread: ThreadState,
        failures: FailureModel,
        timing: TimingModel,
        noise: NoiseModel,
        ransac: RansacParams,
        circle_ransac: RansacParams,
        seed: int,
        n_cloud_points: int = SIM_CLOUD_POINTS,
    ):
        self.spec = spec
        self.wound = wound
        self.thread = thread
        self.failures = failures
        self.timing = timing
        self.noise = noise
        self.ransac = ransac
        self.circle_ransac = circle_ransac
        self.seed = int(seed)
        self.rng = np.random.default_rng(int(seed))
        self.n_cloud_points = int(n_cloud_points)

        self.targets = [suture_targets(wound, i, spec.radius) for i in range(1, wound.n_target_sutures + 1)]
        # The jaw's stable ("seated") needle orientation: the fixed
        # in-plane angle from which the standard correction rotation
        # recovers the pre-insertion pose.
        undo = geo.rotation_about_axis(WORLD_Y, -math.pi / 2.0)
        self.seat_tip_radial = geo.unit(undo.apply_vector(self.targets[0].ready_tip_radial))

        home_z = 0.06
        self.home_poses = {
            GripperId.LEFT: RigidTransform.from_translation([-0.06, 0.0, home_z]),
            GripperId.RIGHT: RigidTransform.from_translation([0.06, 0.0, home_z]),
        }
        self.grippers = {
            GripperId.LEFT: GripperState(GripperId.LEFT, self.home_poses[GripperId.LEFT]),
            GripperId.RIGHT: GripperState(GripperId.RIGHT, self.home_poses[GripperId.RIGHT]),
        }

        self.suture_index = 1
        self.clock = 0.0
        self.events: list[dict] = []
        self.swept = False
        self.interventions_left = failures.intervention_budget
        self.scripted_grasp_outcomes: list[bool] | None = None  # fault-injection hook

        self._ctx: dict = {}
        # needle_true's arc frame and burial pieces, for the pose they
        # were computed from (see _arc_frame).
        self._arc_pose: NeedlePose | None = None
        self._frame: tuple[np.ndarray, np.ndarray] | None = None
        self._pieces: list[tuple[float, float, bool]] | None = None
        # Grippers holding the needle, in grasp order; the last one moves it.
        self._holders: list[GripperId] = []
        self._dual_window = False
        self._twist_pending: tuple[np.ndarray, float] | None = None

        if len(thread.per_suture_used) == 0:
            thread.per_suture_used = [0.0] * wound.n_target_sutures
        self._seat_in_right_jaw(1)

    # -- context & logging ---------------------------------------------------

    def set_context(self, **ctx) -> None:
        """Fields merged into every subsequent event record."""
        self._ctx.update(ctx)

    def log_event(self, kind: str, **payload) -> dict:
        event = {"n": len(self.events), "t": self.clock, "kind": kind}
        event.update({k: _jsonable(v) for k, v in self._ctx.items()})
        event.update({k: _jsonable(v) for k, v in payload.items()})
        self.events.append(event)
        return event

    def advance_clock(self, dt: float) -> None:
        if dt < 0.0:
            raise MotionError("clock may not run backwards")
        self.clock += dt

    # -- needle geometry queries ----------------------------------------------

    @property
    def needle_holder(self) -> GripperId | None:
        return self._holders[-1] if self._holders else None

    def swage_hint(self) -> np.ndarray:
        """True swage position, for disambiguating estimated endpoints.

        The thread attachment is visually distinct on a real needle; the
        simulator stands in for that cue with ground truth.
        """
        return self.needle_true.swage.copy()

    def _arc_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """pc.arc_frame of needle_true, computed once per pose.

        The memo is keyed on the pose object's identity: poses are
        immutable, and every motion, drop and reseat assigns a new one.
        Burial depends only on the pose and the fixed wound, so the
        pieces (_arc_pieces) share the key.
        """
        pose = self.needle_true
        if self._arc_pose is not pose:
            self._arc_pose = pose
            self._frame = pc.arc_frame(pose, self.spec.arc_span)
            self._pieces = None
        return self._frame

    def _arc_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c) with the needle body p(s) = a + b cos s + c sin s."""
        e1, e2 = self._arc_frame()
        pose = self.needle_true
        return pose.center, pose.radius * e1, pose.radius * e2

    def _arc_pieces(self) -> list[tuple[float, float, bool]]:
        """[0, arc_span] cut where the body crosses a ridge or pad face; burial
        changes only there, so each piece is labelled by its midpoint.
        Computed once per pose (see _arc_frame); callers only read it."""
        self._arc_frame()  # drops the pieces of an earlier pose
        if self._pieces is None:
            self._pieces = self._cut_arc()
        return self._pieces

    def _cut_arc(self) -> list[tuple[float, float, bool]]:
        a, b, c = self._arc_coefficients()
        w = self.wound
        span = self.spec.arc_span
        cuts = {0.0, span}
        for k, level in ((0, -w.ridge_half_width), (0, w.ridge_half_width), (2, 0.0), (2, w.ridge_height)):
            cuts.update(_crossings(a[k], b[k], c[k], level, span))
        cuts = sorted(cuts)
        mid = 0.5 * (np.array(cuts[:-1]) + np.array(cuts[1:]))
        buried = w.buried(a + np.outer(np.cos(mid), b) + np.outer(np.sin(mid), c))
        return [(lo, hi, bool(x)) for lo, hi, x in zip(cuts[:-1], cuts[1:], buried)]

    def _lowest_z(self) -> float:
        """Lowest z of the needle body: the lower end, or the circle's
        bottom when that lies inside the span."""
        a, b, c = (v[2] for v in self._arc_coefficients())
        span = self.spec.arc_span
        if (math.atan2(c, b) + math.pi) % (2.0 * math.pi) <= span:
            return a - math.hypot(b, c)
        return min(a + b, a + b * math.cos(span) + c * math.sin(span))

    def needle_buried(self) -> bool:
        """True when any part of the needle body sits inside tissue."""
        return any(buried for _, _, buried in self._arc_pieces())

    def visible_intervals(self) -> list[tuple[float, float]]:
        """Unburied arc-parameter intervals, ends exact to rounding."""
        intervals: list[tuple[float, float]] = []
        for lo, hi, buried in self._arc_pieces():
            if buried:
                continue
            if intervals and intervals[-1][1] == lo:
                intervals[-1] = (intervals[-1][0], hi)
            else:
                intervals.append((lo, hi))
        return [(lo, hi) for lo, hi in intervals if hi - lo > 1e-9]

    def needle_distance_to_segment(self, seg_a: np.ndarray, seg_b: np.ndarray) -> float:
        """Min distance from the needle body to a line segment."""
        span = self.spec.arc_span
        pts = pc.arc_points(
            self.needle_true, span, np.linspace(0.0, span, _ARC_SCAN), self._arc_frame()
        )
        d = seg_b - seg_a
        dd = float(np.dot(d, d))
        if dd < 1e-18:
            return float(np.min(np.linalg.norm(pts - seg_a, axis=1)))
        t = np.clip((pts - seg_a) @ d / dd, 0.0, 1.0)
        closest = seg_a + t[:, None] * d
        return float(np.min(np.linalg.norm(pts - closest, axis=1)))

    # -- observation -----------------------------------------------------------

    def observe(self) -> NeedlePose:
        """Render a cloud from the visible arc and estimate the pose.

        Advances the clock by one perception period whether or not the
        estimate succeeds. Raises PerceptionError on full occlusion or
        estimator failure.
        """
        self.advance_clock(self.timing.perception_period)
        intervals = self.visible_intervals()
        if not intervals:
            self.log_event("observation", ok=False, reason="fully_occluded")
            raise PerceptionError("needle fully occluded", stage="render")

        cloud_seed = int(self.rng.integers(0, 2**63 - 1))
        corrupt_u = float(self.rng.random())
        cloud = pc.sample_visible_cloud(
            self.needle_true,
            self.spec,
            intervals,
            self.noise,
            self.n_cloud_points,
            np.random.default_rng(cloud_seed),
            self._arc_frame(),
        )
        plane_params = replace(self.ransac, seed=cloud_seed)
        circle_params = replace(self.circle_ransac, seed=cloud_seed)
        try:
            estimate = pc.estimate_needle_pose(cloud, self.spec, plane_params, circle_params)
        except pc.EstimationError as exc:
            self.log_event("observation", ok=False, reason="estimation", stage=exc.stage)
            raise PerceptionError(str(exc), stage=exc.stage) from exc

        corrupted = corrupt_u < self.failures.perception_corruption_prob
        if corrupted:
            axis = geo.unit(self.rng.normal(size=3))
            angle = self.rng.uniform(math.radians(10.0), math.radians(30.0))
            offset = geo.unit(self.rng.normal(size=3)) * self.rng.uniform(0.005, 0.015)
            warp = RigidTransform.from_translation(offset).compose(
                geo.rotation_about_point(axis, angle, estimate.center)
            )
            estimate = pc.transform_pose(warp, estimate)

        self.log_event(
            "observation",
            ok=True,
            corrupted=corrupted,
            center=estimate.center,
            normal=estimate.normal,
            visible_arc=sum(b - a for a, b in intervals),
        )
        return estimate

    # -- motion execution --------------------------------------------------------

    def execute(self, gripper_id: GripperId, motion: Motion) -> None:
        g = self.grippers[gripper_id]
        if isinstance(motion, MoveTo):
            self._check_bounds(motion.pose.translation)
            delta = motion.pose.compose(g.pose.inverse())
            self._displace(g, delta, motion.pose.translation - g.position)
            g.pose = motion.pose
            self.advance_clock(self.timing.duration("move_to"))
            self.log_event("motion", motion="move_to", gripper=g.id, position=g.position)
        elif isinstance(motion, Translate):
            v = geo.as_point(motion.vector)
            target = g.position + v
            self._check_bounds(target)
            delta = RigidTransform.from_translation(v)
            self._displace(g, delta, v)
            g.pose = delta.compose(g.pose)
            self.advance_clock(self.timing.duration("translate"))
            self.log_event("motion", motion="translate", gripper=g.id, vector=v)
        elif isinstance(motion, RotateHeld):
            axis = geo.require_unit(motion.axis, "rotation axis")
            delta = geo.rotation_about_point(axis, motion.angle, motion.pivot)
            new_pose = delta.compose(g.pose)
            self._check_bounds(new_pose.translation)
            self._displace(g, delta, new_pose.translation - g.position)
            g.pose = new_pose
            self.advance_clock(self.timing.duration("rotate_held"))
            self.log_event(
                "motion", motion="rotate_held", gripper=g.id, axis=axis, angle=motion.angle
            )
        elif isinstance(motion, SetJaw):
            self.advance_clock(self.timing.duration("jaw"))
            self.log_event("motion", motion="jaw", gripper=g.id, jaw=motion.state)
            if motion.state is JawState.OPEN:
                self._jaw_open(g)
            else:
                self._jaw_close(g)
        else:
            raise MotionError(f"unknown motion {motion!r}")
        self._assert_invariants()

    def _check_bounds(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=float)
        if np.any(p < WORKSPACE_MIN) or np.any(p > WORKSPACE_MAX):
            raise MotionError(f"target {p.tolist()} outside workspace")

    def _displace(self, g: GripperState, delta: RigidTransform, displacement: np.ndarray) -> None:
        """Common bookkeeping for a gripper displacement: carry the needle."""
        if self.needle_holder is g.id:
            if self._dual_window and self._twist_pending is not None:
                axis, angle = self._twist_pending
                self._twist_pending = None
                twist = geo.rotation_about_point(axis, angle, self.needle_true.center)
                self.needle_true = pc.transform_pose(twist, self.needle_true)
                self.log_event("disturbance", what="needle_twist", angle=angle)
            self.needle_true = pc.transform_pose(delta, self.needle_true)
        n = float(np.linalg.norm(displacement))
        if n > 1e-12:
            g.last_move_dir = np.asarray(displacement, dtype=float) / n

    def _jaw_open(self, g: GripperState) -> None:
        g.jaw = JawState.OPEN
        if g.id not in self._holders:
            return
        self._holders.remove(g.id)
        # The other jaw, if it holds the needle, now carries it; with no
        # holder left, the needle falls unless tissue grips it.
        if not self._holders and not self.needle_buried():
            self._drop_needle()

    def _drop_needle(self) -> None:
        dz = self._lowest_z() - 0.001
        fall = RigidTransform.from_translation([0.0, 0.0, -dz])
        self.needle_true = pc.transform_pose(fall, self.needle_true)
        self.log_event("drop", what="needle")

    def _jaw_close(self, g: GripperState) -> None:
        g.jaw = JawState.CLOSED
        if g.id in self._holders:
            return
        direction = g.last_move_dir if g.last_move_dir is not None else WORLD_UP
        seg_a = g.position - JAW_CAPTURE_DEPTH * direction
        distance = self.needle_distance_to_segment(seg_a, g.position)
        distance_mm = distance * 1000.0

        if distance > JAW_CAPTURE_RADIUS:
            self.log_event(
                "grasp", gripper=g.id, success=False, reason="out_of_reach", distance_mm=distance_mm
            )
            return

        prob = self.failures.grasp_success_prob(distance_mm)
        if self.scripted_grasp_outcomes:
            success = bool(self.scripted_grasp_outcomes.pop(0))
            prob = 1.0 if success else 0.0
        else:
            success = float(self.rng.random()) < prob
        if not success:
            self.log_event(
                "grasp", gripper=g.id, success=False, reason="miss",
                distance_mm=distance_mm, probability=prob,
            )
            return

        if self._holders and not self._dual_window:
            raise InvariantViolation("second grasp outside the handover window")
        self._holders.append(g.id)  # an earlier holder stays on, passive

        seated = False
        if not self.needle_buried():
            seated = self._seat_needle()

        if self._dual_window and self.scripted_grasp_outcomes is None:
            # Marginal dual grasps can twist the needle when the new
            # holder first moves; draw it now to keep the stream order fixed.
            if float(self.rng.random()) < 1.0 - prob:
                u, v = geo.plane_basis(self.needle_true.circle.plane())
                phi = self.rng.uniform(0.0, 2.0 * math.pi)
                axis = math.cos(phi) * u + math.sin(phi) * v
                angle = self.rng.uniform(math.radians(2.0), math.radians(6.0))
                self._twist_pending = (geo.unit(axis), float(angle))

        self.log_event(
            "grasp", gripper=g.id, success=True,
            distance_mm=distance_mm, probability=prob, seated=seated,
        )

    def _seat_needle(self) -> bool:
        """Snap the held needle's in-plane angle to the jaw's stable seat."""
        pose = self.needle_true
        n = pose.normal
        target = self.seat_tip_radial - float(np.dot(self.seat_tip_radial, n)) * n
        norm = float(np.linalg.norm(target))
        if norm < 1e-9:
            return False
        target = target / norm
        rho = geo.unit(pose.tip - pose.center)
        angle = geo.signed_angle_about(n, rho, target)
        if abs(angle) < 1e-12:
            return False
        spin = geo.rotation_about_point(n, angle, pose.center)
        self.needle_true = pc.transform_pose(spin, pose)
        return True

    # -- handover window -----------------------------------------------------------

    def begin_dual_grasp(self) -> None:
        self._dual_window = True

    def end_dual_grasp(self) -> None:
        self._dual_window = False
        self._twist_pending = None
        self._assert_invariants()

    # -- checks and thread ------------------------------------------------------------

    def tissue_pass_check(self, entry, exit_) -> str:
        """Classify the inserted needle against the wound geometry.

        Returns "ok" or an insertion-error kind: "missed_wound" when the
        needle circle does not thread both given points,
        "non_wound_region" when the body dives under the pad, "slip"
        on a stochastic loss of purchase during an otherwise good pass.
        """
        entry = geo.as_point(entry)
        exit_ = geo.as_point(exit_)
        d_entry = _point_circle_distance(entry, self.needle_true)
        d_exit = _point_circle_distance(exit_, self.needle_true)
        result = "ok"
        if d_entry > WOUND_TOLERANCE or d_exit > WOUND_TOLERANCE:
            result = "missed_wound"
        else:
            if self._lowest_z() < -1e-9:
                result = "non_wound_region"
            elif float(self.rng.random()) < self.failures.insertion_slip_prob:
                result = "slip"
        self.log_event(
            "tissue_pass_check", result=result,
            entry_error_mm=d_entry * 1000.0, exit_error_mm=d_exit * 1000.0,
        )
        return result

    def thread_entanglement_check(self, swept: bool) -> str:
        p = (
            self.failures.entanglement_prob_swept
            if swept
            else self.failures.entanglement_prob_unswept
        )
        entangled = float(self.rng.random()) < p
        self.log_event("entanglement_check", swept=swept, entangled=entangled)
        return "entangled" if entangled else "clear"

    def mark_swept(self) -> None:
        self.swept = True
        self.log_event("sweep_complete")

    def pull_thread(self, length: float) -> None:
        if length < 0.0:
            raise ValueError("pull length must be >= 0")
        if self.thread.pulled_through + length > self.thread.total_length + 1e-12:
            self.log_event(
                "thread_error", requested=length, remaining=self.thread.remaining
            )
            raise ThreadError(
                f"pull of {length:.3f} m exceeds remaining thread {self.thread.remaining:.3f} m"
            )
        self.thread.pulled_through += length
        self.thread.per_suture_used[self.suture_index - 1] += length
        self.advance_clock(self.timing.duration("pull_thread"))
        self.log_event("pull_thread", length=length, pulled_through=self.thread.pulled_through)

    # -- recovery -------------------------------------------------------------------

    def human_intervention(self) -> None:
        """Reset the workspace to a safe configuration (costs budget).

        The needle is re-seated in the right jaw at the current suture's
        pre-insertion pose, this suture's thread use is returned (the
        supervisor untangles and re-tensions), and the sweep flag is
        cleared.
        """
        if self.interventions_left <= 0:
            raise BudgetExhausted("no human interventions left")
        self.interventions_left -= 1
        self.advance_clock(self.timing.duration("intervention"))

        i = self.suture_index
        used = self.thread.per_suture_used[i - 1]
        self.thread.pulled_through -= used
        self.thread.per_suture_used[i - 1] = 0.0

        self.swept = False
        self._dual_window = False
        self._twist_pending = None

        for gid, g in self.grippers.items():
            g.pose = self.home_poses[gid]
            g.jaw = JawState.OPEN
            g.last_move_dir = None
        self._seat_in_right_jaw(i)
        self.log_event("intervention", remaining=self.interventions_left, thread_returned=used)

    def ready_pose(self, i: int) -> NeedlePose:
        """Pre-insertion needle pose for suture i, hovering clear of tissue."""
        t = self.targets[i - 1]
        hover = t.entry - 0.01 * t.direction + 0.03 * WORLD_UP
        return pc.make_needle_pose(hover, t.true_normal, t.ready_tip_radial, self.spec)

    def _seat_in_right_jaw(self, i: int) -> None:
        """Put the needle at suture i's ready pose, held in the closed right jaw."""
        self.needle_true = self.ready_pose(i)
        right = self.grippers[GripperId.RIGHT]
        right.jaw = JawState.CLOSED
        right.pose = RigidTransform.from_translation(self.needle_true.center + 0.004 * WORLD_UP)
        self._holders = [GripperId.RIGHT]

    def advance_suture(self) -> None:
        if self.suture_index >= self.wound.n_target_sutures:
            raise SimulationError("no sutures left in the wound plan")
        self.suture_index += 1
        self.swept = False

    # -- invariants -----------------------------------------------------------------

    def _assert_invariants(self) -> None:
        if len(self._holders) > 1 and not self._dual_window:
            raise InvariantViolation(f"dual grasp outside handover window: {self._holders}")


def _crossings(a: float, b: float, c: float, level: float, span: float) -> list[float]:
    """Arc parameters s in [0, span] where a + b cos s + c sin s == level."""
    amp = math.hypot(b, c)
    if amp == 0.0 or abs(level - a) > amp:
        return []
    phase = math.atan2(c, b)
    half = math.acos((level - a) / amp)
    roots = ((phase + half) % (2.0 * math.pi), (phase - half) % (2.0 * math.pi))
    return [s for s in roots if s <= span]


def _point_circle_distance(p: np.ndarray, pose: NeedlePose) -> float:
    """Distance from a point to the needle circle (not the disc)."""
    w = p - pose.center
    axial = float(np.dot(w, pose.normal))
    in_plane = w - axial * pose.normal
    radial = float(np.linalg.norm(in_plane)) - pose.radius
    return math.hypot(axial, radial)


def make_world(
    seed: int,
    spec: NeedleSpec | None = None,
    wound: WoundSpec | None = None,
    failures: FailureModel | None = None,
    timing: TimingModel | None = None,
    noise: NoiseModel | None = None,
    ransac: RansacParams | None = None,
    circle_ransac: RansacParams | None = None,
    thread: ThreadState | None = None,
    n_cloud_points: int = SIM_CLOUD_POINTS,
) -> WorldState:
    """Assemble a trial-ready world: needle seated in the right jaw, poised
    over the first suture site."""
    spec = spec or NeedleSpec()
    wound = wound or make_wound()
    failures = failures or FailureModel()
    timing = timing or TimingModel()
    noise = noise if noise is not None else SIM_NOISE
    ransac = ransac or SIM_RANSAC
    circle_ransac = circle_ransac or SIM_CIRCLE_RANSAC
    thread = thread or ThreadState()
    return WorldState(
        spec, wound, thread, failures, timing, noise,
        ransac, circle_ransac, seed, n_cloud_points,
    )
