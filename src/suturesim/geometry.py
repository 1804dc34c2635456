"""Exact 3D primitives and rigid-body transforms.

Points and directions are plain float64 numpy arrays of shape (3,),
point sets are (n, 3). Lengths are meters, angles radians. All values
here are treated as immutable once constructed, so they can be shared
freely between trials and workers. Constructors freeze copies of the
arrays they keep: the caller's arrays stay writable, and writing to
them leaves the object as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Unit vectors / rotation matrices must satisfy their defining equations
# to within this tolerance.
UNIT_TOL = 1e-9

# Below this value of 1 + cos(angle between inputs) the single-step
# alignment formula is ill-conditioned and align_vectors goes through an
# intermediate perpendicular direction instead.
_ANTIPARALLEL_CUTOFF = 1e-4

_AXES = np.eye(3)
_AXES.setflags(write=False)


class GeometryError(ValueError):
    """Geometric input violates a precondition."""


class InvalidAxis(GeometryError):
    """A rotation axis was not a unit vector."""


def as_point(p) -> np.ndarray:
    """Coerce to a float64 (3,) array, rejecting non-finite values."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    # Three math.isfinite calls cost a fifth of np.isfinite(a).all(), on
    # the most called function of every trial.
    x, y, z = a.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise GeometryError("non-finite coordinate")
    return a


def norm(a: np.ndarray) -> float:
    """Euclidean norm of a float64 1-D array.

    math.sqrt(a.dot(a)) runs exactly the operations np.linalg.norm runs
    on a 1-D array, so it returns the same bytes, without the dispatch
    that makes np.linalg.norm several times slower on a 3-vector.
    """
    return math.sqrt(a.dot(a))


def unit(v) -> np.ndarray:
    """Normalize v, rejecting near-zero input."""
    a = as_point(v)
    n = norm(a)
    if n < 1e-12:
        raise GeometryError("cannot normalize a near-zero vector")
    return a / n


def require_unit(v, what: str = "axis") -> np.ndarray:
    """Validate that v already has norm 1 within UNIT_TOL."""
    a = as_point(v)
    if abs(norm(a) - 1.0) > UNIT_TOL:
        raise InvalidAxis(f"{what} must be a unit vector, |v| = {np.linalg.norm(a)!r}")
    return a


def _skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors.

    np.cross pays ~30x this in shape juggling for the single-vector
    case, and it sits on several per-observation paths.
    """
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotation, dtype=float).reshape(3, 3)
        t = as_point(np.array(self.translation, dtype=float))
        # Both checks reject NaN. The determinant is expanded in closed
        # form: np.linalg.det costs a LAPACK call and an errstate round
        # trip, on every compose, inverse and rotation.
        if not np.abs(R.T @ R - _AXES).max() <= 1e-8:
            raise GeometryError("rotation is not orthonormal")
        (a, b, c), (d, e, f), (g, h, i) = R.tolist()
        if not abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) <= 1e-8:
            raise GeometryError("rotation must have determinant +1")
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_translation(v) -> "RigidTransform":
        return RigidTransform(np.eye(3), as_point(v))

    def apply(self, points) -> np.ndarray:
        """Apply to one point (3,) or a stack (n, 3)."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def apply_vector(self, v) -> np.ndarray:
        """Rotate a direction without translating it."""
        return self.rotation @ as_point(v)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self.compose(other)).apply(p) == self.apply(other.apply(p))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -(Rt @ self.translation))


@dataclass(frozen=True)
class Plane:
    """Points p with dot(normal, p) == offset; normal is unit length."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = require_unit(np.array(self.normal, dtype=float), "plane normal")
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    def signed_distance(self, points) -> np.ndarray | float:
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return float(np.dot(self.normal, p) - self.offset)
        return p @ self.normal - self.offset

    def origin(self) -> np.ndarray:
        """The plane point closest to the world origin."""
        return self.normal * self.offset

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic right-handed in-plane basis (u, v), built once.

        u is the normalized rejection of the global axis least aligned with
        the normal (lowest index on ties); v = normal x u, so u x v gives
        back the plane normal.
        """
        u = perpendicular_unit(self.normal)
        v = cross3(self.normal, u)
        u.setflags(write=False)
        v.setflags(write=False)
        return u, v


@dataclass(frozen=True)
class Circle3D:
    """A circle embedded in 3D: center, unit normal, radius > 0."""

    center: np.ndarray
    normal: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_point(np.array(self.center, dtype=float))
        n = require_unit(np.array(self.normal, dtype=float), "circle normal")
        r = float(self.radius)
        if not (r > 0.0):
            raise GeometryError("circle radius must be positive")
        c.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "radius", r)

    def plane(self) -> Plane:
        return Plane(self.normal, float(np.dot(self.normal, self.center)))


def rotation_about_axis(axis, angle: float) -> RigidTransform:
    """Rotation by `angle` (radians) about a unit `axis` through the origin.

    Rodrigues form: R = I + sin(a) K + (1 - cos(a)) K^2 with K = skew(axis).
    Raises InvalidAxis when |axis| differs from 1 by more than UNIT_TOL.
    """
    a = require_unit(axis)
    K = _skew(a)
    R = np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
    return RigidTransform(R, np.zeros(3))


def rotation_about_point(axis, angle: float, pivot) -> RigidTransform:
    """Rotation about an axis through `pivot`, leaving the pivot fixed."""
    p = as_point(pivot)
    rot = rotation_about_axis(axis, angle)
    return RigidTransform(rot.rotation, p - rot.rotation @ p)


def _align_simple(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Rotation matrix mapping unit a onto unit b; requires dot(a, b) well
    # above -1. Exact in exact arithmetic: R = I + K + K^2 / (1 + c).
    w = cross3(a, b)
    c = float(np.dot(a, b))
    K = _skew(w)
    return np.eye(3) + K + (K @ K) / (1.0 + c)


def perpendicular_unit(v) -> np.ndarray:
    """A deterministic unit vector perpendicular to v.

    Takes the coordinate axis least aligned with v (lowest index on
    ties), removes the component along v, and normalizes.
    """
    a = unit(v)
    k = int(np.argmin(np.abs(a)))
    e = _AXES[k]
    return unit(e - float(np.dot(e, a)) * a)


def align_vectors(from_dir, to_dir) -> RigidTransform:
    """Minimal-angle rotation mapping unit `from_dir` onto unit `to_dir`.

    For exactly antiparallel inputs the angle is pi and the axis is the
    orthogonalized coordinate axis least aligned with `from_dir`. Inputs
    that are nearly antiparallel go through an intermediate perpendicular
    direction so the result still maps from_dir onto to_dir to machine
    precision.
    """
    a = require_unit(from_dir, "from_dir")
    b = require_unit(to_dir, "to_dir")
    c = float(np.dot(a, b))
    if c >= -1.0 + _ANTIPARALLEL_CUTOFF:
        return RigidTransform(_align_simple(a, b), np.zeros(3))
    p = perpendicular_unit(a)
    if float(np.linalg.norm(b + a)) <= UNIT_TOL:
        # Exactly antiparallel: half-turn about the documented tie-break axis.
        return rotation_about_axis(p, math.pi)
    R = _align_simple(p, b) @ _align_simple(a, p)
    return RigidTransform(R, np.zeros(3))


def rotation_to_axis_angle(R_or_transform) -> tuple[np.ndarray, float]:
    """Recover (unit axis, angle in [0, pi]) from a rotation.

    The identity maps to (z-axis, 0). Near angle == pi the axis is taken
    from the dominant column of R + I for stability.
    """
    R = R_or_transform.rotation if isinstance(R_or_transform, RigidTransform) else np.asarray(R_or_transform, dtype=float)
    v = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    s = float(np.linalg.norm(v))
    c = float(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
    angle = math.atan2(s, c)
    if s > 1e-9:
        return v / s, angle
    if c > 0.0:
        return _AXES[2].copy(), 0.0
    # angle ~ pi: R + I = 2 axis axis^T
    M = R + np.eye(3)
    k = int(np.argmax(np.diag(M)))
    axis = unit(M[:, k])
    return axis, math.pi


def signed_angle_about(axis, from_dir, to_dir) -> float:
    """Signed angle in (-pi, pi] rotating from_dir to to_dir about axis.

    Both directions are expected to be (approximately) perpendicular to
    the unit axis; only their components in the rotation plane matter.
    """
    n = require_unit(axis)
    a = as_point(from_dir)
    b = as_point(to_dir)
    s = float(np.dot(cross3(a, b), n))
    c = float(np.dot(a, b) - np.dot(a, n) * np.dot(b, n))
    ang = math.atan2(s, c)
    if ang <= -math.pi + 0.0:
        ang = math.pi
    return ang


def project_point_to_plane(point, plane: Plane) -> np.ndarray:
    """Orthogonal projection of a point onto the plane."""
    p = as_point(point)
    return p - plane.signed_distance(p) * plane.normal


def to_plane_coords(points, plane: Plane) -> np.ndarray:
    """2D coordinates of (already projected) points in the Plane.basis frame."""
    u, v = plane.basis
    p = np.asarray(points, dtype=float) - plane.origin()
    if p.ndim == 1:
        return np.array([p @ u, p @ v])
    out = np.empty((len(p), 2))
    out[:, 0] = p @ u
    out[:, 1] = p @ v
    return out


def from_plane_coords(coords, plane: Plane) -> np.ndarray:
    """Inverse of to_plane_coords: lift 2D plane coordinates back to 3D."""
    u, v = plane.basis
    c = np.asarray(coords, dtype=float)
    if c.ndim == 1:
        return plane.origin() + c[0] * u + c[1] * v
    return plane.origin() + np.outer(c[:, 0], u) + np.outer(c[:, 1], v)


def transform_circle(transform: RigidTransform, circle: Circle3D) -> Circle3D:
    """Rigidly move a circle; the radius is carried over untouched."""
    n = transform.apply_vector(circle.normal)
    return Circle3D(transform.apply(circle.center), unit(n), circle.radius)
