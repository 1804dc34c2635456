import math

import numpy as np
import pytest

from suturesim import geometry as geo

RT2 = math.sqrt(2.0)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# rotations


def test_rodrigues_quarter_turn_about_y():
    # Hand-derived: R(y, a) = [[c,0,s],[0,1,0],[-s,0,c]], applied to +x.
    rot = geo.rotation_about_axis(np.array([0.0, 1.0, 0.0]), math.pi / 4)
    got = rot.apply(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(got, [RT2 / 2, 0.0, -RT2 / 2], atol=1e-12)


def test_rotation_rejects_non_unit_axis():
    with pytest.raises(geo.InvalidAxis):
        geo.rotation_about_axis(np.array([0.0, 2.0, 0.0]), 0.3)


def test_rotation_about_point_fixes_pivot_and_matches_composition():
    rng = np.random.default_rng(7)
    for _ in range(50):
        axis = random_unit(rng)
        angle = rng.uniform(-math.pi, math.pi)
        pivot = rng.normal(size=3)
        rot = geo.rotation_about_point(axis, angle, pivot)
        np.testing.assert_allclose(rot.apply(pivot), pivot, atol=1e-12)
        # Oracle: T(pivot) o R o T(-pivot) composed explicitly.
        oracle = (
            geo.RigidTransform.from_translation(pivot)
            .compose(geo.rotation_about_axis(axis, angle))
            .compose(geo.RigidTransform.from_translation(-pivot))
        )
        p = rng.normal(size=3)
        np.testing.assert_allclose(rot.apply(p), oracle.apply(p), atol=1e-12)


def test_rotations_preserve_pairwise_distances():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(12, 3))
    d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    for _ in range(25):
        rot = geo.rotation_about_point(random_unit(rng), rng.uniform(-3, 3), rng.normal(size=3))
        moved = rot.apply(pts)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
        np.testing.assert_allclose(d1, d0, atol=1e-12)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = geo.rotation_about_point(random_unit(rng), rng.uniform(-3, 3), rng.normal(size=3))
        back = t.compose(t.inverse())
        np.testing.assert_allclose(back.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(back.translation, 0.0, atol=1e-12)


def test_transform_validates_rotation():
    with pytest.raises(geo.GeometryError):
        geo.RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(geo.GeometryError):
        # Orthonormal but det = -1 (a reflection).
        geo.RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


ROT = geo.rotation_about_axis(geo.unit([0.3, -0.5, 0.8]), 1.1).rotation
SHEAR = np.eye(3)
SHEAR[0, 1] = 1e-6


@pytest.mark.parametrize(
    "matrix",
    [
        -ROT,  # a rotation times a reflection, det -1
        ROT * (1.0 + 1e-6),  # off by 2e-6 in R^T R, 200x the tolerance
        ROT @ SHEAR,  # det 1, but not orthonormal
        np.where(np.eye(3) == 1.0, np.nan, ROT),
    ],
    ids=["rotoreflection", "scaled_by_1e-6", "sheared", "nan"],
)
def test_transform_rejects_near_rotations(matrix):
    with pytest.raises(geo.GeometryError):
        geo.RigidTransform(matrix, np.zeros(3))


def test_transform_accepts_every_rotation_the_library_builds():
    rng = np.random.default_rng(11)
    chain = geo.RigidTransform.from_translation(np.zeros(3))
    for _ in range(1000):
        rot = geo.rotation_about_axis(random_unit(rng), rng.uniform(-math.pi, math.pi))
        turn = geo.rotation_about_point(
            random_unit(rng), rng.uniform(-math.pi, math.pi), rng.normal(size=3) * 0.05
        )
        chain = chain.compose(rot).compose(turn)
    # 2000 products drift by about 1e-12, far inside the 1e-8 tolerance
    np.testing.assert_allclose(chain.rotation.T @ chain.rotation, np.eye(3), atol=1e-10)
    assert abs(np.linalg.det(chain.rotation) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# planes


def test_project_onto_unit_diagonal_plane():
    # Plane x + y + z = 1 with unit normal: offset 1/sqrt(3). Projection of
    # (1,1,1): subtract ((p.n0 - 1)/|n0|^2) n0 with n0 = (1,1,1), giving
    # (1,1,1) - (2/3)(1,1,1) = (1/3, 1/3, 1/3), which satisfies x+y+z = 1.
    n = np.full(3, 1.0 / math.sqrt(3.0))
    plane = geo.Plane(n, 1.0 / math.sqrt(3.0))
    got = geo.project_point_to_plane(np.ones(3), plane)
    np.testing.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert abs(got.sum() - 1.0) < 1e-12


def test_projection_is_idempotent_and_on_plane():
    rng = np.random.default_rng(17)
    for _ in range(100):
        plane = geo.Plane(random_unit(rng), rng.uniform(-1, 1))
        p = rng.normal(size=3)
        q = geo.project_point_to_plane(p, plane)
        assert abs(plane.signed_distance(q)) < 1e-12
        np.testing.assert_allclose(geo.project_point_to_plane(q, plane), q, atol=1e-12)


def test_plane_basis_is_right_handed_orthonormal():
    rng = np.random.default_rng(19)
    planes = [geo.Plane(np.array([0.0, 0.0, 1.0]), 0.1)]
    planes += [geo.Plane(random_unit(rng), rng.uniform(-1, 1)) for _ in range(100)]
    for plane in planes:
        u, v = plane.basis
        assert abs(np.dot(u, v)) < 1e-12
        assert abs(np.dot(u, plane.normal)) < 1e-12
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        np.testing.assert_allclose(np.cross(u, v), plane.normal, atol=1e-12)


def test_plane_basis_for_z_plane_picks_x_axis():
    u, v = geo.Plane(np.array([0.0, 0.0, 1.0]), 0.0).basis
    np.testing.assert_allclose(u, [1.0, 0.0, 0.0], atol=0)
    np.testing.assert_allclose(v, [0.0, 1.0, 0.0], atol=0)


def test_plane_coords_round_trip():
    rng = np.random.default_rng(23)
    plane = geo.Plane(random_unit(rng), 0.3)
    pts = np.array([geo.project_point_to_plane(rng.normal(size=3), plane) for _ in range(40)])
    coords = geo.to_plane_coords(pts, plane)
    back = geo.from_plane_coords(coords, plane)
    np.testing.assert_allclose(back, pts, atol=1e-12)


# ---------------------------------------------------------------------------
# circles


def test_circle_requires_positive_radius_and_unit_normal():
    with pytest.raises(geo.GeometryError):
        geo.Circle3D(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.0)
    with pytest.raises(geo.InvalidAxis):
        geo.Circle3D(np.zeros(3), np.array([0.0, 0.0, 2.0]), 0.01)


def test_transformed_circle_keeps_radius_exactly():
    rng = np.random.default_rng(29)
    circle = geo.Circle3D(rng.normal(size=3), random_unit(rng), 0.012)
    for _ in range(50):
        t = geo.rotation_about_point(random_unit(rng), rng.uniform(-3, 3), rng.normal(size=3))
        moved = geo.transform_circle(t, circle)
        assert moved.radius == circle.radius  # bitwise, not approximate


def test_signed_angle_about_axis():
    z = np.array([0.0, 0.0, 1.0])
    assert geo.signed_angle_about(z, [1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)
    assert geo.signed_angle_about(z, [0, 1, 0], [1, 0, 0]) == pytest.approx(-math.pi / 2)
    assert geo.signed_angle_about(z, [1, 0, 0], [-1, 0, 0]) == pytest.approx(math.pi)


def test_constructors_keep_copies_and_leave_the_callers_arrays_writable():
    center = np.array([0.01, 0.02, 0.03])
    normal = np.array([0.0, 1.0, 0.0])
    rotation = np.eye(3)
    translation = np.array([0.1, 0.2, 0.3])
    circle = geo.Circle3D(center, normal, 0.012)
    plane = geo.Plane(normal, 0.5)
    transform = geo.RigidTransform(rotation, translation)
    for kept in (circle.center, circle.normal, plane.normal, transform.rotation, transform.translation):
        assert not kept.flags.writeable
    center[0] = 5.0  # the caller's arrays stay writable ...
    normal[:] = [1.0, 0.0, 0.0]
    rotation[0, 0] = -1.0
    translation[2] = 9.0
    # ... and the objects do not change with them
    np.testing.assert_array_equal(circle.center, [0.01, 0.02, 0.03])
    np.testing.assert_array_equal(circle.normal, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(plane.normal, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(transform.rotation, np.eye(3))
    np.testing.assert_array_equal(transform.translation, [0.1, 0.2, 0.3])
