import math
import tracemalloc
import warnings

import numpy as np
import pytest

from suturesim import geometry as geo
from suturesim import perception as pc

from oracles import (
    brute_force_farthest_pair,
    one_shot_circle_scores,
    one_shot_plane_scores,
    trimmed_grid_circle_center,
)

SPEC = pc.NeedleSpec()
# criterion 1's noise point
HARSH_NOISE = pc.NoiseModel(
    gaussian_sigma=5e-4, outlier_fraction=0.20, occlusion_arc=0.25 * SPEC.arc_span
)


def random_pose(rng, max_tilt_deg=40.0):
    """Random needle pose with a canonical (+y hemisphere) normal."""
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


# ---------------------------------------------------------------------------
# parameter validation


def test_ransac_params_validation():
    with pytest.raises(ValueError):
        pc.RansacParams(iterations=0)
    with pytest.raises(ValueError):
        pc.RansacParams(inlier_threshold=0.0)
    with pytest.raises(ValueError):
        pc.RansacParams(min_inliers=2)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        pc.NoiseModel(gaussian_sigma=-1e-4)
    with pytest.raises(ValueError):
        pc.NoiseModel(outlier_fraction=1.0)
    with pytest.raises(ValueError):
        pc.NoiseModel(dropout_fraction=-0.1)


def test_needle_spec_validation():
    with pytest.raises(ValueError):
        pc.NeedleSpec(radius=0.0)
    with pytest.raises(ValueError):
        pc.NeedleSpec(arc_span=7.0)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_cloud_counts_and_determinism():
    pose = random_pose(np.random.default_rng(0))
    noise = pc.NoiseModel(gaussian_sigma=2e-4, outlier_fraction=0.2)
    a = pc.synth_needle_cloud(pose, SPEC, noise, 200, seed=42)
    b = pc.synth_needle_cloud(pose, SPEC, noise, 200, seed=42)
    assert a.shape == (200, 3)
    np.testing.assert_array_equal(a, b)


def test_synth_occlusion_hides_centered_arc():
    pose = random_pose(np.random.default_rng(1))
    noise = pc.NoiseModel(occlusion_arc=math.pi / 2)
    cloud = pc.synth_needle_cloud(pose, SPEC, noise, 200, seed=7)
    # Noise-free points must all be on the visible arc: recover the arc
    # parameter of each sample and check it avoids the centered hole.
    e1, e2 = pc.arc_frame(pose, SPEC.arc_span)
    rel = cloud - pose.center
    s = np.arctan2(rel @ e2, rel @ e1) % (2 * math.pi)
    span = SPEC.arc_span
    hole = ((span - math.pi / 2) / 2, (span + math.pi / 2) / 2)
    assert not np.any((s > hole[0] + 1e-9) & (s < hole[1] - 1e-9))
    # Both true endpoints are still sampled exactly.
    assert np.min(np.linalg.norm(cloud - pose.tip, axis=1)) < 1e-12
    assert np.min(np.linalg.norm(cloud - pose.swage, axis=1)) < 1e-12


def test_synth_dropout_removes_points():
    pose = random_pose(np.random.default_rng(2))
    cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(dropout_fraction=0.5), 300, seed=3)
    assert 80 < len(cloud) < 220


def test_arc_endpoints_match_pose():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pose = random_pose(rng)
        pts = pc.arc_points(pose, SPEC.arc_span, [0.0, SPEC.arc_span])
        np.testing.assert_allclose(pts[0], pose.tip, atol=1e-12)
        np.testing.assert_allclose(pts[1], pose.swage, atol=1e-12)


# ---------------------------------------------------------------------------
# plane RANSAC


def test_plane_ransac_exact_horizontal_plane():
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(-0.05, 0.05, 50), rng.uniform(-0.05, 0.05, 50), np.full(50, 0.1)])
    plane, inliers = pc.fit_plane_ransac(pts, pc.RansacParams(seed=1))
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, 1.0], atol=1e-9)
    assert plane.offset == pytest.approx(0.1, abs=1e-12)
    assert len(inliers) == 50


def test_plane_ransac_with_outliers_recovers_diagonal_plane():
    rng = np.random.default_rng(9)
    n = geo.unit(np.ones(3))
    u, v = geo.plane_basis(geo.Plane(n, 1.0 / math.sqrt(3)))
    onplane = (
        n / math.sqrt(3)
        + np.outer(rng.uniform(-0.05, 0.05, 100), u)
        + np.outer(rng.uniform(-0.05, 0.05, 100), v)
    )
    outliers = n / math.sqrt(3) + rng.uniform(-0.05, 0.05, size=(30, 3))
    cloud = np.concatenate([onplane, outliers])
    plane, _ = pc.fit_plane_ransac(cloud, pc.RansacParams(inlier_threshold=1e-4, seed=2))
    angle = math.degrees(math.acos(min(1.0, abs(float(np.dot(plane.normal, n))))))
    assert angle < 0.5


def test_plane_ransac_errors():
    with pytest.raises(pc.DegenerateInput):
        pc.fit_plane_ransac(np.empty((0, 3)), pc.RansacParams())
    line = np.outer(np.linspace(0, 1, 30), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(pc.DegenerateInput):
        pc.fit_plane_ransac(line, pc.RansacParams(seed=3))
    spread = np.random.default_rng(5).uniform(-1, 1, size=(30, 3))
    with pytest.raises(pc.NoConsensus):
        pc.fit_plane_ransac(spread, pc.RansacParams(inlier_threshold=1e-9, min_inliers=25, seed=4))


def test_plane_ransac_returns_the_points_within_threshold_of_its_plane():
    cloud = pc.synth_needle_cloud(random_pose(np.random.default_rng(22)), SPEC, HARSH_NOISE, 200, seed=22)
    params = pc.RansacParams(seed=22)
    plane, inliers = pc.fit_plane_ransac(cloud, params)
    want = np.flatnonzero(np.abs(plane.signed_distance(cloud)) <= params.inlier_threshold)
    np.testing.assert_array_equal(inliers, want)


# ---------------------------------------------------------------------------
# block-wise consensus scoring

EPS = np.finfo(float).eps


def hypothesis_counts(n_points):
    """1, block - 1, block, block + 1 and many blocks of hypotheses."""
    rows = max(2, pc._SCORE_BLOCK_PAIRS // n_points)
    return [1, max(1, rows - 1), rows, rows + 1, 5 * rows + 3]


class RecordingResiduals:
    """A `residuals` callable for pc._consensus that keeps what it returns,
    so a test can see which blocks were scored for tie-break sums."""

    def __init__(self, residuals):
        self.residuals = residuals
        self.scored = []

    def __call__(self, start, stop):
        resid = self.residuals(start, stop)
        self.scored.append((start, stop, resid))
        return resid


def assert_matches_oracle(got, scored, oracle, axis, sum_atol):
    """Blocked (counts, winner, winner mask) against one-shot (counts,
    sums, mask) with hypotheses along `axis` of the mask; `scored` holds
    the blocks pc._consensus scored again for tie-break sums."""
    counts, best, mask = got
    want_counts, want_sums, want_within = oracle
    np.testing.assert_array_equal(counts, want_counts)
    # most inliers, then lowest sum, then lowest index (lexsort is stable)
    want_best = int(np.lexsort((want_sums, -want_counts))[0])
    assert best == want_best
    np.testing.assert_array_equal(mask, np.take(want_within, want_best, axis=axis))

    # Sums are computed only for the blocks that hold a hypothesis tied
    # at the top count, once each, and only when there is a tie.
    h = len(want_counts)
    tied = np.flatnonzero(want_counts == want_counts.max())
    blocks = pc._score_blocks(h, want_within.shape[1 - axis])
    want_scored = [
        (start, stop)
        for start, stop in blocks
        if len(tied) > 1 and ((tied >= start) & (tied < stop)).any()
    ]
    assert [(start, stop) for start, stop, _ in scored] == want_scored
    for start, stop, resid in scored:
        within = np.take(want_within, np.arange(start, stop), axis=axis)
        sums = np.einsum("ij,ij->j" if axis == 1 else "ij,ij->i", resid, within)
        if sum_atol == 0.0:
            np.testing.assert_array_equal(sums, want_sums[start:stop])
        else:
            np.testing.assert_allclose(sums, want_sums[start:stop], rtol=0.0, atol=sum_atol)


def blocked_plane_scores(pts, normals, offsets, threshold):
    def residuals(a, b):
        return pc._plane_residuals(pts, normals[a:b], offsets[a:b])

    scored = RecordingResiduals(residuals)
    got = pc._consensus(
        lambda a, b: residuals(a, b) <= threshold, scored, len(normals), len(pts), axis=1
    )
    return got, scored.scored


def blocked_circle_scores(pts, centers, radius, threshold):
    pp = np.einsum("ij,ij->i", pts, pts)
    cc = np.einsum("ij,ij->i", centers, centers)
    band = pc._squared_distance_band(radius, threshold)
    scored = RecordingResiduals(
        lambda a, b: pc._circle_residuals(pts, pp, centers[a:b], cc[a:b], radius)
    )
    got = pc._consensus(
        lambda a, b: pc._circle_inliers(pts, pp, centers[a:b], cc[a:b], band),
        scored,
        len(centers),
        len(pts),
        axis=0,
    )
    return got, scored.scored


def spread_top_ties(h, n_points):
    """Indices of three hypotheses in three different blocks: the first
    and the last are to tie with the middle one at the top count, the
    last also in sum."""
    blocks = pc._score_blocks(h, n_points)
    assert len(blocks) >= 3
    return blocks[0][1] - 1, blocks[len(blocks) // 2][0], blocks[-1][1] - 1


# 140 points (the in-loop cloud) give blocks of 58 hypotheses; 9000
# points are over the block budget on their own, so blocks hold the
# two-hypothesis minimum.
@pytest.mark.parametrize("n_points", [140, 9000])
def test_blocked_plane_scores_match_one_shot_oracle(n_points):
    rng = np.random.default_rng(n_points)
    for h in hypothesis_counts(n_points):
        normals = rng.normal(size=(h, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        offsets = rng.uniform(-0.02, 0.02, h)
        # Points on the z axis make each matrix-product entry one rounded
        # product, which every BLAS kernel rounds alike, so every count
        # and sum must match bit for bit.
        on_axis = np.zeros((n_points, 3))
        on_axis[:, 2] = rng.uniform(-0.05, 0.05, n_points)
        # Points in general position: BLAS rounds the edge tiles of a
        # product by the product's shape, so a distance may move by a few
        # ulps of |p| between a block and the whole, and each sum by at
        # most n_points times that.
        general = rng.uniform(-0.05, 0.05, (n_points, 3))
        for pts, sum_atol in ((on_axis, 0.0), (general, 16 * n_points * EPS * 0.1)):
            got, scored = blocked_plane_scores(pts, normals, offsets, 0.01)
            oracle = one_shot_plane_scores(pts, normals, offsets, 0.01)
            assert_matches_oracle(got, scored, oracle, 1, sum_atol)


@pytest.mark.parametrize("n_points", [140, 9000])
def test_blocked_plane_top_ties_across_blocks_go_to_the_lowest_sum(n_points):
    # Every point within the threshold of the planes z = 0.002 and
    # z = 0.0005, and of no other plane: the three hypotheses tie at
    # the top count, and z = 0.0005, nearer the points' median, has the
    # lower distance sum. Its second copy ties in sum too and loses on
    # index.
    h = hypothesis_counts(n_points)[-1]
    pts = np.zeros((n_points, 3))
    pts[:, 2] = np.random.default_rng(3).uniform(-0.001, 0.001, n_points)
    normals = np.tile([0.0, 0.0, 1.0], (h, 1))
    offsets = np.full(h, 0.5)
    first, middle, last = spread_top_ties(h, n_points)
    offsets[[first, middle, last]] = 0.002, 0.0005, 0.0005
    got, scored = blocked_plane_scores(pts, normals, offsets, 0.01)
    oracle = one_shot_plane_scores(pts, normals, offsets, 0.01)
    assert_matches_oracle(got, scored, oracle, 1, 0.0)
    assert got[1] == middle and len(scored) == 3


@pytest.mark.parametrize("n_points", [140, 9000])
def test_blocked_circle_scores_match_one_shot_oracle(n_points):
    rng = np.random.default_rng(n_points + 1)
    radius = 0.012
    for h in hypothesis_counts(n_points):
        centers = rng.uniform(-0.02, 0.02, (h, 2))
        # As for planes: points on the x axis are scored bit for bit alike,
        # points in general position within a few ulps per residual. Near
        # the ring a residual's rounding error is that of |p|^2 - 2 p.c +
        # |c|^2, about (|p| + |c|)^2 eps, divided by 2 radius.
        on_axis = np.zeros((n_points, 2))
        on_axis[:, 0] = rng.uniform(-0.03, 0.03, n_points)
        general = rng.uniform(-0.03, 0.03, (n_points, 2))
        scale = (0.03 * math.sqrt(2) + 0.02 * math.sqrt(2)) ** 2 / (2 * radius)
        for pts, sum_atol in ((on_axis, 0.0), (general, 16 * n_points * EPS * scale)):
            got, scored = blocked_circle_scores(pts, centers, radius, 0.003)
            oracle = one_shot_circle_scores(pts, centers, radius, 0.003)
            assert_matches_oracle(got, scored, oracle, 0, sum_atol)


@pytest.mark.parametrize("n_points", [140, 9000])
def test_blocked_circle_top_ties_across_blocks_go_to_the_lowest_sum(n_points):
    # Points on the x axis about one radius from the origin: the centers
    # (0.0004, 0) and (0, 0) hold all of them and no other center holds
    # any, and (0, 0) fits them with the lower residual sum.
    h = hypothesis_counts(n_points)[-1]
    radius = 0.012
    pts = np.zeros((n_points, 2))
    pts[:, 0] = np.random.default_rng(4).uniform(0.0115, 0.0125, n_points)
    centers = np.full((h, 2), 1.0)
    first, middle, last = spread_top_ties(h, n_points)
    centers[[first, middle, last]] = [0.0004, 0.0], [0.0, 0.0], [0.0, 0.0]
    got, scored = blocked_circle_scores(pts, centers, radius, 0.003)
    oracle = one_shot_circle_scores(pts, centers, radius, 0.003)
    assert_matches_oracle(got, scored, oracle, 0, 0.0)
    assert got[1] == middle and len(scored) == 3


def doubles_near(x, ulps=4096):
    """Every double within `ulps` bit patterns of x (of +0.0 and -0.0
    for x = -inf, the clamp's side of the band)."""
    if x == -math.inf:
        small = np.arange(0, ulps + 1, dtype=np.int64).view(np.float64)
        return np.concatenate([-small, small])
    bits = np.array(x).view(np.int64)
    return np.arange(bits - ulps, bits + ulps + 1, dtype=np.int64).view(np.float64)


@pytest.mark.parametrize(
    "threshold",
    [pc.DEFAULT_PLANE_THRESHOLD, pc.DEFAULT_CIRCLE_THRESHOLD, pc.NEEDLE_RADIUS, 0.03, 1e-18, 1e300],
)
def test_squared_distance_band_is_the_residual_test(threshold):
    r = pc.NEEDLE_RADIUS
    lo, hi = pc._squared_distance_band(r, threshold)
    assert (lo == -math.inf) == (threshold >= r)
    assert lo <= hi < math.inf
    rng = np.random.default_rng(5)
    x = np.concatenate(
        [doubles_near(lo), doubles_near(hi), rng.uniform(0.0, (3 * r) ** 2, 100_000)]
    )
    with np.errstate(invalid="ignore"):
        want = np.abs(np.sqrt(np.maximum(x, 0.0)) - r) <= threshold
    np.testing.assert_array_equal((lo <= x) & (x <= hi), want)
    assert want.any() and not want.all()
    # NaN and +inf fail both tests; -inf is clamped to 0 by the residual
    # test, so it passes both exactly when threshold >= radius.
    special = np.array([np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        want = np.abs(np.sqrt(np.maximum(special, 0.0)) - r) <= threshold
    np.testing.assert_array_equal((lo <= special) & (special <= hi), want)
    np.testing.assert_array_equal(want, [False, False, threshold >= r])


def test_score_blocks_cover_every_hypothesis_once():
    for n_points in (1, 140, 200, 4096, 4097, 9000):
        for h in range(1, 130):
            blocks = pc._score_blocks(h, n_points)
            assert blocks[0][0] == 0 and blocks[-1][1] == h
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            # two hypotheses at least, unless there is only one
            assert all(stop - start >= min(2, h) for start, stop in blocks)
            # the budget, one absorbed leftover hypothesis over it at most
            cap = max(pc._SCORE_BLOCK_PAIRS + n_points, 3 * n_points)
            assert all((stop - start) * n_points <= cap for start, stop in blocks)


# Criterion 1's point: tracemalloc peaks were 1.7 MB (plane) and 2.6 MB
# (circle) when every pair was scored at once, and are about 300 KiB
# block by block.
SCORING_PEAK_BOUND = 512 * 1024


def traced_peak(fn):
    fn()  # warm up lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ransac_scoring_memory_stays_bounded():
    pose = pc.make_needle_pose([0.0, 0.01, 0.02], geo.unit([0.2, 1.0, 0.1]), [1.0, 0.0, 0.0], SPEC)
    cloud = pc.synth_needle_cloud(pose, SPEC, HARSH_NOISE, 200, seed=4)
    plane_params = pc.RansacParams(seed=4)
    circle_params = pc.RansacParams(inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD, seed=4)
    plane, idx = pc.fit_plane_ransac(cloud, plane_params)
    projected = cloud[idx] - np.outer(plane.signed_distance(cloud[idx]), plane.normal)
    coords = geo.to_plane_coords(projected, plane)
    assert len(coords) > 100

    assert traced_peak(lambda: pc.fit_plane_ransac(cloud, plane_params)) < SCORING_PEAK_BOUND
    assert traced_peak(
        lambda: pc.fit_circle_fixed_radius(coords, SPEC.radius, circle_params)
    ) < SCORING_PEAK_BOUND


# ---------------------------------------------------------------------------
# circle RANSAC


def test_circle_fit_exact_points():
    rng = np.random.default_rng(11)
    truth = np.array([0.004, -0.002])
    ang = rng.uniform(0, 1.8 * math.pi, 80)
    pts = truth + 0.012 * np.column_stack([np.cos(ang), np.sin(ang)])
    center = pc.fit_circle_fixed_radius(pts, 0.012, pc.RansacParams(seed=6))
    np.testing.assert_allclose(center, truth, atol=1e-9)


def test_circle_fit_matches_grid_oracle_with_outliers():
    rng = np.random.default_rng(12)
    truth = np.array([-0.003, 0.005])
    ang = rng.uniform(0.2, math.pi, 30)
    good = truth + 0.012 * np.column_stack([np.cos(ang), np.sin(ang)])
    good += rng.normal(0, 2e-4, good.shape)
    bad = rng.uniform(-0.02, 0.02, size=(6, 2))
    pts = np.concatenate([good, bad])
    center = pc.fit_circle_fixed_radius(
        pts, 0.012, pc.RansacParams(inlier_threshold=6e-4, min_inliers=10, seed=7)
    )
    oracle = trimmed_grid_circle_center(pts, 0.012)
    assert np.linalg.norm(center - oracle) < 5e-4
    assert np.linalg.norm(center - truth) < 5e-4


def test_circle_fit_pair_wider_than_diameter_contributes_nothing():
    # Two points 3 radii apart admit no center; the fit must refuse.
    pts = np.array([[0.0, 0.0], [0.036, 0.0]])
    with pytest.raises(pc.NoConsensus):
        pc.fit_circle_fixed_radius(pts, 0.012, pc.RansacParams(min_inliers=3, seed=8))


def test_circle_fit_errors():
    with pytest.raises(pc.DegenerateInput):
        pc.fit_circle_fixed_radius(np.empty((0, 2)), 0.012, pc.RansacParams())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fits_reject_a_non_finite_row(bad):
    # One NaN once made every tie-break sum NaN, so ties went to the
    # lowest index and the plane normal moved by up to 4.5 degrees.
    cloud = pc.synth_needle_cloud(random_pose(np.random.default_rng(24)), SPEC, HARSH_NOISE, 200, seed=24)
    cloud[-1] = bad
    theta = np.linspace(0.0, math.pi, 40)
    ring = 0.012 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ring[-1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pc.DegenerateInput, match="non-finite") as plane_err:
            pc.fit_plane_ransac(cloud, pc.RansacParams(seed=24))
        with pytest.raises(pc.DegenerateInput, match="non-finite") as circle_err:
            pc.fit_circle_fixed_radius(ring, 0.012, pc.RansacParams(seed=24))
    assert (plane_err.value.stage, circle_err.value.stage) == ("plane", "circle")


# ---------------------------------------------------------------------------
# endpoints


def test_farthest_pair_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(30):
        pts = rng.normal(size=(rng.integers(2, 40), 3))
        assert pc.farthest_pair_indices(pts) == brute_force_farthest_pair(pts)


def test_farthest_pair_tie_break_lowest_indices():
    # A 2x2 square: both diagonals tie; expect the (0, 2) diagonal.
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    assert pc.farthest_pair_indices(pts) == (0, 2)


def test_farthest_pair_of_identical_points_is_the_first_pair():
    assert pc.farthest_pair_indices(np.tile([0.1, -0.2, 0.3], (7, 1))) == (0, 1)


def test_snapped_endpoints_lie_on_circle():
    rng = np.random.default_rng(14)
    circle = geo.Circle3D(rng.normal(size=3), geo.unit(rng.normal(size=3)), 0.012)
    for _ in range(50):
        p = rng.normal(scale=0.05, size=3)
        snapped = pc.snap_to_circle(p, circle)
        assert abs(np.linalg.norm(snapped - circle.center) - circle.radius) < 1e-9
        assert abs(float(np.dot(snapped - circle.center, circle.normal))) < 1e-9


# ---------------------------------------------------------------------------
# full pipeline


def test_estimate_zero_noise_is_exact():
    rng = np.random.default_rng(15)
    for _ in range(10):
        pose = random_pose(rng)
        cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(), 150, seed=int(rng.integers(1 << 30)))
        est = pc.estimate_needle_pose(cloud, SPEC, pc.RansacParams(seed=0))
        delta = pc.pose_agreement(est, pose)
        assert delta.center_dist < 1e-9
        assert delta.normal_angle < 1e-9 or abs(delta.normal_angle - math.pi) < 1e-9
        assert delta.endpoint_dist < 1e-9


def test_estimate_stage_tags():
    with pytest.raises(pc.DegenerateInput) as err:
        pc.estimate_needle_pose(np.empty((0, 3)), SPEC, pc.RansacParams())
    assert err.value.stage == "plane"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_estimate_rejects_non_finite_cloud(bad):
    cloud = pc.synth_needle_cloud(random_pose(np.random.default_rng(23)), SPEC, pc.NoiseModel(), 150, seed=23)
    cloud[40, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pc.DegenerateInput, match="non-finite") as err:
            pc.estimate_needle_pose(cloud, SPEC, pc.RansacParams(seed=0))
    assert err.value.stage == "plane"


def test_estimate_diagnostics():
    pose = random_pose(np.random.default_rng(16))
    cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(gaussian_sigma=1e-4), 150, seed=5)
    est, diag = pc.estimate_needle_pose(cloud, SPEC, pc.RansacParams(seed=0), with_diagnostics=True)
    assert diag.plane_inliers >= pc.DEFAULT_MIN_INLIERS
    assert diag.circle_inliers >= 2
    assert diag.plane_rms < 5e-4 and diag.circle_rms < 5e-4


def test_estimate_equivariance_under_rigid_motion():
    rng = np.random.default_rng(17)
    params = pc.RansacParams(seed=11)
    for k in range(8):
        pose = random_pose(rng)
        cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(), 120, seed=k)
        move = geo.rotation_about_point(
            geo.unit(rng.normal(size=3)), rng.uniform(-2, 2), rng.normal(scale=0.05, size=3)
        )
        est_a = pc.estimate_needle_pose(cloud, SPEC, params)
        est_b = pc.estimate_needle_pose(move.apply(cloud), SPEC, params)
        moved = pc.transform_pose(move, est_a)
        delta = pc.pose_agreement(est_b, moved)
        assert delta.center_dist < 1e-6
        assert min(delta.normal_angle, math.pi - delta.normal_angle) < 1e-6
        assert delta.endpoint_dist < 1e-6


def test_estimate_error_decreases_with_noise():
    sigmas = [1e-3, 5e-4, 2e-4, 1e-4, 0.0]
    params = pc.RansacParams(iterations=300, seed=0)
    cparams = pc.RansacParams(iterations=300, inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD, seed=0)
    medians = []
    rng = np.random.default_rng(18)
    poses = [random_pose(rng) for _ in range(200)]
    for sigma in sigmas:
        errs = []
        for i, pose in enumerate(poses):
            cloud = pc.synth_needle_cloud(
                pose, SPEC, pc.NoiseModel(gaussian_sigma=sigma), 120, seed=1000 + i
            )
            est = pc.estimate_needle_pose(cloud, SPEC, params, cparams)
            errs.append(pc.pose_agreement(est, pose).center_dist)
        medians.append(float(np.median(errs)))
    assert all(a >= b - 1e-12 for a, b in zip(medians, medians[1:])), medians


def test_pose_agreement_is_label_agnostic():
    pose = random_pose(np.random.default_rng(19))
    swapped = pc.NeedlePose(pose.circle, pose.swage, pose.tip)
    delta = pc.pose_agreement(pose, swapped)
    assert delta.endpoint_dist == 0.0
    assert delta.center_dist == 0.0


def test_needle_pose_keeps_copies_of_its_endpoints():
    circle = geo.Circle3D([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], SPEC.radius)
    tip = np.array([SPEC.radius, 0.0, 0.0])
    swage = np.array([-SPEC.radius, 0.0, 0.0])
    pose = pc.NeedlePose(circle, tip, swage)
    assert not pose.tip.flags.writeable and not pose.swage.flags.writeable
    tip[0] = 5.0
    swage[1] = 5.0
    np.testing.assert_array_equal(pose.tip, [SPEC.radius, 0.0, 0.0])
    np.testing.assert_array_equal(pose.swage, [-SPEC.radius, 0.0, 0.0])


def test_canonical_normal_rules():
    np.testing.assert_array_equal(pc.canonical_normal([0.0, -1.0, 0.0]), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(pc.canonical_normal([0.0, 0.0, -1.0]), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(pc.canonical_normal([-1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    got = pc.canonical_normal([0.5, -0.5, 0.70710678])
    assert got[1] > 0


# ---------------------------------------------------------------------------
# file I/O


def test_cloud_round_trip(tmp_path):
    cloud = np.random.default_rng(20).normal(size=(40, 3))
    path = tmp_path / "cloud.csv"
    pc.save_cloud(path, cloud, comment="test cloud\nsecond line")
    back = pc.load_cloud(path)
    np.testing.assert_array_equal(back, cloud)  # repr round-trips exactly


def test_cloud_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# ok\n0.1,0.2,0.3\n0.1,oops,0.3\n", encoding="utf-8")
    with pytest.raises(pc.CloudFormatError, match="line 3"):
        pc.load_cloud(path)
    path.write_text("0.1,0.2\n", encoding="utf-8")
    with pytest.raises(pc.CloudFormatError, match="line 1"):
        pc.load_cloud(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_cloud_rejects_non_finite_coordinates(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"# ok\n0.1,0.2,0.3\n0.1,{bad},0.3\n", encoding="utf-8")
    with pytest.raises(pc.CloudFormatError, match="line 3: non-finite"):
        pc.load_cloud(path)


def test_cloud_accepts_crlf_and_comments(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"# header\r\n1.0,2.0,3.0\r\n\r\n4.0,5.0,6.0\r\n")
    np.testing.assert_array_equal(pc.load_cloud(path), [[1, 2, 3], [4, 5, 6]])


def test_pose_record_format():
    pose = random_pose(np.random.default_rng(21))
    rec = pc.format_pose_record(pose)
    assert rec.startswith("center: ")
    for key in ("normal:", "radius:", "tip:", "swage:"):
        assert f"\n{key}" in rec or rec.startswith(key)
