import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from suturesim import geometry as geo
from suturesim import perception as pc

from oracles import (
    gauss_newton_circle_center,
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
    # the cap bounds the index tuples a stage draws up front; checking it allocates nothing
    assert pc.RansacParams(iterations=pc.MAX_ITERATIONS).iterations == pc.MAX_ITERATIONS
    with pytest.raises(ValueError, match="iterations"):
        pc.RansacParams(iterations=pc.MAX_ITERATIONS + 1)
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
    for name in ("gaussian_sigma", "occlusion_arc"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                pc.NoiseModel(**{name: bad})


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
    a = pc.synth_needle_cloud(pose, SPEC, noise, 200, np.random.default_rng(42))
    b = pc.synth_needle_cloud(pose, SPEC, noise, 200, np.random.default_rng(42))
    assert a.shape == (200, 3)
    np.testing.assert_array_equal(a, b)


def test_synth_occlusion_hides_centered_arc():
    pose = random_pose(np.random.default_rng(1))
    noise = pc.NoiseModel(occlusion_arc=math.pi / 2)
    cloud = pc.synth_needle_cloud(pose, SPEC, noise, 200, np.random.default_rng(7))
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
    cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(dropout_fraction=0.5), 300, np.random.default_rng(3))
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
    plane, inliers, _ = pc.fit_plane_ransac(pts, pc.RansacParams(), np.random.default_rng(1))
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, 1.0], atol=1e-9)
    assert plane.offset == pytest.approx(0.1, abs=1e-12)
    assert len(inliers) == 50


def test_plane_ransac_with_outliers_recovers_diagonal_plane():
    rng = np.random.default_rng(9)
    n = geo.unit(np.ones(3))
    u, v = geo.Plane(n, 1.0 / math.sqrt(3)).basis
    onplane = (
        n / math.sqrt(3)
        + np.outer(rng.uniform(-0.05, 0.05, 100), u)
        + np.outer(rng.uniform(-0.05, 0.05, 100), v)
    )
    outliers = n / math.sqrt(3) + rng.uniform(-0.05, 0.05, size=(30, 3))
    cloud = np.concatenate([onplane, outliers])
    plane, _, _ = pc.fit_plane_ransac(cloud, pc.RansacParams(inlier_threshold=1e-4), np.random.default_rng(2))
    angle = math.degrees(math.acos(min(1.0, abs(float(np.dot(plane.normal, n))))))
    assert angle < 0.5


def test_plane_ransac_errors():
    with pytest.raises(pc.DegenerateInput):
        pc.fit_plane_ransac(np.empty((0, 3)), pc.RansacParams(), np.random.default_rng(0))
    line = np.outer(np.linspace(0, 1, 30), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(pc.DegenerateInput):
        pc.fit_plane_ransac(line, pc.RansacParams(), np.random.default_rng(3))
    # Seed 0 draws the one triple (3, 2, 2), which repeats a point.
    tetra = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(pc.DegenerateInput, match="no sampled triple spans a plane"):
        pc.fit_plane_ransac(tetra, pc.RansacParams(iterations=1), np.random.default_rng(0))
    spread = np.random.default_rng(5).uniform(-1, 1, size=(30, 3))
    with pytest.raises(pc.NoConsensus):
        pc.fit_plane_ransac(spread, pc.RansacParams(inlier_threshold=1e-9, min_inliers=25), np.random.default_rng(4))


def test_plane_ransac_returns_the_points_within_threshold_of_its_plane():
    cloud = pc.synth_needle_cloud(random_pose(np.random.default_rng(22)), SPEC, HARSH_NOISE, 200, np.random.default_rng(22))
    params = pc.RansacParams()
    plane, inliers, _ = pc.fit_plane_ransac(cloud, params, np.random.default_rng(22))
    want = np.flatnonzero(np.abs(plane.signed_distance(cloud)) <= params.inlier_threshold)
    np.testing.assert_array_equal(inliers, want)


def test_plane_ransac_refits_the_winning_consensus_once(monkeypatch):
    # The returned plane is the SVD least-squares plane of the winner's
    # consensus, with no re-selection round after it, and the returned
    # inliers are exactly the points within the threshold of that plane.
    found = []
    consensus = pc._consensus

    def recording(*args, **kwargs):
        found.append(consensus(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(pc, "_consensus", recording)
    rng = np.random.default_rng(23)
    for seed in range(8):
        cloud = pc.synth_needle_cloud(random_pose(rng), SPEC, HARSH_NOISE, 200, np.random.default_rng(seed))
        params = pc.RansacParams()
        plane, inliers, _ = pc.fit_plane_ransac(cloud, params, np.random.default_rng(seed))
        sel = cloud[found[-1].within]
        centroid = sel.mean(axis=0)
        normal = np.linalg.svd(sel - centroid)[2][-1]
        normal = normal if np.dot(normal, plane.normal) > 0.0 else -normal
        np.testing.assert_allclose(plane.normal, normal, rtol=0.0, atol=1e-12)
        assert plane.offset == pytest.approx(float(normal @ centroid), rel=0.0, abs=1e-12)
        want = np.flatnonzero(np.abs(cloud @ normal - normal @ centroid) <= params.inlier_threshold)
        np.testing.assert_array_equal(inliers, want)


# ---------------------------------------------------------------------------
# block-wise consensus scoring and the stop rule

def hypothesis_counts(n_points, rows=1):
    """Index-tuple counts around the block schedule: one, either side of
    the first block's end, past the second's, and many blocks."""
    cap = max(1, max(2, pc._SCORE_BLOCK_PAIRS // n_points) // rows)
    first = min(pc._FIRST_BLOCK, cap)
    second = first + min(2 * first, cap)
    return sorted({1, max(1, first - 1), first, first + 1, second + 1, 5 * cap + 3})


def tuples(h, k):
    """h index tuples of k indices each; every index of tuple i is i, so a
    block of tuples names the rows of given models it stands for."""
    return np.repeat(np.arange(h)[:, None], k, axis=1)


def stop_rule(n_points, sample_size, min_inliers):
    """The stop rule pc._consensus applies, as a function of the best count."""
    return lambda best: pc._stop_after(best, n_points, sample_size, min_inliers)


def score_all(n_points, threshold):
    """Params whose stop rule never holds, as no count reaches min_inliers:
    every block is scored."""
    return pc.RansacParams(inlier_threshold=threshold, min_inliers=n_points + 1)


def stopping(threshold):
    """Params whose stop rule may hold once the best count reaches 3."""
    return pc.RansacParams(inlier_threshold=threshold, min_inliers=3)


class Hypotheses:
    """Given models, served to pc._consensus block by block as its
    `hypotheses`.

    `models` are arrays with `rows` rows per index tuple (tuples(h, k)).
    `bounds` holds each block's (first row, row stop, tuples drawn
    through it), as pc._score_blocks(n_tuples, n_points, rows) splits the
    tuples; `built` the models and (first row, row stop) of each block
    pc._consensus asked for.
    """

    def __init__(self, models, n_tuples, n_points, rows):
        self.models = models
        self.rows = rows
        self.bounds = [
            (rows * a, rows * b, b) for a, b in pc._score_blocks(n_tuples, n_points, rows)
        ]
        self.built = []

    def __call__(self, block):
        start, stop = self.rows * int(block[0, 0]), self.rows * (int(block[-1, 0]) + 1)
        models = tuple(m[start:stop] for m in self.models)
        self.built.append((models, start, stop))
        return models

    @property
    def scored(self):
        """(first row, row stop) of each block built, and so scored."""
        return [(start, stop) for _, start, stop in self.built]

    def winner(self, got):
        """The row, among all hypotheses, of the consensus got picked."""
        start = next(a for m, a, _ in self.built if m is got.models)
        return start + got.row


def scored_prefix(bounds, counts, stop_after):
    """(row stop, tuples drawn) where the stop rule ends a search whose
    hypotheses have these inlier counts: the first block whose drawn
    count reaches stop_after(best count so far), or the last block."""
    for _, stop, drawn in bounds:
        if drawn >= stop_after(int(counts[:stop].max())):
            break
    return stop, drawn


def assert_matches_oracle(got, hyps, oracle, stop_after):
    """Blocked consensus against one-shot (counts, (h, n) mask) of every
    hypothesis: the blocked search must score the prefix the stop rule
    picks, each block once, and pick the first hypothesis of that prefix
    with the most inliers."""
    want_counts, want_within = oracle
    stop, drawn = scored_prefix(hyps.bounds, want_counts, stop_after)
    assert got.drawn == drawn
    assert hyps.scored == [(start, end) for start, end, _ in hyps.bounds if end <= stop]
    want_best = int(want_counts[:stop].argmax())
    assert hyps.winner(got) == want_best
    assert got.count == want_counts[want_best]
    np.testing.assert_array_equal(got.within, want_within[want_best])
    np.testing.assert_array_equal(got.models[0][got.row], hyps.models[0][want_best])


def blocked_plane_scores(pts, normals, offsets, params):
    """Planes come from point triples, one row per index tuple."""
    hyps = Hypotheses((normals, offsets), len(normals), len(pts), 1)
    got = pc._consensus(
        tuples(len(normals), 3),
        len(pts),
        hyps,
        lambda planes: pc._plane_residuals(pts, *planes),
        params,
    )
    return got, hyps


def blocked_circle_scores(pts, centers, radius, params):
    """Centers come from point pairs, in mirror pairs: two rows per index
    tuple."""
    pp = np.einsum("ij,ij->i", pts, pts)
    hyps = Hypotheses((centers,), len(centers) // 2, len(pts), 2)
    got = pc._consensus(
        tuples(len(centers) // 2, 2),
        len(pts),
        hyps,
        lambda block: pc._circle_residuals(pts, pp, block[0], radius),
        params,
        rows_per_hypothesis=2,
    )
    return got, hyps


def spread_top_ties(bounds):
    """Rows of three hypotheses in three different blocks: the first
    and the last are to tie with the middle one at the top count. The
    middle row opens its block, so the row after it, which is to copy
    it, lies in the same block."""
    assert len(bounds) >= 3
    return bounds[0][1] - 1, bounds[len(bounds) // 2][0], bounds[-1][1] - 1


# 140 points (the in-loop cloud) cap blocks at 58 planes or 29 center
# pairs; 9000 points are over the block budget on their own, so blocks
# hold the two-row minimum. Each case is scored both in full (a stop
# rule that never holds) and under the stop rule. At 140 points some
# searches stop early; at 9000 the few hypotheses never reach a
# consensus share that stops one, and the tie tests below stop there
# instead.
@pytest.mark.parametrize("n_points", [140, 9000])
def test_blocked_plane_scores_match_one_shot_oracle(n_points):
    rng = np.random.default_rng(n_points)
    stopped_early = False
    for h in hypothesis_counts(n_points):
        normals = rng.normal(size=(h, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        offsets = rng.uniform(-0.02, 0.02, h)
        # Points on the z axis make each matrix-product entry one rounded
        # product, which every BLAS kernel rounds alike, so every count
        # must match bit for bit.
        on_axis = np.zeros((n_points, 3))
        on_axis[:, 2] = rng.uniform(-0.05, 0.05, n_points)
        # Points in general position: BLAS rounds the edge tiles of a
        # product by the product's shape, so a distance may move by a few
        # ulps of |p| between a block and the whole, which moves a count
        # only for a point that close to the threshold.
        general = rng.uniform(-0.05, 0.05, (n_points, 3))
        for pts in (on_axis, general):
            oracle = one_shot_plane_scores(pts, normals, offsets, 0.01)
            for params in (score_all(n_points, 0.01), stopping(0.01)):
                got, hyps = blocked_plane_scores(pts, normals, offsets, params)
                assert_matches_oracle(got, hyps, oracle, stop_rule(n_points, 3, params.min_inliers))
                stopped_early |= got.drawn < h
    assert stopped_early or n_points == 9000


@pytest.mark.parametrize("n_points", [140, 9000])
def test_blocked_plane_top_ties_across_blocks_go_to_the_first_drawn(n_points):
    # Every point within the threshold of the planes z = 0.002 and
    # z = 0.0005, and of no other plane: their hypotheses tie at the
    # top count, in three blocks and twice in the middle one. The first
    # drawn, z = 0.002, wins, though z = 0.0005 lies nearer the points.
    h = hypothesis_counts(n_points)[-1]
    pts = np.zeros((n_points, 3))
    pts[:, 2] = np.random.default_rng(3).uniform(-0.001, 0.001, n_points)
    normals = np.tile([0.0, 0.0, 1.0], (h, 1))
    offsets = np.full(h, 0.5)
    first, middle, last = spread_top_ties(Hypotheses((), h, n_points, 1).bounds)
    offsets[[first, middle, middle + 1, last]] = 0.002, 0.0005, 0.0005, 0.0005
    oracle = one_shot_plane_scores(pts, normals, offsets, 0.01)
    params = score_all(n_points, 0.01)
    got, hyps = blocked_plane_scores(pts, normals, offsets, params)
    assert_matches_oracle(got, hyps, oracle, stop_rule(n_points, 3, params.min_inliers))
    assert hyps.winner(got) == first and got.count == n_points
    assert len(hyps.scored) == len(hyps.bounds)
    # Under the stop rule, the first plane holds every point (w = 1), so
    # the search ends with its block and the later ties are never scored.
    got, hyps = blocked_plane_scores(pts, normals, offsets, stopping(0.01))
    assert_matches_oracle(got, hyps, oracle, stop_rule(n_points, 3, 3))
    assert hyps.winner(got) == first and got.drawn == first + 1
    assert len(hyps.scored) == 1


@pytest.mark.parametrize("n_points", [140, 9000])
def test_blocked_circle_scores_match_one_shot_oracle(n_points):
    rng = np.random.default_rng(n_points + 1)
    radius = 0.012
    stopped_early = False
    for pairs in hypothesis_counts(n_points, rows=2):
        centers = rng.uniform(-0.02, 0.02, (2 * pairs, 2))
        # As for planes: points on the x axis are scored bit for bit alike,
        # points in general position within a few ulps per residual.
        on_axis = np.zeros((n_points, 2))
        on_axis[:, 0] = rng.uniform(-0.03, 0.03, n_points)
        general = rng.uniform(-0.03, 0.03, (n_points, 2))
        for pts in (on_axis, general):
            oracle = one_shot_circle_scores(pts, centers, radius, 0.003)
            for params in (score_all(n_points, 0.003), stopping(0.003)):
                got, hyps = blocked_circle_scores(pts, centers, radius, params)
                assert_matches_oracle(got, hyps, oracle, stop_rule(n_points, 2, params.min_inliers))
                stopped_early |= got.drawn < pairs
    assert stopped_early or n_points == 9000


@pytest.mark.parametrize("n_points", [140, 9000])
def test_blocked_circle_top_ties_across_blocks_go_to_the_first_drawn(n_points):
    # Points on the x axis about one radius from the origin: the centers
    # (0.0004, 0) and (0, 0) hold all of them and no other center holds
    # any. The first drawn, (0.0004, 0), wins over (0, 0), its mirror row
    # and its copy in the last block, though (0, 0) fits the points
    # better.
    pairs = hypothesis_counts(n_points, rows=2)[-1]
    radius = 0.012
    pts = np.zeros((n_points, 2))
    pts[:, 0] = np.random.default_rng(4).uniform(0.0115, 0.0125, n_points)
    centers = np.full((2 * pairs, 2), 1.0)
    first, middle, last = spread_top_ties(Hypotheses((), pairs, n_points, 2).bounds)
    centers[[first, middle, middle + 1, last]] = [0.0004, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    oracle = one_shot_circle_scores(pts, centers, radius, 0.003)
    params = score_all(n_points, 0.003)
    got, hyps = blocked_circle_scores(pts, centers, radius, params)
    assert_matches_oracle(got, hyps, oracle, stop_rule(n_points, 2, params.min_inliers))
    assert hyps.winner(got) == first and got.count == n_points
    assert len(hyps.scored) == len(hyps.bounds)
    # Under the stop rule the first center holds every point (w = 1).
    got, hyps = blocked_circle_scores(pts, centers, radius, stopping(0.003))
    assert_matches_oracle(got, hyps, oracle, stop_rule(n_points, 2, 3))
    assert hyps.winner(got) == first and 2 * got.drawn == first + 1
    assert len(hyps.scored) == 1


def synthetic_consensus(counts, n_points, sample_size, min_inliers=3):
    """pc._consensus over hypotheses whose inlier masks hold the given
    counts (leading points), drawn as index tuples of sample_size, in the
    plane stage's blocks. The params stand-in lets min_inliers go below
    RansacParams' floor of 3."""
    counts = np.asarray(counts)
    hyps = Hypotheses((counts,), len(counts), n_points, 1)
    got = pc._consensus(
        tuples(len(counts), sample_size),
        n_points,
        hyps,
        lambda block: (np.arange(n_points) >= block[0][:, None]) * 1.0,
        SimpleNamespace(inlier_threshold=0.5, min_inliers=min_inliers),
    )
    return got, hyps


@pytest.mark.parametrize("sample_size", [2, 3])
def test_stop_count_is_the_textbook_formula(sample_size):
    # 200 points: blocks end after 16, 48, 88, 128, 168, ... tuples.
    n_points, h = 200, 500
    for best in (30, 60, 100, 150, 190, 200):
        w = best / n_points
        needed = math.log(0.01) / math.log(1.0 - w**sample_size) if w < 1.0 else 0.0
        stop_after = stop_rule(n_points, sample_size, 15)
        assert stop_after(best) == pytest.approx(needed, rel=1e-12, abs=0.0)
        counts = np.full(h, 5)
        counts[0] = best
        # _consensus reads the sample size off its index tuples
        got, hyps = synthetic_consensus(counts, n_points, sample_size, min_inliers=15)
        ends = [drawn for _, _, drawn in hyps.bounds]
        want = next((end for end in ends if end >= needed), h)
        assert got.drawn == want == hyps.scored[-1][1]
        assert hyps.winner(got) == 0 and got.count == best


def test_collinear_triples_inside_a_block(monkeypatch):
    # Points 0 and 3-10 lie on one line; points 1 and 2 are one point
    # off it, given twice. A triple of line points, or one holding both
    # copies of the off point, gives no plane.
    direction = geo.unit([1.0, 2.0, 3.0])
    line = 0.01 + np.outer(np.linspace(-0.04, 0.04, 9), direction)
    off = 0.01 + 0.02 * geo.unit(np.cross(direction, [0.0, 0.0, 1.0]))
    pts = np.concatenate([line[:1], [off, off], line[1:]])
    on_line = [0, *range(3, 11)]
    flat = [(1, 2, k) for k in on_line] + list(itertools.combinations(on_line, 3))
    assert len(flat) == 9 + 84
    assert len(pc._plane_hypotheses(pts, np.array(flat))[0]) == 0

    built, results = [], []  # (tuples, planes) of each block built; each search's consensus
    consensus = pc._consensus

    def recording(idx, n_points, hypotheses, *args, **kwargs):
        def seen(block):
            built.append((len(block), hypotheses(block)))
            return built[-1][1]

        results.append(consensus(idx, n_points, seen, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pc, "_consensus", recording)
    # The drawn triples are the flat ones with (0, 1, 10) at row 47: the
    # first block of 16 gives no plane and is skipped, the second block
    # of 32 gives (0, 1, 10)'s plane alone, scored as a one-row block.
    # That plane holds all 11 points (w = 1), so the search stops there,
    # and reports both blocks drawn.
    idx = np.array(flat[:47] + [(0, 1, 10)] + flat[47:])
    monkeypatch.setattr(pc, "_hypothesis_indices", lambda n, k, iterations, rng: idx)
    _, inliers, drawn = pc.fit_plane_ransac(pts, pc.RansacParams(min_inliers=3), np.random.default_rng(0))
    assert list(itertools.accumulate(k for k, _ in built)) == [16, 48] and drawn == 48
    assert len(built[0][1][0]) == 0 and len(built[1][1][0]) == 1
    got = results[-1]
    assert got.models is built[1][1] and got.row == 0 and got.count == 11
    assert len(inliers) == 11
    # A search that never stops scores its one plane, skips every other
    # block, and counts them all in drawn.
    built.clear()
    with pytest.raises(pc.NoConsensus, match="11 inliers < 12"):
        pc.fit_plane_ransac(pts, pc.RansacParams(min_inliers=12), np.random.default_rng(0))
    assert list(itertools.accumulate(k for k, _ in built)) == [16, 48, 94]
    assert results[-1].drawn == 94
    assert [len(planes[0]) == 0 for _, planes in built] == [True, False, True]


def test_stop_waits_for_min_inliers():
    # The first blocks' best, 10 of 20 points, would stop the search
    # after 24 pairs, but it is below min_inliers: the search goes on to
    # the block holding hypothesis 100, whose 20 inliers stop it at once.
    counts = np.full(500, 10)
    counts[100] = 20
    got, hyps = synthetic_consensus(counts, 20, 2, min_inliers=15)
    block_end = next(drawn for start, stop, drawn in hyps.bounds if start <= 100 < stop)
    assert (hyps.winner(got), got.count, got.drawn) == (100, 20, block_end)
    assert pc._stop_after(10, 20, 2, 3) < 24
    # Never reached: every hypothesis up to the cap is scored.
    got, hyps = synthetic_consensus(np.full(500, 10), 20, 2, min_inliers=15)
    assert got.drawn == hyps.scored[-1][1] == 500


def test_stop_rule_at_no_and_full_consensus_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sample_size in (2, 3):
            assert pc._stop_after(0, 100, sample_size, 0) == math.inf  # w = 0
            assert pc._stop_after(100, 100, sample_size, 3) == 0.0  # w = 1
            got, hyps = synthetic_consensus(np.zeros(100), 100, sample_size, min_inliers=0)
            assert got.drawn == 100 and hyps.winner(got) == 0 and got.count == 0
            got, hyps = synthetic_consensus(np.full(100, 100), 100, sample_size)
            assert got.drawn == pc._FIRST_BLOCK and hyps.winner(got) == 0


def test_score_blocks_cover_every_hypothesis_once():
    for rows in (1, 2):
        for n_points in (1, 140, 200, 4096, 4097, 9000):
            for h in range(1, 130):
                blocks = pc._score_blocks(h, n_points, rows)
                assert blocks[0][0] == 0 and blocks[-1][1] == h
                assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
                # the budget, or two rows on clouds over half of it
                cap = max(pc._SCORE_BLOCK_PAIRS, 2 * n_points)
                assert all((stop - start) * rows * n_points <= cap for start, stop in blocks)
                # _FIRST_BLOCK tuples, then each block twice the one before, up to the budget
                sizes = [stop - start for start, stop in blocks]
                most = max(1, max(2, pc._SCORE_BLOCK_PAIRS // n_points) // rows)
                if len(sizes) > 1:
                    assert sizes[0] == min(pc._FIRST_BLOCK, most)
                assert all(b == min(2 * a, most) for a, b in zip(sizes, sizes[1:-1]))


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
    # 220 points, so that the circle stage gets over 100 plane inliers
    cloud = pc.synth_needle_cloud(pose, SPEC, HARSH_NOISE, 220, np.random.default_rng(4))
    plane_params = pc.RansacParams()
    circle_params = pc.RansacParams(inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD)
    plane, idx, _ = pc.fit_plane_ransac(cloud, plane_params, np.random.default_rng(4))
    projected = cloud[idx] - np.outer(plane.signed_distance(cloud[idx]), plane.normal)
    coords = geo.to_plane_coords(projected, plane)
    assert len(coords) > 100

    assert traced_peak(
        lambda: pc.fit_plane_ransac(cloud, plane_params, np.random.default_rng(4))
    ) < SCORING_PEAK_BOUND
    assert traced_peak(
        lambda: pc.fit_circle_fixed_radius(coords, SPEC.radius, circle_params, np.random.default_rng(4))
    ) < SCORING_PEAK_BOUND


# ---------------------------------------------------------------------------
# circle RANSAC


def test_circle_fit_exact_points():
    rng = np.random.default_rng(11)
    truth = np.array([0.004, -0.002])
    ang = rng.uniform(0, 1.8 * math.pi, 80)
    pts = truth + 0.012 * np.column_stack([np.cos(ang), np.sin(ang)])
    center, _ = pc.fit_circle_fixed_radius(pts, 0.012, pc.RansacParams(), np.random.default_rng(6))
    np.testing.assert_allclose(center, truth, atol=1e-9)


def test_polished_center_matches_a_tight_gauss_newton_oracle():
    # Polishing stops at nanometre steps; the center it stops at lies
    # within a nanometre of Gauss-Newton run to femtometre steps.
    rng = np.random.default_rng(13)
    for _ in range(50):
        truth = rng.uniform(-0.01, 0.01, 2)
        ang = rng.uniform(0.0, rng.uniform(0.5, 1.0) * math.pi, 60) + rng.uniform(0.0, 2 * math.pi)
        pts = truth + 0.012 * np.column_stack([np.cos(ang), np.sin(ang)])
        pts += rng.normal(0.0, 5e-4, pts.shape)
        start = truth + rng.normal(0.0, 3e-4, 2)
        got = pc._polish_circle_center(pts, start, 0.012)
        want = gauss_newton_circle_center(pts, start, 0.012)
        assert np.linalg.norm(got - want) < 1e-9


def test_circle_fit_matches_grid_oracle_with_outliers():
    rng = np.random.default_rng(12)
    truth = np.array([-0.003, 0.005])
    ang = rng.uniform(0.2, math.pi, 30)
    good = truth + 0.012 * np.column_stack([np.cos(ang), np.sin(ang)])
    good += rng.normal(0, 2e-4, good.shape)
    bad = rng.uniform(-0.02, 0.02, size=(6, 2))
    pts = np.concatenate([good, bad])
    center, _ = pc.fit_circle_fixed_radius(
        pts, 0.012, pc.RansacParams(inlier_threshold=6e-4, min_inliers=10), np.random.default_rng(7)
    )
    oracle = trimmed_grid_circle_center(pts, 0.012)
    assert np.linalg.norm(center - oracle) < 5e-4
    assert np.linalg.norm(center - truth) < 5e-4


def test_circle_fit_pair_wider_than_diameter_contributes_nothing():
    # Two points 3 radii apart admit no center; the fit must refuse.
    pts = np.array([[0.0, 0.0], [0.036, 0.0]])
    with pytest.raises(pc.NoConsensus):
        pc.fit_circle_fixed_radius(pts, 0.012, pc.RansacParams(min_inliers=3), np.random.default_rng(8))


def test_circle_fit_errors():
    with pytest.raises(pc.DegenerateInput):
        pc.fit_circle_fixed_radius(np.empty((0, 2)), 0.012, pc.RansacParams(), np.random.default_rng(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fits_reject_a_non_finite_row(bad):
    # One NaN once made every tie-break sum NaN, so ties went to the
    # lowest index and the plane normal moved by up to 4.5 degrees.
    cloud = pc.synth_needle_cloud(random_pose(np.random.default_rng(24)), SPEC, HARSH_NOISE, 200, np.random.default_rng(24))
    cloud[-1] = bad
    theta = np.linspace(0.0, math.pi, 40)
    ring = 0.012 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ring[-1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pc.DegenerateInput, match="non-finite") as plane_err:
            pc.fit_plane_ransac(cloud, pc.RansacParams(), np.random.default_rng(24))
        with pytest.raises(pc.DegenerateInput, match="non-finite") as circle_err:
            pc.fit_circle_fixed_radius(ring, 0.012, pc.RansacParams(), np.random.default_rng(24))
    assert (plane_err.value.stage, circle_err.value.stage) == ("plane", "circle")


# ---------------------------------------------------------------------------
# endpoints


def test_arc_ends_run_counterclockwise_around_the_largest_gap():
    # Shuffled samples of a 200-degree arc, starting anywhere: the arc
    # runs counterclockwise from its first sample to its last, across the
    # -pi/pi cut when it lies there.
    rng = np.random.default_rng(13)
    center2d = np.array([0.004, -0.002])
    for start in np.linspace(-math.pi, math.pi, 13):
        angles = start + np.linspace(0.0, math.radians(200.0), 30)
        perm = rng.permutation(30)
        coords = center2d + SPEC.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)[perm]
        first, last, begin, extent = pc.arc_ends(coords, center2d)
        assert (perm[first], perm[last]) == (0, 29)
        assert math.isclose(math.cos(begin), math.cos(start), abs_tol=1e-12)
        assert math.isclose(math.sin(begin), math.sin(start), abs_tol=1e-12)
        assert math.isclose(extent, math.radians(200.0), abs_tol=1e-12)
    with pytest.raises(pc.DegenerateInput):
        pc.arc_ends(center2d[None, :], center2d)


def test_snapped_endpoints_lie_on_circle():
    # Both placements, at the arc midpoint +/- span/2 and at the arc's own
    # ends, put the endpoints on the fitted circle, in the order of the arc.
    rng = np.random.default_rng(14)
    for _ in range(25):
        plane = geo.Plane(geo.unit(rng.normal(size=3)), float(rng.normal(scale=0.05)))
        center2d = rng.normal(scale=0.02, size=2)
        center = geo.from_plane_coords(center2d, plane)
        start = rng.uniform(-math.pi, math.pi)
        visible = math.radians(170.0)
        angles = start + np.sort(np.r_[0.0, visible, rng.uniform(0.0, visible, 18)])
        coords = center2d + rng.uniform(0.01, 0.014) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for span, by_span in ((math.pi, True), (2.0 * math.pi, False)):
            tip, swage, kept = pc.extract_endpoints(coords, center2d, plane, pc.NeedleSpec(arc_span=span))
            assert kept == by_span
            for end in (tip, swage):
                assert abs(np.linalg.norm(end - center) - SPEC.radius) < 1e-9
                assert abs(plane.signed_distance(end)) < 1e-9
            u, v = plane.basis
            sweep = math.atan2(float(np.dot(swage - center, v)), float(np.dot(swage - center, u)))
            sweep -= math.atan2(float(np.dot(tip - center, v)), float(np.dot(tip - center, u)))
            want = span if by_span else angles[-1] - angles[0]
            assert math.isclose(sweep % (2.0 * math.pi), want % (2.0 * math.pi), abs_tol=1e-9)


# ---------------------------------------------------------------------------
# full pipeline


def test_estimate_zero_noise_is_exact():
    rng = np.random.default_rng(15)
    for _ in range(10):
        pose = random_pose(rng)
        cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(), 150, np.random.default_rng(int(rng.integers(1 << 30))))
        est = pc.estimate_needle_pose(cloud, SPEC, pc.RansacParams(seed=0))
        delta = pc.pose_agreement(est, pose)
        assert delta.center_dist < 1e-9
        assert delta.normal_angle < 1e-9 or abs(delta.normal_angle - math.pi) < 1e-9
        assert delta.endpoint_dist < 1e-9
        # ends in counterclockwise order about the normal, as make_needle_pose places them
        np.testing.assert_allclose(est.tip, pose.tip, atol=1e-9)
        np.testing.assert_allclose(est.swage, pose.swage, atol=1e-9)


def test_endpoints_of_an_arc_past_a_half_circle_are_its_ends():
    # A 270-degree needle in a full-circle spec, which never keeps the
    # span placement: the endpoints are the visible arc's own ends. On an
    # arc past a half circle, the farthest pair of its points lies across
    # a diameter instead, not at its ends. The simulator's 0.3 mm noise,
    # criterion 1's outlier share and its 1.5 mm endpoint tolerance.
    needle = pc.NeedleSpec(arc_span=math.radians(270.0))
    full_circle = pc.NeedleSpec(arc_span=2.0 * math.pi)
    noise = pc.NoiseModel(gaussian_sigma=3e-4, outlier_fraction=0.20)
    plane = pc.RansacParams()
    circle = pc.RansacParams(inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD)
    within = 0
    for i in range(100):
        rng = np.random.default_rng([26, i])
        truth = pc.make_needle_pose(
            rng.uniform(-0.03, 0.03, size=3), geo.unit(rng.normal(size=3)), rng.normal(size=3), needle
        )
        cloud = pc.synth_needle_cloud(truth, needle, noise, 200, rng)
        est, diag = pc.estimate_pose(cloud, full_circle, plane, circle, np.random.default_rng(i))
        assert not diag.span_kept
        within += pc.pose_agreement(est, truth).endpoint_dist <= 1.5e-3
    assert within >= 95, within


def test_estimate_stage_tags():
    with pytest.raises(pc.DegenerateInput) as err:
        pc.estimate_needle_pose(np.empty((0, 3)), SPEC, pc.RansacParams())
    assert err.value.stage == "plane"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_estimate_rejects_non_finite_cloud(bad):
    cloud = pc.synth_needle_cloud(random_pose(np.random.default_rng(23)), SPEC, pc.NoiseModel(), 150, np.random.default_rng(23))
    cloud[40, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pc.DegenerateInput, match="non-finite") as err:
            pc.estimate_needle_pose(cloud, SPEC, pc.RansacParams(seed=0))
    assert err.value.stage == "plane"


def test_estimate_diagnostics():
    pose = random_pose(np.random.default_rng(16))
    cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(gaussian_sigma=1e-4), 150, np.random.default_rng(5))
    params = pc.RansacParams()
    est, diag = pc.estimate_pose(cloud, SPEC, params, params, np.random.default_rng(0))
    assert diag.plane_inliers >= pc.DEFAULT_MIN_INLIERS
    assert diag.circle_inliers >= 2
    assert diag.plane_rms < 5e-4 and diag.circle_rms < 5e-4


@pytest.mark.parametrize("arc_span, span_kept", [(math.pi, True), (2 * math.pi, False)])
def test_estimate_diagnostics_say_which_refinements_were_kept(arc_span, span_kept):
    # A clean half-needle cloud keeps the feedback refit. The span
    # refinement would extrapolate on a full circle, so a needle spec of
    # 2 pi never keeps it.
    pose = pc.make_needle_pose([0.0, 0.01, 0.02], geo.unit([0.2, 1.0, 0.1]), [1.0, 0.0, 0.0], SPEC)
    cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(), 150, np.random.default_rng(6))
    params = pc.RansacParams()
    est, diag = pc.estimate_pose(cloud, pc.NeedleSpec(arc_span=arc_span), params, params, np.random.default_rng(6))
    assert (diag.refit_kept, diag.span_kept) == (True, span_kept)
    assert f"span_kept: {span_kept}\n" in pc.format_pose_record(est, diag)


def test_estimate_diagnostics_report_a_dropped_refit(monkeypatch):
    monkeypatch.setattr(pc, "_refit_plane_near_circle", lambda *args: None)
    cloud = pc.synth_needle_cloud(random_pose(np.random.default_rng(7)), SPEC, pc.NoiseModel(), 150, np.random.default_rng(7))
    params = pc.RansacParams()
    _, diag = pc.estimate_pose(cloud, SPEC, params, params, np.random.default_rng(7))
    assert (diag.refit_kept, diag.span_kept) == (False, True)


def test_estimate_needle_pose_is_estimate_pose_seeded_from_params():
    # benchmarks/workloads.py calls estimate_needle_pose with seeded params
    cloud = pc.synth_needle_cloud(random_pose(np.random.default_rng(25)), SPEC, HARSH_NOISE, 200, np.random.default_rng(25))
    plane = pc.RansacParams(seed=12)
    circle = pc.RansacParams(inlier_threshold=pc.DEFAULT_CIRCLE_THRESHOLD, seed=99)
    got = pc.estimate_needle_pose(cloud, SPEC, plane, circle)
    want, _ = pc.estimate_pose(cloud, SPEC, plane, circle, np.random.default_rng(12))
    for name in ("center", "normal", "tip", "swage"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_estimate_equivariance_under_rigid_motion():
    rng = np.random.default_rng(17)
    params = pc.RansacParams(seed=11)
    for k in range(8):
        pose = random_pose(rng)
        cloud = pc.synth_needle_cloud(pose, SPEC, pc.NoiseModel(), 120, np.random.default_rng(k))
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
                pose, SPEC, pc.NoiseModel(gaussian_sigma=sigma), 120, np.random.default_rng(1000 + i)
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
    diag = pc.EstimationDiagnostics(20, 1e-4, 18, 2e-4, 16, 8, True, False)
    rec = pc.format_pose_record(pose, diag)
    assert rec.startswith("center: ")
    for key in ("normal:", "radius:", "tip:", "swage:"):
        assert f"\n{key}" in rec or rec.startswith(key)
    assert rec.endswith("circle_hypotheses: 8\nrefit_kept: True\nspan_kept: False\n")
