"""Needle pose estimation from noisy point clouds.

The estimator recovers the full 6D pose of a circular suturing needle:

1. robust plane fit (RANSAC over 3-point hypotheses, orthogonal
   least-squares refit),
2. fixed-radius circle fit in plane coordinates (RANSAC over 2-point
   hypotheses, Gauss-Newton refinement of the center),
3. endpoint extraction as the farthest pair of needle inliers, snapped
   onto the fitted circle.

Also provides the synthetic cloud generator used by the simulator and
the test suite, and plain-text cloud / pose-record I/O.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import geometry as geo
from .geometry import Circle3D, Plane

# Shipped estimator defaults: stage-specific inlier thresholds (meters).
DEFAULT_ITERATIONS = 500
DEFAULT_PLANE_THRESHOLD = 5e-4
DEFAULT_CIRCLE_THRESHOLD = 4e-4
DEFAULT_MIN_INLIERS = 15

NEEDLE_RADIUS = 0.012  # GS-21-class half-circle needle, meters


class EstimationError(RuntimeError):
    """Base class for estimation failures; carries the failing stage."""

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class DegenerateInput(EstimationError):
    """Too few points, or a configuration with no usable hypotheses."""


class NoConsensus(EstimationError):
    """RANSAC found no model supported by at least min_inliers points."""


class CloudFormatError(ValueError):
    """A cloud file line could not be parsed."""


@dataclass(frozen=True)
class NeedleSpec:
    """Physical needle parameters."""

    radius: float = NEEDLE_RADIUS
    arc_span: float = math.pi

    def __post_init__(self):
        if not (0.0 < self.radius < math.inf):
            raise ValueError("needle radius must be positive and finite")
        if not (0.0 < self.arc_span <= 2.0 * math.pi):
            raise ValueError("arc_span must be in (0, 2*pi]")


@dataclass(frozen=True)
class RansacParams:
    iterations: int = DEFAULT_ITERATIONS
    inlier_threshold: float = DEFAULT_PLANE_THRESHOLD
    min_inliers: int = DEFAULT_MIN_INLIERS
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0.0 < self.inlier_threshold < math.inf):
            raise ValueError("inlier_threshold must be positive and finite")
        if self.min_inliers < 3:
            raise ValueError("min_inliers must be >= 3")


@dataclass(frozen=True)
class NoiseModel:
    """Corruption applied by the synthetic cloud generator.

    occlusion_arc hides a contiguous arc segment centered on the middle
    of the needle (the part buried in tissue); both needle endpoints
    stay visible as long as occlusion_arc < arc_span. outlier_box gives
    the full extents of an axis-aligned box centered on the true circle
    center in which uniform outliers are drawn.
    """

    gaussian_sigma: float = 0.0
    outlier_fraction: float = 0.0
    outlier_box: tuple[float, float, float] = (0.06, 0.06, 0.06)
    dropout_fraction: float = 0.0
    occlusion_arc: float = 0.0

    def __post_init__(self):
        if self.gaussian_sigma < 0.0:
            raise ValueError("gaussian_sigma must be >= 0")
        for name in ("outlier_fraction", "dropout_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        if self.occlusion_arc < 0.0:
            raise ValueError("occlusion_arc must be >= 0")
        if any(w <= 0.0 for w in self.outlier_box):
            raise ValueError("outlier_box extents must be positive")


@dataclass(frozen=True)
class NeedlePose:
    """Fitted circle plus the two needle endpoints.

    The estimator labels endpoints purely geometrically (deterministic
    index order); which one is the actual tip vs. the swage is assigned
    by whoever tracks the thread attachment. Like the geometry types,
    it freezes copies of the endpoint arrays, never the caller's own.
    """

    circle: Circle3D
    tip: np.ndarray
    swage: np.ndarray

    def __post_init__(self):
        tip = geo.as_point(np.array(self.tip, dtype=float))
        swage = geo.as_point(np.array(self.swage, dtype=float))
        if geo.norm(tip - swage) == 0.0:
            raise ValueError("tip and swage must be distinct points")
        tip.setflags(write=False)
        swage.setflags(write=False)
        object.__setattr__(self, "tip", tip)
        object.__setattr__(self, "swage", swage)

    @property
    def center(self) -> np.ndarray:
        return self.circle.center

    @property
    def normal(self) -> np.ndarray:
        return self.circle.normal

    @property
    def radius(self) -> float:
        return self.circle.radius


@dataclass(frozen=True)
class EstimationDiagnostics:
    plane_inliers: int
    plane_rms: float
    circle_inliers: int
    circle_rms: float


class PoseDelta(tuple):
    """(center_dist, normal_angle, endpoint_dist) with named access."""

    __slots__ = ()

    def __new__(cls, center_dist, normal_angle, endpoint_dist):
        return super().__new__(cls, (center_dist, normal_angle, endpoint_dist))

    center_dist = property(lambda self: self[0])
    normal_angle = property(lambda self: self[1])
    endpoint_dist = property(lambda self: self[2])


def canonical_normal(n) -> np.ndarray:
    """Flip a unit normal into the canonical hemisphere.

    Sign convention: positive y component; exact zero falls through to
    positive z, then positive x.
    """
    return _canonical(geo.as_point(n))


def _canonical(a: np.ndarray) -> np.ndarray:
    # canonical_normal for a float (3,) array already known to be finite
    for k in (1, 2, 0):
        if a[k] != 0.0:
            return a if a[k] > 0.0 else -a
    raise geo.GeometryError("zero normal")


# ---------------------------------------------------------------------------
# Needle arc parametrization (shared with the simulator)


def arc_frame(pose: NeedlePose, arc_span: float) -> tuple[np.ndarray, np.ndarray]:
    """In-plane frame (e1, e2) such that the needle body is

        p(s) = center + radius * (cos(s) e1 + sin(s) e2),  s in [0, arc_span],

    with p(0) == tip and p(arc_span) == swage. Of the two sweep
    directions the one whose tip-to-swage sweep best matches arc_span is
    taken; an exact tie (e.g. a half circle) resolves to the
    counterclockwise sweep about the pose normal.
    """
    n = pose.normal
    e1 = geo.unit(pose.tip - pose.center)
    rho_s = geo.unit(pose.swage - pose.center)
    delta = geo.signed_angle_about(n, e1, rho_s)  # (-pi, pi]
    ccw = delta % (2.0 * math.pi)
    cw = (2.0 * math.pi) - ccw if ccw > 0.0 else 2.0 * math.pi
    if abs(cw - arc_span) < abs(ccw - arc_span):
        return e1, -geo.cross3(n, e1)
    return e1, geo.cross3(n, e1)


def arc_points(pose: NeedlePose, arc_span: float, s, frame=None) -> np.ndarray:
    """Points on the needle body at arc parameters s (radians from tip).

    `frame` is arc_frame(pose, arc_span), for a caller that already has it.
    """
    e1, e2 = arc_frame(pose, arc_span) if frame is None else frame
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return pose.center + pose.radius * (np.cos(s)[:, None] * e1 + np.sin(s)[:, None] * e2)


def make_needle_pose(center, normal, tip_direction, spec: NeedleSpec) -> NeedlePose:
    """Construct a pose from center, plane normal and the tip's radial direction.

    The tip direction is orthogonalized against the normal; the swage
    sits arc_span further along the counterclockwise sweep about the
    normal (matching the arc_frame tie-break).
    """
    c = geo.as_point(center)
    n = geo.require_unit(normal, "needle normal")
    t = geo.as_point(tip_direction)
    rho = geo.unit(t - float(np.dot(t, n)) * n)
    tip = c + spec.radius * rho
    rot = geo.rotation_about_axis(n, spec.arc_span)
    swage = c + spec.radius * rot.apply_vector(rho)
    return NeedlePose(Circle3D(c, n, spec.radius), tip, swage)


# ---------------------------------------------------------------------------
# Synthetic clouds


def sample_visible_cloud(
    pose: NeedlePose,
    spec: NeedleSpec,
    visible_intervals: list[tuple[float, float]],
    noise: NoiseModel,
    n_points: int,
    rng: np.random.Generator,
    frame=None,
) -> np.ndarray:
    """Sample a cloud from the given visible arc intervals.

    n_points is split into round(n_points * outlier_fraction) box
    outliers and arc samples for the rest. Arc samples are spread over
    the intervals proportionally to their length, endpoints included,
    perturbed by isotropic Gaussian noise, then thinned by
    dropout_fraction. Returns an (m, 3) array: arc samples first (in
    arc-parameter order), then outliers. `frame` is as in arc_points.
    """
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    n_out = int(round(n_points * noise.outlier_fraction))
    n_in = n_points - n_out

    spans = [(s0, s1) for (s0, s1) in visible_intervals if s1 > s0]
    total = sum(s1 - s0 for s0, s1 in spans)
    chunks = []
    if n_in > 0 and total > 0.0:
        if frame is None:
            frame = arc_frame(pose, spec.arc_span)
        counts = _split_counts(n_in, [(s1 - s0) / total for s0, s1 in spans])
        for (s0, s1), k in zip(spans, counts):
            if k <= 0:
                continue
            s = np.linspace(s0, s1, k) if k > 1 else np.array([(s0 + s1) / 2.0])
            chunks.append(arc_points(pose, spec.arc_span, s, frame))
    if chunks:
        arc = np.concatenate(chunks, axis=0)
        if noise.gaussian_sigma > 0.0:
            arc = arc + rng.normal(0.0, noise.gaussian_sigma, size=arc.shape)
        if noise.dropout_fraction > 0.0:
            arc = arc[rng.random(len(arc)) >= noise.dropout_fraction]
    else:
        arc = np.empty((0, 3))

    if n_out > 0:
        half = 0.5 * np.asarray(noise.outlier_box, dtype=float)
        outliers = pose.center + rng.uniform(-half, half, size=(n_out, 3))
    else:
        outliers = np.empty((0, 3))
    return np.concatenate([arc, outliers], axis=0)


def _split_counts(n: int, weights: list[float]) -> list[int]:
    # Largest-remainder split of n samples over normalized weights.
    raw = [w * n for w in weights]
    counts = [int(math.floor(x)) for x in raw]
    rem = n - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:rem]:
        counts[i] += 1
    return counts


def synth_needle_cloud(
    pose: NeedlePose,
    spec: NeedleSpec,
    noise: NoiseModel,
    n_points: int,
    seed,
) -> np.ndarray:
    """Generate a synthetic needle observation.

    The occluded segment (noise.occlusion_arc) is centered on the middle
    of the needle arc. `seed` may be an integer or an existing
    numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    span = spec.arc_span
    occ = min(noise.occlusion_arc, span)
    if occ > 0.0:
        lo = (span - occ) / 2.0
        hi = (span + occ) / 2.0
        intervals = [(0.0, lo), (hi, span)]
    else:
        intervals = [(0.0, span)]
    return sample_visible_cloud(pose, spec, intervals, noise, n_points, rng)


# ---------------------------------------------------------------------------
# Robust fitting


def _hypothesis_indices(n: int, k: int, iterations: int, rng: np.random.Generator) -> np.ndarray:
    """Index tuples for RANSAC hypotheses.

    Enumerates all combinations when there are no more than `iterations`
    of them (deterministic and exhaustive on small clouds); otherwise
    draws `iterations` random tuples and discards those with repeats.
    """
    n_comb = math.comb(n, k)
    if n_comb <= iterations:
        return np.array(list(combinations(range(n), k)), dtype=np.intp)
    idx = rng.integers(0, n, size=(iterations, k))
    keep = np.ones(len(idx), dtype=bool)
    for a in range(k):
        for b in range(a + 1, k):
            keep &= idx[:, a] != idx[:, b]
    return idx[keep]


# Hypotheses are scored in blocks of at most this many (hypothesis,
# point) pairs, or two hypotheses on clouds of over 4096 points: 64 KiB
# per float64 temporary, half of glibc's 128 KiB mmap threshold.
# Temporaries above the threshold are mapped and page-faulted afresh on
# every call; below it they reuse heap memory. A block is first scored
# for its inlier mask alone; its residuals are computed only when a tie
# at the top count needs their sums (_consensus).
_SCORE_BLOCK_PAIRS = 8192


def _score_blocks(n_hypotheses: int, n_points: int) -> list[tuple[int, int]]:
    """(start, stop) hypothesis slices for block-wise scoring.

    A block holds at least two hypotheses, and the last block absorbs a
    lone leftover one, unless there is only one hypothesis: one row
    would go through BLAS gemv and another einsum reduction, which round
    differently from a block.
    """
    rows = max(2, _SCORE_BLOCK_PAIRS // n_points)
    stops = list(range(rows, n_hypotheses, rows))
    if stops and n_hypotheses - stops[-1] == 1:
        stops.pop()
    starts = [0, *stops]
    return list(zip(starts, [*stops, n_hypotheses]))


def _consensus(inliers, residuals, n_hypotheses: int, n_points: int, axis: int):
    """Inlier counts of every hypothesis, the winner (most inliers, then
    lower inlier residual sum, then lower index) and its inlier mask.

    `inliers(start, stop)` returns the boolean inlier mask of those
    hypotheses against every point, with hypotheses along `axis`, and
    `residuals(start, stop)` their residuals, in the same layout. Each
    block's mask is kept (at most _SCORE_BLOCK_PAIRS bytes, well under
    the mmap threshold), so the winner's mask is read from it instead of
    scoring its block a second time. Counts are summed in int32, exact
    for any cloud under 2**31 points.

    Residual sums only break ties at the top count, so only tied
    hypotheses need them: a hypothesis alone at the top count wins
    without any, and otherwise only the blocks that hold a tied
    hypothesis are scored again. That is the same `residuals` call on
    the same slice, summed by the same einsum as when every block was
    summed, so the tied sums, and the winner, keep their bytes. On the
    30 criterion-1 clouds of tests/test_golden.py a fit scores 13 to 14
    blocks and scores again 0.3 of them on average in the plane stage,
    1.7 in the circle stage.
    """
    blocks = _score_blocks(n_hypotheses, n_points)
    starts = [start for start, _ in blocks]
    point_axis = 1 - axis
    counts = np.empty(n_hypotheses, dtype=np.int32)
    masks = []
    for start, stop in blocks:
        within = inliers(start, stop)
        np.add.reduce(within, axis=point_axis, dtype=np.int32, out=counts[start:stop])
        masks.append(within)
    tied = np.flatnonzero(counts == counts.max())
    if len(tied) == 1:
        best = int(tied[0])
    else:
        subscripts = "ij,ij->j" if axis == 1 else "ij,ij->i"
        sums = np.empty(n_hypotheses)  # written, and read, only for tied blocks
        for k in sorted({bisect_right(starts, i) - 1 for i in tied.tolist()}):
            start, stop = blocks[k]
            sums[start:stop] = np.einsum(subscripts, residuals(start, stop), masks[k])
        best = int(tied[np.argmin(sums[tied])])
    k = bisect_right(starts, best) - 1
    return counts, best, np.take(masks[k], best - starts[k], axis=axis)


def _plane_residuals(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """|p . n - offset| for every point (rows) and plane (columns)."""
    dist = pts @ normals.T
    dist -= offsets
    return np.abs(dist, out=dist)


def _squared_distances(
    pts: np.ndarray, pp: np.ndarray, centers: np.ndarray, cc: np.ndarray
) -> np.ndarray:
    """|p - c|^2 for every center (rows) and point (columns), unclamped.

    pp and cc are the squared norms of pts and centers. |p - c|^2 comes
    from |p|^2 - 2 p.c + |c|^2: one matmul instead of an (h, n, 2)
    broadcast, which dominates the runtime otherwise. The -2 is folded
    into the small operand: scaling by a power of two is exact, so
    (-2 c) @ p.T has the bytes of -2 * (c @ p.T) without a pass over the
    product. Rounding can leave an entry slightly below zero.
    """
    x = (-2.0 * centers) @ pts.T
    x += pp
    x += cc[:, None]
    return x


def _circle_residuals(
    pts: np.ndarray, pp: np.ndarray, centers: np.ndarray, cc: np.ndarray, radius: float
) -> np.ndarray:
    """||p - c| - radius| for every center (rows) and point (columns),
    from _squared_distances."""
    resid = _squared_distances(pts, pp, centers, cc)
    np.maximum(resid, 0.0, out=resid)
    np.sqrt(resid, out=resid)
    resid -= radius
    return np.abs(resid, out=resid)


def _circle_inliers(
    pts: np.ndarray, pp: np.ndarray, centers: np.ndarray, cc: np.ndarray, band: tuple[float, float]
) -> np.ndarray:
    """_circle_residuals(...) <= threshold, for band =
    _squared_distance_band(radius, threshold), without the residuals:
    two comparisons per pair instead of a clamp, a square root, a
    subtraction, an absolute value and a comparison."""
    lo, hi = band
    x = _squared_distances(pts, pp, centers, cc)
    within = x >= lo
    within &= x <= hi
    return within


# Bit patterns of the non-negative doubles, read as int64, run from 0
# (+0.0) to _INF_BITS (+inf) in the order of the doubles themselves.
_INF_BITS = 0x7FF0000000000000


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _least_double(pred, guess: float) -> int:
    """Bit pattern of the least non-negative double x with pred(x) true.

    pred must be monotone over the non-negative doubles (false, then
    true from some x on), and is taken to hold at +inf. The search
    gallops out from `guess` by 1, 2, 4, ... bit patterns until pred
    changes, then bisects the bracket: at most 63 steps of each, and a
    few in all when guess lies a few ulps from the answer.
    """
    false, true = -1, _INF_BITS  # pred fails at `false` and below, holds at `true`
    g = struct.unpack("<q", struct.pack("<d", guess))[0]
    g = min(max(g, 0), _INF_BITS)  # a negative or NaN guess clamps to an end
    step = 1
    if pred(_double(g)):
        true = g
        while true - step > false:
            if not pred(_double(true - step)):
                false = true - step
                break
            true -= step
            step *= 2
    else:
        false = g
        while false + step < true:
            if pred(_double(false + step)):
                true = false + step
                break
            false += step
            step *= 2
    while true - false > 1:
        mid = (false + true) // 2
        if pred(_double(mid)):
            true = mid
        else:
            false = mid
    return true


def _squared_distance_band(radius: float, threshold: float) -> tuple[float, float]:
    """The doubles x that pass |sqrt(max(x, 0)) - radius| <= threshold,
    as the closed interval [lo, hi].

    The rounded square root, the rounded subtraction of radius and each
    comparison are monotone in x, so the passing doubles form one
    interval: above every x whose residual falls short of -threshold and
    below every x whose residual exceeds threshold. Its ends are found
    by search over the doubles themselves, with exactly the residual
    test's operations. The algebraic ends (radius -/+ threshold)^2 can
    round to a neighbour of the true end (they do at the default plane
    threshold), and a pair on that ulp would change sides. So
    lo <= x <= hi holds for exactly the doubles the residual test
    passes: never NaN, and +inf only for an infinite threshold. When the
    test holds at x = 0 (threshold >= radius), it holds at every x <= 0
    too, -inf included, through the clamp, and lo is -inf.
    """

    def reaches(x: float) -> bool:  # residual >= -threshold
        return math.sqrt(x) - radius >= -threshold

    def exceeds(x: float) -> bool:  # not (residual <= threshold), so NaN exceeds
        return not (math.sqrt(x) - radius <= threshold)

    # Guesses are squared by a multiply, which overflows to +inf where
    # ** would raise.
    if reaches(0.0):
        lo = -math.inf
    else:
        lo = _double(_least_double(reaches, (radius - threshold) * (radius - threshold)))
    if exceeds(math.inf):
        hi = _double(_least_double(exceeds, (radius + threshold) * (radius + threshold)) - 1)
    else:
        hi = math.inf
    return lo, hi


def _radial_residuals(coords: np.ndarray, center2d: np.ndarray, radius: float) -> np.ndarray:
    """||p - c| - radius| for (n, 2) in-plane points.

    sqrt(add.reduce(w * w, axis=1)) is exactly what np.linalg.norm(w,
    axis=1) runs on a real array, without its dispatch.
    """
    w = coords - center2d
    w *= w
    dist = np.add.reduce(w, axis=1)
    np.sqrt(dist, out=dist)
    dist -= radius
    return np.abs(dist, out=dist)


def _plane_projection(pts: np.ndarray, plane: Plane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed distances of (n, 3) points to the plane, their projections
    onto it and the projections' in-plane coordinates."""
    dist = plane.signed_distance(pts)
    projected = pts - dist[:, None] * plane.normal
    return dist, projected, geo.to_plane_coords(projected, plane)


def fit_plane_ransac(cloud, params: RansacParams) -> tuple[Plane, np.ndarray]:
    """RANSAC plane fit.

    Maximizes the inlier count (ties broken by lower total inlier
    distance, then lowest hypothesis index), then refits by orthogonal
    least squares on the consensus set. Returns the refit plane and the
    indices of cloud points within the threshold of it. A cloud with a
    NaN or infinite coordinate raises DegenerateInput.

    Hypotheses are scored in blocks of at most _SCORE_BLOCK_PAIRS
    (point, plane) pairs, so no temporary reaches glibc's mmap threshold
    and none is mapped and page-faulted afresh on each call. Distance
    sums are computed only for blocks holding a hypothesis tied at the
    top count (_consensus).
    """
    pts = np.asarray(cloud, dtype=float)
    # Finiteness first: estimate_needle_pose reports a non-finite cloud
    # of any shape through this check.
    if not np.isfinite(pts).all():
        raise DegenerateInput("cloud has a non-finite coordinate", stage="plane")
    if pts.ndim != 2 or (len(pts) and pts.shape[1] != 3):
        raise DegenerateInput("cloud must be an (n, 3) array", stage="plane")
    if len(pts) < 3:
        raise DegenerateInput(f"need at least 3 points, got {len(pts)}", stage="plane")

    rng = np.random.default_rng(params.seed)
    idx = _hypothesis_indices(len(pts), 3, params.iterations, rng)
    p0, p1, p2 = pts[idx[:, 0]], pts[idx[:, 1]], pts[idx[:, 2]]
    e1, e2 = p1 - p0, p2 - p0
    # np.cross(e1, e2), written out: the same multiplies and subtracts in
    # the same order, without its ~10 us of shape handling.
    cross = np.empty_like(e1)
    a0, a1, a2 = e1[:, 0], e1[:, 1], e1[:, 2]
    b0, b1, b2 = e2[:, 0], e2[:, 1], e2[:, 2]
    c0, c1, c2 = cross[:, 0], cross[:, 1], cross[:, 2]
    np.multiply(a1, b2, out=c0)
    c0 -= a2 * b1
    np.multiply(a2, b0, out=c1)
    c1 -= a0 * b2
    np.multiply(a0, b1, out=c2)
    c2 -= a1 * b0
    area = np.sqrt(np.einsum("ij,ij->i", cross, cross))
    scale = np.sqrt(
        np.einsum("ij,ij->i", e1, e1) * np.einsum("ij,ij->i", e2, e2)
    )
    valid = area > 1e-12 * np.maximum(scale, 1e-30)
    if not valid.any():
        raise DegenerateInput("all sampled triples were collinear", stage="plane")

    normals = cross[valid] / area[valid, None]
    offsets = np.einsum("ij,ij->i", normals, p0[valid])

    def residuals(a: int, b: int) -> np.ndarray:
        return _plane_residuals(pts, normals[a:b], offsets[a:b])

    counts, best, within = _consensus(
        lambda a, b: residuals(a, b) <= params.inlier_threshold,
        residuals,
        len(normals),
        len(pts),
        axis=1,
    )
    if counts[best] < params.min_inliers:
        raise NoConsensus(
            f"best plane consensus has {counts[best]} inliers < {params.min_inliers}",
            stage="plane",
        )

    # Iterate the consensus refit: a slightly tilted winning hypothesis
    # admits a slightly tilted inlier band, and a single SVD refit
    # inherits that tilt. Re-selecting inliers against each refit plane
    # converges to the threshold-stable set in a few rounds. The loop
    # runs on (normal, offset); one Plane is built, and validated, at
    # exit. add.reduce(...) / n is what ndarray.mean runs.
    consensus = np.flatnonzero(within)
    for _ in range(8):
        sel = pts[consensus]
        centroid = np.add.reduce(sel, axis=0) / len(sel)
        _, _, vt = np.linalg.svd(sel - centroid, full_matrices=False)
        normal = _canonical(vt[-1])
        offset = float(normal.dot(centroid))
        dist = pts @ normal
        dist -= offset
        refreshed = np.flatnonzero(np.abs(dist, out=dist) <= params.inlier_threshold)
        if len(refreshed) == len(consensus) and np.array_equal(refreshed, consensus):
            break
        if len(refreshed) < 3:
            break
        consensus = refreshed
    return Plane(normal, offset), refreshed  # measured against the final plane on every exit


def fit_circle_fixed_radius(points2d, radius: float, params: RansacParams) -> np.ndarray:
    """RANSAC circle fit with a known, fixed radius.

    Hypotheses come from point pairs: each pair closer than 2*radius
    yields the two mirror centers, pairs wider than 2*radius contribute
    nothing. The winning consensus (count, then lower total residual) is
    polished by Gauss-Newton on sum(|p - c| - r)^2 over the center only.
    Points with a NaN or infinite coordinate raise DegenerateInput.

    Candidate centers are scored in blocks of at most _SCORE_BLOCK_PAIRS
    (center, point) pairs, so no temporary reaches glibc's mmap threshold
    and none is mapped and page-faulted afresh on each call. A pair is
    an inlier when its squared distance |p - c|^2 lies in the exact
    band of squared distances whose residual passes the threshold
    (_squared_distance_band): the residual test's verdict, bit for bit,
    for two comparisons instead of a square root and three more passes.
    Residuals are computed only for blocks holding a center tied at the
    top count, whose sums break the tie (_consensus).
    """
    pts = np.asarray(points2d, dtype=float)
    if not np.isfinite(pts).all():
        raise DegenerateInput("points2d has a non-finite coordinate", stage="circle")
    if pts.ndim != 2 or (len(pts) and pts.shape[1] != 2):
        raise DegenerateInput("points2d must be an (n, 2) array", stage="circle")
    if len(pts) < 2:
        raise DegenerateInput(f"need at least 2 points, got {len(pts)}", stage="circle")
    if not (radius > 0.0):
        raise DegenerateInput("radius must be positive", stage="circle")

    rng = np.random.default_rng(params.seed)
    idx = _hypothesis_indices(len(pts), 2, params.iterations, rng)
    p, q = pts[idx[:, 0]], pts[idx[:, 1]]
    diff = q - p
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    feasible = (d > 1e-12) & (d <= 2.0 * radius)
    if not feasible.any():
        raise NoConsensus("no sampled pair admits a center candidate", stage="circle")
    # Built in place; the same operations, in the same order, as
    # mid = 0.5 * (p + q), h = sqrt(max(r^2 - 0.25 d^2, 0)),
    # perp = (-diff_y, diff_x) / d and centers = [mid + h perp; mid - h perp].
    diff, d = diff[feasible], d[feasible]
    m = len(d)
    mid = p[feasible]
    mid += q[feasible]
    mid *= 0.5
    h = np.square(d)
    h *= 0.25
    np.subtract(radius * radius, h, out=h)
    np.maximum(h, 0.0, out=h)
    np.sqrt(h, out=h)
    perp = np.empty((m, 2))
    np.negative(diff[:, 1], out=perp[:, 0])
    perp[:, 1] = diff[:, 0]
    perp /= d[:, None]
    perp *= h[:, None]
    centers = np.empty((2 * m, 2))
    np.add(mid, perp, out=centers[:m])
    np.subtract(mid, perp, out=centers[m:])

    pp = np.einsum("ij,ij->i", pts, pts)
    cc = np.einsum("ij,ij->i", centers, centers)
    band = _squared_distance_band(radius, params.inlier_threshold)
    counts, best, within = _consensus(
        lambda a, b: _circle_inliers(pts, pp, centers[a:b], cc[a:b], band),
        lambda a, b: _circle_residuals(pts, pp, centers[a:b], cc[a:b], radius),
        len(centers),
        len(pts),
        axis=0,
    )
    if counts[best] < params.min_inliers:
        raise NoConsensus(
            f"best circle consensus has {counts[best]} inliers < {params.min_inliers}",
            stage="circle",
        )

    return _polish_circle_center(pts[within], centers[best], radius)


def _polish_circle_center(inl: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Gauss-Newton on sum(|p - c| - r)^2 over the center only.

    Works in buffers allocated once. The jacobian's columns stay strided
    views of one (n, 2) array: BLAS sums a strided dot product in another
    order than a contiguous one, and the polished center must keep its
    bytes.
    """
    center = np.array(center, dtype=float)
    u = np.empty_like(inl)
    jac = np.empty_like(inl)
    dist = np.empty(len(inl))
    res = np.empty(len(inl))
    j0, j1 = jac[:, 0], jac[:, 1]
    for _ in range(30):
        np.subtract(inl, center, out=u)
        np.einsum("ij,ij->i", u, u, out=dist)
        np.sqrt(dist, out=dist)
        np.maximum(dist, 1e-12, out=dist)
        np.subtract(dist, radius, out=res)
        np.negative(u, out=jac)
        jac /= dist[:, None]
        a = float(j0.dot(j0))
        b = float(j0.dot(j1))
        c = float(j1.dot(j1))
        g0 = float(j0.dot(res))
        g1 = float(j1.dot(res))
        det = a * c - b * b
        if det <= 1e-18:
            break
        step0 = -(c * g0 - b * g1) / det
        step1 = -(a * g1 - b * g0) / det
        center[0] += step0
        center[1] += step1
        if step0 * step0 + step1 * step1 < 1e-24:
            break
    return center


def farthest_pair_indices(points) -> tuple[int, int]:
    """Indices (i, j), i < j, of the farthest point pair.

    Ties resolve to the lexicographically smallest index pair.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        raise DegenerateInput(f"need at least 2 points, got {n}", stage="endpoints")
    gram = pts @ pts.T
    sq = np.diagonal(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    d2[np.tri(n, dtype=bool)] = -np.inf  # keep only pairs with i < j
    # first occurrence in row-major order = lexicographic (i, j)
    i, j = divmod(int(np.argmax(d2)), n)
    return i, j


def snap_to_circle(point, circle: Circle3D) -> np.ndarray:
    """Project a point onto the circle (plane projection, then radial)."""
    p = geo.as_point(point)
    w = p - circle.center
    in_plane = w - float(np.dot(w, circle.normal)) * circle.normal
    nrm = geo.norm(in_plane)
    if nrm < 1e-12:
        u, _ = geo.plane_basis(circle.plane())
        in_plane, nrm = u, 1.0
    return circle.center + circle.radius * (in_plane / nrm)


def extract_endpoints(points, circle: Circle3D) -> tuple[np.ndarray, np.ndarray]:
    """Farthest pair of needle inliers, snapped onto the circle.

    Returned in index order of the farthest pair (deterministic); the
    caller decides which end is the tip.
    """
    pts = np.asarray(points, dtype=float)
    i, j = farthest_pair_indices(pts)
    return snap_to_circle(pts[i], circle), snap_to_circle(pts[j], circle)


def _refit_plane_near_circle(
    pts: np.ndarray,
    plane: Plane,
    center2d: np.ndarray,
    radius: float,
    plane_threshold: float,
    circle_threshold: float,
) -> Plane | None:
    """Least-squares plane through the points near the fitted circle.

    The consensus plane band is only as wide as the noise, so it clips
    the off-plane noise asymmetrically and the fitted orientation keeps
    a small tilt; simply widening the band instead admits box outliers
    with long lever arms. Gating on in-plane distance to the fitted
    circle keeps essentially only arc samples, so a plain SVD refit over
    a generous triple-width slab is unbiased. Returns None when the
    gated set is too small or too elongated to pin down an orientation.
    """
    dist, _, coords = _plane_projection(pts, plane)
    radial = _radial_residuals(coords, center2d, radius)
    keep = (np.abs(dist) <= 3.0 * plane_threshold) & (radial <= 3.0 * circle_threshold)
    if np.count_nonzero(keep) < 3:
        return None
    sel = pts[keep]
    centroid = np.add.reduce(sel, axis=0) / len(sel)  # sel.mean(axis=0)
    _, sv, vt = np.linalg.svd(sel - centroid, full_matrices=False)
    if sv[1] <= 2.0 * sv[2]:
        return None
    normal = _canonical(vt[-1])
    return Plane(normal, float(normal.dot(centroid)))


def _refine_endpoints_with_span(
    coords_on_circle: np.ndarray,
    center2d: np.ndarray,
    plane: Plane,
    spec: NeedleSpec,
    snapped: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Re-place the endpoints using the known arc span.

    The raw farthest-pair endpoints carry the full tangential jitter of
    two extreme samples. The needle's angular extent is known, so a much
    better estimate puts the endpoints at (arc midpoint +/- span/2): the
    midpoint averages the two extremes' outward noise, which largely
    cancels. The occupied arc is read off the largest angular gap among
    the circle inliers. Returns None (caller keeps the snapped pair)
    when the measured extent disagrees with the span -- a hidden true
    endpoint, heavy contamination, or a (near-)full circle, where the
    prior would extrapolate off the visible needle.
    """
    span = spec.arc_span
    n = len(coords_on_circle)
    if span >= 2.0 * math.pi - 1e-9 or n < 2:
        return None
    w = coords_on_circle - center2d
    # theta with its first angle appended one turn on; the gaps are
    # np.diff(theta, append=theta[0] + 2 pi), without its dispatch.
    theta = np.empty(n + 1)
    theta[:n] = np.arctan2(w[:, 1], w[:, 0])
    theta[:n].sort()
    theta[n] = theta[0] + 2.0 * math.pi
    gaps = theta[1:] - theta[:-1]
    k = int(np.argmax(gaps))
    extent = 2.0 * math.pi - float(gaps[k])
    if abs(extent - span) > math.radians(20.0):
        return None
    start = float(theta[(k + 1) % n])
    mid = start + 0.5 * extent
    angles = (mid - 0.5 * span, mid + 0.5 * span)
    ends2d = [
        center2d + spec.radius * np.array([math.cos(a), math.sin(a)]) for a in angles
    ]
    ends = [geo.from_plane_coords(e, plane) for e in ends2d]
    # Keep the deterministic farthest-pair ordering.
    same = geo.norm(ends[0] - snapped[0]) + geo.norm(ends[1] - snapped[1])
    crossed = geo.norm(ends[0] - snapped[1]) + geo.norm(ends[1] - snapped[0])
    if crossed < same:
        ends.reverse()
    return ends[0], ends[1]


def estimate_needle_pose(
    cloud,
    spec: NeedleSpec,
    params: RansacParams,
    circle_params: RansacParams | None = None,
    with_diagnostics: bool = False,
):
    """Full pipeline: plane fit, in-plane circle fit, endpoint extraction.

    `params` drives the plane stage; `circle_params` (defaulting to
    `params`) drives the circle stage, since the two stages ship with
    different inlier thresholds. Estimation errors are re-raised with
    `stage` set to the pipeline stage that failed. A cloud with a NaN or
    infinite coordinate is rejected by the plane stage, as
    DegenerateInput; the stages below assume finite points.
    """
    cp = params if circle_params is None else circle_params
    pts = np.asarray(cloud, dtype=float)
    if pts.size == 0:
        raise DegenerateInput("empty cloud", stage="plane")

    plane, plane_idx = fit_plane_ransac(pts, params)
    plane_res, projected, coords = _plane_projection(pts[plane_idx], plane)

    center2d = fit_circle_fixed_radius(coords, spec.radius, cp)

    # One feedback pass: refit the plane on the points the circle just
    # identified as needle samples, then redo the in-plane stage against
    # the corrected plane. Kept only if the tail still succeeds there.
    better = _refit_plane_near_circle(
        pts, plane, center2d, spec.radius, params.inlier_threshold, cp.inlier_threshold
    )
    if better is not None:
        idx2 = np.flatnonzero(np.abs(better.signed_distance(pts)) <= params.inlier_threshold)
        if len(idx2) >= 2:
            res2, proj2, coords2 = _plane_projection(pts[idx2], better)
            # The corrected plane tilts by well under a degree, so the
            # pass-one center carries over as a warm start; reselecting
            # the ring and polishing replaces a full second consensus
            # search at a fraction of its cost.
            carried = geo.project_point_to_plane(
                geo.from_plane_coords(center2d, plane), better
            )
            c2 = geo.to_plane_coords(carried, better)
            ok = False
            for _ in range(2):
                ring = _radial_residuals(coords2, c2, spec.radius) <= cp.inlier_threshold
                if np.count_nonzero(ring) < 2:
                    break
                c2 = _polish_circle_center(coords2[ring], c2, spec.radius)
                ok = True
            if ok:
                plane, plane_idx, plane_res = better, idx2, res2
                projected, coords, center2d = proj2, coords2, c2
    center = geo.from_plane_coords(center2d, plane)

    radial = _radial_residuals(coords, center2d, spec.radius)
    on_circle = radial <= cp.inlier_threshold
    n_on_circle = int(np.count_nonzero(on_circle))
    if n_on_circle < 2:
        raise DegenerateInput(f"only {n_on_circle} points on the fitted circle", stage="endpoints")
    circle = Circle3D(center, plane.normal, spec.radius)
    e1, e2 = extract_endpoints(projected[on_circle], circle)
    refined = _refine_endpoints_with_span(
        coords[on_circle], center2d, plane, spec, (e1, e2)
    )
    if refined is not None:
        e1, e2 = refined
    pose = NeedlePose(circle, e1, e2)
    if not with_diagnostics:
        return pose
    diag = EstimationDiagnostics(
        plane_inliers=int(len(plane_idx)),
        plane_rms=float(np.sqrt(np.mean(plane_res**2))) if len(plane_idx) else 0.0,
        circle_inliers=n_on_circle,
        circle_rms=float(np.sqrt(np.mean(radial[on_circle] ** 2))),
    )
    return pose, diag


def pose_agreement(a: NeedlePose, b: NeedlePose) -> PoseDelta:
    """Symmetric distances between two poses.

    endpoint_dist is label-agnostic: the smaller, over the two possible
    endpoint pairings, of the larger matched-endpoint distance.
    """
    center_dist = float(np.linalg.norm(a.center - b.center))
    cr = float(np.linalg.norm(geo.cross3(a.normal, b.normal)))
    dt = float(np.dot(a.normal, b.normal))
    normal_angle = math.atan2(cr, dt)
    same = max(
        float(np.linalg.norm(a.tip - b.tip)), float(np.linalg.norm(a.swage - b.swage))
    )
    crossed = max(
        float(np.linalg.norm(a.tip - b.swage)), float(np.linalg.norm(a.swage - b.tip))
    )
    return PoseDelta(center_dist, normal_angle, min(same, crossed))


def transform_pose(transform: geo.RigidTransform, pose: NeedlePose) -> NeedlePose:
    """Rigidly move a needle pose."""
    return NeedlePose(
        geo.transform_circle(transform, pose.circle),
        transform.apply(pose.tip),
        transform.apply(pose.swage),
    )


# ---------------------------------------------------------------------------
# File formats


def load_cloud(path) -> np.ndarray:
    """Read a cloud file: one 'x,y,z' per line, '#' comments, blank lines ok.

    Coordinates must be finite; a 'nan' or 'inf' line is a format error.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise CloudFormatError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
            try:
                row = [float(x) for x in parts]
            except ValueError as exc:
                raise CloudFormatError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise CloudFormatError(f"{path}: line {lineno}: non-finite coordinate")
            rows.append(row)
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def save_cloud(path, cloud, comment: str | None = None) -> None:
    """Write a cloud file in the format accepted by load_cloud."""
    pts = np.asarray(cloud, dtype=float).reshape(-1, 3)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for x, y, z in pts:
            fh.write(f"{float(x)!r},{float(y)!r},{float(z)!r}\n")


def format_pose_record(pose: NeedlePose, diagnostics: EstimationDiagnostics | None = None) -> str:
    """Plain-text pose record: one 'field: values' line per field."""

    def fmt(v) -> str:
        return " ".join(repr(float(x)) for x in np.atleast_1d(v))

    lines = [
        f"center: {fmt(pose.center)}",
        f"normal: {fmt(pose.normal)}",
        f"radius: {pose.radius!r}",
        f"tip: {fmt(pose.tip)}",
        f"swage: {fmt(pose.swage)}",
    ]
    if diagnostics is not None:
        lines += [
            f"plane_inliers: {diagnostics.plane_inliers}",
            f"plane_rms: {diagnostics.plane_rms!r}",
            f"circle_inliers: {diagnostics.circle_inliers}",
            f"circle_rms: {diagnostics.circle_rms!r}",
        ]
    return "\n".join(lines) + "\n"
