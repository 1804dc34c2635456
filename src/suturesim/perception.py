"""Needle pose estimation from noisy point clouds.

The estimator recovers the full 6D pose of a circular suturing needle:

1. robust plane fit (RANSAC over 3-point hypotheses, one orthogonal
   least-squares refit of the winner's consensus),
2. fixed-radius circle fit in plane coordinates (RANSAC over 2-point
   hypotheses, Gauss-Newton refinement of the center down to nanometre
   steps),
3. one feedback pass: a plane refit on the points near the circle, one
   ring selection and one Gauss-Newton polish against it,
4. endpoint extraction from one sort of the circle inliers' angles:
   the two inliers on either side of the largest angular gap bound the
   visible arc, and the endpoints sit at its midpoint +/- half the known
   arc span when the visible extent agrees with the span, at the arc's
   own ends otherwise.

Each plane projects the whole cloud once; its inliers' distances and
in-plane coordinates are rows of that projection.

Each refinement runs once, not to a fixed point: the feedback pass
corrects the plane anyway, and a sub-nanometre Gauss-Newton step is
about a millionth of the 0.3-0.5 mm sensor noise.

Both RANSAC stages draw RansacParams.iterations index tuples up front
(point triples, point pairs) and run one loop, _consensus: it builds
and scores their hypotheses in blocks of 16, 32, 64, ... tuples, keeps
the first with the most inliers, and stops after a block once that
consensus is STOP_CONFIDENCE certain (_stop_after).

estimate_pose draws the plane's triples, then the circle's pairs, from
the one Generator its caller passes, and returns EstimationDiagnostics
with the pose. estimate_needle_pose seeds it from RansacParams.seed.

Also provides the synthetic cloud generator used by the simulator and
the test suite, and plain-text cloud / pose-record I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .geometry import Circle3D, Plane

# Shipped estimator defaults: stage-specific inlier thresholds (meters).
DEFAULT_ITERATIONS = 500
DEFAULT_PLANE_THRESHOLD = 5e-4
DEFAULT_CIRCLE_THRESHOLD = 4e-4
DEFAULT_MIN_INLIERS = 15
# A RANSAC stage draws all its index tuples up front (_hypothesis_indices):
# iterations x k int64 values, 24 MB of point triples at this cap.
MAX_ITERATIONS = 1_000_000

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
    iterations: int = DEFAULT_ITERATIONS  # cap on the hypotheses a stage draws
    inlier_threshold: float = DEFAULT_PLANE_THRESHOLD
    min_inliers: int = DEFAULT_MIN_INLIERS
    seed: int = 0  # read only by estimate_needle_pose, to seed its generator

    def __post_init__(self):
        if not (1 <= self.iterations <= MAX_ITERATIONS):
            raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}]")
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
        for name in ("gaussian_sigma", "occlusion_arc"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be >= 0 and finite")
        for name in ("outlier_fraction", "dropout_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        if not all(0.0 < w < math.inf for w in self.outlier_box):
            raise ValueError("outlier_box extents must be positive and finite")


@dataclass(frozen=True)
class NeedlePose:
    """Fitted circle plus the two needle endpoints.

    The estimator labels endpoints purely geometrically (the visible
    arc's start, then its end, counterclockwise about the normal); which
    one is the actual tip vs. the swage is assigned by whoever tracks
    the thread attachment. Like the geometry types, it freezes copies of
    the endpoint arrays, never the caller's own.
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
    # index tuples each RANSAC stage drew before it stopped: point triples
    # for the plane, point pairs for the circle
    plane_hypotheses: int
    circle_hypotheses: int
    # whether the pose kept the feedback refit's plane and center, and the
    # endpoints re-placed from the known arc span
    refit_kept: bool
    span_kept: bool


class PoseDelta(NamedTuple):
    """How far apart two poses are, in m, rad and m; see pose_agreement."""

    center_dist: float
    normal_angle: float
    endpoint_dist: float


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
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate a synthetic needle observation.

    The occluded segment (noise.occlusion_arc) is centered on the middle
    of the needle arc.
    """
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


def _hypothesis_indices(
    n: int, k: int, iterations: int, rng: np.random.Generator
) -> np.ndarray:
    """Index tuples for RANSAC hypotheses: `iterations` random k-tuples
    of n points, without those that repeat a point. Every tuple is drawn
    here, up front, so no draw depends on where the search stops.
    """
    idx = rng.integers(0, n, size=(iterations, k))
    keep = np.ones(len(idx), dtype=bool)
    for a in range(k):
        for b in range(a + 1, k):
            keep &= idx[:, a] != idx[:, b]
    return idx[keep]


# A random search stops once it has drawn, with this confidence, at least
# one sample made only of inliers of its best consensus so far.
STOP_CONFIDENCE = 0.99
_LOG_MISS = math.log(1.0 - STOP_CONFIDENCE)


def _stop_after(best: int, n_points: int, sample_size: int, min_inliers: int) -> float:
    """Samples after which a random search may stop (Fischler & Bolles,
    1981; Hartley & Zisserman, Multiple View Geometry, 4.7.1).

    With w = best / n_points, a sample of s = sample_size points is all
    inliers with probability w^s, and k samples all miss with
    probability (1 - w^s)^k. That falls to 1 - STOP_CONFIDENCE once
    k >= ln(1 - STOP_CONFIDENCE) / ln(1 - w^s). w^s = 1 stops at once
    (0.0) and w = 0 never does (inf). Nor does a best count below
    min_inliers: a search that has found no consensus it may return
    keeps drawing up to its cap.
    """
    if best < min_inliers:
        return math.inf
    ws = (best / n_points) ** sample_size
    if ws >= 1.0:
        return 0.0
    if ws == 0.0:
        return math.inf
    return _LOG_MISS / math.log1p(-ws)


# Hypotheses are scored in blocks of at most this many (row, point)
# pairs, or two rows on clouds of over 4096 points: 64 KiB
# per float64 temporary, half of glibc's 128 KiB mmap threshold.
# Temporaries above the threshold are mapped and page-faulted afresh on
# every call; below it they reuse heap memory.
_SCORE_BLOCK_PAIRS = 8192

# A search's first block holds this many index tuples, and each later
# block twice as many as the one before, up to the budget above. The stop
# rule is checked after each block, so a search that saturates early can
# end after 16 or 48 tuples; one that does not soon runs in full blocks.
# A plane search at criterion 1's noise point cannot stop after 8
# triples (that needs w^3 >= 0.44), so a first block of 8 would only add
# a round of scoring.
_FIRST_BLOCK = 16


def _score_blocks(
    n_hypotheses: int, n_points: int, rows_per_hypothesis: int = 1
) -> list[tuple[int, int]]:
    """(start, stop) slices of n_hypotheses index tuples for block-wise
    scoring: 16, 32, 64, ... tuples, capped at the block budget; the last
    block holds what is left. A tuple gives `rows_per_hypothesis` scored
    rows (a circle's point pair gives two mirror centers).
    """
    cap = max(1, max(2, _SCORE_BLOCK_PAIRS // n_points) // rows_per_hypothesis)
    size = min(_FIRST_BLOCK, cap)
    blocks = [(0, min(size, n_hypotheses))]
    while blocks[-1][1] < n_hypotheses:
        size = min(2 * size, cap)
        start = blocks[-1][1]
        blocks.append((start, min(start + size, n_hypotheses)))
    return blocks


class _Consensus(NamedTuple):
    count: int  # the winner's inlier count
    models: object  # the winner's block, as `hypotheses` built it
    row: int  # the winner's row in that block
    within: np.ndarray  # the winner's inlier mask
    drawn: int  # index tuples drawn through the last block, scored or empty


def _consensus(
    idx: np.ndarray, n_points: int, hypotheses, residuals, params: RansacParams, rows_per_hypothesis=1
) -> _Consensus | None:
    """The first hypothesis scored with the most inliers (Fischler &
    Bolles, 1981), from the index tuples idx (h, k); None when no tuple
    gives one.

    Walks the blocks _score_blocks(h, n_points, rows_per_hypothesis):
    `hypotheses(idx[a:b])` builds a block's models, `residuals(models)`
    their (hypotheses, points) residuals, and a point within
    params.inlier_threshold is an inlier. A block with no hypotheses is
    skipped. Scoring stops after the first block whose bound reaches
    _stop_after(best count, sample size k), before the next block is
    built. Counts are summed in int32, exact under 2**31 points.
    """
    best = None  # (count, models, row, within) of the winner so far
    for start, drawn in _score_blocks(len(idx), n_points, rows_per_hypothesis):
        models = hypotheses(idx[start:drawn])
        within = residuals(models) <= params.inlier_threshold
        if not len(within):
            continue
        counts = np.add.reduce(within, axis=1, dtype=np.int32)
        row = int(counts.argmax())
        if best is None or counts[row] > best[0]:
            best = (int(counts[row]), models, row, within[row])
        if drawn >= _stop_after(best[0], n_points, idx.shape[1], params.min_inliers):
            break
    return None if best is None else _Consensus(*best, drawn)


def _plane_residuals(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """|p . n - offset| for every plane (rows) and point (columns)."""
    dist = normals @ pts.T
    dist -= offsets[:, None]
    return np.abs(dist, out=dist)


def _circle_residuals(pts: np.ndarray, pp: np.ndarray, centers: np.ndarray, radius: float) -> np.ndarray:
    """||p - c| - radius| for every center (rows) and point (columns).

    pp holds the squared norms of pts. |p - c|^2 comes from
    |p|^2 - 2 p.c + |c|^2: one matmul instead of an (h, n, 2)
    broadcast, which dominates the runtime otherwise. The -2 is folded
    into the small operand: scaling by a power of two is exact, so
    (-2 c) @ p.T has the bytes of -2 * (c @ p.T) without a pass over the
    product. Rounding can leave |p - c|^2 slightly below zero, so it is
    clamped before the square root.
    """
    resid = (-2.0 * centers) @ pts.T
    resid += pp
    resid += np.einsum("ij,ij->i", centers, centers)[:, None]
    np.maximum(resid, 0.0, out=resid)
    np.sqrt(resid, out=resid)
    resid -= radius
    return np.abs(resid, out=resid)


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


def _plane_projection(pts: np.ndarray, plane: Plane) -> tuple[np.ndarray, np.ndarray]:
    """Signed distances of (n, 3) points to the plane and the in-plane
    coordinates of their projections onto it. Each row is a product
    with 3-vectors, so rows sliced from the result keep the bytes of the
    same rows projected alone (the estimator digests in test_golden.py
    pin this)."""
    dist = plane.signed_distance(pts)
    return dist, geo.to_plane_coords(pts - dist[:, None] * plane.normal, plane)


def _plane_hypotheses(pts: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals and offsets of the planes through the point triples
    idx (k, 3), in order, without the (near-)collinear triples."""
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
    if not valid.all():
        cross, area, p0 = cross[valid], area[valid], p0[valid]
    normals = cross / area[:, None]
    return normals, np.einsum("ij,ij->i", normals, p0)


def fit_plane_ransac(
    cloud, params: RansacParams, rng: np.random.Generator
) -> tuple[Plane, np.ndarray, int]:
    """RANSAC plane fit.

    The first hypothesis with the most inliers wins, and its consensus
    set is refit once by orthogonal least squares. Returns the refit
    plane, the indices of cloud points within the threshold of it, and
    the number of point triples drawn before the search stopped. A cloud
    with a NaN or infinite coordinate raises DegenerateInput.

    params.iterations caps the triples rng draws; _consensus may stop
    the search after any block of them.
    """
    pts = np.asarray(cloud, dtype=float)
    # Finiteness first: estimate_pose reports a non-finite cloud of any shape through it.
    if not np.isfinite(pts).all():
        raise DegenerateInput("cloud has a non-finite coordinate", stage="plane")
    if pts.ndim != 2 or (len(pts) and pts.shape[1] != 3):
        raise DegenerateInput("cloud must be an (n, 3) array", stage="plane")
    if len(pts) < 3:
        raise DegenerateInput(f"need at least 3 points, got {len(pts)}", stage="plane")

    found = _consensus(
        _hypothesis_indices(len(pts), 3, params.iterations, rng),
        len(pts),
        lambda block: _plane_hypotheses(pts, block),
        lambda planes: _plane_residuals(pts, *planes),
        params,
    )
    if found is None:
        raise DegenerateInput("no sampled triple spans a plane", stage="plane")
    if found.count < params.min_inliers:
        raise NoConsensus(
            f"best plane consensus has {found.count} inliers < {params.min_inliers}",
            stage="plane",
        )

    # One orthogonal least-squares refit of the winner's consensus, then
    # its band inliers against the refit plane. A tilted winner leaves a
    # slight tilt here; the feedback pass in estimate_pose refits
    # the plane from circle-gated points, which removes it.
    # add.reduce(...) / n is what ndarray.mean runs.
    sel = pts[found.within]
    centroid = np.add.reduce(sel, axis=0) / len(sel)
    _, _, vt = np.linalg.svd(sel - centroid, full_matrices=False)
    normal = _canonical(vt[-1])
    offset = float(normal.dot(centroid))
    dist = pts @ normal
    dist -= offset
    inliers = np.flatnonzero(np.abs(dist, out=dist) <= params.inlier_threshold)
    return Plane(normal, offset), inliers, found.drawn


def _circle_hypotheses(pts: np.ndarray, idx: np.ndarray, radius: float) -> np.ndarray:
    """The two mirror centers of each point pair in idx (k, 2) that is
    closer than 2*radius, side by side: rows 2i and 2i + 1 come from the
    i-th such pair, so any prefix holds whole pairs. Wider pairs, and
    coincident ones, give none.

    Built in place; the same operations, in the same order, as
    mid = 0.5 * (p + q), h = sqrt(max(r^2 - 0.25 d^2, 0)) and
    perp = (-diff_y, diff_x) / d, with centers mid + h perp and
    mid - h perp.
    """
    p, q = pts[idx[:, 0]], pts[idx[:, 1]]
    diff = q - p
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    feasible = (d > 1e-12) & (d <= 2.0 * radius)
    if not feasible.all():
        p, q, diff, d = p[feasible], q[feasible], diff[feasible], d[feasible]
    m = len(d)
    mid = np.add(p, q, out=p)
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
    centers = np.empty((m, 2, 2))
    np.add(mid, perp, out=centers[:, 0])
    np.subtract(mid, perp, out=centers[:, 1])
    return centers.reshape(2 * m, 2)


def fit_circle_fixed_radius(
    points2d, radius: float, params: RansacParams, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """RANSAC circle fit with a known, fixed radius.

    Hypotheses come from point pairs: each pair closer than 2*radius
    yields the two mirror centers, pairs wider than 2*radius contribute
    nothing. The first center with the most inliers wins, and is polished
    by Gauss-Newton on sum(|p - c| - r)^2 over its inliers. Returns the
    center and the number of point pairs drawn before the search stopped.
    Points with a NaN or infinite coordinate raise DegenerateInput.

    params.iterations caps the pairs rng draws; _consensus may stop the
    search after any block of them.
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

    pp = np.einsum("ij,ij->i", pts, pts)
    found = _consensus(
        _hypothesis_indices(len(pts), 2, params.iterations, rng),
        len(pts),
        lambda block: _circle_hypotheses(pts, block, radius),
        lambda centers: _circle_residuals(pts, pp, centers, radius),
        params,
        rows_per_hypothesis=2,
    )
    if found is None:
        raise NoConsensus("no sampled pair admits a center candidate", stage="circle")
    if found.count < params.min_inliers:
        raise NoConsensus(
            f"best circle consensus has {found.count} inliers < {params.min_inliers}",
            stage="circle",
        )

    center = _polish_circle_center(pts[found.within], found.models[found.row], radius)
    return center, found.drawn


def _polish_circle_center(inl: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Gauss-Newton on sum(|p - c| - r)^2 over the center only, until a
    step is under a nanometre (at most 30 steps).

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
        if step0 * step0 + step1 * step1 < 1e-18:
            break
    return center


def _refit_plane_near_circle(
    pts: np.ndarray,
    dist: np.ndarray,
    coords: np.ndarray,
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

    dist and coords are _plane_projection(pts, plane) for the plane the
    circle was fitted in.
    """
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


def arc_ends(points2d, center2d) -> tuple[int, int, float, float]:
    """The arc that in-plane points occupy about center2d, read off the
    largest angular gap between them.

    Returns (first, last, start, extent). The arc runs counterclockwise
    from points2d[first] to points2d[last] through every other point;
    the largest gap runs on from last to first. start is the angle of
    points2d[first], in [-pi, pi], and extent the arc's angle, 2 pi
    less the gap. Of equal gaps, the one that opens at the smallest
    angle wins. One sort of the angles; fewer than 2 points raise
    DegenerateInput.
    """
    w = np.asarray(points2d, dtype=float) - center2d
    n = len(w)
    if n < 2:
        raise DegenerateInput(f"need at least 2 points, got {n}", stage="endpoints")
    theta = np.arctan2(w[:, 1], w[:, 0])
    order = np.argsort(theta)
    # The sorted angles with the first appended one turn on; the gaps are
    # np.diff(ring), without its dispatch.
    ring = np.empty(n + 1)
    np.take(theta, order, out=ring[:n])
    ring[n] = ring[0] + 2.0 * math.pi
    gaps = ring[1:] - ring[:-1]
    k = int(np.argmax(gaps))
    after = (k + 1) % n
    return int(order[after]), int(order[k]), float(ring[after]), 2.0 * math.pi - float(gaps[k])


def extract_endpoints(
    coords, center2d: np.ndarray, plane: Plane, spec: NeedleSpec
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The needle's two ends from the in-plane coordinates of its circle
    inliers about the fitted center center2d, in counterclockwise order
    about the plane normal, and whether the known arc span placed them.

    The ends of the visible arc (arc_ends), placed on the circle, carry
    the full tangential jitter of two extreme samples. The needle's
    angular extent is known, so a much better estimate puts the ends at
    the arc midpoint +/- span/2: the midpoint averages the two extremes'
    outward noise, which largely cancels. The arc's own ends are kept
    when its extent is more than 20 degrees off the span -- a hidden
    true endpoint, heavy contamination -- or the span is a (near-)full
    circle, where the prior would extrapolate off the visible needle.
    """
    _, _, start, extent = arc_ends(coords, center2d)
    span = spec.arc_span
    by_span = span < 2.0 * math.pi - 1e-9 and abs(extent - span) <= math.radians(20.0)
    if by_span:
        mid = start + 0.5 * extent
        angles = (mid - 0.5 * span, mid + 0.5 * span)
    else:
        angles = (start, start + extent)
    e1, e2 = (
        geo.from_plane_coords(center2d + spec.radius * np.array([math.cos(a), math.sin(a)]), plane)
        for a in angles
    )
    return e1, e2, by_span


def estimate_pose(
    cloud,
    spec: NeedleSpec,
    params: RansacParams,
    circle_params: RansacParams,
    rng: np.random.Generator,
) -> tuple[NeedlePose, EstimationDiagnostics]:
    """Full pipeline: plane fit, in-plane circle fit, endpoint extraction.

    `params` drives the plane stage and `circle_params` the circle stage,
    since the two stages ship with different inlier thresholds; both
    draw their samples from rng, in that order. Estimation errors carry
    `stage` set to the pipeline stage that failed. A cloud with a NaN or
    infinite coordinate is rejected by the plane stage, as
    DegenerateInput; the stages below assume finite points.
    """
    pts = np.asarray(cloud, dtype=float)
    if pts.size == 0:
        raise DegenerateInput("empty cloud", stage="plane")

    plane, plane_idx, plane_hypotheses = fit_plane_ransac(pts, params, rng)
    dist, coords_all = _plane_projection(pts, plane)
    coords = coords_all[plane_idx]

    center2d, circle_hypotheses = fit_circle_fixed_radius(coords, spec.radius, circle_params, rng)

    # One feedback pass: refit the plane on the points the circle just
    # identified as needle samples, then redo the in-plane stage against
    # the corrected plane. Kept only if the tail still succeeds there.
    better = _refit_plane_near_circle(
        pts, dist, coords_all, center2d, spec.radius, params.inlier_threshold, circle_params.inlier_threshold
    )
    if better is not None:
        dist2, coords2_all = _plane_projection(pts, better)
        idx2 = np.flatnonzero(np.abs(dist2) <= params.inlier_threshold)
        if len(idx2) >= 2:
            coords2 = coords2_all[idx2]
            # The corrected plane tilts by well under a degree, so the
            # pass-one center carries over as a warm start; one ring
            # selection and one polish replace a full second consensus
            # search at a fraction of its cost.
            carried = geo.project_point_to_plane(
                geo.from_plane_coords(center2d, plane), better
            )
            c2 = geo.to_plane_coords(carried, better)
            ring = _radial_residuals(coords2, c2, spec.radius) <= circle_params.inlier_threshold
            if np.count_nonzero(ring) >= 2:
                plane, plane_idx, dist, coords = better, idx2, dist2, coords2
                center2d = _polish_circle_center(coords2[ring], c2, spec.radius)
    center = geo.from_plane_coords(center2d, plane)

    radial = _radial_residuals(coords, center2d, spec.radius)
    on_circle = radial <= circle_params.inlier_threshold
    n_on_circle = int(np.count_nonzero(on_circle))
    if n_on_circle < 2:
        raise DegenerateInput(f"only {n_on_circle} points on the fitted circle", stage="endpoints")
    circle = Circle3D(center, plane.normal, spec.radius)
    e1, e2, span_kept = extract_endpoints(coords[on_circle], center2d, plane, spec)
    plane_res = dist[plane_idx]
    ring_res = radial[on_circle]
    diag = EstimationDiagnostics(
        plane_inliers=len(plane_idx),
        plane_rms=math.sqrt(plane_res.dot(plane_res) / len(plane_res)),
        circle_inliers=n_on_circle,
        circle_rms=math.sqrt(ring_res.dot(ring_res) / n_on_circle),
        plane_hypotheses=plane_hypotheses,
        circle_hypotheses=circle_hypotheses,
        refit_kept=plane is better,
        span_kept=span_kept,
    )
    return NeedlePose(circle, e1, e2), diag


def estimate_needle_pose(
    cloud, spec: NeedleSpec, params: RansacParams, circle_params: RansacParams | None = None
) -> NeedlePose:
    """estimate_pose's pose, from one generator seeded with params.seed;
    `circle_params` defaults to `params`."""
    circle = params if circle_params is None else circle_params
    return estimate_pose(cloud, spec, params, circle, np.random.default_rng(params.seed))[0]


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


def format_pose_record(pose: NeedlePose, diagnostics: EstimationDiagnostics) -> str:
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
    lines += [f"{f.name}: {getattr(diagnostics, f.name)!r}" for f in fields(diagnostics)]
    return "\n".join(lines) + "\n"
