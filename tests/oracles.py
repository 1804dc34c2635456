"""Independent reference implementations used to cross-check the estimators
and the simulator's burial geometry.

Deliberately written in the dumbest possible style (loops, grids) so
they share no code path with the library. The one-shot RANSAC scorers
are the exception: they keep the estimator's former all-pairs scoring
as the reference for its block-wise scoring.
"""

import math

import numpy as np

from suturesim import perception as pc


def largest_gap_ends(points2d, center2d):
    """Indices (first, last) of the two points on either side of the
    largest angular gap about center2d, by exhaustive search: the arc
    runs counterclockwise from points2d[first] to points2d[last].

    Each point's gap is the counterclockwise angle to its nearest
    successor, found by trying every other point. Ties -> the gap that
    opens at the smallest angle. The points must lie at distinct angles.
    """
    cx, cy = float(center2d[0]), float(center2d[1])
    angles = [math.atan2(float(y) - cy, float(x) - cx) for x, y in points2d]
    best = None  # (gap, opening angle, first, last)
    for i, a in enumerate(angles):
        gap, successor = 2.0 * math.pi, i
        for j, b in enumerate(angles):
            if j != i and (b - a) % (2.0 * math.pi) < gap:
                gap, successor = (b - a) % (2.0 * math.pi), j
        if best is None or gap > best[0] or (gap == best[0] and a < best[1]):
            best = (gap, a, successor, i)
    return best[2], best[3]


def trimmed_grid_circle_center(points2d, radius, trim=0.7):
    """Grid search for the fixed-radius circle center.

    Minimizes the trimmed mean of |dist(p, c) - radius| over a
    coarse-to-fine grid covering the point bounding box inflated by the
    radius. Final resolution ~0.02 mm.
    """
    pts = np.asarray(points2d, dtype=float)
    keep = max(2, int(np.ceil(trim * len(pts))))

    def cost(centers):
        d = np.abs(np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=2) - radius)
        d.sort(axis=1)
        return d[:, :keep].mean(axis=1)

    lo = pts.min(axis=0) - radius
    hi = pts.max(axis=0) + radius
    center = 0.5 * (lo + hi)
    half = 0.5 * float(np.max(hi - lo))
    step = half / 20.0
    for _ in range(6):
        xs = np.arange(center[0] - half, center[0] + half + step / 2, step)
        ys = np.arange(center[1] - half, center[1] + half + step / 2, step)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        center = grid[int(np.argmin(cost(grid)))]
        half = 2.0 * step
        step = half / 10.0
    return center


def gauss_newton_circle_center(points2d, center, radius, tol=1e-15, max_steps=200):
    """Fixed-radius circle center by Gauss-Newton through np.linalg.lstsq,
    iterated until a step is shorter than `tol` meters."""
    pts = np.asarray(points2d, dtype=float)
    c = np.array(center, dtype=float)
    for _ in range(max_steps):
        u = pts - c
        d = np.linalg.norm(u, axis=1)
        step = np.linalg.lstsq(-u / d[:, None], radius - d, rcond=None)[0]
        c = c + step
        if np.linalg.norm(step) < tol:
            break
    return c


def sampled_visible_intervals(world, m=720):
    """Unburied arc intervals by scan and bisection.

    Samples the needle body at m evenly spaced arc parameters, then
    bisects each buried/visible change 40 times. A sliver narrower than
    one grid step (arc_span / (m - 1)) can fall between two samples and
    be missed. Only the arc parametrization (arc_frame) comes from the
    library.
    """
    pose, span, wound = world.needle_true, world.spec.arc_span, world.wound
    e1, e2 = pc.arc_frame(pose, span)
    cx, _, cz = (float(v) for v in pose.center)
    r = pose.radius

    def buried(s):
        x = cx + r * (math.cos(s) * e1[0] + math.sin(s) * e2[0])
        z = cz + r * (math.cos(s) * e1[2] + math.sin(s) * e2[2])
        in_ridge = abs(x) <= wound.ridge_half_width and 0.0 <= z <= wound.ridge_height
        return in_ridge or z < 0.0

    s = np.linspace(0.0, span, m).tolist()
    flags = [buried(v) for v in s]
    if not any(flags):
        return [(0.0, span)]
    if all(flags):
        return []

    def refine(lo, hi, lo_buried):
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if buried(mid) == lo_buried:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    intervals = []
    start = None if flags[0] else 0.0
    for k in range(1, m):
        if flags[k] == flags[k - 1]:
            continue
        boundary = refine(s[k - 1], s[k], flags[k - 1])
        if flags[k]:  # visible -> buried
            intervals.append((start, boundary))
            start = None
        else:  # buried -> visible
            start = boundary
    if start is not None:
        intervals.append((start, span))
    return [(a, b) for a, b in intervals if b - a > 1e-9]


def one_shot_plane_scores(pts, normals, offsets, threshold):
    """The plane stage's consensus scores with every (point, plane) pair at once.

    Returns inlier counts and the (h, n) inlier mask, computed the way
    fit_plane_ransac did before it scored in blocks.
    """
    within = (np.abs(pts @ normals.T - offsets) <= threshold).T  # (h, n)
    return within.sum(axis=1), within


def one_shot_circle_scores(pts, centers, radius, threshold):
    """The circle stage's consensus scores with every (center, point) pair at once.

    Returns inlier counts and the (h, n) inlier mask, computed the way
    fit_circle_fixed_radius did before it scored in blocks.
    """
    pp = np.einsum("ij,ij->i", pts, pts)
    cc = np.einsum("ij,ij->i", centers, centers)
    d2 = np.maximum(pp[None, :] - 2.0 * (centers @ pts.T) + cc[:, None], 0.0)
    within = np.abs(np.sqrt(d2) - radius) <= threshold
    return within.sum(axis=1), within
