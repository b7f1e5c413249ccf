"""Registration and trajectory-comparison metrics.

Per-trial registration scores: the mean corner round-trip displacement
(true map forward, estimated map back), which HEA thresholds, and the
mean overlap between scene boxes and their round-tripped counterparts,
which MIoU averages; ``campaign.run_campaign`` aggregates both over a
grid cell's trials. A trial's few points are too few for numpy's
per-call cost, so both scores run on Python floats: each point goes
through the true map and back through the estimate with
`geometry.map_point`, which has `geometry.project_array`'s bits and
raises for a leg at projective infinity before dividing, and each box's
round-tripped quadrilateral meets the box in `geometry.quad_iou`. The
scores equal the corner-by-corner map bit for bit.

Trajectory comparison measures the perpendicular offset of a probe point
from the segment between its nearest candidate point and that point's
nearer sequence neighbor, plus a distance-weighted speed difference;
`compare_trajectory` reports both over all of a probe's points at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection, DegenerateSegment, NonConvexInput, TooShort
from .geometry import Homography, map_point, quad_iou
from .kinematics import KinematicsConfig


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """A ``width`` x ``height`` scene with its corner at the origin, and its
    vehicle boxes: an (m, 4) float array of ``cx, cy, w, h`` rows."""

    width: float
    height: float
    boxes: np.ndarray

    @property
    def corners(self) -> np.ndarray:
        """The (4, 2) scene corners, counterclockwise from the origin."""
        w, h = self.width, self.height
        return np.array([(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)])


def _there_and_back(m_true: list, m_est: list, pts: list) -> list[tuple[float, float]]:
    """Each ``(x, y)`` of ``pts`` through ``m_true`` and back through
    ``m_est``, both as `geometry.map_point` takes them, point by point."""
    return [map_point(m_est, *map_point(m_true, x, y)) for x, y in pts]


def corner_displacement(h_true: Homography, h_est: Homography, corners: np.ndarray) -> float:
    """Mean round-trip displacement of the (4, 2) scene corners, in pixels.

    Raises DegenerateProjection for the first leg that meets projective
    infinity, corner by corner.
    """
    pts = np.asarray(corners, dtype=float).tolist()
    back = _there_and_back(h_true.m.ravel().tolist(), h_est.m.ravel().tolist(), pts)
    total = 0.0
    for (px, py), (qx, qy) in zip(pts, back):
        total += math.hypot(qx - px, qy - py)
    return total / len(pts)


def scene_miou(h_true: Homography, h_est: Homography, boxes: np.ndarray) -> float:
    """Mean IoU between the (m, 4) scene boxes and their round-tripped
    quadrilaterals.

    A box whose round trip degenerates (a corner at projective infinity on
    either leg, a non-convex result) contributes zero overlap.
    """
    if not len(boxes):
        raise ValueError("scene has no boxes")
    m_true, m_est = h_true.m.ravel().tolist(), h_est.m.ravel().tolist()
    total = 0.0
    for cx, cy, w, h in boxes.tolist():
        xmin, xmax, ymin, ymax = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
        quad = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
        try:
            total += quad_iou(quad, _there_and_back(m_true, m_est, quad))
        except (DegenerateProjection, NonConvexInput):
            pass
    return total / len(boxes)


@dataclass(frozen=True)
class GroupReport:
    key: str
    n_samples: int
    pos_dev_mean_m: float
    pos_dev_std_m: float
    speed_diff_mean_kmh: float | None
    speed_diff_std_kmh: float | None
    traj_length_m: float
    traj_duration_s: float
    skipped: int


# Entries of one block's probe x candidate squared-distance matrix in the
# nearest-point screen; the probe rows are split into blocks of this size.
_SCREEN_ENTRIES = 1 << 18


def _hypots(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each pair, which ``np.hypot`` does not always match."""
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))


def _nearest_points(probe: np.ndarray, candidate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and distance of each probe point's nearest candidate point: the
    lowest index of the least ``math.hypot`` distance.

    Squared distances screen the candidates. Only those within 1e-9 of a
    row's least square, or below 1e-290, are measured with ``math.hypot``:
    both roundings stay within a few ulps of the exact distance, except
    where squares underflow and lose their relative precision, which the
    absolute floor covers.
    """
    cx, cy = candidate[:, 0], candidate[:, 1]
    xs, ys = cx.tolist(), cy.tolist()
    nearest: list[int] = []
    dist: list[float] = []
    step = max(1, _SCREEN_ENTRIES // len(candidate))
    for lo in range(0, len(probe), step):
        block = probe[lo:lo + step]
        dx = cx - block[:, :1]
        sq = dx * dx
        dy = cy - block[:, 1:2]
        sq += dy * dy
        reach = np.maximum(sq.min(axis=1) * (1.0 + 1e-9), 1e-290)
        rows, cols = np.nonzero(sq <= reach[:, None])
        pxs, pys = block[:, 0].tolist(), block[:, 1].tolist()
        last = -1
        for r, c in zip(rows.tolist(), cols.tolist()):
            d = math.hypot(xs[c] - pxs[r], ys[c] - pys[r])
            if r != last:
                nearest.append(c)
                dist.append(d)
                last = r
            elif d < dist[-1]:
                nearest[-1], dist[-1] = c, d
    return np.array(nearest), np.array(dist)


def compare_trajectory(
    key: str, probe: np.ndarray, candidate: np.ndarray, kin: KinematicsConfig
) -> GroupReport:
    """Mean +/- population sd of the positional deviation and the speed
    difference of every probe point against one candidate trajectory.

    ``probe`` and ``candidate`` are (n, 3) rows of ``x, y, speed`` (local
    meters, km/h), the candidate in frame order. Each probe point is
    measured against the segment from its nearest candidate point p1 to
    whichever of p1's sequence neighbors is nearer (the lower index on a
    tie): the deviation is its distance from that segment's line, and the
    speed difference is the probe speed minus the candidate speeds
    weighted by the other point's distance. A probe point whose p1 and p2
    coincide is skipped and counted; probe speeds at or below
    ``kin.speed_floor_kmh`` give no speed difference. Trajectory length
    sums the candidate's consecutive-point distances; duration is its
    point count over ``kin.fps``.

    Every step runs the IEEE operations of the per-point definition in
    the same order, distances through ``math.hypot``. The weights need no
    check of ``d1 + d2 > 0``: once p1 != p2, the probe cannot lie on both,
    since a float difference is zero only between equal floats.

    Raises TooShort for an empty probe or a candidate of fewer than two
    points, and DegenerateSegment when every probe point is skipped.
    """
    if not len(probe):
        raise TooShort("probe trajectory has no points")
    if len(candidate) < 2:
        raise TooShort(f"candidate trajectory needs >= 2 points, got {len(candidate)}")
    last = len(candidate) - 1
    with np.errstate(all="ignore"):  # skipped rows divide by zero; Python floats overflow silently
        x, y, v = candidate.T
        px, py, speed = probe.T
        i1, d1 = _nearest_points(probe, candidate)
        prev, after = np.maximum(i1 - 1, 0), np.minimum(i1 + 1, last)
        d_prev = _hypots(x[prev] - px, y[prev] - py)
        d_after = _hypots(x[after] - px, y[after] - py)
        take_prev = (i1 == last) | ((i1 > 0) & (d_prev <= d_after))
        i2, d2 = np.where(take_prev, prev, after), np.where(take_prev, d_prev, d_after)
        sx, sy = x[i2] - x[i1], y[i2] - y[i1]
        seg = _hypots(sx, sy)
        kept = seg > 0.0
        if not kept.any():
            raise DegenerateSegment(
                f"all {len(probe)} probe points skipped: their nearest candidate points coincide"
            )
        rx, ry = x[i1] - px, y[i1] - py
        devs = (np.abs(sx * ry - sy * rx) / seg)[kept]
        denom = d1 + d2
        dvs = speed - (d2 / denom * v[i1] + d1 / denom * v[i2])
        dvs = dvs[kept & (speed > kin.speed_floor_kmh)]
        length = sum(map(math.hypot, np.diff(x).tolist(), np.diff(y).tolist()))
    return GroupReport(
        key=key,
        n_samples=len(devs),
        pos_dev_mean_m=float(devs.mean()),
        pos_dev_std_m=float(devs.std()),
        speed_diff_mean_kmh=float(dvs.mean()) if len(dvs) else None,
        speed_diff_std_kmh=float(dvs.std()) if len(dvs) else None,
        traj_length_m=length,
        traj_duration_s=len(candidate) / float(kin.fps),
        skipped=len(probe) - len(devs),
    )
