"""Registration and trajectory-comparison metrics.

Per-trial registration scores: the mean corner round-trip displacement
(true map forward, estimated map back), which HEA thresholds, and the
mean overlap between scene boxes and their round-tripped counterparts,
which MIoU averages; ``campaign.run_campaign`` aggregates both over a
grid cell's trials. Trajectory comparison measures the perpendicular offset
of a probe point from the segment between its nearest candidate point
and that point's nearer sequence neighbor, plus a distance-weighted
speed difference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateProjection, DegenerateSegment, NonConvexInput
from .geometry import BBox, Homography, Point2, apply_homography, quad_iou
from .geometry import Quad
from .kinematics import KinematicsConfig


@dataclass(frozen=True)
class SceneSpec:
    """Scene extent (four corner points) plus its vehicle boxes."""

    corners: tuple[Point2, Point2, Point2, Point2]
    boxes: tuple[BBox, ...]

    @property
    def xmin(self) -> float:
        return min(p.x for p in self.corners)

    @property
    def xmax(self) -> float:
        return max(p.x for p in self.corners)

    @property
    def ymin(self) -> float:
        return min(p.y for p in self.corners)

    @property
    def ymax(self) -> float:
        return max(p.y for p in self.corners)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> Point2:
        return Point2((self.xmin + self.xmax) / 2, (self.ymin + self.ymax) / 2)


def corner_displacement(
    h_true: Homography, h_est: Homography, corners: Sequence[Point2]
) -> float:
    """Mean round-trip displacement of the scene corners, in pixels."""
    total = 0.0
    for p in corners:
        q = apply_homography(h_est, apply_homography(h_true, p))
        total += math.hypot(q.x - p.x, q.y - p.y)
    return total / len(corners)


def scene_miou(h_true: Homography, h_est: Homography, boxes: Sequence[BBox]) -> float:
    """Mean IoU between scene boxes and their round-tripped quadrilaterals.

    A box whose round trip degenerates (projective infinity, non-convex
    result) contributes zero overlap.
    """
    if not boxes:
        raise ValueError("scene has no boxes")
    total = 0.0
    for b in boxes:
        quad = b.corners()
        try:
            warped = Quad(
                *(
                    apply_homography(h_est, apply_homography(h_true, p))
                    for p in quad.points()
                )
            )
            total += quad_iou(quad, warped)
        except (DegenerateProjection, NonConvexInput):
            pass
    return total / len(boxes)


@dataclass(frozen=True)
class ComparisonSample:
    """One probe observation against a full candidate trajectory.

    Candidate entries are (point in local meters, smoothed speed in km/h),
    in trajectory order.
    """

    probe: Point2
    probe_speed_kmh: float
    candidate: tuple[tuple[Point2, float], ...]


def nearest_segment(
    sample: ComparisonSample,
) -> tuple[Point2, float, Point2, float, float, float]:
    """Nearest candidate point and its nearer sequence neighbor.

    Returns (p1, v1, p2, v2, d1, d2) where p1 is the closest candidate
    point to the probe and p2 is whichever of p1's index neighbors is
    second closest (endpoints have a single neighbor).
    """
    pts = sample.candidate
    if len(pts) < 2:
        raise DegenerateSegment("candidate trajectory needs >= 2 points")
    px, py = sample.probe
    dists = [math.hypot(p.x - px, p.y - py) for p, _ in pts]
    i1 = min(range(len(pts)), key=lambda i: (dists[i], i))
    neighbors = [i for i in (i1 - 1, i1 + 1) if 0 <= i < len(pts)]
    i2 = min(neighbors, key=lambda i: (dists[i], i))
    p1, v1 = pts[i1]
    p2, v2 = pts[i2]
    if math.hypot(p2.x - p1.x, p2.y - p1.y) <= 0.0:
        raise DegenerateSegment("nearest candidate points coincide")
    return p1, v1, p2, v2, dists[i1], dists[i2]


def positional_deviation(sample: ComparisonSample) -> float:
    """Perpendicular distance from the probe to the nearest candidate segment line."""
    p1, _, p2, _, _, _ = nearest_segment(sample)
    sx, sy = p2.x - p1.x, p2.y - p1.y
    rx, ry = p1.x - sample.probe.x, p1.y - sample.probe.y
    return abs(sx * ry - sy * rx) / math.hypot(sx, sy)


def speed_difference(sample: ComparisonSample) -> float:
    """Probe speed minus the distance-weighted candidate speed, km/h.

    The nearer of the two candidate points receives the larger weight;
    weights sum to one.
    """
    _, v1, _, v2, d1, d2 = nearest_segment(sample)
    denom = d1 + d2
    if denom <= 0.0:
        raise DegenerateSegment("probe coincides with a duplicated candidate point")
    w1 = d2 / denom
    w2 = d1 / denom
    return sample.probe_speed_kmh - (w1 * v1 + w2 * v2)


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


def _trajectory_length(pts: Sequence[tuple[Point2, float]]) -> float:
    return sum(
        math.hypot(b[0].x - a[0].x, b[0].y - a[0].y) for a, b in zip(pts, pts[1:])
    )


def aggregate_comparison(
    groups: Mapping[str, Sequence[ComparisonSample]], kin: KinematicsConfig
) -> list[GroupReport]:
    """Per-group mean +/- population sd of the two deviations.

    Speed differences for probe speeds at or below ``kin.speed_floor_kmh``
    are excluded. Degenerate samples are skipped and counted. Trajectory
    length sums consecutive-point distances over the distinct candidate
    trajectories in the group; duration is their point count over
    ``kin.fps``. Empty groups are dropped.
    """
    reports = []
    for key in sorted(groups):
        samples = groups[key]
        if not samples:
            continue
        devs: list[float] = []
        dvs: list[float] = []
        skipped = 0
        # dedupe by value, insertion-ordered so float sums stay stable
        trajectories: dict[tuple[tuple[Point2, float], ...], None] = {}
        for s in samples:
            trajectories.setdefault(s.candidate, None)
            try:
                devs.append(positional_deviation(s))
                if s.probe_speed_kmh > kin.speed_floor_kmh:
                    dvs.append(speed_difference(s))
            except DegenerateSegment:
                skipped += 1
        if not devs:
            continue
        length = sum(_trajectory_length(t) for t in trajectories)
        duration = sum(len(t) for t in trajectories) / float(kin.fps)
        dev_arr = np.asarray(devs)
        dv_arr = np.asarray(dvs) if dvs else None
        reports.append(
            GroupReport(
                key=key,
                n_samples=len(devs),
                pos_dev_mean_m=float(dev_arr.mean()),
                pos_dev_std_m=float(dev_arr.std()),
                speed_diff_mean_kmh=float(dv_arr.mean()) if dv_arr is not None else None,
                speed_diff_std_kmh=float(dv_arr.std()) if dv_arr is not None else None,
                traj_length_m=length,
                traj_duration_s=duration,
                skipped=skipped,
            )
        )
    return reports
