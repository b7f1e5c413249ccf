"""Per-point reference implementations of the projection and the vehicle
measurement stages.

These are the point map through a homography on Python floats, the box
corners and their refit, the HEA/MIoU round trip corner by corner, the
synthetic scene draws, the pairwise box IoU of NMS, the box scaling, the
visibility test, the dimension and kinematics steps and the probe
comparison as they ran on per-point objects (``Point2`` values, box
tuples, ``TrackPoint`` lists, frame->``Point2`` maps, visible-frame sets,
one ``ComparisonSample`` per probe point) before they moved onto arrays.
The tests compare the array code in ``skytraj.geometry``,
``skytraj.metrics``, ``skytraj.campaign``, ``skytraj.trackmodel``,
``skytraj.dimensions``, ``skytraj.kinematics`` and the callers'
visible-row gate against them bit for bit; the steps that did not change
(``ratio_filter``, ``quad_iou``, ``acceleration``) and the ``GroupReport``
record are shared.
"""
from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from skytraj.dimensions import (
    CARDINAL_DIRECTIONS,
    AzimuthWindow,
    DimConfig,
    DimensionEstimate,
    DimPath,
    DimSamples,
    ratio_filter,
)
from skytraj.errors import (
    DegenerateProjection,
    DegenerateSegment,
    EmptySampleSet,
    EmptyVisibilitySet,
    NonConvexInput,
    TooShort,
)
from skytraj.geometry import Z_TOL, GeoTransform, Homography, Point2, pixel_to_world, quad_iou
from skytraj.kinematics import KinematicsConfig, acceleration
from skytraj.metrics import GroupReport
from skytraj.trackmodel import TrackPoint

Box = tuple[float, float, float, float]  # cx, cy, w, h

# --- projection and boxes -------------------------------------------------------


def apply_homography(h: Homography, p: Point2) -> Point2:
    """Map one point through ``h`` in homogeneous coordinates, on Python
    floats. A homogeneous scale below ``Z_TOL`` raises DegenerateProjection."""
    (a, b, c), (d, e, f), (g, k, m) = h.m.tolist()
    x, y = p
    z = g * x + k * y + m
    if abs(z) < Z_TOL:
        raise DegenerateProjection(f"point {Point2(x, y)} maps to projective infinity")
    return Point2(float((a * x + b * y + c) / z), float((d * x + e * y + f) / z))


def box_corners(box: Box) -> tuple[Point2, Point2, Point2, Point2]:
    """The corners (xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)."""
    cx, cy, w, h = box
    xmin, xmax, ymin, ymax = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
    return (Point2(xmin, ymin), Point2(xmax, ymin), Point2(xmax, ymax), Point2(xmin, ymax))


def transform_bbox(h: Homography, box: Box) -> Box:
    """One box through ``h``: a pure translation shifts the center and keeps
    the size, any other map refits the minimal box around its mapped corners."""
    (m00, m01, tx), (m10, m11, ty), (m20, m21, m22) = h.m.tolist()
    cx, cy, w, bh = box
    if (m00, m01, m10, m11, m20, m21, m22) == (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0):
        return (cx + tx, cy + ty, w, bh)
    xs, ys = zip(*(apply_homography(h, p) for p in box_corners(box)))
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    return ((xmin + xmax) / 2, (ymin + ymax) / 2, xmax - xmin, ymax - ymin)


# --- registration scores ----------------------------------------------------------


def corner_displacement(
    h_true: Homography, h_est: Homography, corners: Sequence[Point2]
) -> float:
    """Mean round-trip displacement of the scene corners, in pixels."""
    total = 0.0
    for p in corners:
        q = apply_homography(h_est, apply_homography(h_true, p))
        total += math.hypot(q.x - p.x, q.y - p.y)
    return total / len(corners)


def scene_miou(h_true: Homography, h_est: Homography, boxes: Sequence[Box]) -> float:
    """Mean IoU between scene boxes and their round-tripped quadrilaterals;
    a box whose round trip degenerates contributes zero overlap."""
    if not boxes:
        raise ValueError("scene has no boxes")
    total = 0.0
    for b in boxes:
        quad = box_corners(b)
        try:
            warped = [apply_homography(h_est, apply_homography(h_true, p)) for p in quad]
            total += quad_iou(quad, warped)
        except (DegenerateProjection, NonConvexInput):
            pass
    return total / len(boxes)


def synthetic_scenes(count: int, seed: int = 0) -> list[tuple[float, float, list[Box]]]:
    """(width, height, boxes) of each scene, drawn one value at a time."""
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(count):
        w = float(rng.uniform(1600, 3840))
        h = float(rng.uniform(900, 2160))
        boxes = []
        for _ in range(int(rng.integers(4, 13))):
            bw = float(rng.uniform(30, 140))
            bh = float(rng.uniform(20, 70))
            cx = float(rng.uniform(0.1 * w, 0.9 * w))
            cy = float(rng.uniform(0.1 * h, 0.9 * h))
            boxes.append((cx, cy, bw, bh))
        scenes.append((w, h, boxes))
    return scenes


# --- NMS ---------------------------------------------------------------------


def bbox_iou(a: Box, b: Box) -> float:
    """Intersection over union of two axis-aligned boxes, the pairwise test
    that `trackmodel.ingest_keep_indices` evaluates as one matrix."""
    (acx, acy, aw, ah), (bcx, bcy, bw, bh) = a, b
    ix = min(acx + aw / 2, bcx + bw / 2) - max(acx - aw / 2, bcx - bw / 2)
    iy = min(acy + ah / 2, bcy + bh / 2) - max(acy - ah / 2, bcy - bh / 2)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# --- visibility and dimensions -------------------------------------------------


def denormalize_bbox(box: Box, frame_size: tuple[int, int]) -> Box:
    """A normalized box in pixels."""
    w_img, h_img = frame_size
    cx, cy, w, h = box
    return (cx * w_img, cy * h_img, w * w_img, h * h_img)


def bbox_visible_px(box: Box, frame_size: tuple[int, int], margin: float) -> bool:
    """Strict interior test for a pixel-space box against frame borders."""
    w_img, h_img = frame_size
    cx, cy, w, h = box
    return (
        cx - w / 2 > margin
        and cx + w / 2 < w_img - (margin + 1)
        and cy - h / 2 > margin
        and cy + h / 2 < h_img - (margin + 1)
    )


def visibility_set(
    points: Sequence[TrackPoint], frame_size: tuple[int, int], margin: float
) -> set[int]:
    """Frame numbers whose (un-stabilized) box clears the frame margins."""
    return {
        p.frame
        for p in points
        if bbox_visible_px(denormalize_bbox(p.detection.bbox, frame_size), frame_size, margin)
    }


def initial_dims(
    points: Sequence[TrackPoint], visible: set[int], frame_size: tuple[int, int]
) -> DimSamples:
    """Instantaneous pixel dims: length = long box side, width = short side."""
    if not visible:
        raise EmptyVisibilitySet("no fully visible boxes")
    w_img, h_img = frame_size
    rows = sorted(
        (
            (p.frame, p.detection.bbox[2] * w_img, p.detection.bbox[3] * h_img)
            for p in points
            if p.frame in visible
        ),
        key=lambda row: row[0],
    )
    frames = np.array([f for f, _, _ in rows], dtype=int)
    ws = np.array([w for _, w, _ in rows])
    hs = np.array([h for _, _, h in rows])
    return DimSamples(frames, np.maximum(ws, hs), np.minimum(ws, hs))


def azimuth_sequence(
    stab_points: Sequence[TrackPoint],
    visible: set[int],
    min_travel_px: float,
    frame_size: tuple[int, int],
) -> list[AzimuthWindow]:
    """Headings over anchor-to-anchor windows of the stabilized trajectory."""
    if not visible:
        return []
    w_img, h_img = frame_size
    centers = {
        p.frame: Point2(p.detection.bbox[0] * w_img, p.detection.bbox[1] * h_img)
        for p in stab_points
    }
    frames = sorted(centers)
    last = max(visible)
    anchor = min(visible)
    if anchor not in centers:
        return []
    windows: list[AzimuthWindow] = []
    i = frames.index(anchor)
    while True:
        ax, ay = centers[frames[i]]
        nxt = None
        for j in range(i + 1, len(frames)):
            f = frames[j]
            if f > last:
                break
            dx = centers[f].x - ax
            dy = centers[f].y - ay
            if math.hypot(dx, dy) >= min_travel_px:
                nxt = j
                break
        if nxt is None:
            break
        bx, by = centers[frames[nxt]]
        theta = math.atan2(ay - by, bx - ax)
        if theta < 0.0:
            theta += 2 * math.pi
        windows.append(AzimuthWindow(theta, frames[i], frames[nxt]))
        i = nxt
    return windows


def azimuth_filter(
    samples: DimSamples, windows: Sequence[AzimuthWindow], tolerance_deg: float
) -> DimSamples:
    """Keep samples inside windows whose heading is near a cardinal direction."""
    tol = math.radians(tolerance_deg)
    accepted = [
        w for w in windows
        if min(abs(w.theta - phi) for phi in CARDINAL_DIRECTIONS) <= tol
    ]
    keep = np.zeros(len(samples.frames), dtype=bool)
    for w in accepted:
        keep |= (samples.frames >= w.start) & (samples.frames < w.end)
    return DimSamples(samples.frames[keep], samples.lengths[keep], samples.widths[keep])


def quartile_dims(lengths: np.ndarray, widths: np.ndarray) -> tuple[float, float]:
    """First quartile of each set, in one `np.percentile` call."""
    if len(lengths) == 0 or len(widths) == 0:
        raise EmptySampleSet("no samples to aggregate")
    length, width = np.percentile(np.stack((lengths, widths)), 25, axis=1).tolist()
    return length, width


def dims_to_world(
    length_px: float,
    width_px: float,
    frame_size: tuple[int, int],
    ref_to_ortho: Homography,
    geo_local: GeoTransform,
) -> tuple[float, float]:
    """Pixel dims to meters via a frame-centered 3-point decomposition,
    one point at a time."""
    w_img, h_img = frame_size
    p1 = Point2(w_img / 2.0, h_img / 2.0)
    p2 = Point2(w_img / 2.0, (h_img + width_px) / 2.0)
    p3 = Point2((w_img + length_px) / 2.0, h_img / 2.0)
    q1, q2, q3 = (
        pixel_to_world(geo_local, apply_homography(ref_to_ortho, p)) for p in (p1, p2, p3)
    )
    length_m = 2.0 * math.hypot(q3.x - q1.x, q3.y - q1.y)
    width_m = 2.0 * math.hypot(q2.x - q1.x, q2.y - q1.y)
    return length_m, width_m


def estimate_dimensions(
    raw_points: Sequence[TrackPoint],
    stab_points: Sequence[TrackPoint],
    visible: set[int],
    cfg: DimConfig,
    frame_size: tuple[int, int],
    ref_to_ortho: Homography,
    geo_local: GeoTransform,
) -> Optional[DimensionEstimate]:
    """The five-step estimator for one vehicle on per-point objects."""
    if not visible:
        return None
    samples = initial_dims(raw_points, visible, frame_size)
    windows = azimuth_sequence(stab_points, visible, cfg.min_travel_px, frame_size)
    if windows:
        filtered = azimuth_filter(samples, windows, cfg.azimuth_tolerance_deg)
        path = DimPath.AZIMUTH_FILTERED
    else:
        cls = raw_points[0].detection.cls
        filtered = ratio_filter(samples, cfg.ratio_thresholds.get(cls, math.inf))
        path = DimPath.RATIO_FILTERED
    if len(filtered.frames) == 0:
        return None
    length_px, width_px = quartile_dims(filtered.lengths, filtered.widths)
    length_m, width_m = dims_to_world(length_px, width_px, frame_size, ref_to_ortho, geo_local)
    return DimensionEstimate(length_px, width_px, length_m, width_m, len(filtered.frames), path)


# --- kinematics ---------------------------------------------------------------


def interpolate_gaps(points: Mapping[int, Point2]) -> dict[int, Point2]:
    """Fill interior frame gaps linearly; never extrapolates."""
    if len(points) < 2:
        raise TooShort(f"need >= 2 trajectory points, got {len(points)}")
    frames = sorted(points)
    dense: dict[int, Point2] = {}
    for a, b in zip(frames, frames[1:]):
        pa, pb = points[a], points[b]
        dense[a] = pa
        span = b - a
        for k in range(a + 1, b):
            t = (k - a) / span
            dense[k] = Point2(pa.x + t * (pb.x - pa.x), pa.y + t * (pb.y - pa.y))
    dense[frames[-1]] = points[frames[-1]]
    return dense


def raw_speed(dense: Mapping[int, Point2], fps: Fraction) -> dict[int, float]:
    """Speed in m/s at every frame after the first of a dense trajectory."""
    frames = sorted(dense)
    rate = float(fps)
    out: dict[int, float] = {}
    for a, b in zip(frames, frames[1:]):
        pa, pb = dense[a], dense[b]
        out[b] = math.hypot(pb.x - pa.x, pb.y - pa.y) * rate
    return out


def reflect_index(j: int, n: int) -> int:
    """Mirror about the end samples (no edge duplication), repeated as
    often as needed for kernels wider than the sequence."""
    if n == 1:
        return 0
    period = 2 * (n - 1)
    j = abs(j) % period
    return period - j if j >= n else j


def gaussian_smooth(values, sigma: float) -> np.ndarray:
    """Convolve with a unit-sum Gaussian kernel truncated at round(3*sigma),
    built on every call, with reflect indices found one by one."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n == 0:
        return v.copy()
    half = int(round(3.0 * sigma))
    if half == 0:
        return v.copy()
    offsets = np.arange(-half, half + 1)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    padded = v[[reflect_index(j, n) for j in range(-half, n + half)]]
    return np.convolve(padded, kernel, mode="valid")


class Profile(NamedTuple):
    """Per-frame kinematics over the dense frame range, NaN where undefined,
    with the flags of the frames whose values are exported."""

    frames: np.ndarray
    speed_smooth: np.ndarray  # m/s
    accel: np.ndarray  # m/s^2
    exported: np.ndarray  # bool


def compute_profile(local_points: Mapping[int, Point2], cfg: KinematicsConfig) -> Profile:
    """Interpolate, differentiate, and smooth one vehicle's local trajectory;
    every frame exported."""
    dense = interpolate_gaps(local_points)
    frames = np.array(sorted(dense), dtype=int)
    n = len(frames)
    speeds = raw_speed(dense, cfg.fps)
    seq = np.array([speeds[f] for f in frames[1:]])
    smooth_seq = gaussian_smooth(seq, cfg.sigma)
    speed_smooth = np.full(n, np.nan)
    accel = np.full(n, np.nan)
    speed_smooth[1:] = smooth_seq
    if n >= 3:
        with np.errstate(over="ignore", invalid="ignore"):  # as `compute_profile` runs it
            accel[2:] = acceleration(smooth_seq, cfg.fps)
    return Profile(frames, speed_smooth, accel, np.ones(n, dtype=bool))


def gate_by_visibility(profile: Profile, visible: set[int]) -> Profile:
    """Restrict exported values to frames in the visibility set."""
    exported = np.array([f in visible for f in profile.frames], dtype=bool)
    return profile._replace(exported=exported)


# --- probe comparison -----------------------------------------------------------


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


def trajectory_length(pts: Sequence[tuple[Point2, float]]) -> float:
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
        length = sum(trajectory_length(t) for t in trajectories)
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
