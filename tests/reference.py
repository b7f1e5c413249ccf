"""Per-point reference implementations of the projection and the vehicle
measurement stages.

These are the point map through a homography on Python floats, the box
corners and their refit, the HEA/MIoU round trip corner by corner, the
synthetic scene draws, the pairwise box IoU of NMS, the class vote, the
box scaling, the visibility test, the dimension and kinematics steps and
the probe comparison as they ran on per-point objects (``Point2`` values, box
tuples, ``TrackPoint`` lists, frame->``Point2`` maps, visible-frame sets,
one ``ComparisonSample`` per probe point) before they moved onto arrays.
The tests compare the array code in ``skytraj.geometry``,
``skytraj.metrics``, ``skytraj.campaign``, ``skytraj.trackmodel``,
``skytraj.dimensions``, ``skytraj.kinematics`` and the callers'
visible-row gate against them bit for bit; the steps that did not change
(``ratio_filter``, ``acceleration``) and the ``GroupReport`` record are
shared.

The convex-quadrilateral IoU is kept as it ran with per-vertex ``inside``
tests and ``% n`` indexing (``quad_iou``); the tests compare
``skytraj.geometry.quad_iou`` against it, bits and errors.

The track CSV loader is kept as it ran row by row, converting and
checking each csv row in turn and sorting the points at the end; the
tests compare the columnar ``skytraj.dataio.load_tracks`` against it,
points bit for bit and errors by type, message and line.

Two array kernels are kept as they ran before their inputs proved too
small for numpy: NMS on one IoU matrix per frame (``matrix_keep_indices``)
and the pixel-to-meter conversion on three-point arrays
(``dims_to_world_array``). The tests compare the sweep and the float
path against them on every input, non-finite ones included.

The lane lookup is kept as it ran before the per-lane edge tables: the
per-edge boundary test, then the crossing count, on ``Point2`` vertices,
and every polygon tried in document order (``unfiltered_assign``). The tests
compare ``skytraj.georeference.assign_segment`` against it.

The set-up of a registration problem is kept as the pipeline and the
benchmark each wrote it before both moved into ``skytraj.registration``:
the per-frame and the per-trial seed expressions (``frame_seed``,
``trial_seeds``) and the downscale round trip around the estimator
(``downscaled_estimate``). The tests compare ``derive_seeds`` and
``ransac_homography`` at a downscale against them, bit for bit.

RANSAC's minimal-sample solve is kept as it ran before the closed form:
one stacked 8x9 DLT system per sample, its full SVD and the inverse of
the destination similarity (``svd_solve_block``). The tests compare the
decisions of ``skytraj.registration._solve_block`` against it: the same
samples solved and the same inlier flags. The closed form itself is
restated for one sample on Python floats (``basis_fit``), and the block
solver must give its bits.
"""
from __future__ import annotations

import csv
import math
from functools import reduce
from operator import add
from fractions import Fraction
from dataclasses import dataclass, replace
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
    InvariantViolation,
    NonConvexInput,
    ParseError,
    TooShort,
)
from skytraj.geometry import (
    Z_TOL,
    GeoTransform,
    Homography,
    Point2,
    apply_homography_array,
    pixel_to_world,
    project_array,
    screen_homographies,
)
from skytraj.kinematics import KinematicsConfig, acceleration
from skytraj.metrics import GroupReport
from skytraj.registration import (
    EstimateReport,
    Matches,
    RansacConfig,
    _degenerate_samples,
    _hartley,
    ransac_homography,
)
from skytraj.trackmodel import Detection, TrackPoint, VideoTracks

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


# --- convex quadrilateral IoU ---------------------------------------------------


def _shoelace(pts: Sequence[tuple[float, float]]) -> float:
    """Absolute polygon area."""
    if len(pts) < 3:
        return 0.0
    return abs(_signed_area(pts))


def _signed_area(pts: Sequence[tuple[float, float]]) -> float:
    acc = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return acc / 2.0


def _require_convex(pts: Sequence[tuple[float, float]]) -> None:
    # Edge-pair cross products must not carry strictly opposite signs;
    # tolerance scales with the squared extent of the polygon.
    n = len(pts)
    span = max(
        max(p[0] for p in pts) - min(p[0] for p in pts),
        max(p[1] for p in pts) - min(p[1] for p in pts),
        1e-30,
    )
    tol = 1e-9 * span * span
    pos = neg = False
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        cx, cy = pts[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross > tol:
            pos = True
        elif cross < -tol:
            neg = True
    if pos and neg:
        raise NonConvexInput("quadrilateral is not convex")


def _clip_convex(subject, clip):
    """Sutherland-Hodgman: clip ``subject`` against convex CCW ``clip``."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay

        def inside(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax) >= 0.0

        input_list = output
        output = []
        s = input_list[-1]
        s_in = inside(s)
        for e in input_list:
            e_in = inside(e)
            if e_in != s_in:
                # intersection of segment s-e with the clip edge line
                dx, dy = e[0] - s[0], e[1] - s[1]
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    fs = ex * (s[1] - ay) - ey * (s[0] - ax)
                    t = -fs / denom
                    output.append((s[0] + t * dx, s[1] + t * dy))
            if e_in:
                output.append(e)
            s, s_in = e, e_in
    return output


def quad_iou(a: Sequence[Sequence[float]], b: Sequence[Sequence[float]]) -> float:
    """Exact intersection-over-union of two convex quadrilaterals, each
    given as four ``(x, y)`` vertices in order (either winding)."""
    _require_convex(a)
    _require_convex(b)
    if _signed_area(b) < 0:
        b = b[::-1]
    area1 = _shoelace(a)
    area2 = _shoelace(b)
    inter = _shoelace(_clip_convex(a, b))
    union = area1 + area2 - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


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


def matrix_keep_indices(dets: np.ndarray, score_min: float, nms_iou: float) -> list[int]:
    """`trackmodel.ingest_keep_indices` as it ran on one IoU matrix over a
    frame's candidates: every pair (k, l), k < l in visiting order, tested,
    and the failing ones taken row-major from ``np.triu``."""
    score = dets["score"]
    candidates = np.flatnonzero(score >= score_min)
    order = candidates[np.argsort(-score[candidates], kind="stable")]
    if len(order) < 2:
        return order.tolist()
    cx, cy, w, h = dets["bbox"][order].T
    with np.errstate(all="ignore"):
        xmin, xmax, ymin, ymax = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
        ix = np.minimum(xmax[:, None], xmax) - np.maximum(xmin[:, None], xmin)
        iy = np.minimum(ymax[:, None], ymax) - np.maximum(ymin[:, None], ymin)
        inter = ix * iy
        area = w * h
        union = area[:, None] + area - inter
        passes = (ix <= 0.0) | (iy <= 0.0) | (union <= 0.0) | (inter / union <= nms_iou)
    first, second = np.nonzero(np.triu(~passes, 1))
    dropped: set[int] = set()
    for k, l in zip(first.tolist(), second.tolist()):
        if k not in dropped:
            dropped.add(l)
    return np.sort(np.delete(order, list(dropped))).tolist()


# --- class vote --------------------------------------------------------------


def refine_classes(points: Sequence[TrackPoint]) -> tuple[TrackPoint, ...]:
    """The class vote as a dict loop over ``points``: each id's score sum
    per class, added in point order, and the class with the largest sum,
    ties to the lowest class, on every point of the id."""
    sums: dict[int, dict[int, float]] = {}
    for p in points:
        per_cls = sums.setdefault(p.track_id, {})
        per_cls[p.detection.cls] = per_cls.get(p.detection.cls, 0.0) + p.detection.score

    winner: dict[int, int] = {}
    for tid, per_cls in sums.items():
        best = max(per_cls.values())
        winner[tid] = min(c for c, s in per_cls.items() if s == best)

    return tuple(
        p
        if (d := p.detection).cls == (cls := winner[p.track_id])
        else TrackPoint(p.frame, p.track_id, Detection(d.bbox, cls, d.score))
        for p in points
    )


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


def dims_to_world_array(
    length_px: float,
    width_px: float,
    frame_size: tuple[int, int],
    ref_to_ortho: Homography,
    geo_local: GeoTransform,
) -> tuple[float, float]:
    """`dimensions.dims_to_world` as it ran on numpy arrays: the three
    points through `apply_homography_array`, then `pixel_to_world` on the
    coordinate arrays."""
    w_img, h_img = frame_size
    pts = [
        (w_img / 2.0, h_img / 2.0),
        (w_img / 2.0, (h_img + width_px) / 2.0),
        ((w_img + length_px) / 2.0, h_img / 2.0),
    ]
    ortho = Point2(*apply_homography_array(ref_to_ortho, pts).T)
    with np.errstate(all="ignore"):
        (x1, x2, x3), (y1, y2, y3) = (v.tolist() for v in pixel_to_world(geo_local, ortho))
    length_m = 2.0 * math.hypot(x3 - x1, y3 - y1)
    width_m = 2.0 * math.hypot(x2 - x1, y2 - y1)
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


# --- lanes ---------------------------------------------------------------------


def _on_segment(p: Point2, a: Point2, b: Point2, tol: float = 1e-9) -> bool:
    abx, aby = b.x - a.x, b.y - a.y
    apx, apy = p.x - a.x, p.y - a.y
    seg2 = abx * abx + aby * aby
    if seg2 == 0.0:
        return (apx * apx + apy * apy) <= tol * tol
    t = (apx * abx + apy * aby) / seg2
    t = min(max(t, 0.0), 1.0)
    dx = apx - t * abx
    dy = apy - t * aby
    return (dx * dx + dy * dy) <= tol * tol


def point_in_polygon(p: Point2, polygon: Sequence[Point2]) -> bool:
    """Even-odd containment with boundary points counted as inside."""
    n = len(polygon)
    if n < 3:
        return False
    for i in range(n):
        if _on_segment(p, polygon[i], polygon[(i + 1) % n]):
            return True
    inside = False
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x
            if p.x < x_cross:
                inside = not inside
    return inside


def unfiltered_assign(seg, p):
    """`assign_segment` without its bounding-box prefilter: every polygon is
    tested in document order."""
    for lane in seg.lanes:
        if point_in_polygon(p, lane.polygon):
            return (lane.section, lane.lane)
    return None


# --- track CSV loader -----------------------------------------------------------

TRACK_COLUMNS = ["frame", "id", "cx", "cy", "w", "h", "class", "score"]


def _track_csv_rows(path):
    """(line, typed cells) of each non-blank csv row of a track file: the
    cells of ``TRACK_COLUMNS`` by the header's last column of each name,
    None past the end of a short row, and an optional 0/1 ``visible`` cell
    checked, not kept."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            at = {name: i for i, name in enumerate(header)}
            missing = [c for c in TRACK_COLUMNS if c not in at]
            if missing:
                raise ParseError(f"missing columns {missing}", line=1, path=path)
            columns = [at[c] for c in TRACK_COLUMNS + ["visible"] if c in at]
            for row in reader:
                if not row:
                    continue
                row += [None] * (max(columns) + 1 - len(row))
                cells = [row[k] for k in columns]
                try:
                    values = (int(cells[0]), int(cells[1]), float(cells[2]), float(cells[3]),
                              float(cells[4]), float(cells[5]), int(cells[6]), float(cells[7]))
                    if cells[8:] and cells[8] not in ("0", "1"):
                        raise ValueError(f"visible must be 0 or 1, got {cells[8]!r}")
                except (TypeError, ValueError) as exc:
                    raise ParseError(
                        f"malformed row: {exc}", line=reader.line_num, path=path
                    ) from exc
                yield reader.line_num, values
        except csv.Error as exc:
            raise ParseError(f"bad CSV: {exc}", line=reader.line_num, path=path) from exc


def load_tracks(path, sidecar, *, require_unit_range: bool = True) -> VideoTracks:
    """A track CSV read and checked one row at a time; the first failing
    row raises at once, with the first check it fails."""
    n_frames, n_classes = sidecar.n_frames, sidecar.n_classes
    points: list[TrackPoint] = []
    seen: set[tuple[int, int]] = set()
    for line, (frame, track_id, cx, cy, w, h, cls, score) in _track_csv_rows(path):

        def fail(message):
            raise InvariantViolation(message, line=line, path=path)

        if frame < 1:
            fail("frame must be >= 1")
        if abs(frame) > 2**62:
            fail(f"frame {frame} beyond +-2**62")
        if n_frames is not None and frame > n_frames:
            fail(f"frame {frame} exceeds n_frames {n_frames}")
        if track_id < 1:
            fail("id must be >= 1")
        if abs(track_id) > 2**62:
            fail(f"id {track_id} beyond +-2**62")
        if require_unit_range:
            for name, v in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
                if not 0.0 <= v <= 1.0:
                    fail(f"{name}={v} outside [0, 1]")
        elif not all(math.isfinite(v) for v in (cx, cy, w, h)):
            fail("box values must be finite")
        elif w < 0 or h < 0:
            fail("box size must be >= 0")
        if not 0 <= cls < n_classes:
            fail(f"class {cls} outside 0..{n_classes - 1}")
        if not 0.0 < score <= 1.0:
            fail(f"score {score} outside (0, 1]")
        if (track_id, frame) in seen:
            fail(f"duplicate point for id {track_id} frame {frame}")
        seen.add((track_id, frame))
        points.append(TrackPoint(frame, track_id, Detection((cx, cy, w, h), cls, score)))
    points.sort(key=lambda p: (p.track_id, p.frame))
    from conftest import detection_table  # conftest imports this module

    return VideoTracks(sidecar.frame_width, sidecar.frame_height, detection_table(points))


def frame_seed(seed: int, frame: int) -> int:
    """The RANSAC seed of one pipeline frame."""
    ss = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, frame))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def trial_seeds(
    master_seed: int, cell_idx: int, scene_idx: int, trial_idx: int
) -> tuple[int, int, int]:
    """Independent (homography, correspondences, estimator) seeds per trial."""
    ss = np.random.SeedSequence(
        (master_seed & 0xFFFFFFFFFFFFFFFF, cell_idx, scene_idx, trial_idx)
    )
    state = ss.generate_state(3, dtype=np.uint64)
    return int(state[0]), int(state[1]), int(state[2])


def downscaled_estimate(matches: Matches, cfg: RansacConfig, rho: float) -> EstimateReport:
    """The estimate made on the matches scaled by ``rho``, lifted back by
    S^-1 * H * S with S = diag(rho, rho, 1), its mean error divided by
    ``rho``."""
    if rho < 1.0:
        matches = Matches(matches.src * rho, matches.dst * rho, matches.d1, matches.d2)
    report = ransac_homography(matches, cfg)
    if rho < 1.0:
        s = np.diag([rho, rho, 1.0])
        s_inv = np.diag([1.0 / rho, 1.0 / rho, 1.0])
        report = replace(report, homography=Homography.from_matrix(s_inv @ report.homography.m @ s),
                         mean_reproj_error=report.mean_reproj_error / rho)
    return report


# --- RANSAC minimal samples ------------------------------------------------------


def svd_solve_block(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_solve_block`` of a (2, K, 4, 2) block as it ran on 8x9 DLT systems:
    Hartley-normalized points projected through the similarities, one row
    pair (x, y, 1, 0, 0, 0, -u*x, -u*y, -u), (0, 0, 0, x, y, 1, -v*x,
    -v*y, -v) per point pair, the last row of the full SVD's vt as the
    normalized map, and inv(T_d) @ H_n @ T_s back in pixels. Samples that
    are degenerate, whose spread is zero or not finite or whose system is
    not finite are not solved and keep zero matrices; the rest are solved
    when `screen_homographies` finds them invertible."""
    k = pts.shape[1]
    raw = np.zeros((k, 3, 3))
    fits = np.zeros((k, 3, 3))
    t, spread, _ = _hartley(pts)
    x, y, _ = project_array(t, pts)
    a = np.zeros((k, 4, 2, 9))
    a[..., 0, 0] = a[..., 1, 3] = x[0]
    a[..., 0, 1] = a[..., 1, 4] = y[0]
    a[..., 0, 2] = a[..., 1, 5] = 1.0
    xy1 = a[..., 0, 0:3]
    a[..., 0, 6:9] = -x[1][..., None] * xy1
    a[..., 1, 6:9] = -y[1][..., None] * xy1
    a = a.reshape(k, 8, 9)
    solved = (
        ~_degenerate_samples(pts).any(axis=0)
        & ((spread > 0.0) & (spread < np.inf)).all(axis=0)
        & np.isfinite(a).all(axis=(1, 2))
    )
    if solved.any():
        _, _, vt = np.linalg.svd(a[solved])
        hn = vt[:, -1, :].reshape(-1, 3, 3)
        ts = t[:, solved]
        raw[solved] = np.linalg.inv(ts[1]) @ hn @ ts[0]
        _, invertible, fits[solved], _ = screen_homographies(raw[solved])
        solved[solved] = invertible
    return solved, raw, fits


def basis_fit(src: Sequence[Sequence[float]], dst: Sequence[Sequence[float]]) -> np.ndarray:
    """The raw closed-form homography of one minimal sample, four (x, y)
    source points and their destinations, on Python floats.

    Each side is Hartley-normalized: the centroid and the mean distance
    from it as sums in point order, divided by 4, and the centred points
    times s = sqrt(2) / mean distance. With c_i = p_j x p_k for
    (j, k) = (1, 2), (2, 0), (0, 1) and the areas lambda_i = c_i . p_3 of
    the source, and mu_i, q_i those of the destination, the normalized
    map is sum_i (mu_i / lambda_i) q_i c_i^T, summed over i in order.
    It is returned as [[1, 0, -t_x], [0, 1, -t_y], [0, 0, s]] of the
    destination times the map times [[s, 0, t_x], [0, s, t_y], [0, 0, 1]]
    of the source, t = -s * centroid, each product written out without
    its zero terms."""
    sides = []
    for pts in (src, dst):
        pts = [(float(x), float(y)) for x, y in pts]
        cx = reduce(add, [x for x, _ in pts]) / 4
        cy = reduce(add, [y for _, y in pts]) / 4
        d = [(x - cx, y - cy) for x, y in pts]
        spread = reduce(add, [math.sqrt(dx * dx + dy * dy) for dx, dy in d]) / 4
        s = math.sqrt(2.0) / spread
        u = [(dx * s, dy * s) for dx, dy in d]
        x3, y3 = u[3]
        c = []
        for j, k in ((1, 2), (2, 0), (0, 1)):
            (xj, yj), (xk, yk) = u[j], u[k]
            c.append((yj - yk, xk - xj, xj * yk - xk * yj))
        areas = [c0 * x3 + c1 * y3 + c2 for c0, c1, c2 in c]
        sides.append((s, -s * cx, -s * cy, u, c, areas))
    (s_s, tx_s, ty_s, _, c, lam), (s_d, tx_d, ty_d, q, _, mu) = sides
    w = [m / l for m, l in zip(mu, lam)]
    wq = ([w[i] * q[i][0] for i in range(3)], [w[i] * q[i][1] for i in range(3)], w)
    hn = [[(row[0] * c[0][col] + row[1] * c[1][col]) + row[2] * c[2][col] for col in range(3)]
          for row in wq]
    g = [(h[0] * s_s, h[1] * s_s, h[0] * tx_s + h[1] * ty_s + h[2]) for h in hn]
    return np.array([
        [g[0][col] - tx_d * g[2][col] for col in range(3)],
        [g[1][col] - ty_d * g[2][col] for col in range(3)],
        [s_d * g[2][col] for col in range(3)],
    ])
