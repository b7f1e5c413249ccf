"""Per-point reference implementations of the vehicle measurement stages.

These are the box scaling, the visibility test and the dimension and
kinematics steps as they ran on per-point objects (``TrackPoint`` lists,
frame->``Point2`` maps, visible-frame sets) before they moved onto
columns. The tests compare the array code in ``skytraj.trackmodel``,
``skytraj.dimensions`` and ``skytraj.kinematics`` against them bit for
bit; the steps that did not change (``ratio_filter``, ``dims_to_world``,
``acceleration``) are shared.
"""
from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from skytraj.dimensions import (
    CARDINAL_DIRECTIONS,
    AzimuthWindow,
    DimConfig,
    DimensionEstimate,
    DimPath,
    DimSamples,
    dims_to_world,
    ratio_filter,
)
from skytraj.errors import EmptySampleSet, EmptyVisibilitySet, TooShort
from skytraj.geometry import BBox, GeoTransform, Homography, Point2
from skytraj.kinematics import KinematicProfile, KinematicsConfig, acceleration
from skytraj.trackmodel import TrackPoint

# --- visibility and dimensions -------------------------------------------------


def denormalize_bbox(box: BBox, frame_size: tuple[int, int]) -> BBox:
    """A normalized box in pixels."""
    w_img, h_img = frame_size
    return BBox(box.cx * w_img, box.cy * h_img, box.w * w_img, box.h * h_img)


def bbox_visible_px(box: BBox, frame_size: tuple[int, int], margin: float) -> bool:
    """Strict interior test for a pixel-space box against frame borders."""
    w_img, h_img = frame_size
    return (
        box.cx - box.w / 2 > margin
        and box.cx + box.w / 2 < w_img - (margin + 1)
        and box.cy - box.h / 2 > margin
        and box.cy + box.h / 2 < h_img - (margin + 1)
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
            (p.frame, p.detection.bbox.w * w_img, p.detection.bbox.h * h_img)
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
        p.frame: Point2(p.detection.bbox.cx * w_img, p.detection.bbox.cy * h_img)
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


def compute_profile(
    local_points: Mapping[int, Point2], cfg: KinematicsConfig
) -> KinematicProfile:
    """Interpolate, differentiate, and smooth one vehicle's local trajectory."""
    dense = interpolate_gaps(local_points)
    frames = np.array(sorted(dense), dtype=int)
    n = len(frames)
    speeds = raw_speed(dense, cfg.fps)
    seq = np.array([speeds[f] for f in frames[1:]])
    smooth_seq = gaussian_smooth(seq, cfg.sigma)
    speed_raw = np.full(n, np.nan)
    speed_smooth = np.full(n, np.nan)
    accel = np.full(n, np.nan)
    speed_raw[1:] = seq
    speed_smooth[1:] = smooth_seq
    if n >= 3:
        with np.errstate(over="ignore", invalid="ignore"):  # as `compute_profile` runs it
            accel[2:] = acceleration(smooth_seq, cfg.fps)
    return KinematicProfile(frames, speed_raw, speed_smooth, accel, np.ones(n, dtype=bool))


def gate_by_visibility(profile: KinematicProfile, visible: set[int]) -> KinematicProfile:
    """Restrict exported values to frames in the visibility set."""
    exported = np.array([f in visible for f in profile.frames], dtype=bool)
    return replace(profile, exported=exported)


def kinematic_profile(
    local_points: Mapping[int, Point2], visible: set[int], cfg: KinematicsConfig
) -> KinematicProfile | None:
    """Speed and acceleration over one trajectory, exported on visible
    frames only; None below two points."""
    if len(local_points) < 2:
        return None
    return gate_by_visibility(compute_profile(local_points, cfg), visible)
