"""Vehicle length/width estimation from box sequences.

Five steps per vehicle: (1) keep only boxes fully inside the frame
margins, (2) take per-frame length = long side, width = short side,
(3) filter by heading, computed over a growing displacement window on
the stabilized trajectory, against the four image-axis directions
(falling back to a shape-ratio filter when the vehicle never moves),
(4) aggregate with the first quartile, (5) convert pixels to meters by
pushing a frame-centered three-point decomposition through the
reference->ortho homography and the local geotransform.

Raw (un-stabilized) boxes feed every step except the heading angles,
which come from the stabilized centers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptySampleSet, EmptyVisibilitySet
from .geometry import GeoTransform, Homography, Point2, apply_homography, pixel_to_world
from .trackmodel import (
    DEFAULT_VISIBILITY_MARGIN,
    TrackPoint,
    bbox_visible_px,
    denormalize_bbox,
)

# Cardinal heading directions (radians); 2*pi duplicates 0 so that wrapped
# angles near a full turn stay within tolerance of an axis.
CARDINAL_DIRECTIONS = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi)

DEFAULT_RATIO_THRESHOLDS = {0: 1.83, 1: 2.85, 2: 1.7, 3: 1.8}


@dataclass(frozen=True)
class DimConfig:
    visibility_margin: float = DEFAULT_VISIBILITY_MARGIN  # px
    azimuth_tolerance_deg: float = 15.0
    min_travel_m: float = 1.25  # displacement that triggers a heading update
    gsd: float = 0.02725  # ground meters per pixel
    ratio_thresholds: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_RATIO_THRESHOLDS)
    )

    def __post_init__(self):
        if not (self.gsd > 0 and self.min_travel_m > 0):
            raise ValueError("gsd and min_travel_m must be positive")
        if not self.azimuth_tolerance_deg > 0:
            raise ValueError("azimuth_tolerance_deg must be positive")
        if math.isnan(self.visibility_margin):
            raise ValueError("visibility_margin must not be NaN")
        # class id -> threshold, whatever key and number types a config gave
        try:
            thresholds = {int(k): float(v) for k, v in dict(self.ratio_thresholds).items()}
        except (TypeError, ValueError) as exc:
            raise ValueError(f"ratio_thresholds must map class ids to numbers: {exc}") from exc
        object.__setattr__(self, "ratio_thresholds", thresholds)

    @property
    def min_travel_px(self) -> float:
        return self.min_travel_m / self.gsd

    @classmethod
    def strict(cls, **overrides) -> "DimConfig":
        """Profile that only accepts perfectly axis-aligned moving vehicles."""
        base = dict(
            azimuth_tolerance_deg=5.0,
            ratio_thresholds={c: math.inf for c in DEFAULT_RATIO_THRESHOLDS},
        )
        base.update(overrides)
        return cls(**base)


class DimPath(Enum):
    AZIMUTH_FILTERED = "azimuth_filtered"
    RATIO_FILTERED = "ratio_filtered"
    NONE = "none"


@dataclass(frozen=True)
class DimensionEstimate:
    length_px: float
    width_px: float
    length_m: float
    width_m: float
    n_samples: int
    path: DimPath


class DimSamples(NamedTuple):
    frames: np.ndarray  # frame number per sample
    lengths: np.ndarray  # px
    widths: np.ndarray  # px


class AzimuthWindow(NamedTuple):
    theta: float  # radians in [0, 2*pi)
    start: int  # window covers frames [start, end)
    end: int


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
    points: Sequence[TrackPoint],
    visible: set[int],
    frame_size: tuple[int, int],
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
    """Headings over anchor-to-anchor windows of the stabilized trajectory.

    The first anchor is the first visible frame; each subsequent anchor is
    the earliest later frame displaced by at least ``min_travel_px`` from
    the previous one, never beyond the last visible frame. The angle uses
    image coordinates (y down), so it reads as the standard mathematical
    angle of the physical heading, wrapped into [0, 2*pi). Stationary
    vehicles yield an empty list.
    """
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
    samples: DimSamples,
    windows: Sequence[AzimuthWindow],
    tolerance_deg: float,
) -> DimSamples:
    """Keep samples inside windows whose heading is near a cardinal direction.

    Samples outside every window (including the trailing stretch after the
    last anchor) are dropped.
    """
    tol = math.radians(tolerance_deg)
    accepted = [
        w for w in windows
        if min(abs(w.theta - phi) for phi in CARDINAL_DIRECTIONS) <= tol
    ]
    keep = np.zeros(len(samples.frames), dtype=bool)
    for w in accepted:
        keep |= (samples.frames >= w.start) & (samples.frames < w.end)
    return DimSamples(samples.frames[keep], samples.lengths[keep], samples.widths[keep])


def ratio_filter(samples: DimSamples, min_ratio: float) -> DimSamples:
    """Keep samples whose length/width ratio reaches ``min_ratio``.

    Used only when no heading is available; an infinite threshold rejects
    everything, withholding the estimate. Zero-width samples carry no
    shape and are dropped.
    """
    keep = samples.widths > 0.0
    keep[keep] = samples.lengths[keep] / samples.widths[keep] >= min_ratio
    return DimSamples(samples.frames[keep], samples.lengths[keep], samples.widths[keep])


def quartile_dims(lengths: np.ndarray, widths: np.ndarray) -> tuple[float, float]:
    """First quartile of each of two equally long sets (linear
    interpolation between ranks), in one `np.percentile` call."""
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
    """Convert pixel dims to meters via a frame-centered 3-point decomposition."""
    w_img, h_img = frame_size
    p1 = Point2(w_img / 2.0, h_img / 2.0)
    p2 = Point2(w_img / 2.0, (h_img + width_px) / 2.0)
    p3 = Point2((w_img + length_px) / 2.0, h_img / 2.0)
    q1, q2, q3 = (
        pixel_to_world(geo_local, apply_homography(ref_to_ortho, p))
        for p in (p1, p2, p3)
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
    """Run the full five-step estimator for one vehicle.

    ``visible`` holds the frames whose raw box clears the frame margins
    (``visibility_set``). Returns None when no reliable samples survive
    (vehicles never fully visible, moving diagonally throughout, or parked
    with square-ish boxes); absence is a valid outcome.
    """
    if not visible:
        return None
    samples = initial_dims(raw_points, visible, frame_size)
    windows = azimuth_sequence(stab_points, visible, cfg.min_travel_px, frame_size)
    if windows:
        filtered = azimuth_filter(samples, windows, cfg.azimuth_tolerance_deg)
        path = DimPath.AZIMUTH_FILTERED
    else:
        cls = raw_points[0].detection.cls
        min_ratio = cfg.ratio_thresholds.get(cls, math.inf)
        filtered = ratio_filter(samples, min_ratio)
        path = DimPath.RATIO_FILTERED
    if len(filtered.frames) == 0:
        return None
    length_px, width_px = quartile_dims(filtered.lengths, filtered.widths)
    length_m, width_m = dims_to_world(
        length_px, width_px, frame_size, ref_to_ortho, geo_local
    )
    return DimensionEstimate(
        length_px=length_px,
        width_px=width_px,
        length_m=length_m,
        width_m=width_m,
        n_samples=len(filtered.frames),
        path=path,
    )
