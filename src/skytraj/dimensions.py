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
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptySampleSet, EmptyVisibilitySet
from .geometry import GeoTransform, Homography, Point2, apply_homography_array, pixel_to_world
from .trackmodel import DEFAULT_VISIBILITY_MARGIN

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


class BoxColumns(NamedTuple):
    """Raw boxes of a session or of one vehicle, in (id, frame) order."""

    frames: np.ndarray  # frame numbers
    w: np.ndarray  # box width, px
    h: np.ndarray  # box height, px
    visible: np.ndarray  # bool: the box clears the frame margins
    cls: np.ndarray  # class id


class CenterColumns(NamedTuple):
    """Stabilized box centers of a session or of one vehicle, in (id,
    frame) order."""

    frames: np.ndarray  # frame numbers
    x: np.ndarray  # reference-frame px
    y: np.ndarray  # reference-frame px


def rows_of(columns, rows: slice):
    """The ``rows`` of every column of a `BoxColumns` or `CenterColumns`."""
    return columns._make(c[rows] for c in columns)


def initial_dims(boxes: BoxColumns) -> DimSamples:
    """Instantaneous pixel dims of the visible boxes: length = long box
    side, width = short side."""
    keep = boxes.visible
    if not keep.any():
        raise EmptyVisibilitySet("no fully visible boxes")
    w, h = boxes.w[keep], boxes.h[keep]
    return DimSamples(boxes.frames[keep], np.maximum(w, h), np.minimum(w, h))


def azimuth_sequence(
    centers: CenterColumns, first: int, last: int, min_travel_px: float
) -> list[AzimuthWindow]:
    """Headings over anchor-to-anchor windows of the stabilized trajectory.

    The first anchor is the ``first`` visible frame; each subsequent anchor
    is the earliest later frame displaced by at least ``min_travel_px``
    from the previous one, never beyond the ``last`` visible frame. The
    angle uses image coordinates (y down), so it reads as the standard
    mathematical angle of the physical heading, wrapped into [0, 2*pi).
    Stationary vehicles, and tracks without a center at ``first``, yield
    an empty list. The walk runs on Python floats with `math.hypot` and
    `math.atan2` per step.
    """
    frames = centers.frames.tolist()
    xs = centers.x.tolist()
    ys = centers.y.tolist()
    i = bisect_left(frames, first)
    if i == len(frames) or frames[i] != first:
        return []
    windows: list[AzimuthWindow] = []
    while True:
        ax, ay = xs[i], ys[i]
        nxt = None
        for j in range(i + 1, len(frames)):
            if frames[j] > last:
                break
            if math.hypot(xs[j] - ax, ys[j] - ay) >= min_travel_px:
                nxt = j
                break
        if nxt is None:
            break
        theta = math.atan2(ay - ys[nxt], xs[nxt] - ax)
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
    last anchor) are dropped. The samples are in frame order, so each
    accepted window keeps one run of them.
    """
    tol = math.radians(tolerance_deg)
    frames = samples.frames.tolist()
    keep = np.zeros(len(frames), dtype=bool)
    for w in windows:
        if min(abs(w.theta - phi) for phi in CARDINAL_DIRECTIONS) <= tol:
            keep[bisect_left(frames, w.start):bisect_left(frames, w.end)] = True
    return DimSamples(samples.frames[keep], samples.lengths[keep], samples.widths[keep])


def ratio_filter(samples: DimSamples, min_ratio: float) -> DimSamples:
    """Keep samples whose length/width ratio reaches ``min_ratio``.

    Used only when no heading is available; an infinite threshold rejects
    everything, withholding the estimate. Zero-width samples carry no
    shape and are dropped.
    """
    keep = samples.widths > 0.0
    with np.errstate(over="ignore"):  # a tiny width gives an infinite ratio, kept
        keep[keep] = samples.lengths[keep] / samples.widths[keep] >= min_ratio
    return DimSamples(samples.frames[keep], samples.lengths[keep], samples.widths[keep])


def quartile_dims(lengths: np.ndarray, widths: np.ndarray) -> tuple[float, float]:
    """First quartile of each of two equally long sets of finite values."""
    if len(lengths) == 0 or len(widths) == 0:
        raise EmptySampleSet("no samples to aggregate")
    return first_quartile(lengths.tolist()), first_quartile(widths.tolist())


def first_quartile(values: list[float]) -> float:
    """``np.percentile(values, 25)`` of finite floats, computed exactly as
    numpy's default "linear" method (definition 7 of Hyndman & Fan, "Sample
    Quantiles in Statistical Packages", 1996) on the sorted values.

    The virtual index is ``n * 0.25 + 0.75 - 1``; the value is the `_lerp`
    of the two order statistics around it, by its fractional part. Past the
    last index (n = 1) both neighbours are the last value, and the weight is
    the index minus -1, as numpy takes it.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n * 0.25 + 0.75 - 1
    if index >= n - 1:
        below = -1
        a = b = ordered[-1]
    else:
        below = math.floor(index)
        a, b = ordered[below], ordered[below + 1]
    return _lerp(a, b, index - below)


def _lerp(a: float, b: float, g: float) -> float:
    """numpy's quantile interpolation between ``a`` and ``b`` at weight
    ``g``, anchored at the nearer end."""
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def dims_to_world(
    length_px: float,
    width_px: float,
    frame_size: tuple[int, int],
    ref_to_ortho: Homography,
    geo_local: GeoTransform,
) -> tuple[float, float]:
    """Convert pixel dims to meters via a frame-centered 3-point decomposition."""
    w_img, h_img = frame_size
    pts = [
        (w_img / 2.0, h_img / 2.0),
        (w_img / 2.0, (h_img + width_px) / 2.0),
        ((w_img + length_px) / 2.0, h_img / 2.0),
    ]
    ortho = Point2(*apply_homography_array(ref_to_ortho, pts).T)
    with np.errstate(all="ignore"):  # Python floats do not warn either
        (x1, x2, x3), (y1, y2, y3) = (v.tolist() for v in pixel_to_world(geo_local, ortho))
    length_m = 2.0 * math.hypot(x3 - x1, y3 - y1)
    width_m = 2.0 * math.hypot(x2 - x1, y2 - y1)
    return length_m, width_m


def estimate_dimensions(
    boxes: BoxColumns,
    centers: CenterColumns,
    cfg: DimConfig,
    frame_size: tuple[int, int],
    ref_to_ortho: Homography,
    geo_local: GeoTransform,
) -> Optional[DimensionEstimate]:
    """Run the full five-step estimator for one vehicle.

    ``boxes`` are the vehicle's raw boxes and ``centers`` its stabilized
    centers, each in frame order; the two may hold different frames. The
    heading windows run from the first to the last visible frame. Returns
    None when no reliable samples survive (vehicles never fully visible,
    moving diagonally throughout, or parked with square-ish boxes);
    absence is a valid outcome.
    """
    if not boxes.visible.any():
        return None
    samples = initial_dims(boxes)
    windows = azimuth_sequence(
        centers, int(samples.frames[0]), int(samples.frames[-1]), cfg.min_travel_px
    )
    if windows:
        filtered = azimuth_filter(samples, windows, cfg.azimuth_tolerance_deg)
        path = DimPath.AZIMUTH_FILTERED
    else:
        min_ratio = cfg.ratio_thresholds.get(int(boxes.cls[0]), math.inf)
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
