"""Reference-frame to world-coordinate chain and lane lookup.

Each intersection owns one master->orthophoto homography plus two affine
geotransforms (ortho pixels -> local planar meters, ortho pixels ->
WGS84 degrees); each video owns a reference->master homography.
``GeoRegistry.chain`` joins them into one video's ``GeoChain``. Road
section / lane labels come from point-in-polygon lookup on the ortho
cut-out segmentation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import UnknownIntersection, UnknownVideo
from .geometry import GeoTransform, Homography, Point2, compose


@dataclass(frozen=True)
class IntersectionEntry:
    master_to_ortho: Homography
    geo_local: GeoTransform  # ortho px -> planar meters
    geo_wgs: GeoTransform  # ortho px -> (lat, lon) degrees


@dataclass(frozen=True)
class VideoEntry:
    intersection: str
    ref_to_master: Homography


@dataclass(frozen=True)
class GeoRegistry:
    intersections: Mapping[str, IntersectionEntry]
    videos: Mapping[str, VideoEntry]

    def chain(
        self, video_id: str, segmentation: SegmentationMap | None = None
    ) -> GeoChain:
        """The video's chain: reference frame -> master frame -> orthophoto,
        then its intersection's two geotransforms, plus the lane map."""
        inter = self.intersection_for(video_id)
        ref_to_ortho = compose(inter.master_to_ortho, self.videos[video_id].ref_to_master)
        return GeoChain(ref_to_ortho, inter.geo_local, inter.geo_wgs, segmentation)

    def intersection_for(self, video_id: str) -> IntersectionEntry:
        """The entry of the intersection the video was registered to."""
        try:
            label = self.videos[video_id].intersection
        except KeyError:
            raise UnknownVideo(f"video {video_id!r} not in registry") from None
        try:
            return self.intersections[label]
        except KeyError:
            raise UnknownIntersection(
                f"intersection {label!r} not in registry"
            ) from None


# Relative margin by which a lane's bounding box is widened for the
# prefilter in `assign_segment`: far above both the 1e-9 boundary tolerance
# and the rounding error of the containment arithmetic.
BOUNDS_MARGIN = 1e-6


@dataclass(frozen=True)
class LanePolygon:
    section: str
    lane: int
    polygon: tuple[Point2, ...]

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the vertices, widened by
        ``BOUNDS_MARGIN`` times (1 + the largest vertex magnitude). No point
        outside it is inside the polygon or on its boundary."""
        xs = [p.x for p in self.polygon]
        ys = [p.y for p in self.polygon]
        pad = BOUNDS_MARGIN * (1.0 + max(map(abs, xs + ys), default=0.0))
        return (
            min(xs, default=math.inf) - pad,
            min(ys, default=math.inf) - pad,
            max(xs, default=-math.inf) + pad,
            max(ys, default=-math.inf) + pad,
        )


@dataclass(frozen=True)
class SegmentationMap:
    lanes: tuple[LanePolygon, ...]


@dataclass(frozen=True)
class GeoChain:
    """Reference-frame pixels to the world: the video's reference->ortho
    homography, its intersection's two geotransforms (ortho px -> local
    meters, ortho px -> WGS84 degrees) and the optional lane map."""

    ref_to_ortho: Homography
    geo_local: GeoTransform
    geo_wgs: GeoTransform
    segmentation: SegmentationMap | None = None


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


def assign_segment(
    seg: SegmentationMap, ortho_p: Point2
) -> Optional[tuple[str, int]]:
    """First lane polygon (document order) containing the ortho-pixel point.

    A lane whose widened bounding box misses the point is skipped without
    the polygon test, which could only answer False there.
    """
    x, y = ortho_p
    for lane in seg.lanes:
        xmin, ymin, xmax, ymax = lane.bounds
        if xmin <= x <= xmax and ymin <= y <= ymax and point_in_polygon(ortho_p, lane.polygon):
            return (lane.section, lane.lane)
    return None
