"""Reference-frame to world-coordinate chain and lane lookup.

Each intersection owns one master->orthophoto homography plus two affine
geotransforms (ortho pixels -> local planar meters, ortho pixels ->
WGS84 degrees); each video owns a reference->master homography.
``GeoRegistry.chain`` joins them into one video's ``GeoChain``. Road
section / lane labels come from point-in-polygon lookup on the ortho
cut-out segmentation.

The lane contract (`assign_segment`) and its thresholds:

* A point gets the (section, lane) of the first polygon in document
  order that contains it, or None. A polygon of fewer than 3 vertices
  contains nothing, and no polygon contains a point with a NaN
  coordinate.
* Containment is even-odd (crossing number), and a point within 1e-9 of
  an edge (``EDGE_TOL``) counts as inside. That tolerance is absolute, in
  ortho pixels, so it is not scale-free: on a map drawn in other units it
  is a different distance on the ground.
* ``BOUNDS_MARGIN`` is relative: each lane's bounding box is widened by
  it times (1 + the largest vertex magnitude), which keeps every point
  the polygon test could accept inside the box at any scale. A point
  outside a lane's box skips that lane's polygon test.
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


# Distance in ortho pixels within which a point on a lane's edge counts as
# inside the lane.
EDGE_TOL = 1e-9
_EDGE_TOL2 = EDGE_TOL * EDGE_TOL

# Relative margin by which a lane's bounding box is widened before the
# polygon test: far above both the 1e-9 boundary tolerance and the
# rounding error of the containment arithmetic.
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


def edge_table(polygon: Sequence[Point2]) -> tuple[tuple[float, ...], ...]:
    """Per edge a -> b of the closed polygon, the floats `polygon_contains`
    reads: (a.x, a.y, b.y, b.x - a.x, b.y - a.y, |b - a|^2)."""
    pts = [(float(x), float(y)) for x, y in polygon]
    table = []
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        abx, aby = bx - ax, by - ay
        table.append((ax, ay, by, abx, aby, abx * abx + aby * aby))
    return tuple(table)


def polygon_contains(x: float, y: float, edges: Sequence[tuple[float, ...]]) -> bool:
    """Even-odd containment of (x, y) in the polygon of `edge_table`, with
    points within ``EDGE_TOL`` of an edge counted as inside.

    The crossing count runs first and the boundary test only when it comes
    out even; either order gives the same answer. Each test does the float
    operations of the per-edge loop it replaced (kept as
    ``tests/reference.py::point_in_polygon``) in the same order, so the
    answer is the same bit for bit.
    """
    inside = False
    for ax, ay, by, abx, aby, _ in edges:
        if (ay > y) != (by > y) and x < abx * (y - ay) / aby + ax:
            inside = not inside
    if inside:
        return True
    for ax, ay, _, abx, aby, seg2 in edges:
        apx, apy = x - ax, y - ay
        if seg2 == 0.0:
            if apx * apx + apy * apy <= _EDGE_TOL2:
                return True
            continue
        t = (apx * abx + apy * aby) / seg2
        # min(max(t, 0.0), 1.0), NaN and signed zeros included
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        dx = apx - t * abx
        dy = apy - t * aby
        if dx * dx + dy * dy <= _EDGE_TOL2:
            return True
    return False


@dataclass(frozen=True)
class SegmentationMap:
    lanes: tuple[LanePolygon, ...]

    @cached_property
    def entries(self) -> tuple[tuple, ...]:
        """(xmin, ymin, xmax, ymax, edge table, (section, lane)) of each lane
        in document order, built on first use. A polygon of fewer than 3
        vertices is left out: it contains nothing."""
        return tuple((*lane.bounds, edge_table(lane.polygon), (lane.section, lane.lane))
                     for lane in self.lanes if len(lane.polygon) >= 3)


@dataclass(frozen=True)
class GeoChain:
    """Reference-frame pixels to the world: the video's reference->ortho
    homography, its intersection's two geotransforms (ortho px -> local
    meters, ortho px -> WGS84 degrees) and the optional lane map."""

    ref_to_ortho: Homography
    geo_local: GeoTransform
    geo_wgs: GeoTransform
    segmentation: SegmentationMap | None = None


def assign_segment(
    seg: SegmentationMap, ortho_p: Sequence[float]
) -> Optional[tuple[str, int]]:
    """(section, lane) of the first lane polygon (document order) that
    contains the ortho-pixel point (x, y), or None.

    Only the lanes whose widened bounding box holds the point are tried;
    the others could only answer False.
    """
    x, y = ortho_p
    for xmin, ymin, xmax, ymax, edges, hit in seg.entries:
        if xmin <= x <= xmax and ymin <= y <= ymax and polygon_contains(x, y, edges):
            return hit
    return None
