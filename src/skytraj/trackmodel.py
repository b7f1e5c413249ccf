"""Detection/track data model and per-track processing.

Detections are stored frame-normalized (0..1); pixel-space work happens
behind the operations. Tracks are immutable; every operation returns a
new VideoTracks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import MissingHomography
from .geometry import BBox, Homography, transform_boxes

DEFAULT_FPS = Fraction(30000, 1001)
# Pixels a box must keep from every frame edge to count as visible.
DEFAULT_VISIBILITY_MARGIN = 4.0


@dataclass(frozen=True)
class Detection:
    bbox: BBox  # normalized to frame size
    cls: int
    score: float


@dataclass(frozen=True)
class TrackPoint:
    frame: int
    track_id: int
    detection: Detection
    visible: bool = False


@dataclass(frozen=True)
class VideoTracks:
    frame_width: int
    frame_height: int
    points: tuple[TrackPoint, ...]  # sorted by (track_id, frame)

    @property
    def frame_size(self) -> tuple[int, int]:
        return (self.frame_width, self.frame_height)

    def id_rows(self) -> dict[int, slice]:
        """Each track id's run of ``points``, in id order."""
        ids = np.fromiter((p.track_id for p in self.points), dtype=np.int64,
                          count=len(self.points))
        bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
        return {int(ids[a]): slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a}

    def by_frame(self) -> dict[int, list[TrackPoint]]:
        groups: dict[int, list[TrackPoint]] = {}
        for p in self.points:
            groups.setdefault(p.frame, []).append(p)
        return groups


def bbox_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two axis-aligned boxes."""
    ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def ingest_keep_indices(
    dets: Sequence[Detection], score_min: float, nms_iou: float
) -> list[int]:
    """Indices surviving the confidence cut and greedy class-agnostic NMS.

    Boxes are visited by descending score (input order on ties); a box is
    dropped when its IoU with an already kept box exceeds ``nms_iou``.
    Returned indices preserve input order.

    The IoUs of a frame come from one matrix over the candidates, built
    with `bbox_iou`'s element arithmetic (edges cx +- w/2, min/max,
    inter/union, and the same three rules for 0.0), so the survivors equal
    those of calling `bbox_iou` pair by pair for every box whose edges are
    not NaN, which holds for any finite box.
    """
    if not 0.0 < score_min < 1.0:
        raise ValueError("score_min must be in (0, 1)")
    if not 0.0 < nms_iou < 1.0:
        raise ValueError("nms_iou must be in (0, 1)")
    candidates = [i for i, d in enumerate(dets) if d.score >= score_min]
    order = sorted(candidates, key=lambda i: -dets[i].score)
    if len(order) < 2:
        return order
    cx, cy, w, h = np.array(
        [(b.cx, b.cy, b.w, b.h) for b in (dets[i].bbox for i in order)]
    ).T
    with np.errstate(all="ignore"):  # Python floats do not warn either
        xmin, xmax, ymin, ymax = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
        ix = np.minimum(xmax[:, None], xmax) - np.maximum(xmin[:, None], xmin)
        iy = np.minimum(ymax[:, None], ymax) - np.maximum(ymin[:, None], ymin)
        inter = ix * iy
        area = w * h
        union = area[:, None] + area - inter
        passes = (ix <= 0.0) | (iy <= 0.0) | (union <= 0.0) | (inter / union <= nms_iou)
    # Pairs (k, l), k < l in visiting order, where k would drop l; row-major,
    # so k's own fate is settled before its pairs come up.
    first, second = np.nonzero(np.triu(~passes, 1))
    dropped: set[int] = set()
    for k, l in zip(first.tolist(), second.tolist()):
        if k not in dropped:
            dropped.add(l)
    return sorted(i for k, i in enumerate(order) if k not in dropped)


def refine_classes(tracks: VideoTracks) -> VideoTracks:
    """Give every point of a track the class with the largest score mass.

    For each id the winning class maximizes the sum of confidence scores
    over the frames where the id carried that class; ties go to the
    lowest class index. Scores and geometry are untouched.
    """
    sums: dict[int, dict[int, float]] = {}
    for p in tracks.points:
        per_cls = sums.setdefault(p.track_id, {})
        per_cls[p.detection.cls] = per_cls.get(p.detection.cls, 0.0) + p.detection.score

    winner: dict[int, int] = {}
    for tid, per_cls in sums.items():
        best = max(per_cls.values())
        winner[tid] = min(c for c, s in per_cls.items() if s == best)

    new_points = tuple(
        p
        if (d := p.detection).cls == (cls := winner[p.track_id])
        else TrackPoint(p.frame, p.track_id, Detection(d.bbox, cls, d.score), p.visible)
        for p in tracks.points
    )
    return replace(tracks, points=new_points)


def denormalize_bbox(box: BBox, frame_size: tuple[int, int]) -> BBox:
    w_img, h_img = frame_size
    return BBox(box.cx * w_img, box.cy * h_img, box.w * w_img, box.h * h_img)


def pixel_boxes(points: Sequence[TrackPoint], frame_size: tuple[int, int]) -> np.ndarray:
    """The (N, 4) ``cx, cy, w, h`` of the points' boxes in pixels, each
    scaled as `denormalize_bbox` scales it."""
    w_img, h_img = frame_size
    return np.fromiter(
        ((b.cx, b.cy, b.w, b.h) for b in (p.detection.bbox for p in points)),
        dtype=(float, 4), count=len(points),
    ) * np.array([w_img, h_img, w_img, h_img], dtype=float)


def visible_flags(boxes: np.ndarray, frame_size: tuple[int, int], margin: float) -> np.ndarray:
    """Strict interior test of each (un-stabilized) pixel box ``cx, cy, w, h``
    against the frame borders: every edge at more than ``margin`` px inside
    the frame, where the far edges end at ``size - 1``."""
    w_img, h_img = frame_size
    cx, cy, w, h = boxes.T
    with np.errstate(all="ignore"):  # Python floats do not warn either
        return (
            (cx - w / 2 > margin)
            & (cx + w / 2 < w_img - (margin + 1))
            & (cy - h / 2 > margin)
            & (cy + h / 2 < h_img - (margin + 1))
        )


def stabilize_tracks(
    tracks: VideoTracks,
    per_frame_h: Mapping[int, Homography],
    visibility_margin: float = DEFAULT_VISIBILITY_MARGIN,
) -> VideoTracks:
    """Map every box into the reference frame of the video's first frame.

    ``per_frame_h`` must cover every frame >= 2 that carries points; frame 1
    defaults to the identity. Output boxes are re-normalized by the frame
    size (centers may leave [0, 1] when motion exits the reference extent).
    Visibility flags are recomputed on the un-stabilized boxes, since frame
    borders are physical only in the original footage.

    All boxes are mapped in one `transform_boxes` pass, each through its
    frame's matrix. Errors come in point order: a point without a
    homography raises only after every box before it has been mapped.
    """
    identity = Homography.identity()
    frame_size = w_img, h_img = tracks.frame_size
    slot_of: dict[int, int] = {}  # frame -> its index in homs
    homs: list[Homography] = []
    which: list[int] = []
    missing = None
    for p in tracks.points:
        slot = slot_of.get(p.frame)
        if slot is None:
            h = per_frame_h.get(p.frame)
            if h is None:
                if p.frame != 1:
                    missing = MissingHomography(p.frame)
                    break
                h = identity
            slot = slot_of[p.frame] = len(homs)
            homs.append(h)
        which.append(slot)
    points = tracks.points[: len(which)]
    raw = pixel_boxes(points, frame_size)
    boxes = transform_boxes(homs, which, raw) / np.array([w_img, h_img, w_img, h_img], dtype=float)
    if missing is not None:
        raise missing
    return replace(tracks, points=tuple(
        TrackPoint(p.frame, p.track_id, Detection(box, p.detection.cls, p.detection.score), visible)
        for p, box, visible in zip(
            points, map(BBox, *boxes.T.tolist()),
            visible_flags(raw, frame_size, visibility_margin).tolist(),
        )
    ))
