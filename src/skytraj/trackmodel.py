"""Detection/track data model and per-track processing.

Detections are stored frame-normalized (0..1) as per-point objects up to
class refinement; every later stage reads the session's `TrackColumns`,
with boxes in pixels. Tracks are immutable; every operation on them
returns a new VideoTracks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import MissingHomography
from .geometry import Homography, transform_boxes

DEFAULT_FPS = Fraction(30000, 1001)
# Pixels a box must keep from every frame edge to count as visible.
DEFAULT_VISIBILITY_MARGIN = 4.0


@dataclass(frozen=True)
class Detection:
    bbox: tuple[float, float, float, float]  # cx, cy, w, h normalized to frame size
    cls: int
    score: float


@dataclass(frozen=True)
class TrackPoint:
    frame: int
    track_id: int
    detection: Detection


@dataclass(frozen=True)
class VideoTracks:
    frame_width: int
    frame_height: int
    points: tuple[TrackPoint, ...]  # sorted by (track_id, frame)

    @property
    def frame_size(self) -> tuple[int, int]:
        return (self.frame_width, self.frame_height)

    def columns(self) -> TrackColumns:
        """The points as columns, in point order, boxes scaled to pixels."""
        points = self.points
        n = len(points)
        keys = np.fromiter(((p.frame, p.track_id, p.detection.cls) for p in points),
                           dtype=(np.int64, 3), count=n)
        boxes = np.fromiter((p.detection.bbox for p in points), dtype=(float, 4), count=n)
        w_img, h_img = self.frame_size
        return TrackColumns(keys[:, 0], keys[:, 1], keys[:, 2],
                            boxes * np.array([w_img, h_img, w_img, h_img], dtype=float))


class TrackColumns(NamedTuple):
    """A session's points as columns, in (track_id, frame) order."""

    frames: np.ndarray  # frame numbers
    ids: np.ndarray  # track ids
    cls: np.ndarray  # class ids
    boxes_px: np.ndarray  # (n, 4) cx, cy, w, h in pixels

    def id_rows(self) -> dict[int, slice]:
        """Each track id's run of rows, in id order."""
        return _runs(self.ids)


def _runs(values: np.ndarray) -> dict[int, slice]:
    """Each value's run of the grouped ``values``, in order of appearance."""
    bounds = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist(), len(values)]
    return {int(values[a]): slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a}


def frame_groups(frames: np.ndarray) -> dict[int, np.ndarray]:
    """The rows of each frame number in ``frames``, ascending by frame; a
    frame's rows keep their order."""
    order = np.argsort(frames, kind="stable")
    return {frame: order[rows] for frame, rows in _runs(frames[order]).items()}


def ingest_keep_indices(
    dets: Sequence[Detection], score_min: float, nms_iou: float
) -> list[int]:
    """Indices surviving the confidence cut and greedy class-agnostic NMS.

    Boxes are visited by descending score (input order on ties); a box is
    dropped when its IoU with an already kept box exceeds ``nms_iou``.
    Returned indices preserve input order.

    The IoUs of a frame come from one matrix over the candidates, built
    with the element arithmetic of the pairwise IoU in ``tests/reference.py``
    (edges cx +- w/2, min/max, inter/union, and the same three rules for
    0.0), so the survivors equal those of the pairwise loop for every box
    whose edges are not NaN, which holds for any finite box.
    """
    if not 0.0 < score_min < 1.0:
        raise ValueError("score_min must be in (0, 1)")
    if not 0.0 < nms_iou < 1.0:
        raise ValueError("nms_iou must be in (0, 1)")
    candidates = [i for i, d in enumerate(dets) if d.score >= score_min]
    order = sorted(candidates, key=lambda i: -dets[i].score)
    if len(order) < 2:
        return order
    cx, cy, w, h = np.array([dets[i].bbox for i in order]).T
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
        else TrackPoint(p.frame, p.track_id, Detection(d.bbox, cls, d.score))
        for p in tracks.points
    )
    return replace(tracks, points=new_points)


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
    columns: TrackColumns,
    frame_size: tuple[int, int],
    per_frame_h: Mapping[int, Homography],
    visibility_margin: float = DEFAULT_VISIBILITY_MARGIN,
) -> tuple[np.ndarray, np.ndarray]:
    """Map every box into the reference frame of the video's first frame.

    ``per_frame_h`` must cover every frame >= 2 that carries points; frame 1
    defaults to the identity. Returns the (n, 4) stabilized boxes ``cx, cy,
    w, h`` re-normalized by the frame size (centers may leave [0, 1] when
    motion exits the reference extent) and the (n,) visibility flags, which
    are computed on the un-stabilized boxes, since frame borders are
    physical only in the original footage.

    All boxes are mapped in one `transform_boxes` pass, each through its
    frame's matrix. Errors come in row order: a row without a homography
    raises only after every box before it has been mapped.
    """
    frames, which = np.unique(columns.frames, return_inverse=True)
    frames = frames.tolist()
    missing = [f for f in frames if f != 1 and f not in per_frame_h]
    n = int(np.isin(columns.frames, missing).argmax()) if missing else len(which)
    identity = Homography.identity()
    homs = [per_frame_h.get(f, identity) for f in frames]
    w_img, h_img = frame_size
    boxes = transform_boxes(homs, which[:n], columns.boxes_px[:n]) / np.array(
        [w_img, h_img, w_img, h_img], dtype=float
    )
    if n < len(which):
        raise MissingHomography(int(columns.frames[n]))
    return boxes, visible_flags(columns.boxes_px, frame_size, visibility_margin)
