"""Detection/track data model and per-track processing.

A session's detections are one table, a numpy record array with one row
per detection (frame, track id, frame-normalized box, class, score) in
(track_id, frame) order. The ingest filter and the class vote run on it;
every later stage reads the session's `TrackColumns`, with boxes in
pixels. Tracks are immutable; every operation on them returns a new
VideoTracks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple

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


# A row of a detection table. A record array of it gives attribute access
# to a column (``table.score``) and to a row's fields (``table[0].score``).
DETECTION_DTYPE = np.dtype([
    ("frame", np.int64),
    ("track_id", np.int64),
    ("bbox", np.float64, (4,)),  # cx, cy, w, h normalized to frame size
    ("cls", np.int64),
    ("score", np.float64),
])


@dataclass(frozen=True, eq=False)
class VideoTracks:
    frame_width: int
    frame_height: int
    table: np.recarray  # DETECTION_DTYPE rows, sorted by (track_id, frame)

    @property
    def frame_size(self) -> tuple[int, int]:
        return (self.frame_width, self.frame_height)

    @cached_property
    def points(self) -> tuple[TrackPoint, ...]:
        """The rows as `TrackPoint`s, built on first read. No stage of the
        package reads them; they serve callers that inspect detections one
        object at a time."""
        t = self.table
        return tuple(map(
            TrackPoint, t["frame"].tolist(), t["track_id"].tolist(),
            map(Detection, map(tuple, t["bbox"].tolist()), t["cls"].tolist(), t["score"].tolist()),
        ))

    def columns(self) -> TrackColumns:
        """The table as columns, in row order, boxes scaled to pixels."""
        t = self.table
        w_img, h_img = self.frame_size
        return TrackColumns(t["frame"], t["track_id"], t["cls"],
                            t["bbox"] * np.array([w_img, h_img, w_img, h_img], dtype=float))


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


def ingest_keep_indices(dets: np.ndarray, score_min: float, nms_iou: float) -> list[int]:
    """Indices of the rows of the detection table ``dets`` (`DETECTION_DTYPE`)
    surviving the confidence cut and greedy class-agnostic NMS.

    Boxes are visited by descending score (input order on ties); a box is
    dropped when its IoU with an already kept box exceeds ``nms_iou``.
    Returned indices preserve input order.

    The pairs to test come from a sweep (sweep and prune; Cohen et al.,
    I-COLLIDE, 1995): with the boxes sorted by left edge, each box meets
    the later ones whose left edge lies before its right edge. A pair whose
    x-intervals do not overlap has ix <= 0 and passes, so it needs no test;
    a box with a non-finite x edge meets every other box. Each pair's IoU
    is built with the element arithmetic of the pairwise IoU in
    ``tests/reference.py`` (edges cx +- w/2, min/max, inter/union, and the
    same three rules for 0.0), so the survivors equal those of the pairwise
    loop for every box whose edges are not NaN, which holds for any finite
    box, and those of the all-pairs IoU matrix for every box.
    """
    if not 0.0 < score_min < 1.0:
        raise ValueError("score_min must be in (0, 1)")
    if not 0.0 < nms_iou < 1.0:
        raise ValueError("nms_iou must be in (0, 1)")
    score = dets["score"]
    candidates = np.flatnonzero(score >= score_min)
    order = candidates[np.argsort(-score[candidates], kind="stable")]
    n = len(order)
    if n < 2:
        return order.tolist()
    cx, cy, w, h = dets["bbox"][order].T
    with np.errstate(all="ignore"):  # Python floats do not warn either
        xmin, xmax, ymin, ymax = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
        finite = np.isfinite(xmin) & np.isfinite(xmax)
        # Sweep keys: a box with a non-finite x edge spans the whole line.
        lo = np.where(finite, xmin, -np.inf)
        by_lo = np.argsort(lo, kind="stable")
        lo = lo[by_lo]
        hi = np.where(finite, xmax, np.inf)[by_lo]
        # Sorted position p meets positions p + 1 .. searchsorted(lo, hi[p]) - 1:
        # the later boxes whose left edge lies before its right edge.
        after = np.arange(1, n + 1)
        meets = np.maximum(np.searchsorted(lo, hi) - after, 0)
        q = np.arange(meets.sum()) + np.repeat(after - (np.cumsum(meets) - meets), meets)
        a, b = by_lo[np.repeat(after - 1, meets)], by_lo[q]
        k, l = np.minimum(a, b), np.maximum(a, b)
        ix = np.minimum(xmax[k], xmax[l]) - np.maximum(xmin[k], xmin[l])
        iy = np.minimum(ymax[k], ymax[l]) - np.maximum(ymin[k], ymin[l])
        inter = ix * iy
        area = w * h
        union = area[k] + area[l] - inter
        fails = ~((ix <= 0.0) | (iy <= 0.0) | (union <= 0.0) | (inter / union <= nms_iou))
    # Pairs (k, l), k < l in visiting order, where k would drop l; row-major,
    # so k's own fate is settled before its pairs come up.
    k, l = k[fails], l[fails]
    row_major = np.lexsort((l, k))
    dropped: set[int] = set()
    for i, j in zip(k[row_major].tolist(), l[row_major].tolist()):
        if i not in dropped:
            dropped.add(j)
    return np.sort(np.delete(order, list(dropped))).tolist()


def refine_classes(tracks: VideoTracks) -> VideoTracks:
    """Give every point of a track the class with the largest score mass.

    For each id the winning class maximizes the sum of confidence scores
    over the frames where the id carried that class; ties go to the
    lowest class index. Scores and geometry are untouched.

    Each (id, class) pair's mass is a sum over the rows in table order,
    one row at a time (``np.add.at``), so it is the float sum a loop over
    the rows gives.
    """
    table = tracks.table
    ids, cls = table["track_id"], table["cls"]
    # The (id, class) pairs and each row's pair, as np.unique(axis=0,
    # return_inverse=True) gives them, at a fifth of its time on 2k rows.
    order = np.lexsort((cls, ids))  # rows by (id, class)
    pair_ids, pair_cls = ids[order], cls[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (pair_ids[1:] != pair_ids[:-1]) | (pair_cls[1:] != pair_cls[:-1])
    pair_of_row = np.empty(len(order), dtype=np.intp)
    pair_of_row[order] = np.cumsum(starts) - 1
    pair_ids, pair_cls = pair_ids[starts], pair_cls[starts]
    mass = np.zeros(len(pair_ids))
    np.add.at(mass, pair_of_row, table["score"])
    # Each id's pairs by descending mass, then ascending class: its first wins.
    ranked = np.lexsort((pair_cls, -mass, pair_ids))
    winner_ids, first = np.unique(pair_ids[ranked], return_index=True)
    refined = table.copy()
    refined["cls"] = pair_cls[ranked[first]][np.searchsorted(winner_ids, ids)]
    return replace(tracks, table=refined)


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
