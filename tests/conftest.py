"""Shared fixture builders for unit, CLI, and acceptance tests."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from skytraj.dimensions import BoxColumns, CenterColumns
from skytraj.errors import SkytrajError
from reference import apply_homography, unfiltered_assign
from skytraj.geometry import GeoTransform, Homography, Point2, pixel_to_world
from skytraj.georeference import GeoChain
from skytraj.trackmodel import (
    DETECTION_DTYPE,
    Detection,
    TrackColumns,
    TrackPoint,
    VideoTracks,
    visible_flags,
)

FRAME_W, FRAME_H = 3840, 2160

GEO_IDENTITY = GeoTransform(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def translation(tx: float, ty: float) -> Homography:
    return Homography.from_matrix([[1, 0, tx], [0, 1, ty], [0, 0, 1]])


def scaling(s: float) -> Homography:
    return Homography.from_matrix([[s, 0, 0], [0, s, 0], [0, 0, 1]])


def rotation(angle_rad: float) -> Homography:
    """Rotation about the origin."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return Homography.from_matrix([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def inverse(h: Homography) -> Homography:
    return Homography.from_matrix(np.linalg.inv(h.m))


# Camera drift of frame k relative to the reference frame, in pixels.
def drift(frame: int) -> tuple[float, float]:
    return (2.0 * (frame - 1), -1.0 * (frame - 1))


def make_point(
    frame: int,
    track_id: int,
    cx_px: float,
    cy_px: float,
    w_px: float,
    h_px: float,
    cls: int = 0,
    score: float = 0.9,
    frame_size=(FRAME_W, FRAME_H),
) -> TrackPoint:
    w_img, h_img = frame_size
    return TrackPoint(
        frame=frame,
        track_id=track_id,
        detection=Detection(
            (cx_px / w_img, cy_px / h_img, w_px / w_img, h_px / h_img), cls, score
        ),
    )


def outcome(fn, *args):
    """The error type and text ``fn`` raises, or the bits of its float
    result (a tuple's items one by one): equal outcomes are equal bit for bit."""
    try:
        value = fn(*args)
    except SkytrajError as exc:
        return type(exc).__name__, str(exc)
    return [float(v).hex() for v in (value if isinstance(value, tuple) else (value,))]


def with_box(p: TrackPoint, box) -> TrackPoint:
    """``p`` with the normalized box ``cx, cy, w, h``."""
    return replace(p, detection=replace(p.detection, bbox=tuple(box)))


def detection_table(items) -> np.recarray:
    """The detection table (`DETECTION_DTYPE` rows) of ``items``, in the
    given order: `TrackPoint`s, or `Detection`s, which take frame and
    track id 0."""
    rows = [(p.frame, p.track_id, p.detection) if isinstance(p, TrackPoint) else (0, 0, p)
            for p in items]
    table = np.recarray(len(rows), dtype=DETECTION_DTYPE)
    table[:] = [(frame, tid, d.bbox, d.cls, d.score) for frame, tid, d in rows]
    return table


def make_tracks(points, frame_size=(FRAME_W, FRAME_H)):
    pts = sorted(points, key=lambda p: (p.track_id, p.frame))
    return VideoTracks(frame_width=frame_size[0], frame_height=frame_size[1],
                       table=detection_table(pts))


def columns_of(points, frame_size=(FRAME_W, FRAME_H)) -> TrackColumns:
    """The `TrackColumns` of ``points``, in the given order."""
    return VideoTracks(*frame_size, detection_table(points)).columns()


def center_columns(points, frame_size=(FRAME_W, FRAME_H)) -> CenterColumns:
    """The pixel box centers of ``points``, in the given order."""
    columns = columns_of(points, frame_size)
    return CenterColumns(columns.frames, columns.boxes_px[:, 0], columns.boxes_px[:, 1])


def dim_columns(
    raw, stab=None, frame_size=(FRAME_W, FRAME_H), visible=None, margin=4.0
) -> tuple[BoxColumns, CenterColumns]:
    """The columns `estimate_dimensions` takes for one vehicle's raw and
    stabilized points (``stab`` defaults to ``raw``): the frames in the set
    ``visible`` are visible, or by default those whose raw box clears
    ``margin``."""
    columns = columns_of(raw, frame_size)
    px = columns.boxes_px
    flags = (visible_flags(px, frame_size, margin) if visible is None
             else np.array([p.frame in visible for p in raw], dtype=bool))
    return (BoxColumns(columns.frames, px[:, 2], px[:, 3], flags, columns.cls),
            center_columns(raw if stab is None else stab, frame_size))


def track_columns(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending frames and the x and y columns of a frame -> Point2 map,
    as `compute_profile` takes them."""
    frames = sorted(points)
    return (np.array(frames, dtype=np.int64), np.array([points[f].x for f in frames], dtype=float),
            np.array([points[f].y for f in frames], dtype=float))


def visible_column(frames, visible) -> np.ndarray:
    """Flags of the ``frames`` that are in the set ``visible``."""
    return np.array([f in visible for f in np.asarray(frames).tolist()], dtype=bool)


class GeoPosition(NamedTuple):
    ortho: Point2  # ortho cut-out pixels
    local: Point2  # planar meters
    wgs: Point2  # (latitude, longitude) degrees
    segment: tuple[str, int] | None  # (section, lane); None off every lane


def georeference_points(stab_points, frame_size, geo: GeoChain) -> list[GeoPosition]:
    """The per-point georeference loop that `pipeline.georeference` replaced,
    kept as its bit-level reference: each stabilized box center into ortho
    px, local meters, WGS84 and its lane, in input order. A center at
    projective infinity raises `reference.apply_homography`'s DegenerateProjection."""
    w_img, h_img = frame_size
    out = []
    for p in stab_points:
        cx, cy, _, _ = p.detection.bbox
        ortho = apply_homography(geo.ref_to_ortho, Point2(cx * w_img, cy * h_img))
        local = pixel_to_world(geo.geo_local, ortho)
        wgs = pixel_to_world(geo.geo_wgs, ortho)
        seg = unfiltered_assign(geo.segmentation, ortho) if geo.segmentation else None
        out.append(GeoPosition(ortho, local, wgs, seg))
    return out


def scenario_points() -> list[TrackPoint]:
    """Deterministic multi-vehicle scenario in raw (drifting camera) pixels.

    Vehicle 1: 20 frames, moves +x by 25 px/frame in the reference frame,
               constant 180x80 box, fully visible -> azimuth-path dims.
    Vehicle 2: 15 frames (excluded by the export length filter).
    Vehicle 3: 18 frames, parked at (1000, 500) ref px, 160x80 box,
               one misclassified frame -> ratio-path dims, zero speed.
    Vehicle 4: 16 frames with score 0.2 -> removed by the ingest filter.
    """
    pts: list[TrackPoint] = []
    for k in range(1, 21):
        dx, dy = drift(k)
        ref_x = 600.0 + 25.0 * (k - 1)
        pts.append(make_point(k, 1, ref_x - dx, 1080.0 - dy, 180.0, 80.0, cls=0))
    for k in range(1, 16):
        dx, dy = drift(k)
        pts.append(
            make_point(k, 2, 3000.0 - dx, (200.0 + 30.0 * k) - dy, 100.0, 60.0, cls=2)
        )
    for k in range(1, 19):
        dx, dy = drift(k)
        cls, score = (2, 0.9) if k == 5 else (0, 0.8)
        pts.append(
            make_point(k, 3, 1000.0 - dx, 500.0 - dy, 160.0, 80.0, cls=cls, score=score)
        )
    for k in range(1, 17):
        dx, dy = drift(k)
        pts.append(
            make_point(k, 4, 2500.0 - dx, 1500.0 - dy, 120.0, 60.0, cls=1, score=0.2)
        )
    return pts


def write_tracks_csv(path: Path, points) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame", "id", "cx", "cy", "w", "h", "class", "score"])
        for p in sorted(points, key=lambda q: (q.track_id, q.frame)):
            writer.writerow(
                [p.frame, p.track_id, *map(repr, p.detection.bbox),
                 p.detection.cls, repr(p.detection.score)]
            )


def write_sidecar(path: Path, n_frames=20) -> None:
    path.write_text(
        f"frame_width: {FRAME_W}\nframe_height: {FRAME_H}\n"
        f"fps: 30000/1001\nn_frames: {n_frames}\n"
    )


def write_homography_log_for_drift(path: Path, frames) -> None:
    from skytraj.dataio import write_homography_log

    write_homography_log(
        {k: translation(*drift(k)) for k in frames}, path
    )


def write_registry(path: Path) -> None:
    path.write_text(
        "# test registry\n"
        "intersection L\n"
        "master_to_ortho 1 0 100 0 1 200 0 0 1\n"
        "geo_local 0.02725 0 0 0.02725 300 400\n"
        "geo_wgs 1e-06 0 0 1e-06 37.38 126.64\n"
        "\n"
        "video L1 L\n"
        "ref_to_master 1 0 50 0 1 -30 0 0 1\n"
    )


def write_segmentation(path: Path) -> None:
    data = [
        {
            "section": "2_1",
            "lane": 1,
            "polygon": [[700, 1200], [1000, 1200], [1000, 1300], [700, 1300]],
        },
        {
            "section": "2_1",
            "lane": 2,
            "polygon": [[1000, 1200], [1800, 1200], [1800, 1300], [1000, 1300]],
        },
    ]
    path.write_text(json.dumps(data))


def build_pipeline_fixture(root: Path) -> dict[str, Path]:
    """Write the full scenario to disk; returns the path map for the CLI."""
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "tracks": root / "tracks.csv",
        "sidecar": root / "video.yaml",
        "homographies": root / "homographies.txt",
        "registry": root / "registry.txt",
        "segmentation": root / "segments.json",
        "output": root / "out.csv",
    }
    write_tracks_csv(paths["tracks"], scenario_points())
    write_sidecar(paths["sidecar"])
    write_homography_log_for_drift(paths["homographies"], range(2, 21))
    write_registry(paths["registry"])
    write_segmentation(paths["segmentation"])
    return paths


def write_correspondence_fixture(root: Path, frames=range(2, 6)):
    """Per-frame grid correspondences with outliers and on-vehicle noise."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(99)
    for k in frames:
        dx, dy = drift(k)
        rows = []
        for gx in range(200, 3700, 320):
            for gy in range(150, 2100, 320):
                rows.append((gx - dx, gy - dy, gx, gy, 0.5, 1.0))
        # corrupted matches on the moving vehicle (inside its raw box)
        veh_cx, veh_cy = 600.0 + 23.0 * (k - 1), 1080.0 + (k - 1)
        for _ in range(6):
            sx = veh_cx + rng.uniform(-80, 80)
            sy = veh_cy + rng.uniform(-35, 35)
            rows.append((sx, sy, sx + rng.uniform(-400, 400), sy + rng.uniform(-400, 400), 0.5, 1.0))
        # gross outliers that also fail the ratio test
        for _ in range(5):
            rows.append((*rng.uniform(0, 3000, 2), *rng.uniform(0, 3000, 2), 0.95, 1.0))
        with open(root / f"{k}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["src_x", "src_y", "dst_x", "dst_y", "d1", "d2"])
            writer.writerows(rows)


PIPELINE_ARGS = [
    "--video-id", "L1",
    "--drone-id", "7",
    "--start-time", "08:00:00.000",
    "--date", "2022-10-04",
    "--intersection", "L",
    "--session", "AM1",
]


@pytest.fixture
def pipeline_fixture(tmp_path):
    return build_pipeline_fixture(tmp_path / "fixture")
