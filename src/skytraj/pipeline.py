"""Stage orchestration behind the CLI: per-frame homography estimation,
track filtering/stabilization, georeferencing, per-vehicle dimensions and
kinematics, and the cells of the export rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataio import (
    ACCEL_PLACES,
    DIM_PLACES,
    LOCAL_PLACES,
    ORTHO_PLACES,
    SPEED_PLACES,
    WGS84_PLACES,
    SessionMeta,
    format_column,
    frame_to_timestamp,
    load_correspondences,
    optional_cells,
)
from .dimensions import BoxColumns, CenterColumns, DimConfig, estimate_dimensions, rows_of
from .errors import MissingDistances, MissingHomography, SkytrajError
from .geometry import (
    Z_TOL,
    Homography,
    Point2,
    apply_homography_array,
    pixel_to_world,
    project_array,
)
from .georeference import GeoChain, SegmentationMap, assign_segment
from .kinematics import KinematicsConfig, compute_profile
from .registration import (
    EstimateReport,
    RansacConfig,
    mask_keep_flags,
    ransac_homography,
    snn_filter,
    upscale_homography,
)
from .trackmodel import (
    TrackColumns,
    VideoTracks,
    frame_groups,
    ingest_keep_indices,
    refine_classes,
    stabilize_tracks,
)


@dataclass(frozen=True)
class IngestParams:
    score_min: float = 0.25
    nms_iou: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.score_min < 1.0:
            raise ValueError("score_min must be in (0, 1)")
        if not 0.0 < self.nms_iou < 1.0:
            raise ValueError("nms_iou must be in (0, 1)")


@dataclass(frozen=True)
class StabilizeParams:
    snn_ratio: float | None = None  # None skips the ratio test
    mask_margin: float = 0.15
    downscale: float = 1.0
    ransac: RansacConfig = field(default_factory=RansacConfig)  # seed is set per frame

    def __post_init__(self):
        if self.snn_ratio is not None and not 0.0 < self.snn_ratio <= 1.0:
            raise ValueError("snn_ratio must be in (0, 1]")
        if not self.mask_margin >= 0.0:
            raise ValueError("mask_margin must be >= 0")
        if not 0.0 < self.downscale <= 1.0:
            raise ValueError("downscale must be in (0, 1]")


def ingest_tracks(tracks: VideoTracks, params: IngestParams) -> VideoTracks:
    """Apply the per-frame confidence + NMS filter to tracked points, frame
    by frame, each frame's detections in point order."""
    points = tracks.points
    frames = np.fromiter((p.frame for p in points), dtype=np.int64, count=len(points))
    kept: list[int] = []
    for rows in frame_groups(frames).values():
        rows = rows.tolist()
        dets = [points[i].detection for i in rows]
        kept += [rows[k] for k in ingest_keep_indices(dets, params.score_min, params.nms_iou)]
    return replace(tracks, points=tuple(points[i] for i in sorted(kept)))


def _frame_seed(seed: int, frame: int) -> int:
    ss = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, frame))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def estimate_frame_homographies(
    columns: TrackColumns,
    correspondence_dir,
    params: StabilizeParams,
    seed: int = 0,
) -> tuple[dict[int, Homography], dict[int, EstimateReport]]:
    """Estimate one reference-frame homography per frame that has points.

    Correspondence files are ``<frame>.csv`` inside the directory. The
    frame's own pixel boxes in ``columns`` act as exclusion masks around
    matches' source points; the optional ratio test runs next; estimation
    happens on coordinates scaled by ``downscale`` and the result is lifted
    back. Each frame's report holds the lifted homography and its mean
    error in full-resolution pixels.
    An error in reading or filtering a file names the file and the line.
    """
    corr_dir = Path(correspondence_dir)
    homs: dict[int, Homography] = {}
    reports: dict[int, EstimateReport] = {}
    for frame, rows in frame_groups(columns.frames).items():
        if frame < 2:
            continue
        path = corr_dir / f"{frame}.csv"
        if not path.exists():
            raise MissingHomography(frame)
        loaded = load_correspondences(path)
        kept = mask_keep_flags(loaded.src, columns.boxes_px[rows], params.mask_margin)
        corrs = loaded.select(kept)
        if params.snn_ratio is not None:
            try:
                corrs = snn_filter(corrs, params.snn_ratio)
            except MissingDistances as exc:
                row = int(np.flatnonzero(kept)[exc.row])
                raise MissingDistances(
                    f"{path}: line {loaded.lines[row]}: match lacks descriptor distances"
                ) from exc
        rho = params.downscale
        est_pairs = corrs
        if rho < 1.0:
            est_pairs = corrs.scaled(rho)
        cfg = replace(params.ransac, seed=_frame_seed(seed, frame))
        try:
            report = ransac_homography(est_pairs, cfg)
        except SkytrajError as exc:
            raise SkytrajError(f"frame {frame}: {exc}") from exc
        if rho < 1.0:
            # the symmetric error of the lifted matrix on full-resolution
            # points is that of the estimate divided by rho
            report = replace(report, homography=upscale_homography(report.homography, rho),
                             mean_reproj_error=report.mean_reproj_error / rho)
        homs[frame] = report.homography
        reports[frame] = report
    return homs, reports


# Decimal places of the position columns: ortho x, y, local x, y,
# latitude, longitude.
POSITION_PLACES = (ORTHO_PLACES,) * 2 + (LOCAL_PLACES,) * 2 + (WGS84_PLACES,) * 2


def georeference(
    centers: CenterColumns, geo: GeoChain
) -> tuple[np.ndarray, np.ndarray]:
    """Carry stabilized box ``centers`` (reference-frame pixels) into ortho
    pixels, local meters and WGS84 degrees in one pass.

    Returns the (N, 6) columns ortho x, y, local x, y, latitude, longitude
    (the `POSITION_PLACES` order) and the (N,) flags of the centers at
    projective infinity, whose rows hold no position. `project_array` and
    `pixel_to_world` on arrays do the operations of the per-point maps in
    the same order, so every other row holds the same floats.
    """
    x, y, z = project_array(geo.ref_to_ortho.m, np.column_stack((centers.x, centers.y)))
    ortho = Point2(x, y)
    with np.errstate(invalid="ignore", over="ignore"):
        positions = np.column_stack(
            [x, y, *pixel_to_world(geo.geo_local, ortho), *pixel_to_world(geo.geo_wgs, ortho)]
        )
    return positions, np.abs(z) < Z_TOL


def raise_at_infinity(centers: CenterColumns, row: int, geo: GeoChain) -> None:
    """Raise the DegenerateProjection of a center that `georeference`
    flagged: `apply_homography_array` makes the same z test on it."""
    apply_homography_array(geo.ref_to_ortho, [[centers.x[row], centers.y[row]]])


def lane_columns(positions: np.ndarray, seg: SegmentationMap | None) -> tuple[list, list]:
    """Section and lane cells of each ortho point (columns 0 and 1 of
    `georeference`'s positions); both '' off every lane or without a map."""
    hits = [("", "")] * len(positions)
    if seg is not None:
        hits = [assign_segment(seg, Point2(x, y)) or ("", "")
                for x, y in positions[:, :2].tolist()]
    return [section for section, _ in hits], [str(lane) for _, lane in hits]


def position_columns(positions: np.ndarray) -> list[list[str]]:
    """The ortho, local and WGS84 cell columns of `georeference`'s
    positions, as the export and ``georef`` write them."""
    return [format_column(positions[:, k], places) for k, places in enumerate(POSITION_PLACES)]


def process_vehicle(
    boxes: BoxColumns,
    centers: CenterColumns,
    frame_size: tuple[int, int],
    geo: GeoChain,
    local: np.ndarray,
    dims: DimConfig,
    kinematics: KinematicsConfig,
) -> np.ndarray:
    """Measure and profile one vehicle; returns its (n, 4) per-point
    columns length m, width m, speed km/h and acceleration m/s^2, in frame
    order, NaN where the export cell is empty.

    ``boxes`` and ``centers`` are one vehicle's rows of the session's raw
    boxes and stabilized centers: the same frames, in frame order, with the
    ``visible`` flags that ``stabilize_tracks`` returns; ``local`` holds the
    (n, 2) local-meter positions of the stabilized centers. Speed and
    acceleration run over the whole dense track and are kept on the
    visible rows only; a vehicle of one row has neither.
    """
    estimate = estimate_dimensions(
        boxes, centers, dims, frame_size, geo.ref_to_ortho, geo.geo_local
    )
    frames, shown = boxes.frames, boxes.visible
    columns = np.full((len(frames), 4), np.nan)
    if estimate is not None:
        columns[:, 0] = estimate.length_m
        columns[:, 1] = estimate.width_m
    if len(frames) >= 2:
        # the smoothed speed in km/h and the acceleration of every visible
        # row; frames are unique, so each row has its own dense entry
        profile = compute_profile(frames, local[:, 0], local[:, 1], kinematics)
        at = (frames - frames[0])[shown]
        with np.errstate(over="ignore"):  # as on Python floats
            columns[shown, 2] = profile.speed_smooth[at] * 3.6
        columns[shown, 3] = profile.accel[at]
    return columns


# Vehicles need more than this many points to be exported.
MIN_EXPORT_POINTS = 15


def run_pipeline(
    tracks: VideoTracks,
    homographies: Mapping[int, Homography],
    geo: GeoChain,
    meta: SessionMeta,
    ingest: IngestParams,
    dims_cfg: DimConfig,
    kin_cfg: KinematicsConfig,
) -> list[tuple[str, ...]]:
    """Full chain: ingest filter, class refinement, stabilization,
    georeferencing + lane lookup, dimensions, kinematics. Returns the export
    cells of every vehicle with more than ``MIN_EXPORT_POINTS`` points, in
    (vehicle id, frame) order.

    The session's centers are georeferenced in one pass; a vehicle with a
    center at projective infinity raises before its dimension step, after
    every earlier vehicle's errors. Each export column is formatted once,
    over the exported rows.
    """
    refined = refine_classes(ingest_tracks(tracks, ingest)).columns()
    size = tracks.frame_size
    stabilized, visible = stabilize_tracks(
        refined, size, homographies, visibility_margin=dims_cfg.visibility_margin
    )
    # One row per point, in (track_id, frame) order, so a vehicle's points
    # are one slice of every session column.
    boxes = BoxColumns(refined.frames, refined.boxes_px[:, 2], refined.boxes_px[:, 3], visible,
                       refined.cls)
    centers = CenterColumns(refined.frames, *(stabilized[:, :2] * size).T)
    positions, at_infinity = georeference(centers, geo)
    flagged = np.flatnonzero(at_infinity)
    first_flagged = int(flagged[0]) if len(flagged) else len(positions)
    kept = np.zeros(len(positions), dtype=bool)
    vehicle_columns = [np.zeros((0, 4))]
    for vid, span in refined.id_rows().items():
        try:
            if span.stop > first_flagged:
                raise_at_infinity(centers, first_flagged, geo)
            columns = process_vehicle(rows_of(boxes, span), rows_of(centers, span), size, geo,
                                      positions[span, 2:4], dims_cfg, kin_cfg)
        except SkytrajError as exc:
            raise SkytrajError(f"id {vid}: {exc}") from exc
        if len(columns) > MIN_EXPORT_POINTS:
            kept[span] = True
            vehicle_columns.append(columns)
    sections, lanes = lane_columns(positions, geo.segmentation)

    rows = np.flatnonzero(kept).tolist()
    frames = refined.frames[rows].tolist()
    stamps = {f: frame_to_timestamp(f, meta) for f in sorted(set(frames))}
    vehicle = np.concatenate(vehicle_columns)
    length, width, speed, accel = (
        optional_cells(vehicle[:, k], places)
        for k, places in enumerate((DIM_PLACES, DIM_PLACES, SPEED_PLACES, ACCEL_PLACES))
    )
    return list(zip(
        map(str, refined.ids[rows].tolist()),
        [stamps[f] for f in frames],
        repeat(str(meta.drone_id)),
        *position_columns(positions[rows]),
        length,
        width,
        map(str, refined.cls[rows].tolist()),
        speed,
        accel,
        [sections[i] for i in rows],
        [lanes[i] for i in rows],
        ["1" if v else "0" for v in visible[rows].tolist()],
    ))
